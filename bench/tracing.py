"""Span tracing for the traced benchmark run, installed from outside the
library: nothing under ``src/`` knows about it.

``Tracer.install`` rebinds every public function of each tenkit module, in
every tenkit module that holds a reference to it, to a wrapper that records a
span.  It also wraps ``DenseTensor.from_array`` and swaps each module's ``np``
for a stand-in whose ``linalg.{svd,qr,eigh,pinv,matrix_rank}``, ``einsum``
and ``tensordot`` are wrapped, so numpy calls made by the bench's own code
(the oracle, the checks) are never traced.  Spans are kept in memory while
``recording`` is on and aggregated or written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "io", "dense", "ops", "cpd", "tucker", "cur", "ttrain",
           "quantize", "blockmodels")
LINALG_KERNELS = ("svd", "qr", "eigh", "pinv", "matrix_rank")
NUMPY_KERNELS = ("einsum", "tensordot")


def _array_bytes(args, result) -> int:
    # computed from the argument shapes, not measured
    total = 0
    for a in args:
        if isinstance(a, np.ndarray):
            total += a.nbytes
        elif isinstance(getattr(a, "data", None), np.ndarray):
            total += a.data.nbytes
    return total


def _file_bytes(args, result) -> int:
    try:
        return os.path.getsize(args[0])
    except (IndexError, TypeError, OSError):
        return 0


class _Namespace:
    """Stand-in for a module: the given names are overridden, every other
    attribute is looked up on the module once and cached."""

    def __init__(self, target, overrides: dict):
        self.__dict__["_target"] = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        self.__dict__[name] = value
        return value


class Tracer:
    """In-memory spans of one process; records only while ``recording``."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, bytes]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.recording = False

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, size=_array_bytes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span[4] = size(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one bench-side span around a block, e.g. a whole job."""
        if not self.recording:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def install(self, package) -> None:
        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in MODULES}
        replaced = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                if layer == "io" and name.startswith(("read_", "write_")):
                    label = "io." + name.split("_", 1)[0]
                    replaced[fn] = self.wrap(fn, label, _file_bytes)
                else:
                    replaced[fn] = self.wrap(fn, f"{layer}.{name}")
        for mod in [package, *modules.values()]:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, name, replaced[value])

        dense_cls = modules["dense"].DenseTensor
        from_array = dense_cls.__dict__["from_array"].__func__
        type.__setattr__(dense_cls, "from_array",
                         classmethod(self.wrap(from_array, "dense.from_array")))

        linalg = _Namespace(np.linalg, {
            k: self.wrap(getattr(np.linalg, k), f"linalg.{k}")
            for k in LINALG_KERNELS})
        stand_in = _Namespace(np, {
            "linalg": linalg,
            **{k: self.wrap(getattr(np, k), f"numpy.{k}") for k in NUMPY_KERNELS}})
        for mod in modules.values():
            if getattr(mod, "np", None) is np:
                mod.np = stand_in

    def _self_times(self):
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - child[i]
                for i, (name, start, end, parent, _) in enumerate(spans)]

    def aggregate(self) -> dict:
        """Per span name: summed self seconds, calls and computed bytes.  A
        span nested directly in one of the same name adds no bytes."""
        out = defaultdict(lambda: {"s": 0.0, "calls": 0, "bytes": 0})
        spans = self.spans
        for (name, _, _, parent, nbytes), self_s in zip(spans, self._self_times()):
            entry = out[name]
            entry["s"] += self_s
            entry["calls"] += 1
            if parent < 0 or spans[parent][0] != name:
                entry["bytes"] += nbytes
        return dict(out)

    def by_job(self, prefix: str = "job.") -> dict:
        """Self seconds per (job span, traced name), for spans under a
        bench-side span whose name starts with ``prefix``."""
        spans = self.spans
        job = [None] * len(spans)
        out = defaultdict(lambda: defaultdict(float))
        for i, ((name, _, _, parent, _), self_s) in enumerate(
                zip(spans, self._self_times())):
            if name.startswith(prefix):
                job[i] = name
            elif parent >= 0:
                job[i] = job[parent]
            if job[i] is not None:
                out[job[i]][name] += self_s
        return {k: dict(v) for k, v in out.items()}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, nbytes in self.spans:
                fh.write(json.dumps([name, start, end, parent, nbytes]) + "\n")
