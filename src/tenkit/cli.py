"""Batch command-line front end: decompose, reconstruct, round, bench, info.

Exit codes: 0 success, 1 I/O failure, 2 usage or job-spec error, 3 numerical
failure (non-convergence under the requested caps).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from math import prod

import numpy as np

from . import io as tio
from .blockmodels import model_storage, reconstruct
from .cpd import CPModel, cp_als
from .cur import FSTDModel, fstd
from .dense import DenseTensor, _norm, _rel_error, frobenius_norm
from .quantize import QuantizationScheme, qtt_compress, storage_complexity
from .tucker import assemble_blocks, core_blockwise, hosvd, \
    partition_matrix_blocks, partition_tensor, TuckerModel
from .ttrain import DENSE_CAP, TTMatrixModel, TTModel, tt_round, tt_svd, \
    ttm_svd

BENCH_HEADER = ["format", "N", "I", "R", "exact_params", "asymptotic",
                "rel_error", "seconds"]
_FORMATS = ("cpd", "tucker", "fstd", "tt", "qtt")


class JobSpecError(ValueError):
    """Invalid job configuration (exit code 2)."""


class NumericalFailure(RuntimeError):
    """Algorithm failed to meet its caps (exit code 3)."""


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise JobSpecError(f"expected a comma-separated integer list, "
                           f"got {text!r}") from exc


def _require_finite(t: DenseTensor, what: str) -> None:
    """Raise :class:`NumericalFailure` when ``t`` holds a NaN or an inf."""
    # the norm is one pass that allocates nothing, and it is finite whenever
    # every entry is (short of a norm above the double range); entries are
    # counted only when it is not
    if np.isfinite(_norm(t.data)):
        return
    bad = t.size - np.count_nonzero(np.isfinite(t.data))
    if bad:
        raise NumericalFailure(f"{what} holds {bad} non-finite entries")


def _seconds(elapsed: float, deterministic: bool) -> str:
    # wall time cannot be bit-reproducible; deterministic mode zeroes it
    return "0.000" if deterministic else f"{elapsed:.3f}"


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _decompose_tucker(t: DenseTensor, ranks, eps, blocks):
    if blocks is not None and len(blocks) != t.order:
        raise JobSpecError(f"--blocks needs {t.order} entries")
    model = hosvd(t, ranks=ranks, eps=eps)
    if blocks is None:
        return model
    # recompute the core block-wise over the requested grid
    grid = partition_tensor(t, blocks)
    for n in range(1, t.order + 1):
        ut = model.factors[n - 1].T
        ut_blocks = partition_matrix_blocks(ut, blocks[n - 1], 1)
        grid = core_blockwise(grid, ut_blocks, n)
    core = assemble_blocks(grid)
    return TuckerModel(core, model.factors)


def _check_distinct(*paths) -> None:
    given = [str(p) for p in paths if p is not None]
    if len(set(given)) != len(given):
        raise JobSpecError(f"job paths must be distinct, got {given}")


def cmd_decompose(args) -> int:
    _check_distinct(args.input, args.output)
    if args.blocks is not None and args.format != "tucker":
        raise JobSpecError(f"--blocks applies only to --format tucker, "
                           f"not {args.format}")
    t = tio.read_dense(args.input)
    ranks = _int_list(args.rank) if args.rank is not None else None
    if (ranks is None) == (args.eps is None):
        raise JobSpecError("give exactly one of --rank and --eps")
    blocks = _int_list(args.blocks) if args.blocks is not None else None
    _require_finite(t, args.input)
    started = time.perf_counter()
    fmt = args.format
    failure = scheme = None

    if fmt == "cpd":
        if ranks is None or len(ranks) != 1:
            raise JobSpecError("cpd takes a single --rank value")
        model, diag = cp_als(t, ranks[0], max_iters=args.max_iters,
                             tol=args.tol, seed=args.seed,
                             n_starts=args.n_starts)
        if not diag.converged:
            failure = (f"cpd ALS did not converge within {args.max_iters} "
                       f"sweeps (final fit {diag.fit_history[-1]:.6f})")
    elif fmt == "tucker":
        if ranks is not None and len(ranks) != t.order:
            raise JobSpecError(f"tucker needs {t.order} ranks")
        model = _decompose_tucker(t, ranks, args.eps, blocks)
    elif fmt == "fstd":
        if ranks is None:
            raise JobSpecError("fstd takes --rank with per-mode fiber counts")
        if len(ranks) != t.order:
            raise JobSpecError(f"fstd needs {t.order} fiber counts")
        model = fstd(t, counts=ranks)
    elif fmt == "tt":
        caps = None
        if ranks is not None:
            caps = ranks[0] if len(ranks) == 1 else ranks
        model = tt_svd(t, eps=args.eps, max_ranks=caps)
    elif fmt == "qtt":
        if args.eps is None:
            raise JobSpecError("qtt requires --eps")
        model, scheme = qtt_compress(t, q=args.q, eps=args.eps)
    else:
        raise JobSpecError(f"unknown format {fmt!r}")

    rec = reconstruct(model, scheme)
    tio.write_model(args.output, model, scheme)
    elapsed = time.perf_counter() - started
    # FSTD is stored and reported as its Tucker form
    stored = model.tucker if isinstance(model, FSTDModel) else model
    out_ranks = [stored.rank] if isinstance(stored, CPModel) else stored.ranks
    print(f"format={fmt} dims={_join(t.dims)} ranks={_join(out_ranks)} "
          f"params={model_storage(stored)} rel_error={_rel_error(t, rec)!r} "
          f"seconds={_seconds(elapsed, args.deterministic)}")
    if failure is not None:
        print(f"numerical failure: {failure}", file=sys.stderr)
        return 3
    return 0


def cmd_reconstruct(args) -> int:
    _check_distinct(args.model, args.output, args.against)
    model, scheme = tio.read_model(args.model)
    if isinstance(model, DenseTensor):
        raise JobSpecError(f"{args.model} is a dense tensor, not a model "
                           f"container")
    # an overflowing product is numpy's warning; the finiteness check alone
    # decides, so the job exits 3 under -W error too
    with np.errstate(over="ignore", invalid="ignore"):
        rec = reconstruct(model, scheme, cap=args.cap)
    _require_finite(rec, f"the reconstruction of {args.model}")
    if args.against is not None:
        orig = tio.read_dense(args.against)
        if orig.dims != rec.dims:
            raise JobSpecError(f"--against dims {orig.dims} do not match "
                               f"reconstruction dims {rec.dims}")
        _require_finite(orig, args.against)
    tio.write_dense(args.output, rec)
    if args.against is not None:
        print(f"rel_error={_rel_error(orig, rec)!r}")
    return 0


def cmd_round(args) -> int:
    _check_distinct(args.model, args.output)
    model, scheme = tio.read_model(args.model)
    if not isinstance(model, TTModel):
        raise JobSpecError(f"{args.model}: rounding is defined for TT/MPS "
                           f"models only")
    started = time.perf_counter()
    rounded = tt_round(model, eps=args.eps)
    elapsed = time.perf_counter() - started
    tio.write_model(args.output, rounded, scheme)
    print(f"ranks_before={_join(model.ranks)} "
          f"ranks_after={_join(rounded.ranks)} "
          f"seconds={_seconds(elapsed, args.deterministic)}")
    return 0


def _clip_chain(rank: int, dims) -> list[int]:
    n = len(dims)
    chain = []
    for k in range(1, n):
        chain.append(int(min(rank, prod(dims[:k]), prod(dims[k:]))))
    return chain


def _random_tt(dims, rank, rng) -> TTModel:
    chain = [1] + _clip_chain(rank, dims) + [1]
    cores = [rng.standard_normal((chain[k], dims[k], chain[k + 1]))
             for k in range(len(dims))]
    return TTModel(cores)


def _bench_case(fmt: str, n: int, i: int, rank: int, q: int, seed):
    """Seeded truth tensor of format ``fmt``, and the fit that recovers it as
    (model, scheme)."""
    rng = np.random.default_rng(seed)
    if fmt == "cpd":
        factors = [rng.standard_normal((i, rank)) for _ in range(n)]
        t = reconstruct(CPModel(np.ones(rank), factors))
        return t, lambda: (cp_als(t, rank, max_iters=300, tol=1e-12,
                                  seed=seed, n_starts=3)[0], None)
    if fmt == "tucker":
        core = DenseTensor.from_array(rng.standard_normal((rank,) * n))
        factors = [np.linalg.qr(rng.standard_normal((i, rank)))[0]
                   for _ in range(n)]
        t = reconstruct(TuckerModel(core, factors))
        return t, lambda: (hosvd(t, ranks=(rank,) * n), None)
    if fmt == "tt":
        t = reconstruct(_random_tt((i,) * n, rank, rng))
        return t, lambda: (tt_svd(t, eps=1e-12), None)
    if fmt == "ttm":
        chain = [1] + _clip_chain(rank, (i * i,) * n) + [1]
        cores = [rng.standard_normal((chain[k], i, i, chain[k + 1]))
                 for k in range(n)]
        t = reconstruct(TTMatrixModel(cores))
        return t, lambda: (ttm_svd(t, eps=1e-12), None)
    if fmt == "qtt":
        virtual = QuantizationScheme.uniform((i,) * n, q).virtual_dims
        flat = reconstruct(_random_tt(virtual, rank, rng))
        t = DenseTensor((i,) * n, flat.data)
        return t, lambda: qtt_compress(t, q=q, eps=1e-12)
    raise JobSpecError(f"unknown bench format {fmt!r}")


def cmd_bench(args) -> int:
    dims = _int_list(args.dims)
    if len(set(dims)) != 1:
        raise JobSpecError("bench uses uniform dims; give e.g. --dims 8,8,8")
    n, i = len(dims), dims[0]
    rank = int(args.rank) if args.rank is not None else 2
    storage_complexity("qtt", n, i, rank, args.q)  # reject bad I, q before any fit
    rows = []
    for fmt in ("cpd", "tucker", "tt", "ttm", "qtt"):
        t, fit = _bench_case(fmt, n, i, rank, args.q, args.seed)
        started = time.perf_counter()
        model, scheme = fit()
        elapsed = time.perf_counter() - started
        err = _rel_error(t, reconstruct(model, scheme))
        rows.append([fmt, n, i, rank, model_storage(model),
                     storage_complexity(fmt, n, i, rank, args.q),
                     repr(err), _seconds(elapsed, args.deterministic)])
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(BENCH_HEADER)
        writer.writerows(rows)
    finally:
        if args.output:
            out.close()
    return 0


def cmd_info(args) -> int:
    obj, _ = tio.read_model(args.path)
    if isinstance(obj, DenseTensor):
        print(f"type=dten order={obj.order} dims={_join(obj.dims)} "
              f"norm={frobenius_norm(obj)!r}")
        return 0
    if isinstance(obj, CPModel):
        line = f"type=cpm dims={_join(obj.dims)} rank={obj.rank}"
    elif isinstance(obj, TuckerModel):
        line = f"type=tkm dims={_join(obj.dims)} ranks={_join(obj.ranks)}"
    elif isinstance(obj, TTMatrixModel):
        dims = _join(f"{a}x{b}" for a, b in zip(obj.row_dims, obj.col_dims))
        line = f"type=ttm kind=mpo dims={dims} ranks={_join(obj.ranks)}"
    elif isinstance(obj, TTModel):
        line = f"type=ttm kind=mps dims={_join(obj.dims)} " \
               f"ranks={_join(obj.ranks)}"
    else:
        line = f"type=hop dims={_join(obj.dims)}"
    print(f"{line} params={model_storage(obj)}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic", action="store_true",
                   help="print wall-clock seconds as 0.000, so that seeded "
                        "reruns print byte-identical output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenkit",
        description="Tensor-network compression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a .dten tensor")
    p.add_argument("input")
    p.add_argument("--format", required=True, choices=_FORMATS)
    p.add_argument("--output", required=True)
    p.add_argument("--rank", help="comma-separated rank spec")
    p.add_argument("--eps", type=float)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--blocks", help="block grid for block-wise Tucker cores "
                                    "(--format tucker only)")
    p.add_argument("--max-iters", type=int, default=200, dest="max_iters")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--n-starts", type=int, default=1, dest="n_starts")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="densify a model container")
    p.add_argument("model")
    p.add_argument("--output", required=True)
    p.add_argument("--against", help="original .dten to compare with")
    p.add_argument("--cap", type=int, default=DENSE_CAP)
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("round", help="TT-round a .ttm model")
    p.add_argument("model")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("bench", help="storage/accuracy table for all formats")
    p.add_argument("--dims", required=True, help="uniform dims, e.g. 8,8,8")
    p.add_argument("--rank", help="target rank R")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--output", help="CSV path (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("info", help="describe a container file")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError,
            tio.ContainerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        # ahead of ValueError: numpy >= 2.4's LinAlgError subclasses it
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (JobSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
