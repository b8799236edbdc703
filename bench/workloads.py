"""The benchmark's workloads.

``dense3-tt10`` runs the jobs of two parts, ``Dense3`` and ``TTSweeps``, in
every pass; ``qtt-signal`` is ``QTTSignal``.  Each workload, and each part,
has three methods, run in three places:

* ``make_inputs`` (set-up, in a short-lived process of its own) generates
  the seeded inputs and writes them as containers with tenkit's own writer;
* ``run_pass`` (in a fresh measuring process) runs one pass of the jobs
  through ``tenkit.cli.main`` and the public tenkit functions, times them,
  and writes every output under its own pass directory;
* ``check_pass`` (in run.py, after the measuring process ended) checks that
  pass's outputs with the numpy-only oracle and with properties the methods
  must have, so the checks cost the measured process no memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import time
from collections import defaultdict
from math import sqrt
from pathlib import Path

import numpy as np

import oracle

# relative agreement between an error the program reports and the oracle's;
# the absolute floor covers errors that are themselves roundoff
AGREE_RTOL, AGREE_ATOL = 1e-6, 1e-14
ORTHO_TOL = 1e-12          # max |U^T U - I| entry of an orthonormal factor
ROUNDOFF = 1e-12           # relative roundoff allowance in exact identities


def query_positions(seed: int, dims, count: int) -> np.ndarray:
    """Seeded 1-based multi-indices, one row per element query."""
    rng = np.random.default_rng([seed, 1])
    return np.stack([rng.integers(1, d + 1, size=count) for d in dims], axis=1)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Pass:
    """One pass of a workload's jobs in the measuring process."""

    def __init__(self, run, directory: Path):
        self.run = run
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.times = defaultdict(list)         # "phase/job" -> seconds per run
        self.reported: dict[str, dict] = {}
        self.extra: dict = {}

    def path(self, name: str) -> str:
        return str(self.dir / name)

    @contextlib.contextmanager
    def timed(self, phase: str, job: str):
        """Time a block as ``phase/job``; traced runs record it as one span."""
        tracer = self.run.tracer
        tracer.recording = self.run.trace
        with tracer.span(f"job.{phase}/{job}"):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.times[f"{phase}/{job}"].append(time.perf_counter() - start)
        tracer.recording = False

    def cli(self, *argv) -> dict | None:
        """Run one CLI command; returns its ``key=value`` report tokens, or
        None after counting a failed operation (any exit code but 0)."""
        self.run.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.run.tk.cli.main(list(argv))
        if code != 0:
            self.run.fail(f"tenkit {shlex.join(argv)} exited {code}: "
                          f"{err.getvalue().strip()}")
            return None
        return dict(tok.split("=", 1) for tok in out.getvalue().split()
                    if "=" in tok)

    def call(self, fn, *args, **kwargs):
        """Run one library operation; None after counting a failure."""
        self.run.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any library error is a failed operation
            self.run.fail(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None

    def query(self, name: str, model, positions) -> None:
        """``tt_element`` lookups; answers, and which lookups raised, are
        saved for the checks."""
        tt_element = self.run.tk.tt_element
        answers = np.zeros(len(positions))
        failed = np.zeros(len(positions), dtype=bool)
        rows = [tuple(int(i) for i in row) for row in positions]
        with self.timed("elements", name):
            for k, row in enumerate(rows):
                try:
                    answers[k] = tt_element(model, row)
                except Exception as exc:  # counted like any failed operation
                    failed[k] = True
                    self.run.fail(f"tt_element{row}: {exc}")
        self.run.attempted += len(rows)
        np.savez(self.dir / f"{name}.elements.npz", answers=answers,
                 failed=failed)

    def record(self) -> dict:
        return {"dir": self.dir.name, "times": dict(self.times),
                "reported": self.reported, "extra": self.extra}


class Checks:
    """Outcome of checking one pass in the parent process."""

    def __init__(self, record: dict, directory: Path):
        self.record = record
        self.dir = directory
        self.problems: list[str] = []
        self.errors: dict[str, float] = {}     # bounded models, for rel_error_max
        self.params = 0
        self.hashes: dict[str, str] = {}
        self.layer_values: dict[str, float] = {}
        self._dense: dict[str, np.ndarray] = {}

    def expect(self, ok, what: str) -> bool:
        if not ok:
            self.problems.append(f"{self.record['dir']}: {what}")
        return bool(ok)

    def agree(self, oracle_value: float, report: dict, what: str) -> None:
        """The ``rel_error`` in a successful operation's report matches the
        oracle's."""
        if not self.expect("rel_error" in report, f"{what}: no rel_error reported"):
            return
        reported = float(report["rel_error"])
        self.expect(abs(oracle_value - reported) <=
                    AGREE_RTOL * max(oracle_value, reported) + AGREE_ATOL,
                    f"{what}: program reports rel_error {reported!r}, oracle "
                    f"computes {oracle_value!r}")

    def stored(self, con, report: dict, what: str) -> None:
        """The ``params`` in a successful operation's report equal the
        scalars the container stores."""
        if self.expect("params" in report, f"{what}: no params reported"):
            self.expect(int(report["params"]) == con.params,
                        f"{what}: params {report['params']} != "
                        f"{con.params} stored scalars")

    def container(self, name: str):
        """Oracle view of a model file.  None if the job that writes it
        failed (it is counted as failed), or if the file is absent, which is
        a problem."""
        if not self.record["reported"].get(name):
            return None
        path = self.dir / name
        if not self.expect(path.is_file(), f"{name} was not written"):
            return None
        self.hashes[name] = sha256(path)
        c = oracle.load(path)
        self.params += c.params
        self._dense[name] = oracle.densify(c)
        return c

    def dense(self, name: str) -> np.ndarray:
        return self._dense[name]

    def elements(self, name: str, positions, truth: np.ndarray, tol: float) -> None:
        """Every lookup that did not raise is within ``tol`` of ``truth``; a
        NaN or infinite answer fails."""
        path = self.dir / f"{name}.elements.npz"
        if not path.is_file():   # the lookups' model could not be read: counted failed
            return
        saved = np.load(path)
        ok = ~saved["failed"]
        expected = truth[tuple((positions[ok] - 1).T)]
        worst = float(np.max(np.abs(saved["answers"][ok] - expected), initial=0.0))
        self.expect(worst <= tol, f"{name}: tt_element off by {worst:.3e} "
                                  f"(allowed {tol:.3e})")


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def bond_spectra(cores) -> list[np.ndarray]:
    """Singular values of every bond unfolding of the tensor train ``cores``
    (shapes (r, i, r')): right-orthogonalise, then split left to right."""
    cores = [np.array(c) for c in cores]
    for k in range(len(cores) - 1, 0, -1):
        a, i, b = cores[k].shape
        q, r = np.linalg.qr(cores[k].reshape(a, i * b).T)
        cores[k] = q.T.reshape(-1, i, b)
        cores[k - 1] = np.tensordot(cores[k - 1], r.T, axes=(2, 0))
    spectra = []
    for k in range(len(cores) - 1):
        a, i, b = cores[k].shape
        _, s, vt = np.linalg.svd(cores[k].reshape(a * i, b), full_matrices=False)
        spectra.append(s)
        cores[k + 1] = np.tensordot(s[:, None] * vt, cores[k + 1], axes=(1, 0))
    return spectra


class Dense3:
    """128^3 CP-rank-4 tensor plus Gaussian noise at relative level 1e-4.

    Factor SVDs, mode-n products, the CP-ALS fit evaluation and container
    I/O dominate; no TT sweep runs.  CP runs through the library with SVD
    initialisation and a fixed sweep count: the CLI's random start settles in
    a spurious stationary point (relative error about 0.45) on about one seed
    in six, which would make both its time and its check depend on the seed.
    """

    name = "dense3"
    DIM, RANK, NOISE = 128, 4, 1e-4
    TT_EPS = 1e-3
    CP_SWEEPS = 10
    CP_SLACK = 1e-3          # CP error may exceed the noise ratio by this share
    # reconstruct jobs are short: runs per pass, so their medians get more
    # samples
    RECONSTRUCT_REPEATS = 3
    QUERIES = 20000
    CLI_JOBS = {"tucker.tkm": ["--format", "tucker", "--rank", "4,4,4"],
                "tucker_blocks.tkm": ["--format", "tucker", "--rank", "4,4,4",
                                      "--blocks", "2,2,2"],
                "tt.ttm": ["--format", "tt", "--eps", str(TT_EPS)],
                "cp.cpm": None,
                "fstd.tkm": ["--format", "fstd", "--rank", "4,4,4"]}
    INPUTS = ("x.dten",)

    @classmethod
    def make_inputs(cls, tk, seed: int, wd: Path) -> dict:
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((cls.DIM, cls.RANK)) for _ in range(3)]
        clean = np.einsum("ir,jr,kr->ijk", *factors)
        noise = rng.standard_normal(clean.shape)
        noise *= cls.NOISE * np.linalg.norm(clean) / np.linalg.norm(noise)
        x = clean + noise
        tk.io.write_dense(wd / "x.dten", tk.DenseTensor.from_array(x))
        return {"noise_ratio": float(np.linalg.norm(noise) / np.linalg.norm(x))}

    def __init__(self, tk, meta: dict, seed: int, wd: Path):
        self.tk, self.meta, self.seed, self.wd = tk, meta, seed, wd
        self.x = str(wd / "x.dten")
        self.positions = query_positions(seed, (self.DIM,) * 3, self.QUERIES)

    def run_pass(self, p: Pass) -> None:
        tk = p.run.tk
        det = ["--seed", str(self.seed), "--deterministic"]
        for name, flags in self.CLI_JOBS.items():
            with p.timed("compress", name):
                if flags is None:
                    p.reported[name] = self._cp(p, p.path(name))
                else:
                    p.reported[name] = p.cli("decompose", self.x, *flags, *det,
                                             "--output", p.path(name))
        for name in self.CLI_JOBS:
            for _ in range(self.RECONSTRUCT_REPEATS):
                with p.timed("reconstruct", name):
                    rep = p.cli("reconstruct", p.path(name), "--output",
                                p.path("rec.dten"), "--against", self.x)
            p.reported[f"{name}:reconstruct"] = rep
        for name in self.CLI_JOBS:
            with p.timed("info", name):
                p.reported[f"{name}:info"] = p.cli("info", p.path(name))
        model = p.call(lambda: tk.io.read_tt(p.path("tt.ttm"))[0])
        if model is not None:
            p.query("tt.ttm", model, self.positions)

    def _cp(self, p: Pass, out: str) -> dict | None:
        tk = p.run.tk

        def job():
            t = tk.io.read_dense(self.x)
            model, diag = tk.cp_als(t, self.RANK, seed=self.seed, init="svd",
                                    max_iters=self.CP_SWEEPS, tol=0.0)
            tk.io.write_cp(out, model)
            return {"rel_error": 1.0 - diag.fit_history[-1],
                    "params": tk.model_storage(model)}

        return p.call(job)

    def check_pass(self, c: Checks, inputs: dict) -> None:
        x = inputs["x.dten"]
        rep = c.record["reported"]
        rho = self.meta["noise_ratio"]
        for name in self.CLI_JOBS:
            con = c.container(name)
            if con is None:
                continue
            err = rel_error(c.dense(name), x)
            if name == "fstd.tkm":
                # FSTD has no error bound: its noise amplification depends on
                # the sampled fibers, so it is reported per layer only
                c.layer_values["cur.fstd.rel_error"] = err
            else:
                c.errors[name] = err
            for key in (name, f"{name}:reconstruct"):
                if rep.get(key):
                    c.agree(err, rep[key], key)
            for key in (name, f"{name}:info"):
                if rep.get(key):
                    c.stored(con, rep[key], key)
            if name.startswith("tucker"):
                # the noise-free truth is a feasible rank-(4,4,4) point and
                # HOSVD is within sqrt(N) of the best one
                c.expect(err <= sqrt(3) * rho * (1 + ROUNDOFF),
                         f"{name}: error {err:.4e} > sqrt(3) x noise {rho:.4e}")
                for n, u in enumerate(con.parts[1:], 1):
                    dev = np.max(np.abs(u.T @ u - np.eye(u.shape[1])))
                    c.expect(dev <= ORTHO_TOL, f"{name}: factor {n} not "
                                               f"orthonormal ({dev:.2e})")
        if "tt.ttm" in c.errors:
            c.expect(c.errors["tt.ttm"] <= self.TT_EPS,
                     f"tt error {c.errors['tt.ttm']:.3e} > eps {self.TT_EPS}")
            d = c.dense("tt.ttm")
            c.elements("tt.ttm", self.positions, d,
                       ROUNDOFF * float(np.linalg.norm(d)))
        if "cp.cpm" in c.errors:
            c.expect(c.errors["cp.cpm"] <= rho * (1 + self.CP_SLACK),
                     f"CP error {c.errors['cp.cpm']:.4e} > noise {rho:.4e}")
        if "tucker.tkm" in c.errors and "tucker_blocks.tkm" in c.errors:
            a = oracle.load(c.dir / "tucker.tkm").parts
            b = oracle.load(c.dir / "tucker_blocks.tkm").parts
            dev = rel_error(b[0], a[0])
            c.expect(dev <= ROUNDOFF, f"blocked Tucker core differs by {dev:.2e}")
            dev = max(np.max(np.abs(u - v)) for u, v in zip(a[1:], b[1:]))
            c.expect(dev <= ROUNDOFF, f"blocked Tucker factors differ by {dev:.2e}")


class TTSweeps:
    """Order-10 tensor, 4^10 entries: a random rank-6 TT plus 1e-3 noise.

    One-site and two-site sweep contractions, QR steps and per-half-sweep
    residuals dominate; SVDs, CP and Tucker do almost nothing.  ALS runs a
    fixed number of sweeps so every seed does the same work.
    """

    name = "tt-sweeps"
    SITES, MODE, RANK, NOISE = 10, 4, 6, 1e-3
    MIN_SIGMA = 2e-2          # smallest bond singular value / norm of the input
    EPS = 1e-2
    ALS_SWEEPS = 3
    RECONSTRUCT_REPEATS = 3
    QUERIES = 10000
    MODELS = ("svd.ttm", "als.ttm", "mals.ttm", "round.ttm")
    INPUTS = ("tt10.dten",)

    @classmethod
    def chain(cls) -> list[int]:
        n, i, r = cls.SITES, cls.MODE, cls.RANK
        return [1] + [min(r, i ** k, i ** (n - k)) for k in range(1, n)] + [1]

    @classmethod
    def make_inputs(cls, tk, seed: int, wd: Path) -> dict:
        rng = np.random.default_rng(seed)
        chain = cls.chain()
        while True:
            cores = [rng.standard_normal((chain[k], cls.MODE, chain[k + 1]))
                     for k in range(cls.SITES)]
            # redraw until every bond's smallest singular value stays well
            # above the truncation level, so that TT-SVD and MALS keep the
            # true ranks on every seed and their work and error do not vary
            spectra = bond_spectra(cores)
            if min(s[-1] / np.linalg.norm(s) for s in spectra) >= cls.MIN_SIGMA:
                break
        arr = np.ones((1, 1))
        for core in cores:
            arr = np.tensordot(arr, core, axes=(arr.ndim - 1, 0))
        clean = arr.reshape((cls.MODE,) * cls.SITES)
        noise = rng.standard_normal(clean.shape)
        noise *= cls.NOISE * np.linalg.norm(clean) / np.linalg.norm(noise)
        tk.io.write_dense(wd / "tt10.dten", tk.DenseTensor.from_array(clean + noise))
        return {}

    def __init__(self, tk, meta: dict, seed: int, wd: Path):
        self.tk, self.seed, self.wd = tk, seed, wd
        self.x = str(wd / "tt10.dten")
        self.positions = query_positions(seed, (self.MODE,) * self.SITES,
                                         self.QUERIES)

    @staticmethod
    def tt_sum(a, b) -> list[np.ndarray]:
        """Cores of the TT sum a + b (block-diagonal interior cores)."""
        cores = []
        last = len(a.cores) - 1
        for k, (x, y) in enumerate(zip(a.cores, b.cores)):
            if k == 0:
                cores.append(np.concatenate([x, y], axis=2))
            elif k == last:
                cores.append(np.concatenate([x, y], axis=0))
            else:
                z = np.zeros((x.shape[0] + y.shape[0], x.shape[1],
                              x.shape[2] + y.shape[2]))
                z[:x.shape[0], :, :x.shape[2]] = x
                z[x.shape[0]:, :, x.shape[2]:] = y
                cores.append(z)
        return cores

    def run_pass(self, p: Pass) -> None:
        tk = p.run.tk
        with p.timed("compress", "read"):
            t = p.call(tk.io.read_dense, self.x)
        if t is None:
            return
        fits = {"svd.ttm": lambda: tk.tt_svd(t, eps=self.EPS),
                "als.ttm": lambda: tk.tt_als(t, self.chain()[1:-1], seed=self.seed,
                                             max_sweeps=self.ALS_SWEEPS, tol=0.0),
                "mals.ttm": lambda: tk.tt_mals(t, self.EPS, seed=self.seed)}

        def written(name, fit):
            model = fit()
            tk.io.write_tt(p.path(name), model)
            return model

        models = {}
        for name, fit in fits.items():
            with p.timed("compress", name):
                models[name] = p.call(written, name, fit)
        if models["svd.ttm"] is not None:
            total = p.call(lambda: tk.TTModel(
                self.tt_sum(models["svd.ttm"], models["svd.ttm"])))
            if total is not None:
                p.extra["sum_ranks"] = list(total.ranks)
                with p.timed("compress", "round.ttm"):
                    models["round.ttm"] = p.call(
                        written, "round.ttm",
                        lambda: tk.tt_round(total, eps=self.EPS))
        p.extra["half_sweeps"] = sum(
            len(models[k].meta["residual_history"])
            for k in ("als.ttm", "mals.ttm") if models[k] is not None)
        if models["als.ttm"] is not None:
            p.extra["als_history"] = models["als.ttm"].meta["residual_history"]
        for name, model in models.items():
            if model is None:
                continue
            p.reported[name] = {"params": tk.model_storage(model)}
            # the rounded model approximates the sum of the fit with itself
            scale = 2.0 if name == "round.ttm" else 1.0
            for _ in range(self.RECONSTRUCT_REPEATS):
                with p.timed("reconstruct", name):
                    back = p.call(lambda: tk.tt_reconstruct(
                        tk.io.read_tt(p.path(name))[0]))
                    if back is not None:
                        p.reported[f"{name}:reconstruct"] = {"rel_error": float(
                            np.linalg.norm(back.data - scale * t.data)
                            / (scale * np.linalg.norm(t.data)))}
        model = p.call(lambda: tk.io.read_tt(p.path("svd.ttm"))[0])
        if model is not None:
            p.query("svd.ttm", model, self.positions)

    def check_pass(self, c: Checks, inputs: dict) -> None:
        x = inputs["tt10.dten"]
        rep, extra = c.record["reported"], c.record["extra"]
        cons = {name: c.container(name) for name in self.MODELS}
        for name, con in cons.items():
            if con is None:
                continue
            target = 2.0 * x if name == "round.ttm" else x
            err = rel_error(c.dense(name), target)
            c.errors[name] = err
            if rep.get(name):
                c.stored(con, rep[name], name)
            if rep.get(f"{name}:reconstruct"):
                c.agree(err, rep[f"{name}:reconstruct"], f"{name}:reconstruct")
        for name in ("svd.ttm", "mals.ttm"):
            if name in c.errors:
                c.expect(c.errors[name] <= self.EPS,
                         f"{name}: error {c.errors[name]:.3e} > eps {self.EPS}")
        if cons["als.ttm"] is not None:
            hist = extra.get("als_history", [])
            c.expect(all(b <= a * (1 + ROUNDOFF) for a, b in zip(hist, hist[1:])),
                     f"ALS residual history increases: {hist}")
            c.expect(cons["als.ttm"].header["ranks"] == self.chain()[1:-1],
                     f"ALS ranks {cons['als.ttm'].header['ranks']} changed")
        if cons["svd.ttm"] is not None and cons["round.ttm"] is not None:
            before = extra["sum_ranks"]
            after = cons["round.ttm"].header["ranks"]
            fit = cons["svd.ttm"].header["ranks"]
            c.expect(all(a <= b for a, b in zip(after, before)),
                     f"rounding raised ranks {before} -> {after}")
            c.expect(all(a <= b for a, b in zip(after, fit)),
                     f"rounding m + m kept ranks {after} above m's {fit}")
            total = 2.0 * c.dense("svd.ttm")
            change = rel_error(c.dense("round.ttm"), total)
            c.expect(change <= self.EPS,
                     f"rounding changed m + m by {change:.3e} > eps {self.EPS}")
        if cons["svd.ttm"] is not None:
            d = c.dense("svd.ttm")
            c.elements("svd.ttm", self.positions, d,
                       ROUNDOFF * float(np.linalg.norm(d)))


class QTTSignal:
    """Closed-form signals sampled at 2^22 points, with exact QTT rank bounds:
    exp has rank 1, sin and cos rank 2 each and ranks add under sums, a
    cubic has rank at most 4.

    The same TT-SVD as dense3 runs on a 22-site chain of tiny ranks with very
    wide unfoldings and at a tight eps; reads (decompression and element
    queries) run beside the writes.  The seed draws each signal's amplitude
    and the query positions; the signal shapes are fixed, so the truncation
    pattern, and with it the achieved error of rounding, is the same on every
    seed.
    """

    name = "qtt-signal"
    BITS = 22
    EPS, ROUND_EPS = 1e-12, 1e-6
    RECONSTRUCT_REPEATS = 2
    QUERIES = 2000             # per model
    SIGNALS = {
        "exp": (lambda x: np.exp(-2.0 * x), 1),
        "trig": (lambda x: np.sin(30.0 * x + 1.0) + np.cos(17.0 * x), 4),
        "cubic": (lambda x: 1.0 - 0.7 * x + 0.9 * x ** 2 - 0.8 * x ** 3, 4),
    }
    INPUTS = tuple(f"{name}.dten" for name in SIGNALS)

    @classmethod
    def signal(cls, name: str, amplitude: float) -> np.ndarray:
        x = np.arange(2 ** cls.BITS) / 2 ** cls.BITS
        return amplitude * cls.SIGNALS[name][0](x)

    @classmethod
    def make_inputs(cls, tk, seed: int, wd: Path) -> dict:
        rng = np.random.default_rng(seed)
        amplitudes = {}
        for name in cls.SIGNALS:
            amplitudes[name] = float(rng.uniform(0.5, 2.0))
            v = cls.signal(name, amplitudes[name])
            tk.io.write_dense(wd / f"{name}.dten", tk.DenseTensor(v.shape, v))
        return {"amplitudes": amplitudes}

    def __init__(self, tk, meta: dict, seed: int, wd: Path):
        self.tk, self.meta, self.seed, self.wd = tk, meta, seed, wd
        self.positions = query_positions(seed, (2,) * self.BITS, self.QUERIES)

    def run_pass(self, p: Pass) -> None:
        tk = p.run.tk
        det = ["--seed", str(self.seed), "--deterministic"]
        for name in self.SIGNALS:
            src = str(self.wd / f"{name}.dten")
            with p.timed("compress", f"{name}.ttm"):
                p.reported[f"{name}.ttm"] = p.cli(
                    "decompose", src, "--format", "qtt", "--eps", str(self.EPS),
                    *det, "--output", p.path(f"{name}.ttm"))
            with p.timed("compress", f"{name}.round.ttm"):
                p.reported[f"{name}.round.ttm"] = p.cli(
                    "round", p.path(f"{name}.ttm"), "--eps", str(self.ROUND_EPS),
                    *det, "--output", p.path(f"{name}.round.ttm"))
        for name in self.SIGNALS:
            src = str(self.wd / f"{name}.dten")
            for model in (f"{name}.ttm", f"{name}.round.ttm"):
                for _ in range(self.RECONSTRUCT_REPEATS):
                    with p.timed("reconstruct", model):
                        p.reported[f"{model}:reconstruct"] = p.cli(
                            "reconstruct", p.path(model), "--output",
                            p.path("rec.dten"), "--against", src)
        for name in self.SIGNALS:
            for model in (f"{name}.ttm", f"{name}.round.ttm"):
                m = p.call(lambda: tk.io.read_tt(p.path(model))[0])
                if m is not None:
                    p.query(model, m, self.positions)

    def check_pass(self, c: Checks, inputs: dict) -> None:
        tk = self.tk
        rep = c.record["reported"]
        for name, (_, bound) in self.SIGNALS.items():
            v = self.signal(name, self.meta["amplitudes"][name])
            c.expect(np.array_equal(inputs[f"{name}.dten"], v),
                     f"{name}.dten does not hold the closed-form signal")
            norm_v = float(np.linalg.norm(v))
            full, rounded = f"{name}.ttm", f"{name}.round.ttm"
            cons = {m: c.container(m) for m in (full, rounded)}
            for model, eps in ((full, self.EPS),
                               (rounded, self.ROUND_EPS + self.EPS)):
                con = cons[model]
                if con is None:
                    continue
                err = rel_error(c.dense(model).reshape(-1), v)
                c.errors[model] = err
                c.expect(err <= eps, f"{model}: error {err:.3e} > eps {eps:.1e}")
                if rep.get(f"{model}:reconstruct"):
                    c.agree(err, rep[f"{model}:reconstruct"], f"{model}:reconstruct")
                ranks = con.header["ranks"]
                c.expect(max(ranks) <= bound,
                         f"{model}: ranks {ranks} exceed the exact bound {bound}")
                c.elements(model, self.positions,
                           v.reshape((2,) * self.BITS, order="F"), eps * norm_v)
            if rep.get(full) and cons[full] is not None:
                c.agree(c.errors[full], rep[full], full)
                c.stored(cons[full], rep[full], full)
            if cons[full] is not None and cons[rounded] is not None:
                before, after = cons[full].header["ranks"], cons[rounded].header["ranks"]
                c.expect(all(a <= b for a, b in zip(after, before)),
                         f"{name}: rounding raised ranks {before} -> {after}")
                change = rel_error(c.dense(rounded), c.dense(full))
                c.expect(change <= self.ROUND_EPS,
                         f"{name}: rounding changed the model by {change:.3e}")
                scheme = tk.QuantizationScheme.from_dict(
                    cons[full].header["quantization"])
                t = tk.DenseTensor(v.shape, v)
                back = tk.detensorize(tk.tensorize(t, scheme), scheme)
                c.expect(back.data.tobytes() == v.tobytes(),
                         f"{name}: tensorize/detensorize is not bit-exact")


class DenseTT10:
    """Dense3's and TTSweeps' jobs in every pass, on their own inputs.

    Factor SVDs, mode-n products, CP-ALS fits, Tucker, FSTD and container
    I/O on the 128^3 tensor, beside one- and two-site TT sweeps on the
    order-10 tensor; no QTT runs.  One workload holds both so that each run
    measures longer within the same total time, and so that the sweeps,
    whose memory-bound copies are the work most exposed to a shared host's
    speed drift, are about a quarter of its time, not all of it.
    """

    name = "dense3-tt10"
    PARTS = (Dense3, TTSweeps)
    INPUTS = tuple(name for part in PARTS for name in part.INPUTS)

    @classmethod
    def make_inputs(cls, tk, seed: int, wd: Path) -> dict:
        return {part.name: part.make_inputs(tk, seed, wd) for part in cls.PARTS}

    def __init__(self, tk, meta: dict, seed: int, wd: Path):
        self.parts = [part(tk, meta[part.name], seed, wd) for part in self.PARTS]

    def run_pass(self, p: Pass) -> None:
        for part in self.parts:
            part.run_pass(p)

    def check_pass(self, c: Checks, inputs: dict) -> None:
        for part in self.parts:
            part.check_pass(c, inputs)


WORKLOADS = {w.name: w for w in (DenseTT10, QTTSignal)}
