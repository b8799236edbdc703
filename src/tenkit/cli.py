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
from .blockmodels import hopta_reconstruct, model_storage
from .cpd import CPModel, cp_als, cp_reconstruct
from .cur import fstd
from .dense import DenseTensor, frobenius_norm
from .quantize import QuantizationScheme, qtt_compress, qtt_decompress, \
    storage_complexity
from .tucker import assemble_blocks, core_blockwise, hosvd, \
    partition_matrix_blocks, partition_tensor, tucker_reconstruct, TuckerModel
from .ttrain import TTMatrixModel, TTModel, tt_reconstruct, tt_round, tt_svd, \
    ttm_reconstruct, ttm_svd

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


def _rel_error(t: DenseTensor, rec: DenseTensor) -> float:
    return float(np.linalg.norm(t.data - rec.data) / np.linalg.norm(t.data))


def _seconds(elapsed: float, deterministic: bool) -> str:
    # wall time cannot be bit-reproducible; deterministic mode zeroes it
    return "0.000" if deterministic else f"{elapsed:.3f}"


def _report(fmt: str, dims, ranks, params: int, rel_error: float,
            seconds: str) -> None:
    dims_s = ",".join(str(d) for d in dims)
    ranks_s = ",".join(str(r) for r in ranks)
    print(f"format={fmt} dims={dims_s} ranks={ranks_s} params={params} "
          f"rel_error={rel_error!r} seconds={seconds}")


def _decompose_tucker(t: DenseTensor, ranks, eps, blocks):
    if blocks is None:
        return hosvd(t, ranks=ranks, eps=eps)
    if len(blocks) != t.order:
        raise JobSpecError(f"--blocks needs {t.order} entries")
    model = hosvd(t, ranks=ranks, eps=eps)
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
    t = tio.read_dense(args.input)
    ranks = _int_list(args.rank) if args.rank is not None else None
    if (ranks is None) == (args.eps is None):
        raise JobSpecError("give exactly one of --rank and --eps")
    blocks = _int_list(args.blocks) if args.blocks is not None else None
    started = time.perf_counter()
    fmt = args.format
    failure = None

    if fmt == "cpd":
        if ranks is None or len(ranks) != 1:
            raise JobSpecError("cpd takes a single --rank value")
        model, diag = cp_als(t, ranks[0], max_iters=args.max_iters,
                             tol=args.tol, seed=args.seed,
                             n_starts=args.n_starts)
        rec = cp_reconstruct(model)
        out_ranks = [model.rank]
        tio.write_cp(args.output, model)
        if not diag.converged:
            failure = (f"cpd ALS did not converge within {args.max_iters} "
                       f"sweeps (final fit {diag.fit_history[-1]:.6f})")
    elif fmt == "tucker":
        if ranks is not None and len(ranks) != t.order:
            raise JobSpecError(f"tucker needs {t.order} ranks")
        model = _decompose_tucker(t, ranks, args.eps, blocks)
        rec = tucker_reconstruct(model)
        out_ranks = list(model.ranks)
        tio.write_tucker(args.output, model)
    elif fmt == "fstd":
        if ranks is None:
            raise JobSpecError("fstd takes --rank with per-mode fiber counts")
        if len(ranks) != t.order:
            raise JobSpecError(f"fstd needs {t.order} fiber counts")
        model = fstd(t, counts=ranks)
        rec = model.reconstruct()
        out_ranks = [len(ix) for ix in model.indices]
        tio.write_fstd(args.output, model)
        model = model.tucker
    elif fmt == "tt":
        caps = None
        if ranks is not None:
            caps = ranks[0] if len(ranks) == 1 else ranks
        model = tt_svd(t, eps=args.eps, max_ranks=caps)
        rec = tt_reconstruct(model)
        out_ranks = list(model.ranks)
        tio.write_tt(args.output, model)
    elif fmt == "qtt":
        if args.eps is None:
            raise JobSpecError("qtt requires --eps")
        model, scheme = qtt_compress(t, q=args.q, eps=args.eps)
        rec = qtt_decompress(model, scheme)
        out_ranks = list(model.ranks)
        tio.write_tt(args.output, model, scheme=scheme)
    else:
        raise JobSpecError(f"unknown format {fmt!r}")

    elapsed = time.perf_counter() - started
    _report(fmt, t.dims, out_ranks, model_storage(model),
            _rel_error(t, rec), _seconds(elapsed, args.deterministic))
    if failure is not None:
        print(f"numerical failure: {failure}", file=sys.stderr)
        return 3
    return 0


def _reconstruct_model(path, cap):
    kind = tio.sniff(path)
    if kind == "dten":
        raise JobSpecError(f"{path} is a dense tensor, not a model container")
    if kind == "cpm":
        return cp_reconstruct(tio.read_cp(path))
    if kind == "tkm":
        return tucker_reconstruct(tio.read_tucker(path))
    if kind == "hop":
        return hopta_reconstruct(tio.read_hopta(path))
    model, scheme = tio.read_tt(path)
    if scheme is not None:
        return qtt_decompress(model, scheme, cap=cap)
    if isinstance(model, TTMatrixModel):
        return ttm_reconstruct(model, cap=cap)
    return tt_reconstruct(model, cap=cap)


def cmd_reconstruct(args) -> int:
    _check_distinct(args.model, args.output, args.against)
    rec = _reconstruct_model(args.model, args.cap)
    tio.write_dense(args.output, rec)
    if args.against is not None:
        orig = tio.read_dense(args.against)
        if orig.dims != rec.dims:
            raise JobSpecError(f"--against dims {orig.dims} do not match "
                               f"reconstruction dims {rec.dims}")
        print(f"rel_error={_rel_error(orig, rec)!r}")
    return 0


def cmd_round(args) -> int:
    _check_distinct(args.model, args.output)
    kind = tio.sniff(args.model)
    if kind != "ttm":
        raise JobSpecError(f"{args.model} is not a tensor-train container")
    model, scheme = tio.read_tt(args.model)
    if not isinstance(model, TTModel):
        raise JobSpecError("rounding is defined for TT/MPS models only")
    started = time.perf_counter()
    rounded = tt_round(model, eps=args.eps)
    elapsed = time.perf_counter() - started
    tio.write_tt(args.output, rounded, scheme=scheme)
    before = ",".join(str(r) for r in model.ranks)
    after = ",".join(str(r) for r in rounded.ranks)
    print(f"ranks_before={before} ranks_after={after} "
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
    rng = np.random.default_rng(seed)
    if fmt == "cpd":
        factors = [rng.standard_normal((i, rank)) for _ in range(n)]
        truth = CPModel(np.ones(rank), factors)
        t = cp_reconstruct(truth)
        started = time.perf_counter()
        model, _ = cp_als(t, rank, max_iters=300, tol=1e-12, seed=seed,
                          n_starts=3)
        elapsed = time.perf_counter() - started
        rec = cp_reconstruct(model)
    elif fmt == "tucker":
        core = DenseTensor.from_array(rng.standard_normal((rank,) * n))
        factors = [np.linalg.qr(rng.standard_normal((i, rank)))[0]
                   for _ in range(n)]
        t = tucker_reconstruct(TuckerModel(core, factors))
        started = time.perf_counter()
        model = hosvd(t, ranks=(rank,) * n)
        elapsed = time.perf_counter() - started
        rec = tucker_reconstruct(model)
    elif fmt == "tt":
        t = tt_reconstruct(_random_tt((i,) * n, rank, rng))
        started = time.perf_counter()
        model = tt_svd(t, eps=1e-12)
        elapsed = time.perf_counter() - started
        rec = tt_reconstruct(model)
    elif fmt == "ttm":
        chain = [1] + _clip_chain(rank, (i * i,) * n) + [1]
        cores = [rng.standard_normal((chain[k], i, i, chain[k + 1]))
                 for k in range(n)]
        truth = TTMatrixModel(cores)
        t = ttm_reconstruct(truth)
        started = time.perf_counter()
        model = ttm_svd(t, eps=1e-12)
        elapsed = time.perf_counter() - started
        rec = ttm_reconstruct(model)
    elif fmt == "qtt":
        scheme = QuantizationScheme.uniform((i,) * n, q)
        virtual = scheme.virtual_dims
        flat = tt_reconstruct(_random_tt(virtual, rank, rng))
        t = DenseTensor((i,) * n, flat.data)
        started = time.perf_counter()
        model, scheme = qtt_compress(t, q=q, eps=1e-12)
        elapsed = time.perf_counter() - started
        rec = qtt_decompress(model, scheme)
    else:
        raise JobSpecError(f"unknown bench format {fmt!r}")
    return model, _rel_error(t, rec), elapsed


def cmd_bench(args) -> int:
    dims = _int_list(args.dims)
    if len(set(dims)) != 1:
        raise JobSpecError("bench uses uniform dims; give e.g. --dims 8,8,8")
    n, i = len(dims), dims[0]
    rank = int(args.rank) if args.rank is not None else 2
    rows = []
    for fmt in ("cpd", "tucker", "tt", "ttm", "qtt"):
        model, err, elapsed = _bench_case(fmt, n, i, rank, args.q, args.seed)
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
    kind = tio.sniff(args.path)
    if kind == "dten":
        t = tio.read_dense(args.path)
        print(f"type=dten order={t.order} "
              f"dims={','.join(str(d) for d in t.dims)} "
              f"norm={frobenius_norm(t)!r}")
        return 0
    model = tio.read_model(args.path)
    if kind == "cpm":
        print(f"type=cpm dims={','.join(str(d) for d in model.dims)} "
              f"rank={model.rank} params={model_storage(model)}")
    elif kind == "tkm":
        print(f"type=tkm dims={','.join(str(d) for d in model.dims)} "
              f"ranks={','.join(str(r) for r in model.ranks)} "
              f"params={model_storage(model)}")
    elif kind == "ttm":
        if isinstance(model, TTMatrixModel):
            dims = ",".join(f"{a}x{b}" for a, b in
                            zip(model.row_dims, model.col_dims))
            print(f"type=ttm kind=mpo dims={dims} "
                  f"ranks={','.join(str(r) for r in model.ranks)} "
                  f"params={model_storage(model)}")
        else:
            print(f"type=ttm kind=mps "
                  f"dims={','.join(str(d) for d in model.dims)} "
                  f"ranks={','.join(str(r) for r in model.ranks)} "
                  f"params={model_storage(model)}")
    else:
        print(f"type=hop dims={','.join(str(d) for d in model.dims)} "
              f"params={model_storage(model)}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic", action="store_true",
                   help="fix reduction order and suppress wall-clock output "
                        "for bit-reproducible runs")
    p.add_argument("--threads", type=int, default=1,
                   help="cap on worker threads (execution never exceeds it)")


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
    p.add_argument("--blocks", help="block grid for block-wise Tucker cores")
    p.add_argument("--max-iters", type=int, default=200, dest="max_iters")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--n-starts", type=int, default=1, dest="n_starts")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="densify a model container")
    p.add_argument("model")
    p.add_argument("--output", required=True)
    p.add_argument("--against", help="original .dten to compare with")
    p.add_argument("--cap", type=int, default=2 ** 26)
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
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
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
