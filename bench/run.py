"""Benchmark entry point: one workload on one seed.

    python3 bench/run.py --workload dense3-tt10 --seed 1 --seconds 55 --trace 0

Run it from the root of a tenkit checkout.  Two child processes
(bench/measure.py) run with the BLAS thread count fixed in their environment
before numpy loads, since the CLI's ``--threads`` is never applied; it is one
unless --threads says otherwise, so that a run keeps to one CPU.  The
first sets up several times (generates the inputs and writes the input
containers); the median is ``setup_s``.  The second, fresh, runs the jobs;
its peak resident memory over its first pass is ``peak_rss_mb``.  This
process loads numpy only after both have ended, and then checks every
pass's outputs with the numpy-only oracle (bench/oracle.py).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the whole run has to end within 180 s
SETUP_TIMEOUT_S, JOBS_TIMEOUT_S = 30, 120
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the names are repeated here because importing workloads.py loads numpy,
# which must wait until the measuring process has ended
WORKLOAD_NAMES = ("dense3-tt10", "qtt-signal")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads, at most the CPUs this process may "
                             "run on (default: 1)")
    args = parser.parse_args(argv)
    if not 1 <= args.threads <= len(os.sched_getaffinity(0)):
        parser.error("--threads must lie between 1 and the CPUs available")
    return args


def blas_version(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def phase_seconds(records, phase: str) -> float:
    """One pass of a phase: the sum over its jobs of each job's median time
    across all its runs in all passes, so a slow spell on this shared host
    spoils one sample of one job rather than a whole pass."""
    jobs = {k for r in records for k in r["times"] if k.startswith(phase + "/")}
    return sum(statistics.median(t for r in records for t in r["times"].get(k, []))
               for k in jobs)


def end_to_end(setup, records, checks, peak_rss_mb) -> dict:
    med = statistics.median
    return {
        "setup_s": med(setup),
        "compress_s": phase_seconds(records, "compress"),
        "reconstruct_s": phase_seconds(records, "reconstruct"),
        "model_params": med(c.params for c in checks),
        "rel_error_max": med(max(c.errors.values(), default=0.0) for c in checks),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spec, result, records, checks) -> dict:
    med = statistics.median
    derived = {
        "trace.compress_s": phase_seconds(records, "compress"),
        "ttrain.half_sweeps": med(r["extra"].get("half_sweeps", 0) for r in records),
        "cur.fstd.rel_error": med(c.layer_values.get("cur.fstd.rel_error", 0.0)
                                  for c in checks),
    }
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in derived:
            values[name] = derived[name]
        else:
            base, _, field = name.rpartition(".")
            values[name] = result["layers"].get(base, {}).get(field, 0)
    return values


def print_breakdown(jobs: dict, top: int = 6) -> None:
    print("traced self time per job (seconds per pass):")
    for job, names in sorted(jobs.items(), key=lambda kv: -sum(kv[1].values())):
        total = sum(names.values())
        head = sorted(names.items(), key=lambda kv: -kv[1])[:top]
        parts = ", ".join(f"{n} {s:.3f} ({100 * s / total:.0f}%)" for n, s in head)
        print(f"  {job:34s} {total:8.3f}  {parts}")


def child(role: str, args, wd: Path, timeout: int) -> bool:
    """Run ``measure.py <role>``; False, after saying why, if it failed."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "measure.py"),
           role, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(wd)]
    try:
        proc = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: measure.py {role} exceeded {timeout} s", file=sys.stderr)
        return False
    if proc.returncode != 0:
        print(f"error: measure.py {role} exited {proc.returncode}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "tenkit" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("error: run from the root of a tenkit checkout "
              "(needs src/tenkit and BENCHMARK.json)", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(args.threads)
    wd = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    try:
        if not (child("setup", args, wd, SETUP_TIMEOUT_S)
                and child("jobs", args, wd, JOBS_TIMEOUT_S)):
            return 1
        inputs_json = json.loads((wd / "inputs.json").read_text())
        meta, setup = inputs_json["meta"], inputs_json["setup_s"]
        result = json.loads((wd / "result.json").read_text())

        sys.path.insert(0, str(root / "src"))
        import numpy as np
        import tenkit
        import tenkit.io  # noqa: F401

        import oracle
        from workloads import WORKLOADS, Checks

        spec = json.loads(spec_path.read_text())
        cls = WORKLOADS[args.workload]
        workload = cls(tenkit, meta, args.seed, wd)
        inputs = {name: oracle.densify(oracle.load(wd / name))
                  for name in cls.INPUTS}
        checks = []
        for record in result["records"]:
            c = Checks(record, wd / record["dir"])
            workload.check_pass(c, inputs)
            checks.append(c)
        problems = [p for c in checks for p in c.problems]
        # every model is written from seeded, deterministic jobs: each pass
        # must write the same bytes as the first
        for c in checks[1:]:
            for name, digest in c.hashes.items():
                if checks[0].hashes.get(name) != digest:
                    problems.append(f"{c.record['dir']}: {name} differs from "
                                    f"the first pass's bytes")
        records = result["records"]
        if args.trace:
            values = per_layer(spec, result, records, checks)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(setup, records, checks, result["peak_rss_mb"])
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}

        print(f"workload={args.workload} seed={args.seed} "
              f"blas_threads={args.threads} "
              f"nproc={os.cpu_count()} numpy={np.__version__} "
              f"blas={blas_version(np)} passes={len(records)} "
              f"setups={len(setup)}")
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
        print(f"  operations attempted={result['attempted']} "
              f"failed={result['failed']}")
        if args.trace:
            print_breakdown(result["jobs"])
        for line in result["failures"]:
            print(f"failed: {line}", file=sys.stderr)
        for line in problems[:20]:
            print(f"check failed: {line}", file=sys.stderr)
        print(json.dumps({"correct": not problems,
                          "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(wd, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
