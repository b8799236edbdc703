"""Child processes of run.py for one workload, each a fresh interpreter with
the BLAS thread count already set in its environment.

``measure.py setup`` generates the inputs and writes the input containers
into --dir, SETUPS times, and writes <dir>/inputs.json: the workload's input
metadata and the seconds each set-up took.  It runs in a process of its own
so that its memory never counts in the measuring process's peak: Linux
carries a process's peak resident memory across execve, and CPython starts
children with vfork, so a child of a process that had generated the inputs
would start from that process's peak.

``measure.py jobs`` runs whole passes for --seconds: a pass starts only if it
should end in time, judged by the longest pass so far, and there are at
least two so that their outputs can be compared byte for byte; pass k writes
its outputs under <dir>/pass-<k>.  With --trace 1 the passes are traced.
Writes <dir>/result.json: the pass records, the operations attempted and
failed, the peak resident memory at the end of the first pass, and in a
traced run the per-layer aggregates per pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import tenkit  # noqa: E402
import tenkit.cli  # noqa: E402,F401
import tenkit.io  # noqa: E402,F401

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Pass  # noqa: E402

MAX_FAILURE_MESSAGES = 20
SETUPS = 3                 # set-up repeats; setup_s is their median


class Run:
    """Operation counts and tracing state shared by every pass."""

    def __init__(self, tracer: Tracer):
        self.tk = tenkit
        self.tracer = tracer
        self.trace = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message)


def setup(args, wd: Path) -> None:
    cls = WORKLOADS[args.workload]
    seconds = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        meta = cls.make_inputs(tenkit, args.seed, wd)
        seconds.append(time.perf_counter() - start)
    (wd / "inputs.json").write_text(json.dumps({"meta": meta,
                                                "setup_s": seconds}))


def jobs(args, wd: Path) -> None:
    meta = json.loads((wd / "inputs.json").read_text())["meta"]
    tracer = Tracer()
    if args.trace:
        tracer.install(tenkit)
    run = Run(tracer)
    run.trace = bool(args.trace)
    workload = WORKLOADS[args.workload](tenkit, meta, args.seed, wd)

    records = []
    longest = 0.0

    def one_pass(k: int) -> None:
        nonlocal longest
        began = time.perf_counter()
        p = Pass(run, wd / f"pass-{k}")
        workload.run_pass(p)
        records.append(p.record())
        longest = max(longest, time.perf_counter() - began)

    start = time.perf_counter()
    one_pass(0)
    # later passes repeat the same jobs; what they add to the peak is heap
    # fragmentation, which varies with the number of passes a run fits
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(records) < 2 or \
            time.perf_counter() - start + longest <= args.seconds:
        one_pass(len(records))

    result = {"records": records, "attempted": run.attempted,
              "failed": run.failed, "failures": run.failures,
              "peak_rss_mb": peak_kib / 1024}
    if args.trace:
        passes = len(records)
        result["layers"] = {name: {k: v / passes for k, v in agg.items()}
                            for name, agg in tracer.aggregate().items()}
        result["jobs"] = {job: {k: v / passes for k, v in names.items()}
                          for job, names in tracer.by_job().items()}
        tracer.dump(wd.parent / f"spans-{args.workload}.jsonl")
    (wd / "result.json").write_text(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "jobs"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    (setup if args.role == "setup" else jobs)(args, Path(args.dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
