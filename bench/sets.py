"""Run sets of benchmark runs and compare them.

    python3 bench/sets.py run --seeds 1-10 --out a.json
    python3 bench/sets.py run --seeds 11-20 --out b.json
    python3 bench/sets.py compare a.json b.json

``run`` runs bench/run.py once per workload and seed, each in its own
process, for BENCHMARK.json's ``run_seconds`` and untraced; ``--threads``
sets the BLAS thread count.  It prints one line per run with every
end-to-end metric and the operations attempted and failed, and saves the
results.  ``compare`` prints, for each workload and end-to-end metric, each
set's median and its spread (the distance between the first and third
quartile as a share of the median), and whether the second set's median is
within the bound in BENCHMARK.json of the first's.  The sets agree when both
are correct, their failed shares are equal, every such change is within its
bound and every spread but setup_s's is too.  Run it from the repository
root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 200


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args, spec) -> int:
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, "bench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            if args.threads:
                cmd += ["--threads", str(args.threads)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed={seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed,
                         "wall_s": wall, "result": result})
            shown = " ".join(f"{k}={v['value']:.5g} {v['unit']}"
                             for k, v in result["metrics"].items())
            print(f"{workload:10s} seed={seed:<3d} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={wall:.1f}s {shown}", flush=True)
            if proc.stderr.strip():
                print(proc.stderr.strip(), file=sys.stderr)
    Path(args.out).write_text(json.dumps({"runs": runs}, indent=1))
    return 0


def summarize(runs) -> dict:
    """Per workload: medians, quartile spreads and failed share."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r["result"] for r in runs if r["workload"] == workload]
        metrics = {}
        for name in mine[0]["metrics"]:
            values = [m["metrics"][name]["value"] for m in mine]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (med, med, med)
            metrics[name] = {"median": med,
                             "spread": (q3 - q1) / med if med else 0.0}
        out[workload] = {
            "metrics": metrics, "runs": len(mine),
            "correct": all(m["correct"] for m in mine),
            "failed_share": sorted({m["failed"] / m["attempted"] for m in mine}),
        }
    return out


def cmd_compare(args, spec) -> int:
    sets = [summarize(json.loads(Path(f).read_text())["runs"]) for f in args.files]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    verdict = True
    for workload, first in sets[0].items():
        print(f"{workload}: runs={[s[workload]['runs'] for s in sets]} "
              f"correct={[s[workload]['correct'] for s in sets]} "
              f"failed share={[s[workload]['failed_share'] for s in sets]}")
        verdict &= all(s[workload]["correct"] for s in sets)
        verdict &= first["failed_share"] == sets[1][workload]["failed_share"]
        for name, (bound, better) in bounds.items():
            row = [s[workload]["metrics"][name] for s in sets]
            text = "  ".join(f"median={r['median']:.5g} spread={r['spread']:.3f}"
                             for r in row)
            steady = all(r["spread"] <= bound / 3 for r in row)
            line = f"  {name:15s} bound={bound:<5} {text}"
            if name != "setup_s":
                line += f"  spread<bound/3={'yes' if steady else 'NO'}"
            a, b = row[0]["median"], row[1]["median"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            within = worse <= bound
            verdict &= within
            line += f"  change={worse:+.3f} {'within' if within else 'OUTSIDE'}"
            if name != "setup_s":
                verdict &= all(r["spread"] <= bound for r in row)
            print(line)
    print("agree within bounds" if verdict else "DO NOT agree within bounds")
    return 0 if verdict else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run every workload on each seed")
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, help="BLAS threads per run")
    p = sub.add_parser("compare", help="compare two saved sets")
    p.add_argument("files", nargs=2)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.command == "run":
        return cmd_run(args, spec)
    return cmd_compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
