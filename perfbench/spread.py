#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs `perfbench/run.py` once per seed on each workload of BENCHMARK.json
(workloads interleaved, so slow spells of the host hit all of them
alike) and prints, per workload and metric, the median of the runs and
the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound. A spread above its bound is flagged; `setup_s` is
exempt, as only its median is compared between commits.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: failed (exit {proc.returncode})", flush=True)
                failures += 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                failures += 1
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: correct {result['correct']}, attempted "
                  f"{result['attempted']}, failed {result['failed']}", flush=True)
    flagged = 0
    for w in workloads:
        print(f"\n{w}")
        for m in spec["end_to_end"]:
            v = values[w].get(m["name"], [])
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            over = spread > m["bound"] and m["name"] != "setup_s"
            flagged += over
            print(f"  {m['name']:16s} median {med:12.4f} {m['unit']:6s} spread {spread:6.3f} "
                  f"bound {m['bound']:.2f} ({spread / m['bound']:.2f} of it)"
                  f"{'  OVER BOUND' if over else ''}")
    return 1 if failures or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
