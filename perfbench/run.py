#!/usr/bin/env python3
"""Runs one workload of the XSDF benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Builds the `xsdf` binary and the benchmark harness (`perfbench/harness`)
from source into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
harness. Its last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}. Build output goes to
standard error.

--smoke runs every workload of BENCHMARK.json in both modes with tiny
sizes and checks each metric's name and unit against BENCHMARK.json and
that every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "xsdf-server", "--bin", "xsdf"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return (os.path.join(target, "release", "perfbench"),
            os.path.join(target, "release", "xsdf"))


def run_harness(binaries, workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs the harness once; returns the parsed result object or None."""
    harness, xsdf = binaries
    cmd = [harness, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--xsdf", xsdf, "--out", os.path.join(HERE, "out")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: {workload} result has the wrong keys", file=sys.stderr)
        return None
    return result


def smoke(binaries):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_harness(binaries, workload, 1, 1, trace, smoke=True, echo=False)
            problems = []
            if result is None:
                problems.append("no result")
            else:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                want = {m["name"]: m["unit"] for m in wanted}
                if got != want:
                    missing = sorted(set(want) - set(got))
                    extra = sorted(set(got) - set(want))
                    units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
                    problems.append(f"metrics differ: missing {missing}, "
                                    f"extra {extra}, wrong unit {units}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"output check: correct {result['correct']}, "
                                    f"attempted {result['attempted']}, failed {result['failed']}")
            ok &= not problems
            print(f"{workload} trace {trace}: {'; '.join(problems) or 'ok'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binaries = build(target)
    if args.smoke:
        return smoke(binaries)
    if not args.workload:
        p.error("--workload is required")
    result = run_harness(binaries, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
