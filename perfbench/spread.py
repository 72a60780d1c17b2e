#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (seeds first-seed, first-seed+1, ...)
with --trace 0 and BENCHMARK.json's run_seconds, then prints for every
end-to-end metric its median, the inter-quartile distance as a share of
the median (statistics.quantiles(values, n=4)), the metric's bound, and
whether the spread is below a third of it.
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
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--also", nargs="*", default=[],
                        help="more metrics to track from the full record")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        if proc.returncode != 0:
            print("seed %d: exit %d" % (seed, proc.returncode))
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        record = json.loads(lines[-2])["metrics"]
        for name in args.also:
            if name in record:
                row[name] = record[name]["value"]
                values.setdefault(name, [])
        print("seed %d: correct=%s failed=%d %s" % (
            seed, result["correct"], result["failed"],
            " ".join("%s=%.4g" % kv for kv in row.items())), flush=True)
        for name in values:
            if name in row:
                values[name].append(row[name])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, v in values.items():
        if len(v) < 2:
            continue
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "bound %.2f %s" % (bound, "ok" if spread < bound / 3 else "WIDE"))
        print("%-20s median %-10.4g spread %6.3f %s" % (
            name, med, spread, verdict))


if __name__ == "__main__":
    main()
