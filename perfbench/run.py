#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
perfbench/ (the pdatalog library straight from src/ plus the measuring
program) into $CARGO_TARGET_DIR, default .bench_build; later calls only
rebuild what changed. The measuring program's full record (every metric,
the environment stamp, validity notes) is printed as one JSON line, and
the last line holds exactly the metrics BENCHMARK.json names: the
end-to-end ones for --trace 0, the per-layer ones for --trace 1.

Extra flags for the self-test: --smoke (tiny inputs) and --corrupt-oracle
(an oracle with one tuple dropped; the run must report a failure).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pdatalog sources under %s/src; run from a full source tree"
             % ROOT, 2)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0].split("=", 1)[1].strip()) \
                != os.path.realpath(HERE):
            shutil.rmtree(build_dir)  # configured for another tree
    if not os.path.isfile(cache):
        step = ["cmake", "-S", HERE, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at %s" % ROOT, 2)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("measurement exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode, proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no record")
    record = json.loads(lines[-1])
    record["detail"]["env.git_commit"] = git_commit()
    print(json.dumps(record, sort_keys=True))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s measured in %s, declared %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
