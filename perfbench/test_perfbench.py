#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

    python3 perfbench/test_perfbench.py

Checks that every workload BENCHMARK.json names runs correctly and reports
exactly its declared metrics with their units (end-to-end untraced,
per-layer traced), that a deliberately wrong oracle (one tuple dropped)
makes the run report a failure, and that run.py refuses to run without
the program's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


class BenchmarkSelfTest(unittest.TestCase):

    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_workload_reports_every_declared_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_result(run(w["name"], 0), SPEC["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check_result(run(w["name"], 1), SPEC["per_layer"])

    def test_wrong_oracle_is_reported_as_failure(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], 0, "--corrupt-oracle")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_refuses_to_run_without_sources(self):
        # Inside the source tree: the benchmark touches nothing outside it.
        bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 SPEC["workloads"][0]["name"], "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
