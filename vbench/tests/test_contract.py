#!/usr/bin/env python3
"""End-to-end contract test of the benchmark command.

Runs every workload briefly with --trace 0 and --trace 1 through
vbench/run.py and checks the last stdout line: the four result keys, a
correct run with no failures, and exactly the metrics BENCHMARK.json names
for that trace mode, each with its declared unit. Run from the repository
root:

    python3 vbench/tests/test_contract.py
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class ContractTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_bench(self, workload, trace):
        command = self.spec["command"] + ["--workload", workload, "--seed", "3",
                                          "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_prints_its_metrics(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


if __name__ == "__main__":
    sys.exit(unittest.main())
