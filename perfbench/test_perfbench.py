#!/usr/bin/env python3
"""The benchmark's own tests, on scaled-down worlds (--small):

  * the same seed gives identical digests and counts,
  * a different seed gives a different digest,
  * a corrupted snapshot byte makes the fleet-churn load check fail,
  * the traced binary measures the per-layer metrics of BENCHMARK.json.

    python3 perfbench/test_perfbench.py      (from the repository root)

Builds the binaries through run.py first.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("fleet-churn", "tenant-traffic", "chaos-sweep")


def small_run(workload, seed, *extra, binary="perfbench"):
    command = [os.path.join(run.BUILD, binary), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--small", *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_repeats_digest_and_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code_a, a = small_run(workload, 7)
                code_b, b = small_run(workload, 7)
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertTrue(a["correct"] and b["correct"])
                for key in ("digest", "attempted", "failed"):
                    self.assertEqual(a[key], b[key], key)
                self.assertEqual(a["failed"], 0)

    def test_other_seed_changes_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, a = small_run(workload, 7)
                _, b = small_run(workload, 8)
                self.assertNotEqual(a["digest"], b["digest"])

    def test_corrupt_snapshot_fails_load_check(self):
        code, record = small_run("fleet-churn", 7, "--corrupt-snapshot")
        self.assertNotEqual(code, 0)
        self.assertFalse(record["correct"])
        self.assertTrue(any("load" in e for e in record["errors"]),
                        record["errors"])

    def test_traced_binary_reports_per_layer_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            per_layer = {m["name"] for m in json.load(f)["per_layer"]}
        measured = set()
        for workload in WORKLOADS:
            code, record = small_run(workload, 7, binary="perfbench_traced")
            self.assertEqual(code, 0)
            measured |= set(record["metrics"])
        # trace.overhead_pct comes from run.py, which compares two runs.
        self.assertEqual(per_layer - measured, {"trace.overhead_pct"})


if __name__ == "__main__":
    unittest.main()
