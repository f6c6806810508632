"""Smoke test for the benchmark harness: every workload at tiny sizes,
untraced (through the all-workloads command) and traced, and the refusal
to run without the library sources. Standard library only."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("triple_sweep", "dimension_ladder", "cli_session")


def run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.bench = json.load(fh)

    def test_untraced_workloads_report_end_to_end_metrics(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(WORKLOADS))
        proc = run_bench(["--workload", "all", "--seed", "7", "--seconds", "0", "--tiny"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], proc.stdout)
        for name in ("sweep_items_per_s", "sweep_item_p50_ms", "sweep_item_p99_ms", "sweep_max_infidelity",
                     "certify_s_n8", "cli_session_s", "cli_suite_s", "cli_simulate_s"):
            self.assertIn(name, result["metrics"])
        wanted = {m["name"] for m in self.bench["end_to_end"]}
        for workload in WORKLOADS:
            for name in ("setup_s", "failed_ratio", "peak_rss_mb"):
                self.assertIn(f"{workload}.{name}", result["metrics"])
            with open(os.path.join(BENCH, "out", f"{workload}-seed7-trace0.json"), encoding="utf-8") as fh:
                metrics = json.load(fh)["metrics"]
            self.assertEqual(set(metrics), wanted)
            self.assertTrue(all(v > 0 for v in metrics.values()), metrics)

    def test_traced_workloads_report_per_layer_metrics(self):
        wanted = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "1", "--tiny"])
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stdout)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, wanted)

    def test_refuses_to_run_without_sources(self):
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "out")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench(["--workload", "triple_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
