#!/usr/bin/env python3
"""Tests for the benchmark regression gate (tools/bench_compare.py).

The centrepiece is the negative test: a doctored 20% regression MUST fail
the gate. A gate whose failure path is never exercised protects nothing.

Registered in ctest (tests/CMakeLists.txt) so the gate's own behaviour is
pinned by the same suite that pins the simulator.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(
    os.environ.get("MCSIM_REPO_ROOT", pathlib.Path(__file__).resolve().parent.parent))
BENCH_COMPARE = REPO_ROOT / "tools" / "bench_compare.py"

CALIBRATION = "BM_CalendarCalibration"
GS = "BM_ReplayThroughput/GS"
LS = "BM_ReplayThroughput/LS"
PARALLEL = "BM_ReplayThroughputParallel/GS/real_time"


def gbench_json(rates, num_cpus=None):
    """A minimal google-benchmark JSON document with the given items/sec."""
    benchmarks = [
        {"name": name, "run_type": "iteration", "items_per_second": rate}
        for name, rate in rates.items()
    ]
    # An aggregate row with a wildly wrong rate: load_rates must skip it.
    benchmarks.append({
        "name": GS + "_mean",
        "run_type": "aggregate",
        "items_per_second": 1.0,
    })
    doc = {"benchmarks": benchmarks}
    if num_cpus is not None:
        doc["context"] = {"num_cpus": num_cpus}
    return doc


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return path

    def run_gate(self, *argv):
        return subprocess.run(
            [sys.executable, str(BENCH_COMPARE), *map(str, argv)],
            capture_output=True, text=True)

    def baseline(self, gs_ratio, ls_ratio):
        return self.write("baseline.json", {"ratios": {GS: gs_ratio, LS: ls_ratio}})

    def test_identical_run_passes(self):
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 4e6, LS: 3e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("benchmark gate passed", proc.stdout)

    def test_uniformly_slower_machine_passes(self):
        # Everything (calibration included) at 60% speed: the normalized
        # ratios are unchanged, so the gate must not cry wolf.
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 6e6, GS: 2.4e6, LS: 1.8e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_doctored_regression_fails(self):
        # GS at 20% below baseline relative to calibration: must exit 1.
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 3.2e6, LS: 3e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)
        self.assertIn("docs/PERFORMANCE.md", proc.stdout)

    def test_regression_within_threshold_passes(self):
        # 5% down is noise, not a gate failure (threshold is 10%).
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 3.8e6, LS: 2.85e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_improvement_passes(self):
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 6e6, LS: 4.5e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_missing_calibration_is_an_error(self):
        results = self.write("results.json", gbench_json({GS: 4e6, LS: 3e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn(CALIBRATION, proc.stderr + proc.stdout)

    def test_update_writes_baseline_that_then_passes(self):
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 4e6, LS: 3e6}))
        baseline = self.dir / "new_baseline.json"
        proc = self.run_gate(results, baseline, "--update")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        written = json.loads(baseline.read_text())
        self.assertAlmostEqual(written["ratios"][GS], 0.4)
        self.assertAlmostEqual(written["ratios"][LS], 0.3)
        proc = self.run_gate(results, baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_update_keeps_the_parallel_policy(self):
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 5e6, LS: 3e6}))
        policy = {"benchmark": PARALLEL, "speedup_over": GS, "min_speedup": 1.5,
                  "min_cores": 4}
        baseline = self.write("baseline.json",
                              {"ratios": {GS: 0.4, LS: 0.3}, "parallel": policy})
        proc = self.run_gate(results, baseline, "--update")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        written = json.loads(baseline.read_text())
        self.assertAlmostEqual(written["ratios"][GS], 0.5)
        self.assertEqual(written["parallel"], policy)

    # -- the parallel-engine speedup assertion ---------------------------

    def test_speedup_met_on_big_runner_passes(self):
        results = self.write("results.json", gbench_json(
            {CALIBRATION: 10e6, GS: 4e6, LS: 3e6, PARALLEL: 8e6}, num_cpus=8))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("2.00x", proc.stdout)
        self.assertNotIn("SKIPPED", proc.stdout)

    def test_speedup_missed_on_big_runner_fails(self):
        # 1.2x on 8 cores is below the 1.5x floor: must exit 1.
        results = self.write("results.json", gbench_json(
            {CALIBRATION: 10e6, GS: 4e6, LS: 3e6, PARALLEL: 4.8e6}, num_cpus=8))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)

    def test_speedup_skipped_not_passed_on_small_runner(self):
        # Even a parallel *slowdown* is fine on 1 core — but the skip must
        # be printed, never silent.
        results = self.write("results.json", gbench_json(
            {CALIBRATION: 10e6, GS: 4e6, LS: 3e6, PARALLEL: 2e6}, num_cpus=1))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("SKIPPED", proc.stdout)
        self.assertIn("1 cores", proc.stdout)

    def test_speedup_skipped_when_core_count_unknown(self):
        results = self.write("results.json", gbench_json(
            {CALIBRATION: 10e6, GS: 4e6, LS: 3e6, PARALLEL: 2e6}))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("SKIPPED", proc.stdout)

    def test_speedup_skipped_when_parallel_row_absent(self):
        # Old result files (no parallel row) still gate the serial ratios.
        results = self.write("results.json", gbench_json(
            {CALIBRATION: 10e6, GS: 4e6, LS: 3e6}, num_cpus=8))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("SKIPPED", proc.stdout)

    def test_checked_in_baseline_is_well_formed(self):
        doc = json.loads((REPO_ROOT / "bench" / "baseline.json").read_text())
        self.assertEqual(doc["normalized_to"], CALIBRATION)
        for name in (GS, LS):
            self.assertIn(name, doc["ratios"])
            self.assertGreater(doc["ratios"][name], 0.0)


if __name__ == "__main__":
    unittest.main()
