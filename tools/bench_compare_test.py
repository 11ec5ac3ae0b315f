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

CALIBRATION = "BM_HeapHoldCalibration"
GS = "BM_ReplayThroughput/GS"
LS = "BM_ReplayThroughput/LS"


def gbench_json(rates):
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
    return {"benchmarks": benchmarks}


def repeated_gbench_json(repetitions):
    """gbench JSON with --benchmark_repetitions: one {name: rate} dict per
    repetition, rows grouped by benchmark as google-benchmark writes them,
    plus the aggregate rows it appends (which the gate must skip)."""
    benchmarks = []
    for name in repetitions[0]:
        for index, rates in enumerate(repetitions):
            benchmarks.append({"name": name, "run_name": name, "run_type": "iteration",
                               "repetitions": len(repetitions), "repetition_index": index,
                               "items_per_second": rates[name]})
        benchmarks.append({"name": name + "_median", "run_name": name,
                           "run_type": "aggregate", "aggregate_name": "median",
                           "items_per_second": 1.0})
    return {"benchmarks": benchmarks}


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

    def test_update_keeps_unknown_top_level_keys(self):
        results = self.write("results.json",
                             gbench_json({CALIBRATION: 10e6, GS: 5e6, LS: 3e6}))
        note = {"owner": "perf", "threshold_hint": 0.1}
        baseline = self.write("baseline.json",
                              {"ratios": {GS: 0.4, LS: 0.3}, "note": note})
        proc = self.run_gate(results, baseline, "--update")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        written = json.loads(baseline.read_text())
        self.assertAlmostEqual(written["ratios"][GS], 0.5)
        self.assertEqual(written["note"], note)

    def test_repetitions_gate_on_the_median_ratio(self):
        # Nine repetitions on a drifting host: the calibration and the
        # replay move together, so every per-repetition ratio is at the
        # baseline except two slow outliers. The median decides: pass.
        reps = []
        for i in range(9):
            calibration = 10e6 * (0.8 + 0.05 * i)
            reps.append({CALIBRATION: calibration, GS: 0.4 * calibration,
                         LS: 0.3 * calibration})
        reps[2][GS] *= 0.7
        reps[6][GS] *= 0.75
        results = self.write("results.json", repeated_gbench_json(reps))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("of 9 repetitions", proc.stdout)

    def test_repetitions_fail_when_most_regress(self):
        # Five of nine repetitions 20% slow relative to their calibration:
        # the median ratio is 20% down, which must fail.
        reps = []
        for i in range(9):
            calibration = 10e6
            gs = 0.4 * calibration * (0.8 if i % 2 == 0 else 1.0)
            reps.append({CALIBRATION: calibration, GS: gs, LS: 0.3 * calibration})
        results = self.write("results.json", repeated_gbench_json(reps))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)

    def test_repetitions_pair_each_rate_with_its_own_calibration(self):
        # The rule is the median of per-repetition ratios, not the ratio of
        # the medians. Here they disagree: per repetition GS reads
        # 0.2, 0.2, 0.4, 0.4, 0.4 of its calibration (median 0.4, at the
        # baseline), while its median rate over the calibration's median
        # rate is 4e6 / 20e6 = 0.2, a 50% "regression".
        calibration = [20e6, 20e6, 20e6, 10e6, 10e6]
        gs = [4e6, 4e6, 8e6, 4e6, 4e6]
        reps = [{CALIBRATION: c, GS: g, LS: 0.3 * c} for c, g in zip(calibration, gs)]
        results = self.write("results.json", repeated_gbench_json(reps))
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn(f"{GS}: median ratio 0.4000", proc.stdout)

    def test_repetition_without_calibration_is_an_error(self):
        reps = [{CALIBRATION: 10e6, GS: 4e6, LS: 3e6} for _ in range(3)]
        doc = repeated_gbench_json(reps)
        doc["benchmarks"] = [b for b in doc["benchmarks"]
                             if not (b["name"] == CALIBRATION
                                     and b.get("repetition_index") == 2)]
        results = self.write("results.json", doc)
        proc = self.run_gate(results, self.baseline(0.4, 0.3))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("repetitions [2]", proc.stderr + proc.stdout)

    def test_update_from_repetitions_writes_the_median(self):
        reps = [{CALIBRATION: 10e6, GS: gs, LS: 3e6} for gs in (3e6, 5e6, 4e6)]
        results = self.write("results.json", repeated_gbench_json(reps))
        baseline = self.dir / "new_baseline.json"
        proc = self.run_gate(results, baseline, "--update")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertAlmostEqual(json.loads(baseline.read_text())["ratios"][GS], 0.4)

    def test_checked_in_baseline_is_well_formed(self):
        doc = json.loads((REPO_ROOT / "bench" / "baseline.json").read_text())
        self.assertEqual(doc["normalized_to"], CALIBRATION)
        for name in (GS, LS):
            self.assertIn(name, doc["ratios"])
            self.assertGreater(doc["ratios"][name], 0.0)


if __name__ == "__main__":
    unittest.main()
