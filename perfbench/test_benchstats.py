"""Tests of the benchmark's own helpers (perfbench/benchstats.py).

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond_it(self):
        self.assertIsNone(benchstats.highest_percentile(0))
        self.assertIsNone(benchstats.highest_percentile(19))
        self.assertEqual(benchstats.highest_percentile(20), 50.0)
        self.assertEqual(benchstats.highest_percentile(99), 50.0)
        self.assertEqual(benchstats.highest_percentile(100), 90.0)
        self.assertEqual(benchstats.highest_percentile(199), 90.0)
        self.assertEqual(benchstats.highest_percentile(200), 95.0)
        self.assertEqual(benchstats.highest_percentile(1000), 99.0)
        self.assertEqual(benchstats.highest_percentile(10000), 99.9)

    def test_reported_percentile_has_ten_samples_above_its_rank(self):
        for count in (20, 100, 200, 350, 1000, 10000):
            values = list(range(count))
            p = benchstats.highest_percentile(count)
            value = benchstats.percentile(values, p)
            self.assertGreaterEqual(sum(1 for v in values if v > value), 10, count)

    def test_nearest_rank_percentile(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(benchstats.percentile(values, 50.0), 3.0)
        self.assertEqual(benchstats.percentile(values, 100.0), 5.0)
        self.assertEqual(benchstats.percentile(values, 1.0), 1.0)
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50.0)

    def test_latency_summary_states_the_sample_count(self):
        summary = benchstats.latency_summary([float(i) for i in range(1, 201)])
        self.assertEqual(summary["n"], 200)
        self.assertEqual(summary["p50"], 100.5)
        self.assertEqual(summary["p"], 95.0)
        self.assertEqual(summary["value"], 190.0)
        small = benchstats.latency_summary([1.0, 2.0, 3.0])
        self.assertEqual((small["n"], small["p"], small["value"]), (3, None, None))


class Quartiles(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        values = [3.1, 2.9, 3.0, 3.3, 2.8, 3.2, 3.05, 2.95, 3.15, 3.4]
        q1, q2, q3 = benchstats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))
        self.assertAlmostEqual(benchstats.spread(values), (q3 - q1) / q2)

    def test_spread_of_identical_values_is_zero(self):
        self.assertEqual(benchstats.spread([2.0] * 10), 0.0)

    def test_quartiles_need_two_values(self):
        with self.assertRaises(ValueError):
            benchstats.quartiles([1.0])


class FailureAccounting(unittest.TestCase):
    def test_failed_over_attempted(self):
        tally = benchstats.Tally()
        for ok in (True, True, False, True):
            tally.record(ok, "digest mismatch")
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertEqual(tally.failed_frac, 0.25)
        self.assertEqual(tally.reasons, ["digest mismatch"])

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(benchstats.Tally().failed_frac, 1.0)


class NameCharset(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "trace.parse_mb_per_s", "serve.point.latency_p95_s",
                     "9lives", "a" * 64):
            self.assertEqual(benchstats.check_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_leading", ".dot", "has space", "slash/no", "a" * 65,
                     "p95%", None, 3):
            with self.assertRaises(ValueError, msg=repr(name)):
                benchstats.check_name(name)

    def test_units(self):
        for unit in ("s", "ms", "1/s", "MB/s", "count", "%", "ratio"):
            self.assertEqual(benchstats.check_unit(unit), unit)
        for unit in ("", "seconds per op", "x" * 17):
            with self.assertRaises(ValueError, msg=repr(unit)):
                benchstats.check_unit(unit)


class SelfTimes(unittest.TestCase):
    def test_self_time_subtracts_covered_child_intervals(self):
        spans = [
            {"start": 0.0, "end": 10.0, "parent": -1},
            {"start": 1.0, "end": 4.0, "parent": 0},
            {"start": 3.0, "end": 6.0, "parent": 0},   # overlaps its sibling
            {"start": 8.0, "end": 9.0, "parent": 0},
            {"start": 1.5, "end": 2.0, "parent": 1},
        ]
        self.assertEqual(benchstats.self_times(spans), [4.0, 2.5, 3.0, 1.0, 0.5])


if __name__ == "__main__":
    unittest.main()
