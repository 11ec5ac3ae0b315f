#!/usr/bin/env python3
"""Thresholded benchmark regression gate for bench/replay_throughput.

Compares a google-benchmark JSON result against bench/baseline.json and
fails (exit 1) when any gated benchmark regressed by more than the
threshold (default 10%).

Raw events/sec depends on the host, so the gate scores each benchmark by
its *calibration-normalized ratio*: throughput divided by the
BM_HeapHoldCalibration items/sec measured in the same run. The calibration
loop (a std::push_heap/pop_heap hold model on 1024 doubles, no mcsim code)
scales with machine speed the same way the replay loop does, so the ratio
is stable across hosts while still catching real regressions in the
simulation hot path.

A single run of the replay is noisy on a shared host, so the gate decides
on repetitions (--benchmark_repetitions): each repetition's ratio divides
the benchmark's rate by the calibration rate of the same repetition index,
and the gate compares the median of those ratios with the baseline. One
slow repetition cannot fail it; a slowdown in most of them does. A result
without repetitions is one repetition.

Usage:
  # Gate a fresh run against the checked-in baseline:
  ./build/bench/replay_throughput --benchmark_repetitions=9 \
      --benchmark_format=json > results.json
  python3 tools/bench_compare.py results.json bench/baseline.json

  # Refresh the baseline after an intentional performance change
  # (commit the updated bench/baseline.json with the change itself,
  #  and record the measured numbers in docs/PERFORMANCE.md):
  python3 tools/bench_compare.py results.json bench/baseline.json --update
"""

import argparse
import json
import statistics
import sys

CALIBRATION = "BM_HeapHoldCalibration"
GATED = ["BM_ReplayThroughput/GS", "BM_ReplayThroughput/LS"]


def load_results(path):
    """Return {benchmark name: {repetition index: items_per_second}}."""
    with open(path) as f:
        doc = json.load(f)
    rates = {}
    for bench in doc.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev) would double-count; keep
        # plain iteration rows only.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        rate = bench.get("items_per_second")
        if rate:
            name = bench.get("run_name", bench["name"])
            rates.setdefault(name, {})[bench.get("repetition_index", 0)] = rate
    return rates


def repetition_ratios(rates):
    """{gated name: [ratio per repetition]}, each rate over the calibration
    rate of the same repetition index."""
    calibration = rates.get(CALIBRATION)
    if not calibration:
        sys.exit(f"error: results lack {CALIBRATION}; cannot normalize")
    missing = [name for name in GATED if name not in rates]
    if missing:
        sys.exit(f"error: results lack gated benchmarks: {', '.join(missing)}")
    ratios = {}
    for name in GATED:
        unpaired = sorted(set(rates[name]) - set(calibration))
        if unpaired:
            sys.exit(f"error: {name} repetitions {unpaired} have no {CALIBRATION} "
                     "repetition to divide by")
        ratios[name] = [rates[name][i] / calibration[i] for i in sorted(rates[name])]
    return ratios


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="google-benchmark JSON output")
    parser.add_argument("baseline", help="baseline JSON (bench/baseline.json)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated fractional regression (default 0.10)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from these results instead of gating")
    args = parser.parse_args()

    rates = load_results(args.results)
    per_repetition = repetition_ratios(rates)
    ratios = {name: statistics.median(values) for name, values in per_repetition.items()}

    if args.update:
        baseline = {
            "comment": "Calibration-normalized throughput baseline; see "
                       "tools/bench_compare.py and docs/PERFORMANCE.md for "
                       "the update workflow.",
            "normalized_to": CALIBRATION,
            "ratios": {name: round(ratio, 4) for name, ratio in ratios.items()},
        }
        # The ratios are all a run measures; any other top-level key is
        # configuration and survives the refresh.
        try:
            with open(args.baseline) as f:
                previous = json.load(f)
        except FileNotFoundError:
            previous = {}
        for key, value in previous.items():
            baseline.setdefault(key, value)
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        for name, ratio in ratios.items():
            print(f"baseline {name}: ratio {ratio:.4f}")
        print(f"updated {args.baseline}")
        return 0

    with open(args.baseline) as f:
        baseline_doc = json.load(f)
    expected = baseline_doc["ratios"]

    failed = False
    for name in GATED:
        if name not in expected:
            sys.exit(f"error: baseline lacks {name}; re-run with --update")
        current, base = ratios[name], expected[name]
        change = current / base - 1.0
        status = "ok"
        if change < -args.threshold:
            status = "REGRESSION"
            failed = True
        values = per_repetition[name]
        print(f"{name}: median ratio {current:.4f} of {len(values)} repetitions "
              f"({min(values):.4f}-{max(values):.4f}) vs baseline {base:.4f} "
              f"({change:+.1%}) {status}")

    if failed:
        print(f"FAIL: regression beyond {args.threshold:.0%} threshold; "
              "if intentional, refresh the baseline with --update "
              "(workflow in docs/PERFORMANCE.md)")
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
