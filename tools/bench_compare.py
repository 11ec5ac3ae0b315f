#!/usr/bin/env python3
"""Thresholded benchmark regression gate for bench/replay_throughput.

Compares a google-benchmark JSON result against bench/baseline.json and
fails (exit 1) when any gated benchmark regressed by more than the
threshold (default 10%).

Raw events/sec depends on the host, so the gate scores each benchmark by
its *calibration-normalized ratio*: throughput divided by the
BM_CalendarCalibration items/sec measured in the same run. The calibration
loop (raw calendar push/pop at fixed occupancy) scales with machine speed
the same way the replay loop does, so the ratio is stable across hosts
while still catching real regressions in the simulation hot path.

The parallel-engine replay row (BM_ReplayThroughputParallel/GS) is checked
differently: its absolute throughput depends on the core count, so instead
of a normalized ratio the gate asserts a >= 1.5x events/sec speedup over
the serial GS row — but only on runners with >= 4 cores. Smaller runners
print an explicit SKIPPED line (recording the core count from the gbench
context) rather than passing silently.

Usage:
  # Gate a fresh run against the checked-in baseline:
  ./build/bench/replay_throughput --benchmark_format=json > results.json
  python3 tools/bench_compare.py results.json bench/baseline.json

  # Refresh the baseline after an intentional performance change
  # (commit the updated bench/baseline.json with the change itself,
  #  and record the measured numbers in docs/PERFORMANCE.md):
  python3 tools/bench_compare.py results.json bench/baseline.json --update
"""

import argparse
import json
import sys

CALIBRATION = "BM_CalendarCalibration"
GATED = ["BM_ReplayThroughput/GS", "BM_ReplayThroughput/LS"]
# The parallel-engine replay (bit-identical results, wall-clock row). Not
# ratio-gated — its throughput depends on the core count — but on a runner
# with >= MIN_SPEEDUP_CORES cores it must beat the serial GS row by the
# speedup floor. Smaller runners SKIP that assertion out loud; they never
# silently pass it (docs/PARALLEL.md).
PARALLEL = "BM_ReplayThroughputParallel/GS/real_time"
PARALLEL_BASELINE_OF = "BM_ReplayThroughput/GS"
MIN_SPEEDUP = 1.5
MIN_SPEEDUP_CORES = 4


def load_results(path):
    """Return ({benchmark name: items_per_second}, num_cpus) from gbench JSON."""
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
            rates[bench["name"]] = rate
    return rates, doc.get("context", {}).get("num_cpus")


def check_parallel_speedup(rates, num_cpus, policy=None):
    """Assert the parallel engine's speedup, or skip loudly. Returns ok.

    `policy` is the baseline's optional "parallel" object; keys override
    the module defaults so the floor lives in bench/baseline.json next to
    the serial ratios.
    """
    policy = policy or {}
    parallel = policy.get("benchmark", PARALLEL)
    over = policy.get("speedup_over", PARALLEL_BASELINE_OF)
    min_speedup = policy.get("min_speedup", MIN_SPEEDUP)
    min_cores = policy.get("min_cores", MIN_SPEEDUP_CORES)
    if parallel not in rates:
        print(f"parallel speedup: SKIPPED ({parallel} absent from results)")
        return True
    speedup = rates[parallel] / rates[over]
    if num_cpus is None or num_cpus < min_cores:
        cores = "unknown" if num_cpus is None else str(num_cpus)
        print(f"parallel speedup: {speedup:.2f}x — assertion SKIPPED "
              f"(runner has {cores} cores, need >= {min_cores})")
        return True
    status = "ok" if speedup >= min_speedup else "REGRESSION"
    print(f"parallel speedup: {speedup:.2f}x vs required {min_speedup}x "
          f"on {num_cpus} cores {status}")
    return speedup >= min_speedup


def normalized_ratios(rates):
    calibration = rates.get(CALIBRATION)
    if not calibration:
        sys.exit(f"error: results lack {CALIBRATION}; cannot normalize")
    missing = [name for name in GATED if name not in rates]
    if missing:
        sys.exit(f"error: results lack gated benchmarks: {', '.join(missing)}")
    return {name: rates[name] / calibration for name in GATED}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="google-benchmark JSON output")
    parser.add_argument("baseline", help="baseline JSON (bench/baseline.json)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated fractional regression (default 0.10)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from these results instead of gating")
    args = parser.parse_args()

    rates, num_cpus = load_results(args.results)
    ratios = normalized_ratios(rates)

    if args.update:
        baseline = {
            "comment": "Calibration-normalized throughput baseline; see "
                       "tools/bench_compare.py and docs/PERFORMANCE.md for "
                       "the update workflow.",
            "normalized_to": CALIBRATION,
            "ratios": {name: round(ratio, 4) for name, ratio in ratios.items()},
        }
        # The ratios are all a run measures; policy objects such as
        # "parallel" are configuration and survive the refresh.
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
        print(f"{name}: ratio {current:.4f} vs baseline {base:.4f} "
              f"({change:+.1%}) {status}")

    if not check_parallel_speedup(rates, num_cpus, baseline_doc.get("parallel")):
        failed = True

    if failed:
        print(f"FAIL: regression beyond {args.threshold:.0%} threshold; "
              "if intentional, refresh the baseline with --update "
              "(workflow in docs/PERFORMANCE.md)")
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
