"""Statistics helpers of the mcsim benchmark (perfbench/run.py).

Kept free of I/O so that perfbench/test_benchstats.py can pin each rule.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Percentiles a latency may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is reported only with at least this many samples above it.
MIN_SAMPLES_BEYOND = 10


def check_name(name):
    """Raise ValueError unless `name` is a valid metric or workload name."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError(f"bad metric name: {name!r}")
    return name


def check_unit(unit):
    """Raise ValueError unless `unit` is a valid unit string."""
    if not isinstance(unit, str) or not UNIT_RE.match(unit):
        raise ValueError(f"bad unit: {unit!r}")
    return unit


def percentile(values, p):
    """Nearest-rank percentile `p` (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    # The epsilon keeps binary rounding (99.9 / 100 * 10000 > 9990) from
    # moving the rank up one.
    rank = math.ceil(p / 100.0 * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def highest_percentile(count):
    """The highest ladder percentile with at least MIN_SAMPLES_BEYOND of
    `count` samples beyond it, or None when even the median has too few."""
    best = None
    for p in PERCENTILE_LADDER:
        if count * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9:
            best = p
    return best


def latency_summary(values):
    """Median and highest reportable percentile of a latency sample, with
    the sample count: {"n", "p50", "p", "value"} ("p"/"value" are None when
    the sample is too small for any percentile)."""
    p = highest_percentile(len(values))
    return {
        "n": len(values),
        "p50": statistics.median(values) if values else None,
        "p": p,
        "value": percentile(values, p) if p is not None else None,
    }


def quartiles(values):
    """(q1, median, q3) by statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


class Tally:
    """Operations attempted and failed. An operation fails when it raised
    or when its output did not match its reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def self_times(spans):
    """Self time per span: its duration minus the part of its interval that
    its children cover (children may overlap one another, as sweep points
    on two workers do). `spans` is a list of dicts with start, end, parent
    (an index into the list, -1 for a root)."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(index)
    result = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c]["start"], span["start"]), min(spans[c]["end"], span["end"]))
            for c in children[index])
        covered = 0.0
        reach = span["start"]
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(span["end"] - span["start"] - covered)
    return result
