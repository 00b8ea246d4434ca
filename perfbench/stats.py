"""Sample statistics for the benchmark: median, quartiles, nearest-rank
percentiles, and the highest percentile a sample set supports."""

import math
import statistics
from fractions import Fraction

# Percentiles a tail summary may report, lowest first.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)

# Samples that must lie beyond a reported tail percentile.
TAIL_SUPPORT = 10


def nearest_rank(values, p):
    """The nearest-rank p-th percentile: the smallest sample with at least
    p% of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def rank(n, p):
    """1-based rank of the nearest-rank p-th percentile of n samples,
    computed exactly (99.9% of 10,000 is rank 9,990, not 9,991)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail(values):
    """The highest candidate percentile with at least TAIL_SUPPORT samples
    beyond it, as (percentile, value); None when there are too few samples
    for even the median to qualify."""
    supported = [p for p in TAIL_CANDIDATES if beyond(len(values), p) >= TAIL_SUPPORT]
    if not supported:
        return None
    p = supported[-1]
    return p, nearest_rank(values, p)


def median(values):
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def quartiles(values):
    """(first quartile, median, third quartile), as
    statistics.quantiles(values, n=4) gives them."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values):
    """Median, quartiles, sample count and the supported tail of a sample
    set."""
    q1, med, q3 = quartiles(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "tail": tail(values)}
