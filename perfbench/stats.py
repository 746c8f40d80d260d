"""Exact sample statistics: every per-operation sample is kept, and
percentiles are read from the sorted samples, never from histogram
buckets."""

from __future__ import annotations

import math

#: tail percentiles tried, highest first
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def percentile(samples: list[float], level: float) -> float:
    """Nearest-rank percentile of *samples* (0 < level <= 100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: list[float]) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def beyond(samples: list[float], level: float) -> int:
    """How many samples lie strictly above the *level* percentile."""
    cut = percentile(samples, level)
    return sum(1 for s in samples if s > cut)


def tail(samples: list[float], cap: float = 95.0) -> tuple[float, float]:
    """``(level, value)`` of the highest percentile, at most *cap*, that
    has at least ``MIN_BEYOND`` samples beyond it.  Falls back to the
    median when even that has too few."""
    for level in TAIL_LEVELS:
        if level > cap:
            continue
        if beyond(samples, level) >= MIN_BEYOND:
            return level, percentile(samples, level)
    return 50.0, median(samples)


def geomean(values: list[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summary(samples: list[float]) -> dict:
    """Median, tail and sample count of one latency population."""
    level, value = tail(samples)
    return {
        "n": len(samples),
        "p50": median(samples),
        "tail_level": level,
        "tail": value,
    }
