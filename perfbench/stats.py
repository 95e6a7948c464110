"""Summary statistics for timing samples.

A timing is reported as its median plus the highest whole percentile that
still has at least ten samples beyond it, so the tail figure never rests on
a handful of points. With fewer than 21 samples no percentile above the
median qualifies and only the median is given.
"""
from __future__ import annotations

import math

TAIL_MIN_BEYOND = 10


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no samples")
    mid = len(vals) // 2
    if len(vals) % 2:
        return float(vals[mid])
    return (vals[mid - 1] + vals[mid]) / 2.0


def tail_percentile(values, min_beyond: int = TAIL_MIN_BEYOND):
    """(p, value) for the highest whole percentile p > 50 with at least
    min_beyond samples strictly above its nearest-rank position, or None.

    With n samples the nearest-rank p-th percentile is the ceil(p n / 100)-th
    smallest, which leaves n - ceil(p n / 100) samples beyond it.
    """
    vals = sorted(values)
    n = len(vals)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= min_beyond:
            return p, float(vals[rank - 1])
    return None


def summarize(values) -> dict:
    """Median, tail percentile and sample count of one metric."""
    out = {"median": median(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_pct"], out["tail_value"] = tail
    return out
