"""Summary statistics with the sample-count rule.

A timing is reported as its median and every higher percentile that has at
least ``MIN_TAIL`` samples beyond it, together with the sample count.
"""

from __future__ import annotations

import math
import statistics

MIN_TAIL = 10
TAIL_PERCENTILES = (90.0, 99.0, 99.9)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported(n: int, p: float) -> bool:
    """True when ``n`` samples leave at least ``MIN_TAIL`` beyond the p-th percentile."""
    return n * (100.0 - p) / 100.0 >= MIN_TAIL


def summarize(values) -> dict:
    """``{"n": count, "p50": median, "p90": ..., ...}`` with only the
    percentiles the sample count supports."""
    values = list(values)
    out = {"n": len(values), "p50": statistics.median(values)}
    for p in TAIL_PERCENTILES:
        if supported(len(values), p):
            out[f"p{p:g}"] = percentile(values, p)
    return out
