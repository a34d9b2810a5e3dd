"""Percentile rule shared by every timing the benchmark reports.

A timing is reported as its median plus the highest percentile, up to the
one asked for, that still has at least ten samples beyond it, together with
the sample count.  Percentiles use the nearest-rank definition, so the value
reported is always one of the samples.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def highest_percentile(n: int, want: float = 90.0) -> float | None:
    """The largest percentile <= ``want`` with ``MIN_BEYOND`` of ``n`` samples above it.

    ``None`` when there are too few samples for any percentile to qualify.
    """
    if n <= MIN_BEYOND:
        return None
    return min(float(want), 100.0 * (n - MIN_BEYOND) / n)


def nearest_rank(sorted_samples: list[float], q: float) -> float:
    """Value at percentile ``q`` of already sorted samples (nearest rank)."""
    n = len(sorted_samples)
    rank = max(1, math.ceil(round(q * n / 100.0, 9)))
    return sorted_samples[rank - 1]


def summarize(samples, want: float = 90.0) -> dict:
    """``{"n", "p50", "q", "tail"}``; ``q``/``tail`` are None with <= 10 samples."""
    values = sorted(float(x) for x in samples)
    if not values:
        return {"n": 0, "p50": None, "q": None, "tail": None}
    q = highest_percentile(len(values), want)
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "q": q,
        "tail": None if q is None else nearest_rank(values, q),
    }
