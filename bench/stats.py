"""Order statistics the benchmark reports: median, quartiles and the tail
percentile rule.
"""

from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10


def median(values) -> float:
    """Median of the finite values; NaN when there are none (a run whose
    every operation failed)."""
    vals = [v for v in values if math.isfinite(v)]
    return float(statistics.median(vals)) if vals else math.nan


def best(values) -> float:
    """Smallest of the finite values; NaN when there are none."""
    vals = [v for v in values if math.isfinite(v)]
    return float(min(vals)) if vals else math.nan


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    vals = list(values)
    if len(vals) < 2:
        v = float(vals[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return float(q1), float(q2), float(q3)


def tail(values):
    """The highest nearest-rank percentile with at least TAIL_MIN_BEYOND
    samples above it.

    With n sorted samples, percentile p sits at rank ceil(p * n / 100); the
    highest p leaving TAIL_MIN_BEYOND samples beyond is rank
    n - TAIL_MIN_BEYOND, i.e. p = 100 * (n - TAIL_MIN_BEYOND) / n. Returns
    (percentile, value, samples_beyond), or None when n <= TAIL_MIN_BEYOND.
    """
    vals = sorted(values)
    n = len(vals)
    rank = n - TAIL_MIN_BEYOND
    if rank < 1:
        return None
    return 100.0 * rank / n, float(vals[rank - 1]), n - rank
