"""Order statistics shared by ``run.py``, the workloads and ``compare.py``."""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = ["quartiles", "relative_spread", "tail"]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a 0 median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def tail(values: Sequence[float], beyond: int = 10) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile that still has at
    least ``beyond`` samples above it, or ``None`` for ``beyond`` samples
    or fewer.

    Of ``n`` sorted samples the ``(n - beyond)``-th smallest has exactly
    ``beyond`` samples after it: with 1000 samples that is the 990th,
    the 99th percentile.
    """
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond
    return 100.0 * rank / n, sorted(values)[rank - 1]
