"""Order statistics shared by the load generator and the reports."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

import numpy as np

#: A tail percentile is quoted only with this many samples beyond it.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """The median, or NaN for no values (reported, never silently 0)."""
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with ``TAIL_SAMPLES`` samples beyond it.

    Returns ``(value, percentile, n)``.  With fewer than
    ``TAIL_SAMPLES + 1`` samples the maximum is returned as the
    100th percentile, so a short run still reports its worst case.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = int(ordered.size)
    if n == 0:
        return float("nan"), float("nan"), 0
    if n <= TAIL_SAMPLES:
        return float(ordered[-1]), 100.0, n
    index = n - TAIL_SAMPLES - 1
    return float(ordered[index]), 100.0 * (index + 1) / n, n
