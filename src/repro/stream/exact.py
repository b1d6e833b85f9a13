"""Exact order statistics, bit-identical to ``numpy.quantile``/``numpy.median``.

``np.quantile`` dedups its partition indices with ``np.unique`` and
``np.median`` checks for NaN through ``numpy.ma``; either imports
``numpy.ma`` on its first call (about 10 ms and 1.9 MB in a fresh process).
These helpers partition once at the order statistics they need and apply
numpy's own formulas, NaN semantics included (a NaN sample gives NaN).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

__all__ = ["exact_median", "exact_quantiles"]


def exact_quantiles(values: np.ndarray, qs: Sequence[float]) -> List[float]:
    """``np.quantile(values, q)`` (method ``linear``) of a 1-d float array,
    for each ``q``; ``values`` is not modified, and empty gives NaN.

    Virtual index ``(n - 1) * q``, value ``a + (b - a) * t``, or
    ``b - (b - a) * (1 - t)`` when ``t >= 0.5``; at the last element numpy
    takes it at both ends with ``t = index + 1``.
    """
    n = values.size
    if n == 0:
        return [math.nan] * len(qs)
    points = []
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        index = (n - 1) * q
        low = n - 1 if index >= n - 1 else int(index)
        points.append((low, min(low + 1, n - 1), index + 1 if low == n - 1 else index - low))
    ordered = np.partition(values, sorted({n - 1, *(k for p in points for k in p[:2])}))
    if math.isnan(ordered[-1]):
        return [math.nan] * len(qs)
    results = []
    for low, high, t in points:
        a, b = float(ordered[low]), float(ordered[high])
        results.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return results


def exact_median(values: np.ndarray) -> float:
    """``np.median(values)`` of a 1-d float array (NaN when empty)."""
    n = values.size
    if n == 0:
        return math.nan
    half = n // 2
    ordered = np.partition(values, sorted({half - (n % 2 == 0), half, n - 1}))
    if math.isnan(ordered[-1]):
        return math.nan
    if n % 2:
        return float(ordered[half])
    return (float(ordered[half - 1]) + float(ordered[half])) / 2
