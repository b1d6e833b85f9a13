"""Intra- and inter-layer skew statistics (Section 4.1, experiment type (A)).

The primary quantities of the paper's statistical evaluation are, for a
trigger-time matrix ``t`` of one run:

* the **intra-layer skews** ``|t_{l,i} - t_{l,i+1}|`` between same-layer
  neighbours (absolute values, because of the symmetry of the topology);
* the **inter-layer skews** ``t_{l,i} - t_{l-1,i}`` and
  ``t_{l,i} - t_{l-1,i+1}`` of every node relative to its two lower neighbours
  (signed, because the propagation direction induces a bias of at least ``d-``).

For an operator ``op`` in ``{min, q5, avg, q95, max}`` the paper aggregates
these per layer (``sigma^op_l`` / ``sigma-hat^op_l``), per run
(``sigma^op_rho``) and over whole simulation sets (``sigma^op``); the functions
here mirror that structure with nan-aware numpy reductions (faulty nodes and
never-triggered nodes are excluded by carrying ``nan``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.stream.exact import exact_quantiles

__all__ = [
    "intra_layer_skews",
    "inter_layer_skews",
    "aggregate",
    "SkewStatistics",
    "per_layer_inter_stats",
    "collect_intra_values",
    "collect_inter_values",
]

#: Aggregation operators supported by :func:`aggregate`.
_OPERATORS = ("min", "q5", "avg", "q95", "max")


def _sanitize(times: np.ndarray, correct_mask: Optional[np.ndarray]) -> np.ndarray:
    """Replace non-finite entries and masked-out nodes by ``nan``."""
    clean = np.array(times, dtype=float, copy=True)
    clean[~np.isfinite(clean)] = np.nan
    if correct_mask is not None:
        if correct_mask.shape != clean.shape:
            raise ValueError(
                f"mask shape {correct_mask.shape} does not match times shape {clean.shape}"
            )
        clean[~correct_mask] = np.nan
    return clean


def intra_layer_skews(
    times: np.ndarray, correct_mask: Optional[np.ndarray] = None, wrap: bool = True
) -> np.ndarray:
    """Absolute skews between same-layer neighbours.

    Parameters
    ----------
    times:
        Trigger-time matrix of shape ``(L + 1, W)``; non-finite entries (faulty
        or never-triggered nodes) are ignored.
    correct_mask:
        Optional boolean mask of nodes to *include* (e.g. the correctness mask,
        possibly further restricted by the h-hop fault exclusion).
    wrap:
        Whether the column axis wraps.  ``False`` (the open-boundary patch
        topology) drops the ``(W-1, 0)`` pair: those columns are not
        neighbours, so their skew is not a defined quantity.

    Returns
    -------
    numpy.ndarray
        Shape ``(L + 1, W)``; entry ``[l, i]`` is ``|t_{l,i} - t_{l,i+1 mod W}|``
        or ``nan`` when either endpoint is excluded.  Layer 0 entries are
        included in the array; the aggregation helpers skip them.
    """
    clean = _sanitize(times, correct_mask)
    right = np.roll(clean, -1, axis=1)
    result = np.abs(clean - right)
    if not wrap:
        result[:, -1] = np.nan
    return result


def inter_layer_skews(
    times: np.ndarray, correct_mask: Optional[np.ndarray] = None, wrap: bool = True
) -> np.ndarray:
    """Signed skews of every node relative to its two lower-layer neighbours.

    ``wrap=False`` (open-boundary topologies) drops the lower-*right* skew of
    the last column, whose neighbour index would wrap to column 0.

    Returns
    -------
    numpy.ndarray
        Shape ``(L + 1, W, 2)``.  ``[l, i, 0] = t_{l,i} - t_{l-1,i}`` (lower
        left) and ``[l, i, 1] = t_{l,i} - t_{l-1,i+1 mod W}`` (lower right);
        the ``l = 0`` slice is all ``nan``.
    """
    clean = _sanitize(times, correct_mask)
    num_layers, width = clean.shape
    result = np.full((num_layers, width, 2), np.nan, dtype=float)
    below = clean[:-1, :]
    below_right = np.roll(clean[:-1, :], -1, axis=1)
    result[1:, :, 0] = clean[1:, :] - below
    result[1:, :, 1] = clean[1:, :] - below_right
    if not wrap:
        result[:, -1, 1] = np.nan
    return result


def _summary(values: np.ndarray) -> Tuple[float, float, float, float, float]:
    """The :data:`_OPERATORS` of the finite entries of ``values``, in order.

    The finite filter runs once, the two quantiles share one partition
    (:func:`~repro.stream.exact.exact_quantiles`, bit-identical to
    ``np.quantile`` without its ``numpy.ma`` import) and the mean sums the
    unsorted samples.  All ``nan`` when no finite value remains.
    """
    data = np.asarray(values, dtype=float).ravel()
    data = data[np.isfinite(data)]
    if data.size == 0:
        return (math.nan,) * 5
    q5, q95 = exact_quantiles(data, (0.05, 0.95))
    return float(data.min()), q5, float(data.mean()), q95, float(data.max())


def aggregate(values: np.ndarray, op: str) -> float:
    """Nan-aware aggregation with the paper's operator names.

    ``op`` is one of ``min``, ``q5`` (5 % quantile), ``avg``, ``q95``
    (95 % quantile), ``max``.  Returns ``nan`` when no finite value remains.
    """
    if op not in _OPERATORS:
        raise ValueError(f"unknown operator {op!r}; expected one of {_OPERATORS}")
    return _summary(values)[_OPERATORS.index(op)]


def collect_intra_values(
    runs: Iterable[np.ndarray],
    masks: Optional[Iterable[Optional[np.ndarray]]] = None,
    skip_layer0: bool = True,
    wrap: bool = True,
) -> np.ndarray:
    """Pool all intra-layer skew samples of a set of runs into one flat array."""
    values: List[np.ndarray] = []
    masks_list = list(masks) if masks is not None else None
    for index, times in enumerate(runs):
        mask = masks_list[index] if masks_list is not None else None
        skews = intra_layer_skews(times, mask, wrap=wrap)
        if skip_layer0:
            skews = skews[1:, :]
        values.append(skews.ravel())
    if not values:
        return np.empty(0, dtype=float)
    pooled = np.concatenate(values)
    return pooled[np.isfinite(pooled)]


def collect_inter_values(
    runs: Iterable[np.ndarray],
    masks: Optional[Iterable[Optional[np.ndarray]]] = None,
    wrap: bool = True,
) -> np.ndarray:
    """Pool all inter-layer skew samples of a set of runs into one flat array."""
    values: List[np.ndarray] = []
    masks_list = list(masks) if masks is not None else None
    for index, times in enumerate(runs):
        mask = masks_list[index] if masks_list is not None else None
        skews = inter_layer_skews(times, mask, wrap=wrap)
        values.append(skews[1:, :, :].ravel())
    if not values:
        return np.empty(0, dtype=float)
    pooled = np.concatenate(values)
    return pooled[np.isfinite(pooled)]


@dataclass(frozen=True)
class SkewStatistics:
    """One row of Table 1 / Table 2: aggregated intra- and inter-layer skews.

    Attributes are named after the paper's operators: the intra-layer skew is
    summarised by average, 95 %-quantile and maximum of the absolute values;
    the inter-layer skew additionally by minimum and 5 %-quantile of the signed
    values (its bias makes the lower tail informative).
    """

    intra_avg: float
    intra_q95: float
    intra_max: float
    inter_min: float
    inter_q5: float
    inter_avg: float
    inter_q95: float
    inter_max: float
    num_runs: int = 1

    @classmethod
    def from_values(
        cls, intra_values: np.ndarray, inter_values: np.ndarray, num_runs: int = 1
    ) -> "SkewStatistics":
        """Aggregate pooled intra-/inter-layer samples into one statistics row."""
        # The fields follow _OPERATORS order: intra avg/q95/max, then all
        # five inter operators.
        return cls(*_summary(intra_values)[2:], *_summary(inter_values), num_runs=num_runs)

    @classmethod
    def from_times(
        cls,
        times: np.ndarray,
        correct_mask: Optional[np.ndarray] = None,
        wrap: bool = True,
    ) -> "SkewStatistics":
        """Statistics of a single run."""
        return cls.from_runs([times], [correct_mask], wrap=wrap)

    @classmethod
    def from_runs(
        cls,
        runs: Sequence[np.ndarray],
        masks: Optional[Sequence[Optional[np.ndarray]]] = None,
        wrap: bool = True,
    ) -> "SkewStatistics":
        """Statistics pooled over a whole simulation set ``R`` of runs.

        ``wrap=False`` drops the wrap-around column pair (open-boundary
        topologies; see :func:`intra_layer_skews`).
        """
        intra = collect_intra_values(runs, masks, wrap=wrap)
        inter = collect_inter_values(runs, masks, wrap=wrap)
        return cls.from_values(intra, inter, num_runs=len(runs))

    def as_row(self) -> Dict[str, float]:
        """The statistics as an ordered Table 1-style row dictionary."""
        return {
            "intra_avg": self.intra_avg,
            "intra_q95": self.intra_q95,
            "intra_max": self.intra_max,
            "inter_min": self.inter_min,
            "inter_q5": self.inter_q5,
            "inter_avg": self.inter_avg,
            "inter_q95": self.inter_q95,
            "inter_max": self.inter_max,
        }


def per_layer_inter_stats(
    runs: Sequence[np.ndarray],
    masks: Optional[Sequence[Optional[np.ndarray]]] = None,
    max_layer: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Per-layer inter-layer skew statistics over a run set (Fig. 12).

    Returns
    -------
    dict
        Keys ``"layer"``, ``"min"``, ``"avg"``, ``"max"``, ``"std"``,
        ``"q5"``, ``"q95"``; each an array indexed by layer ``1..max_layer``.
        The ``min``/``max``/``avg`` series are the *averages over runs* of the
        per-run, per-layer minimum/maximum/average (matching the paper's plots,
        which show per-layer averages with standard deviations over the runs);
        ``std`` is the standard deviation over runs of the per-run maximum.
    """
    if not runs:
        raise ValueError("at least one run is required")
    num_layers = runs[0].shape[0]
    top = num_layers - 1 if max_layer is None else min(max_layer, num_layers - 1)
    layers = np.arange(1, top + 1)
    per_run_min = np.full((len(runs), layers.size), np.nan)
    per_run_avg = np.full((len(runs), layers.size), np.nan)
    per_run_max = np.full((len(runs), layers.size), np.nan)
    per_run_q5 = np.full((len(runs), layers.size), np.nan)
    per_run_q95 = np.full((len(runs), layers.size), np.nan)
    for run_index, times in enumerate(runs):
        mask = masks[run_index] if masks is not None else None
        skews = inter_layer_skews(times, mask)
        for layer_pos, layer in enumerate(layers):
            values = skews[layer, :, :].ravel()
            values = values[np.isfinite(values)]
            if values.size == 0:
                continue
            per_run_min[run_index, layer_pos] = values.min()
            per_run_avg[run_index, layer_pos] = values.mean()
            per_run_max[run_index, layer_pos] = values.max()
            per_run_q5[run_index, layer_pos], per_run_q95[run_index, layer_pos] = (
                exact_quantiles(values, (0.05, 0.95))
            )
    return {
        "layer": layers,
        "min": np.nanmean(per_run_min, axis=0),
        "avg": np.nanmean(per_run_avg, axis=0),
        "max": np.nanmean(per_run_max, axis=0),
        "std": np.nanstd(per_run_max, axis=0),
        "q5": np.nanmean(per_run_q5, axis=0),
        "q95": np.nanmean(per_run_q95, axis=0),
    }

