"""Post-hoc equivalence helpers for streaming soak telemetry.

The soak runner (:mod:`repro.experiments.soak`) computes per-pulse skew
*incrementally* -- each firing updates bounded per-window min/max/count
accumulators and the trace is discarded.  This module recomputes the same
series *post hoc* from a retained :class:`~repro.engines.base.RunResult`
trace, so tests can assert the streaming pipeline agrees exactly with the
classical trace-array pipeline on runs small enough to keep both.

The mirrored definition, shared with ``SoakObserver``:

* only forwarding layers (``1 .. L``) participate; layer-0 source firings
  are excluded;
* firings of faulty nodes are excluded (on fault-free runs the two
  pipelines agree exactly; under mid-run churn the post-hoc trace also
  contains a healed node's *while-faulty* firings, which the live observer
  rightly skipped -- so equivalence is only claimed fault-free);
* each firing is assigned to pulse window ``k`` when it falls in
  ``[window_starts[k], window_starts[k + 1])``, the
  :func:`repro.analysis.stabilization.assign_pulses` rule, with the last
  window extending to infinity;
* the skew of window ``k`` is the maximum over layers with at least two
  observed firings of ``max - min`` within the layer, or ``nan`` when no
  layer has two.
"""

from __future__ import annotations

import numpy as np

from repro.engines.base import RunResult

__all__ = ["pulse_skew_series"]


def pulse_skew_series(result: RunResult) -> np.ndarray:
    """Per-pulse max intra-layer firing spread of a multi-pulse run.

    Returns an array of length ``num_pulses``: entry ``k`` is the largest
    ``max - min`` firing-time spread across forwarding layers with at least
    two firings in pulse window ``k``, or ``nan`` when no layer qualifies.
    """
    grid = result.grid
    schedule = result.source_schedule
    num_pulses = int(schedule.shape[0])
    window_starts = np.array(
        [float(np.nanmin(schedule[k, :])) for k in range(num_pulses)], dtype=float
    )
    if not np.all(np.diff(window_starts) > 0):
        raise ValueError("source schedule windows are not strictly increasing")

    shape = (num_pulses, grid.layers + 1)
    mins = np.full(shape, np.inf, dtype=float)
    maxs = np.full(shape, -np.inf, dtype=float)
    counts = np.zeros(shape, dtype=np.int64)

    fault_model = result.fault_model
    for node, firings in result.firing_times.items():
        layer, _ = node
        if layer == 0:
            continue
        if fault_model is not None and fault_model.is_faulty(node):
            continue
        for fire_time in firings:
            if fire_time < window_starts[0]:
                continue
            window = int(np.searchsorted(window_starts, fire_time, side="right")) - 1
            counts[window, layer] += 1
            if fire_time < mins[window, layer]:
                mins[window, layer] = fire_time
            if fire_time > maxs[window, layer]:
                maxs[window, layer] = fire_time

    series = np.full(num_pulses, np.nan, dtype=float)
    for window in range(num_pulses):
        eligible = counts[window] >= 2
        if eligible.any():
            series[window] = float(np.max(maxs[window][eligible] - mins[window][eligible]))
    return series
