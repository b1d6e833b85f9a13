"""Trigger-time traces and pulse-wave series (Figs. 8, 9, 13, 14).

The 3D wave plots of the paper show, for one run, the firing time ``t_{l,i}``
of every node over the ``(layer, column)`` plane.  :func:`wave_rows` flattens
such a matrix into plottable rows (for CSV export / external plotting)
without any plotting dependency.

Captured DES event traces (``hex-repro simulate --trace run.jsonl
--trace-events``) feed the same function: :func:`repro.obs.load_event_trace`
reads their events and :func:`repro.obs.first_firing_matrix_from_events`
rebuilds the first-firing matrix they imply.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = ["wave_rows"]


def wave_rows(
    times: np.ndarray, truncate_layers: Optional[int] = None
) -> List[Dict[str, float]]:
    """Flatten a trigger-time matrix into plottable rows.

    Parameters
    ----------
    times:
        Trigger-time matrix of shape ``(L + 1, W)``.
    truncate_layers:
        Only emit layers ``0..truncate_layers`` (the paper truncates its wave
        plots to the first 30 layers for readability).

    Returns
    -------
    list of dict
        One dict per node with keys ``layer``, ``column``, ``time`` (``time``
        is ``nan`` for faulty / never-triggered nodes).
    """
    times = np.asarray(times, dtype=float)
    num_layers, width = times.shape
    top = num_layers if truncate_layers is None else min(truncate_layers + 1, num_layers)
    rows: List[Dict[str, float]] = []
    for layer in range(top):
        for column in range(width):
            value = times[layer, column]
            rows.append(
                {
                    "layer": float(layer),
                    "column": float(column),
                    "time": float(value) if np.isfinite(value) else float("nan"),
                }
            )
    return rows
