"""Trigger-time traces and pulse-wave series (Figs. 8, 9, 13, 14).

The 3D wave plots of the paper show, for one run, the firing time ``t_{l,i}``
of every node over the ``(layer, column)`` plane.  This module provides the
small data-wrangling helpers needed to regenerate those series without any
plotting dependency: flat row dumps (for CSV export / external plotting) and
``.npz`` persistence of whole run sets.

Captured DES event traces (``hex-repro simulate --trace run.jsonl
--trace-events``) feed the same pipeline: :func:`load_event_trace` filters
the per-event records out of a ``repro.obs`` trace file, and
:func:`event_trace_times` reconstructs the first-firing matrix those events
imply, ready for :func:`wave_rows` / :func:`save_trace`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "wave_rows",
    "save_trace",
    "load_trace",
    "load_event_trace",
    "event_trace_times",
]


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


def save_trace(
    path: Union[str, Path],
    times: Union[np.ndarray, Sequence[np.ndarray]],
    metadata: Optional[Dict[str, Union[str, float, int]]] = None,
) -> Path:
    """Persist one trigger-time matrix (or a run set of them) as ``.npz``.

    Parameters
    ----------
    path:
        Destination file; the ``.npz`` suffix is added if missing.
    times:
        A single ``(L + 1, W)`` matrix or a sequence of them (stacked into a
        3D array ``(runs, L + 1, W)``).
    metadata:
        Optional scalar metadata stored alongside the data.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    stacked = np.asarray(times, dtype=float)
    payload: Dict[str, np.ndarray] = {"times": stacked}
    if metadata:
        for key, value in metadata.items():
            payload[f"meta_{key}"] = np.asarray(value)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **payload)
    return path


def load_trace(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Load a trace saved by :func:`save_trace`.

    Returns a dict with the ``times`` array and any ``meta_*`` entries.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def load_event_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load the captured DES events from a ``repro.obs`` trace file.

    The file is the JSONL artifact of ``--trace run.jsonl --trace-events``
    (schema ``hex-repro/trace/v1``); span records are dropped and each
    returned dict is the flattened event payload -- ``kind`` plus the
    kind-specific fields (``node``, ``time``, ``pulse_index``, ...) --
    ordered as simulated.

    Raises ``ValueError`` when the file is not a trace artifact or carries
    no captured DES events (tracing without ``--trace-events`` records spans
    only).
    """
    from repro.obs import load_trace_records  # repro: allow-import[lazy loader for obs trace artifacts; analysis stays obs-free at import time]

    events: List[Dict[str, Any]] = []
    for record in load_trace_records(path):
        if record.get("type") != "event" or record.get("name") != "des.event":
            continue
        attrs = dict(record.get("attrs", {}))
        events.append(attrs)
    if not events:
        raise ValueError(
            f"{path}: trace contains no captured DES events "
            "(was the run traced with --trace-events?)"
        )
    return events


def event_trace_times(
    events: Sequence[Dict[str, Any]], layers: int, width: int
) -> np.ndarray:
    """First-firing matrix implied by a captured event stream.

    A thin re-export of :func:`repro.obs.first_firing_matrix_from_events`
    so analysis code reconstructs ``(L + 1, W)`` trigger-time matrices --
    the input of :func:`wave_rows` and :func:`save_trace` -- without
    importing the observability package directly.
    """
    from repro.obs import first_firing_matrix_from_events  # repro: allow-import[lazy loader for obs trace artifacts; analysis stays obs-free at import time]

    return first_firing_matrix_from_events(events, layers, width)
