"""The metrics registry: counters, gauges and timers with a versioned snapshot.

A :class:`MetricsRegistry` is a plain in-process accumulator.  It never draws
randomness, never touches simulation state and is only ever *written to* by
instrumentation sites that read engine/campaign state -- the observability
contract (see ``DESIGN.md``, "Observability") that keeps enabling metrics
bit-identical to running without them.

Snapshots serialize to the schema-versioned ``hex-repro/metrics/v1`` JSON
document::

    {
      "schema": "hex-repro/metrics/v1",
      "schema_version": 1,
      "counters": {"des.events_processed": 1234.0, ...},
      "gauges":   {"campaign.worker_utilization": 0.87, ...},
      "timers":   {"campaign.task_s": {"count": 60, "total_s": ..., ...}, ...}
    }

``hex-repro trace summarize <file>`` round-trips these documents back into a
human-readable report.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.checks.schemas import schema
from repro.stream.quantiles import interpolated_quantile

__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "timer_stats",
]

#: Schema tag of a serialized metrics snapshot.
METRICS_SCHEMA = schema("metrics")

#: Version number of the snapshot schema.
METRICS_SCHEMA_VERSION = 1

#: Per-timer cap on retained observations.  ``count``/``total_s`` stay exact
#: beyond the cap; the percentile statistics then describe the first
#: ``_TIMER_VALUE_CAP`` observations (campaigns rarely exceed it).
_TIMER_VALUE_CAP = 100_000


def timer_stats(values: List[float], count: int, total: float) -> Dict[str, float]:
    """Summary statistics of one timer's observations."""
    stats: Dict[str, float] = {
        "count": float(count),
        "total_s": float(total),
        "mean_s": float(total / count) if count else 0.0,
    }
    if values:
        ordered = sorted(values)
        stats["min_s"] = float(ordered[0])
        stats["max_s"] = float(ordered[-1])
        stats["median_s"] = float(interpolated_quantile(ordered, 0.5))
        stats["p95_s"] = float(interpolated_quantile(ordered, 0.95))
    return stats


class _TimerHandle:
    """Context manager recording one timed region into a registry."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_TimerHandle":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)


class MetricsRegistry:
    """In-process metrics accumulator (counters, gauges, timers).

    Not thread-safe by design: the campaign layer is process-parallel, not
    thread-parallel, and each process owns (at most) one registry.  Pool
    workers of a parallel campaign run a fresh registry per chunk of tasks
    and return its :meth:`worker_snapshot` with their results; the parent
    folds each one back in with ``worker.*`` provenance via
    :meth:`merge_worker_snapshot`.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._timer_values: Dict[str, List[float]] = {}
        self._timer_counts: Dict[str, int] = {}
        self._timer_totals: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration observation into timer ``name``."""
        seconds = float(seconds)
        self._timer_counts[name] = self._timer_counts.get(name, 0) + 1
        self._timer_totals[name] = self._timer_totals.get(name, 0.0) + seconds
        values = self._timer_values.setdefault(name, [])
        if len(values) < _TIMER_VALUE_CAP:
            values.append(seconds)

    def time(self, name: str) -> _TimerHandle:
        """Context manager timing a region into timer ``name``."""
        return _TimerHandle(self, name)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        """A copy of all counters (used for before/after deltas)."""
        return dict(self._counters)

    def snapshot(self) -> Dict[str, Any]:
        """The schema-versioned JSON-serializable state of the registry."""
        return {
            "schema": METRICS_SCHEMA,
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "timers": {
                name: timer_stats(
                    self._timer_values.get(name, []),
                    self._timer_counts[name],
                    self._timer_totals[name],
                )
                for name in sorted(self._timer_counts)
            },
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Persist the snapshot as a JSON file; returns the written path."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    # ------------------------------------------------------------------
    # cross-process fan-in (parallel campaign workers)
    # ------------------------------------------------------------------
    def worker_snapshot(self) -> Dict[str, Any]:
        """The raw, picklable state of this registry for a parent process.

        Unlike :meth:`snapshot`, timers keep their *raw* retained values (not
        just the computed statistics) so the parent can merge counts, totals
        and percentile inputs exactly -- medians/p95 of the fan-in equal the
        single-process run bit for bit.
        """
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "timers": {
                name: {
                    "count": int(self._timer_counts[name]),
                    "total_s": float(self._timer_totals[name]),
                    "values": list(self._timer_values.get(name, [])),
                }
                for name in sorted(self._timer_counts)
            },
        }

    def merge_worker_snapshot(
        self, payload: Dict[str, Any], prefix: str = "worker."
    ) -> None:
        """Fold one :meth:`worker_snapshot` into this registry.

        Every merged name carries ``prefix`` as provenance (so
        ``engine.solver.runs`` counted inside pool workers lands as
        ``worker.engine.solver.runs`` next to the parent's own counters).
        Counters add, gauges keep the last merged snapshot's value, and
        timers merge counts/totals/raw values exactly.
        """
        for name, value in payload.get("counters", {}).items():
            self.inc(prefix + name, value)
        for name, value in payload.get("gauges", {}).items():
            self.gauge(prefix + name, value)
        for name, timer in payload.get("timers", {}).items():
            merged = prefix + name
            self._timer_counts[merged] = self._timer_counts.get(merged, 0) + int(
                timer.get("count", 0)
            )
            self._timer_totals[merged] = self._timer_totals.get(merged, 0.0) + float(
                timer.get("total_s", 0.0)
            )
            values = self._timer_values.setdefault(merged, [])
            for value in timer.get("values", []):
                if len(values) >= _TIMER_VALUE_CAP:
                    break
                values.append(float(value))


def load_metrics(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a snapshot written by :meth:`MetricsRegistry.write`.

    Raises
    ------
    ValueError
        If the document does not carry the ``hex-repro/metrics/v1`` schema.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"{path}: not a metrics snapshot (expected schema {METRICS_SCHEMA!r}, "
            f"got {payload.get('schema') if isinstance(payload, dict) else type(payload).__name__!r})"
        )
    return payload


def metrics_delta(
    before: Optional[Dict[str, float]], after: Optional[Dict[str, float]]
) -> Dict[str, float]:
    """Per-counter difference between two :meth:`MetricsRegistry.counters` copies."""
    if not after:
        return {}
    before = before or {}
    delta: Dict[str, float] = {}
    for name in sorted(after):
        change = after[name] - before.get(name, 0.0)
        if change:
            delta[name] = change
    return delta
