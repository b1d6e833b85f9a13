"""``repro.obs``: zero-overhead-by-default observability.

The subsystem is a strict no-op unless explicitly enabled: module state starts
as ``None``, every public helper is guarded by one ``is None`` check, and no
instrumentation site in the deterministic core imports anything from here
(the DES hook is dependency-injected, see :mod:`repro.obs.capture`).

Three facilities share one on/off switch:

* **metrics** -- a process-global :class:`~repro.obs.metrics.MetricsRegistry`
  fed by counters/gauges/timers at instrumentation sites;
* **tracing** -- a :class:`~repro.obs.trace.Tracer` writing nested spans and
  point events to a ``hex-repro/trace/v1`` JSONL file;
* **DES event capture** -- per-run :class:`~repro.obs.capture.DesRunObserver`
  instances recording every simulation event into the trace.

The hard contract (test-enforced, see ``tests/test_obs.py``): enabling or
disabling any of these never changes content keys, seed streams or canonical
records.  Instrumentation *reads* state; it never draws randomness and never
mutates the simulation.

Typical programmatic use::

    from repro import obs

    with obs.observed(trace="run.jsonl", des_events=True) as session:
        result = runner.run()
    session.registry.write("metrics.json")

State crosses process boundaries on the result channel itself: the campaign
runner hands pool workers :func:`worker_telemetry` (what to record), each
worker runs its chunk of tasks under a fresh in-memory :class:`worker_session`
and returns the finished span records and a raw metrics snapshot next to its
run records, and the parent folds both into its own session with
:func:`absorb_worker` -- metrics under ``worker.*`` provenance, spans
re-parented under the live ``campaign.run`` span and tagged with the worker
pid.  No file is shared between processes.

The metrics, trace and capture modules load when a session records what
they implement (or one of their names below is first read), so a process
that never turns observability on never imports them.
"""

from __future__ import annotations

import importlib
import os as _os
import time as _time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.obs import resources
from repro.obs.log import configure_logging, get_logger

if TYPE_CHECKING:
    from repro.obs.capture import DesRunObserver
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "METRICS_SCHEMA": "metrics",
    "METRICS_SCHEMA_VERSION": "metrics",
    "MetricsRegistry": "metrics",
    "load_metrics": "metrics",
    "metrics_delta": "metrics",
    "TRACE_SCHEMA": "trace",
    "MemorySink": "trace",
    "Tracer": "trace",
    "TraceSink": "trace",
    "load_trace_records": "trace",
    "load_event_trace": "trace",
    "first_firing_matrix_from_events": "capture",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


__all__ = [
    *_EXPORTS,
    "ObsSession",
    "configure_logging",
    "get_logger",
    "enable",
    "disable",
    "WorkerTelemetry",
    "worker_telemetry",
    "worker_session",
    "absorb_worker",
    "observed",
    "enabled",
    "metrics_enabled",
    "tracing_enabled",
    "des_events_enabled",
    "registry",
    "tracer",
    "span",
    "event",
    "inc",
    "gauge",
    "observe",
    "des_observer",
    "record_des_observer",
    "resources",
]

# ----------------------------------------------------------------------
# module-global state (None == disabled == zero overhead)
# ----------------------------------------------------------------------
_registry: Optional[MetricsRegistry] = None
_tracer: Optional[Tracer] = None
_des_events: bool = False


class ObsSession:
    """Handle returned by :func:`enable` / :func:`observed`.

    Exposes the live registry/tracer so callers can snapshot metrics or
    inspect trace counters after the observed region ends.
    """

    def __init__(
        self, registry: Optional[MetricsRegistry], tracer: Optional[Tracer]
    ) -> None:
        self.registry = registry
        self.tracer = tracer

    def write_metrics(self, path: Union[str, Path]) -> Optional[Path]:
        """Write the metrics snapshot if metrics are on; returns the path."""
        if self.registry is None:
            return None
        return self.registry.write(path)


def enable(
    *,
    metrics: bool = True,
    trace: Optional[Union[str, Path, Tracer]] = None,
    des_events: bool = False,
) -> ObsSession:
    """Turn observability on for this process.

    Parameters
    ----------
    metrics:
        Create a fresh :class:`MetricsRegistry` fed by all ``inc``/``gauge``/
        ``observe`` sites.
    trace:
        Path of a ``hex-repro/trace/v1`` JSONL file; when given, spans and
        events are recorded through a fresh :class:`Tracer`.  A ready
        :class:`Tracer` is used as is (pool workers pass one writing to a
        :class:`MemorySink`).
    des_events:
        Capture every DES event of every run into the trace (requires
        ``trace``; expensive for large runs, meant for single-run forensics).
        Without a trace file, ``des_events`` still records per-kind counters
        if metrics are on.
    """
    global _registry, _tracer, _des_events
    disable()
    # Import only what this session records: pool workers enter a session
    # for every chunk, mostly with both facilities off.
    _registry = None
    if metrics:
        from repro.obs.metrics import MetricsRegistry

        _registry = MetricsRegistry()
    _tracer = None
    if trace is not None:
        from repro.obs.trace import Tracer, TraceSink

        _tracer = trace if isinstance(trace, Tracer) else Tracer(TraceSink(trace))
    _des_events = bool(des_events)
    return ObsSession(_registry, _tracer)


def disable() -> None:
    """Turn observability off, closing any open trace file (idempotent)."""
    global _registry, _tracer, _des_events
    if _tracer is not None:
        _tracer.close()
    _registry = None
    _tracer = None
    _des_events = False


class observed:
    """Context manager enabling observability for a region, then restoring.

    Restores whatever state was active before (normally: disabled), so nested
    or test use cannot leak an enabled registry into later code.
    """

    def __init__(
        self,
        *,
        metrics: bool = True,
        trace: Optional[Union[str, Path, Tracer]] = None,
        des_events: bool = False,
    ) -> None:
        self._kwargs = {"metrics": metrics, "trace": trace, "des_events": des_events}
        self._previous: Optional[tuple] = None

    def __enter__(self) -> ObsSession:
        global _registry, _tracer, _des_events
        self._previous = (_registry, _tracer, _des_events)
        # Detach (without closing) any outer session before enable() resets:
        # a closed outer tracer must not be restored on exit.
        _registry, _tracer, _des_events = None, None, False
        return enable(**self._kwargs)

    def __exit__(self, *exc_info) -> None:
        global _registry, _tracer, _des_events
        disable()
        assert self._previous is not None
        _registry, _tracer, _des_events = self._previous
        self._previous = None


# ----------------------------------------------------------------------
# pool workers: telemetry travels back with the results
# ----------------------------------------------------------------------
#: What a pool worker records: ``(metrics, trace origin, des_events)``, where
#: the origin is the parent tracer's ``perf_counter`` anchor (``None`` when
#: the parent is not tracing).
WorkerTelemetry = Tuple[bool, Optional[float], bool]


def worker_telemetry() -> Optional[WorkerTelemetry]:
    """The picklable request a pool worker needs, or ``None`` when obs is off."""
    if not enabled():
        return None
    origin = _tracer.origin if _tracer is not None else None
    return (_registry is not None, origin, _des_events)


class worker_session:
    """Run one pool-worker region under a fresh in-memory session.

    Whatever obs state the worker inherited is detached, never written to or
    closed: under ``fork`` that is the parent's live registry and tracer,
    whose trace file handle shares its offset with the parent.  The region
    records what ``telemetry`` (from :func:`worker_telemetry`) asks for; on
    exit the inherited state is restored and the results are picklable:

    * ``spans`` -- the finished span and event records, each tagged with
      ``"worker": <pid>`` and timed on the parent's timeline
      (``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so offsets from the
      parent's origin are comparable across processes on one machine);
    * ``metrics`` -- :meth:`MetricsRegistry.worker_snapshot`, or ``None``.
    """

    def __init__(self, telemetry: Optional[WorkerTelemetry]) -> None:
        metrics, origin, des_events = telemetry or (False, None, False)
        self._tracer: Optional[Tracer] = None
        if origin is not None:
            from repro.obs import trace

            self._tracer = trace.Tracer(trace.MemorySink(), origin=origin)
        self._observed = observed(metrics=metrics, trace=self._tracer, des_events=des_events)
        self._registry: Optional[MetricsRegistry] = None
        self.spans: List[Dict[str, Any]] = []
        self.metrics: Optional[Dict[str, Any]] = None

    def __enter__(self) -> "worker_session":
        self._registry = self._observed.__enter__().registry
        return self

    def __exit__(self, *exc_info) -> None:
        self._observed.__exit__(*exc_info)
        if self._tracer is not None:
            pid = _os.getpid()
            self.spans = [dict(record, worker=pid) for record in self._tracer.sink.records]
        if self._registry is not None:
            self.metrics = self._registry.worker_snapshot()


def absorb_worker(
    spans: List[Dict[str, Any]], metrics: Optional[Dict[str, Any]]
) -> None:
    """Fold one :class:`worker_session`'s telemetry into this process's session.

    Metrics merge under the ``worker.*`` prefix; spans are written through
    the live tracer as children of the current span (normally
    ``campaign.run``), with ids renumbered from the tracer's own counter
    (:meth:`Tracer.adopt`).  Telemetry the parent does not record is dropped.
    """
    if _registry is not None and metrics is not None:
        _registry.merge_worker_snapshot(metrics)
    if _tracer is not None and spans:
        _tracer.adopt(spans)


# ----------------------------------------------------------------------
# cheap state queries
# ----------------------------------------------------------------------
def enabled() -> bool:
    """Whether any observability facility is on."""
    return _registry is not None or _tracer is not None


def metrics_enabled() -> bool:
    """Whether the metrics registry is live."""
    return _registry is not None


def tracing_enabled() -> bool:
    """Whether a trace file is being written."""
    return _tracer is not None


def des_events_enabled() -> bool:
    """Whether per-run DES event capture was requested."""
    return _des_events


def registry() -> Optional[MetricsRegistry]:
    """The live registry, or ``None`` when metrics are off."""
    return _registry


def tracer() -> Optional[Tracer]:
    """The live tracer, or ``None`` when tracing is off."""
    return _tracer


# ----------------------------------------------------------------------
# no-op-guarded instrumentation API
# ----------------------------------------------------------------------
class _NullSpan:
    """Shared do-nothing span handle used while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager pairing ``Tracer.start_span`` with a metrics timer."""

    __slots__ = ("_name", "_attrs", "_span", "_timer_start", "_registry")

    def __init__(self, name: str, attrs: dict) -> None:
        self._name = name
        self._attrs = attrs
        self._span = None
        self._registry = _registry
        self._timer_start = 0.0

    def __enter__(self):
        if _tracer is not None:
            self._span = _tracer.start_span(self._name, **self._attrs)
        if self._registry is not None:
            self._timer_start = _time.perf_counter()
        return self._span if self._span is not None else self

    def __exit__(self, *exc_info) -> None:
        if self._registry is not None:
            self._registry.observe(
                f"{self._name}_s", _time.perf_counter() - self._timer_start
            )
        if self._span is not None and _tracer is not None:
            _tracer.end_span(self._span)

    def set(self, **attrs: Any) -> None:
        if self._span is not None:
            self._span.set(**attrs)


def span(name: str, **attrs: Any):
    """A traced + timed region; a shared no-op handle when obs is off.

    Meant for per-run / per-batch granularity (engine runs, campaign tasks),
    NOT for per-event loops -- those go through the dependency-injected
    :class:`DesRunObserver` instead.
    """
    if _tracer is None and _registry is None:
        return _NULL_SPAN
    return _LiveSpan(name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a point-in-time trace event (no-op without a tracer)."""
    if _tracer is not None:
        _tracer.event(name, **attrs)


def inc(name: str, value: float = 1.0) -> None:
    """Increment a counter (no-op without metrics)."""
    if _registry is not None:
        _registry.inc(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge (no-op without metrics)."""
    if _registry is not None:
        _registry.gauge(name, value)


def observe(name: str, seconds: float) -> None:
    """Record a timer observation (no-op without metrics)."""
    if _registry is not None:
        _registry.observe(name, seconds)


# ----------------------------------------------------------------------
# DES run capture plumbing (used by repro.engines.des)
# ----------------------------------------------------------------------
def des_observer() -> Optional[DesRunObserver]:
    """A fresh per-run observer when obs is on, else ``None``.

    The DES engine assigns the result to ``HexNetwork.observer``; a ``None``
    leaves the network's single ``is None`` guard as the only cost.
    """
    if not enabled():
        return None
    from repro.obs.capture import DesRunObserver

    return DesRunObserver(capture_events=_des_events and _tracer is not None)


def record_des_observer(
    observer: Optional[DesRunObserver],
    *,
    events_scheduled: int = 0,
    events_processed: int = 0,
    stale_high_assertions: int = 0,
    dropped_arrivals: int = 0,
    timers_deferred: int = 0,
) -> None:
    """Flush one finished run's counters and observer into the registry and tracer.

    The counts come from the network, which keeps them unconditionally as
    plain ints (they cost nothing extra): ``events_scheduled`` /
    ``events_processed`` from its
    :class:`~repro.simulation.engine.EventQueue`; the two silent skips
    of its event loop -- stuck-at-1 assertions dropped because the link
    stopped being stuck (``stale_high_assertions``) and arrivals dropped at
    nodes that were not executing (``dropped_arrivals``); and the link and
    sleep timers the loop armed without queuing an event
    (``timers_deferred``), which settle when their node next takes a
    message and so are in neither ``events_processed`` nor the per-kind
    event counts.  ``observer`` is
    ``None`` when the caller supplied its own network observer (soak): the
    counters are recorded all the same.
    """
    if _registry is not None:
        _registry.inc("des.events_scheduled", events_scheduled)
        _registry.inc("des.events_processed", events_processed)
        _registry.inc("des.stale_high_assertions", stale_high_assertions)
        _registry.inc("des.dropped_arrivals", dropped_arrivals)
        _registry.inc("des.timers_deferred", timers_deferred)
        if observer is not None:
            for kind, count in sorted(observer.counts.items()):
                _registry.inc(f"des.{kind}", count)
    if _tracer is not None and observer is not None and observer.capture_events:
        for record in observer.events:
            attrs = dict(record)
            kind = attrs.pop("kind")
            _tracer.event("des.event", kind=kind, **attrs)
