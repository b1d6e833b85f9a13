"""Span-style tracing with a JSONL file sink.

A trace file is newline-delimited JSON carrying the ``hex-repro/trace/v1``
schema.  The first line is a header record; every following line is either a
``span`` (a timed region, written when the span closes) or an ``event`` (a
point-in-time record, e.g. one DES event when per-run event capture is on)::

    {"type": "header", "schema": "hex-repro/trace/v1", "schema_version": 1}
    {"type": "span", "name": "engine.run", "span_id": 3, "parent_id": 2, ...}
    {"type": "event", "name": "des.event", "span_id": 3, ...}

Spans nest: :meth:`Tracer.span` pushes onto a per-tracer stack, so a span
opened inside ``campaign.run`` records that span's id as its ``parent_id``.
Durations come from ``time.perf_counter``; the wall-clock anchor of the whole
trace is irrelevant, so ``start_s`` values are offsets from tracer creation.

Like the metrics registry, the tracer only *reads* program state -- it never
draws randomness and never mutates anything in the deterministic core.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.checks.schemas import schema

__all__ = [
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "MemorySink",
    "TraceSink",
    "Tracer",
    "load_trace",
    "load_trace_records",
    "load_event_trace",
]

#: Schema tag carried in the header line of a trace file.
TRACE_SCHEMA = schema("trace")

#: Version number of the trace schema.
TRACE_SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Coerce an attribute value to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return str(value)


class TraceSink:
    """Buffered JSONL writer for trace records.

    The header line is written eagerly on construction so that even an empty
    (or crashed) run leaves a parseable, schema-identified file behind.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = self.path.open("w", encoding="utf-8")
        header: Dict[str, Any] = {
            "type": "header",
            "schema": TRACE_SCHEMA,
            "schema_version": TRACE_SCHEMA_VERSION,
        }
        self.write(header)

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record as a JSON line (no-op after :meth:`close`)."""
        if self._handle is None:
            return
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemorySink:
    """Trace sink keeping records in a list instead of a file.

    Pool workers of a parallel campaign trace into one and return
    :attr:`records` with their results; the parent writes them into its own
    trace with :meth:`Tracer.adopt`.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def write(self, record: Dict[str, Any]) -> None:
        """Keep one record."""
        self.records.append(record)

    def close(self) -> None:
        """Nothing to release."""


class _Span:
    """One open span; records itself to the sink when closed."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "depth", "start", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start = time.perf_counter()
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach extra attributes to the span before it closes."""
        self.attrs.update(attrs)


class Tracer:
    """Produces nested spans and point events, writing them to a sink.

    ``origin`` overrides the timeline anchor: by default ``start_s`` values
    are offsets from tracer creation, but worker tracers of a parallel
    campaign are anchored at the *parent's* origin so their spans land on
    the parent's timeline (``time.perf_counter`` is ``CLOCK_MONOTONIC`` on
    Linux -- comparable across processes on one machine).
    """

    def __init__(
        self,
        sink: Union[TraceSink, MemorySink],
        origin: Optional[float] = None,
    ) -> None:
        self.sink = sink
        self._ids = itertools.count(1)
        self._stack: List[_Span] = []
        self._origin = time.perf_counter() if origin is None else float(origin)
        self.num_spans = 0
        self.num_events = 0

    @property
    def origin(self) -> float:
        """The ``time.perf_counter`` value all ``start_s`` offsets anchor to."""
        return self._origin

    @property
    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span, or ``None`` at top level."""
        return self._stack[-1].span_id if self._stack else None

    def start_span(self, name: str, **attrs: Any) -> _Span:
        """Open a span nested under the current one; pair with :meth:`end_span`."""
        span = _Span(
            tracer=self,
            name=name,
            span_id=next(self._ids),
            parent_id=self.current_span_id,
            depth=len(self._stack),
            attrs={key: _jsonable(value) for key, value in attrs.items()},
        )
        self._stack.append(span)
        return span

    def end_span(self, span: _Span) -> None:
        """Close ``span`` (and any spans left open inside it) and record it."""
        end = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            record = {
                "type": "span",
                "name": top.name,
                "span_id": top.span_id,
                "parent_id": top.parent_id,
                "depth": top.depth,
                "start_s": top.start - self._origin,
                "duration_s": end - top.start,
            }
            if top.attrs:
                record["attrs"] = top.attrs
            self.sink.write(record)
            self.num_spans += 1
            if top is span:
                break

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event attached to the current span."""
        record: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "span_id": self.current_span_id,
            "time_s": time.perf_counter() - self._origin,
        }
        if attrs:
            record["attrs"] = {key: _jsonable(value) for key, value in attrs.items()}
        self.sink.write(record)
        self.num_events += 1

    def adopt(self, records: Iterable[Dict[str, Any]]) -> None:
        """Write another tracer's finished records under the current span.

        Span ids are renumbered from this tracer's own counter (so every id
        in the trace stays unique), root spans and top-level events are
        re-parented under the current span, and depths shift below it.  A
        parallel campaign writes its pool workers' spans this way.
        """
        parent_id = self.current_span_id
        depth_shift = len(self._stack)
        ids: Dict[int, int] = {}

        def renumber(old: Optional[int]) -> Optional[int]:
            if old is None:
                return parent_id
            if old not in ids:
                ids[old] = next(self._ids)
            return ids[old]

        for record in records:
            record = dict(record)
            record["span_id"] = renumber(record.get("span_id"))
            if record.get("type") == "span":
                record["parent_id"] = renumber(record.get("parent_id"))
                record["depth"] = int(record.get("depth", 0)) + depth_shift
                self.num_spans += 1
            else:
                self.num_events += 1
            self.sink.write(record)

    def close(self) -> None:
        """Close any spans still open, then close the sink."""
        while self._stack:
            self.end_span(self._stack[-1])
        self.sink.close()


def load_trace(
    path: Union[str, Path]
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse a ``hex-repro/trace/v1`` JSONL file into ``(header, records)``.

    The header line is validated and returned separately.

    Raises
    ------
    ValueError
        If the file is empty or the header does not carry the expected schema.
    """
    path = Path(path)
    records: List[Dict[str, Any]] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number + 1}: invalid JSON: {error}") from error
            records.append(record)
    if not records:
        raise ValueError(f"{path}: empty trace file")
    header = records[0]
    if header.get("type") != "header" or header.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{path}: not a trace file (expected schema {TRACE_SCHEMA!r} header, "
            f"got {header.get('schema')!r})"
        )
    return header, records[1:]


def load_trace_records(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a ``hex-repro/trace/v1`` JSONL file into a list of records.

    The header line is validated and excluded from the returned list; use
    :func:`load_trace` when the header's provenance fields matter.
    """
    return load_trace(path)[1]


def load_event_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load the captured DES events from a trace file.

    The file is the JSONL artifact of ``--trace run.jsonl --trace-events``;
    span records are dropped and each returned dict is the flattened event
    payload -- ``kind`` plus the kind-specific fields (``node``, ``time``,
    ``pulse_index``, ...) -- ordered as simulated.
    :func:`~repro.obs.capture.first_firing_matrix_from_events` rebuilds the
    run's first-firing matrix from them.

    Raises ``ValueError`` when the file is not a trace artifact or carries
    no captured DES events (tracing without ``--trace-events`` records spans
    only).
    """
    events = [
        dict(record.get("attrs", {}))
        for record in load_trace_records(path)
        if record.get("type") == "event" and record.get("name") == "des.event"
    ]
    if not events:
        raise ValueError(
            f"{path}: trace contains no captured DES events "
            "(was the run traced with --trace-events?)"
        )
    return events
