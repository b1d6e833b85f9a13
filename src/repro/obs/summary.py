"""Offline summarization of trace, metrics and soak artifacts.

Backs the ``hex-repro trace summarize <file>`` verb: given a path, sniff
whether it is a ``hex-repro/metrics/v1`` JSON snapshot, a
``hex-repro/trace/v1`` JSONL trace or a ``hex-repro/soak/v1`` checkpoint,
aggregate it, and render a short human-readable report (or a JSON document
with ``--json``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.checks.schemas import schema
from repro.obs.metrics import METRICS_SCHEMA, load_metrics, timer_stats
from repro.obs.trace import TRACE_SCHEMA, load_trace_records
from repro.stream import StreamSummary

__all__ = ["summarize_file", "render_summary"]

_SOAK_SCHEMA = schema("soak")


def summarize_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Summarize a metrics/trace/soak artifact into one JSON-ready dict.

    The result always carries ``"file"`` and ``"format"`` (``"metrics"``,
    ``"trace"`` or ``"soak"``) keys.

    Raises
    ------
    ValueError
        If the file is not one of the recognized artifact formats.
    FileNotFoundError
        If the file does not exist.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    head = ""
    with path.open("r", encoding="utf-8") as handle:
        head = handle.read(4096)
    if TRACE_SCHEMA in head.partition("\n")[0]:
        return _summarize_trace(path)
    if METRICS_SCHEMA in head:
        return _summarize_metrics(path)
    if _SOAK_SCHEMA in head:
        return _summarize_soak(path)
    # Canonical JSON sorts keys, so a soak checkpoint with large sketch
    # states may carry its "schema" key beyond the sniffed head -- fall back
    # to parsing the whole document once before giving up.
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        payload = None
    if isinstance(payload, dict) and payload.get("schema") == _SOAK_SCHEMA:
        return _summarize_soak(path, payload=payload)
    raise ValueError(
        f"{path}: unrecognized artifact (expected a {METRICS_SCHEMA!r} snapshot, "
        f"a {TRACE_SCHEMA!r} trace or a {_SOAK_SCHEMA!r} checkpoint)"
    )


def _summarize_soak(path: Path, payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    if payload is None:
        payload = json.loads(path.read_text(encoding="utf-8"))
    skew = StreamSummary.from_json_dict(payload["skew"]).stats()
    recovery = StreamSummary.from_json_dict(payload["recovery_s"]).stats()
    return {
        "file": str(path),
        "format": "soak",
        "schema": payload["schema"],
        "spec": payload.get("spec", {}),
        "epochs_completed": int(payload.get("epochs_completed", 0)),
        "pulses_completed": int(payload.get("pulses_completed", 0)),
        "faults_injected": int(payload.get("faults_injected", 0)),
        "faults_healed": int(payload.get("faults_healed", 0)),
        "recoveries": int(payload.get("recoveries", 0)),
        "pulses_per_s": float(payload.get("pulses_per_s", 0.0)),
        "rss_bytes": int(payload.get("rss_bytes", 0)),
        "wall_time_s": float(payload.get("wall_time_s", 0.0)),
        "skew": skew,
        "recovery_s": recovery,
    }


def _summarize_metrics(path: Path) -> Dict[str, Any]:
    payload = load_metrics(path)
    return {
        "file": str(path),
        "format": "metrics",
        "schema": payload["schema"],
        "counters": payload.get("counters", {}),
        "gauges": payload.get("gauges", {}),
        "timers": payload.get("timers", {}),
    }


#: Span name counted as "tasks" in per-worker rollups of parallel traces
#: (each span counts its ``size`` tasks).
_TASK_SPAN_NAME = "campaign.task_batch"


def _summarize_trace(path: Path) -> Dict[str, Any]:
    records = load_trace_records(path)
    spans: Dict[str, Dict[str, Any]] = {}
    event_counts: Dict[str, int] = {}
    des_kinds: Dict[str, int] = {}
    workers: Dict[int, Dict[str, Any]] = {}
    max_depth = 0
    total_span_time = 0.0
    num_spans = 0
    for record in records:
        kind = record.get("type")
        if kind == "span":
            num_spans += 1
            max_depth = max(max_depth, int(record.get("depth", 0)))
            name = record.get("name", "?")
            duration = float(record.get("duration_s", 0.0))
            bucket = spans.setdefault(name, {"values": [], "count": 0, "total": 0.0})
            bucket["count"] += 1
            bucket["total"] += duration
            bucket["values"].append(duration)
            if record.get("depth", 0) == 0:
                total_span_time += duration
            worker = record.get("worker")
            if worker is not None:
                rollup = workers.setdefault(
                    int(worker),
                    {"spans": 0, "tasks": 0, "task_values": [], "max_rss_bytes": 0},
                )
                rollup["spans"] += 1
                attrs = record.get("attrs") or {}
                rss = attrs.get("max_rss_bytes")
                if isinstance(rss, (int, float)):
                    rollup["max_rss_bytes"] = max(rollup["max_rss_bytes"], int(rss))
                if name == _TASK_SPAN_NAME:
                    rollup["tasks"] += int(attrs.get("size", 1))
                    rollup["task_values"].append(duration)
        elif kind == "event":
            name = record.get("name", "?")
            event_counts[name] = event_counts.get(name, 0) + 1
            if name == "des.event":
                des_kind = (record.get("attrs") or {}).get("kind", "?")
                des_kinds[des_kind] = des_kinds.get(des_kind, 0) + 1
    by_worker: Dict[str, Dict[str, Any]] = {}
    for pid in sorted(workers):
        rollup = workers[pid]
        values = rollup.pop("task_values")
        stats = timer_stats(values, len(values), sum(values))
        by_worker[str(pid)] = {
            "spans": rollup["spans"],
            "tasks": rollup["tasks"],
            "task_total_s": stats["total_s"],
            "task_median_s": stats.get("median_s", 0.0),
            "max_rss_bytes": rollup["max_rss_bytes"],
        }
    return {
        "file": str(path),
        "format": "trace",
        "schema": TRACE_SCHEMA,
        "num_spans": num_spans,
        "num_events": sum(event_counts.values()),
        "max_depth": max_depth,
        "top_level_time_s": total_span_time,
        "spans": {
            name: timer_stats(bucket["values"], bucket["count"], bucket["total"])
            for name, bucket in sorted(spans.items())
        },
        "events": dict(sorted(event_counts.items())),
        "des_event_kinds": dict(sorted(des_kinds.items())),
        "workers": by_worker,
    }


def render_summary(
    summary: Dict[str, Any], top: Optional[int] = None, by_worker: bool = False
) -> str:
    """Format a :func:`summarize_file` result as a human-readable report.

    ``top`` truncates the per-name span table of trace summaries to the
    ``top`` names with the largest total time (the rest are folded into one
    "... and K more" line); metrics and soak reports ignore it.  ``by_worker``
    adds the per-worker rollup table of a parallel-campaign trace (tasks,
    total/median task time, peak RSS per worker pid).
    """
    lines: List[str] = []
    if summary["format"] == "soak":
        spec = summary["spec"]
        lines.append(f"soak checkpoint {summary['file']} ({summary['schema']})")
        lines.append(
            f"  grid {spec.get('layers', '?')}x{spec.get('width', '?')}, "
            f"seed {spec.get('seed', '?')}: "
            f"{summary['pulses_completed']} pulses over "
            f"{summary['epochs_completed']} epochs"
        )
        lines.append(
            f"  throughput {summary['pulses_per_s']:.0f} pulses/s, "
            f"wall {summary['wall_time_s']:.1f}s, "
            f"rss {summary['rss_bytes'] / 1e6:.1f}MB"
        )
        lines.append(
            f"  faults: {summary['faults_injected']} injected, "
            f"{summary['faults_healed']} healed, "
            f"{summary['recoveries']} recoveries"
        )
        skew = summary["skew"]
        lines.append(
            f"  skew ({int(skew['count'])} pulses): mean {skew['mean']:.4g}  "
            f"p50 {skew['p50']:.4g}  p95 {skew['p95']:.4g}  max {skew['max']:.4g}"
        )
        recovery = summary["recovery_s"]
        if recovery["count"]:
            lines.append(
                f"  recovery ({int(recovery['count'])} heals): "
                f"mean {recovery['mean']:.4g}  p50 {recovery['p50']:.4g}  "
                f"p95 {recovery['p95']:.4g}  max {recovery['max']:.4g}"
            )
        return "\n".join(lines)
    if summary["format"] == "metrics":
        lines.append(f"metrics snapshot {summary['file']} ({summary['schema']})")
        counters = summary["counters"]
        if counters:
            lines.append("  counters:")
            for name, value in counters.items():
                lines.append(f"    {name:<40} {_fmt_number(value)}")
        gauges = summary["gauges"]
        if gauges:
            lines.append("  gauges:")
            for name, value in gauges.items():
                lines.append(f"    {name:<40} {value:.4g}")
        timers = summary["timers"]
        if timers:
            lines.append("  timers:")
            for name, stats in timers.items():
                lines.append(
                    f"    {name:<40} n={int(stats.get('count', 0))}"
                    f" total={stats.get('total_s', 0.0):.4f}s"
                    f" mean={stats.get('mean_s', 0.0) * 1e3:.3f}ms"
                    f" p95={stats.get('p95_s', 0.0) * 1e3:.3f}ms"
                )
        if not (counters or gauges or timers):
            lines.append("  (empty)")
    else:
        lines.append(f"trace {summary['file']} ({summary['schema']})")
        lines.append(
            f"  {summary['num_spans']} spans (max depth {summary['max_depth']}), "
            f"{summary['num_events']} events, "
            f"top-level time {summary['top_level_time_s']:.4f}s"
        )
        workers = summary.get("workers") or {}
        if workers:
            lines.append(
                f"  {len(workers)} pool worker(s) (pids: {', '.join(workers)})"
            )
        if by_worker and workers:
            lines.append("  by worker:")
            lines.append(
                f"    {'pid':<10} {'spans':>6} {'tasks':>6} "
                f"{'task total':>12} {'task median':>12} {'peak rss':>10}"
            )
            for pid, rollup in workers.items():
                lines.append(
                    f"    {pid:<10} {rollup['spans']:>6} {rollup['tasks']:>6} "
                    f"{rollup['task_total_s']:>11.4f}s "
                    f"{rollup['task_median_s'] * 1e3:>10.3f}ms "
                    f"{rollup['max_rss_bytes'] / 1e6:>8.1f}MB"
                )
        if summary["spans"]:
            items = list(summary["spans"].items())
            omitted = 0
            if top is not None and top >= 0 and len(items) > top:
                items.sort(key=lambda pair: pair[1].get("total_s", 0.0), reverse=True)
                omitted = len(items) - top
                items = items[:top]
            lines.append("  spans by name:")
            for name, stats in items:
                lines.append(
                    f"    {name:<40} n={int(stats.get('count', 0))}"
                    f" total={stats.get('total_s', 0.0):.4f}s"
                    f" mean={stats.get('mean_s', 0.0) * 1e3:.3f}ms"
                    f" p95={stats.get('p95_s', 0.0) * 1e3:.3f}ms"
                )
            if omitted:
                lines.append(f"    ... and {omitted} more")
        if summary["events"]:
            lines.append("  events by name:")
            for name, count in summary["events"].items():
                lines.append(f"    {name:<40} {count}")
        if summary["des_event_kinds"]:
            lines.append("  DES event kinds:")
            for kind, count in summary["des_event_kinds"].items():
                lines.append(f"    {kind:<40} {count}")
    return "\n".join(lines)


def _fmt_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def summary_to_json(summary: Dict[str, Any]) -> str:
    """Serialize a summary dict as stable, indented JSON."""
    return json.dumps(summary, indent=2, sort_keys=True)
