"""Per-layer metrics from the spans of one traced run.

:data:`PER_LAYER` is the full table -- name, unit, which direction is
better -- that ``BENCHMARK.json`` mirrors.  :func:`layer_metrics` fills it
from a ``traced.py`` spans file.  A layer's self time is its spans'
durations minus the direct child spans named in the metric's definition.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("cli.import_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("campaign.spec.expand_s", "s", "lower"),
    ("campaign.spec.task_key_s", "s", "lower"),
    ("campaign.spec.task_keys", "count", "lower"),
    ("campaign.store.load_s", "s", "lower"),
    ("campaign.store.records_loaded", "count", "lower"),
    ("campaign.store.append_s", "s", "lower"),
    ("campaign.store.appends", "count", "lower"),
    ("campaign.store.bytes_written", "bytes", "lower"),
    ("campaign.records.canonical_json_s", "s", "lower"),
    ("campaign.runner.run_s", "s", "lower"),
    ("campaign.runner.batch_self_s", "s", "lower"),
    ("campaign.runner.batches", "count", "higher"),
    ("campaign.runner.batched_tasks", "count", "higher"),
    ("campaign.runner.worker_busy_s", "s", "lower"),
    ("campaign.runner.worker_utilization", "ratio", "higher"),
    ("campaign.runner.dispatch_wait_s", "s", "lower"),
    ("engines.solver.run_batch_s", "s", "lower"),
    ("engines.solver.run_calls", "count", "lower"),
    ("core.pulse_solver.planned_s", "s", "lower"),
    ("core.pulse_solver.planned_calls", "count", "higher"),
    ("core.pulse_solver.reference_s", "s", "lower"),
    ("core.pulse_solver.reference_calls", "count", "lower"),
    ("core.pulse_solver.messages_delivered", "count", "lower"),
    ("core.pulse_solver.heap_pushes", "count", "lower"),
    ("core.pulse_solver.ns_per_message", "ns", "lower"),
    ("engines.des.multi_pulse_s", "s", "lower"),
    ("engines.des.multi_pulse_calls", "count", "lower"),
    ("simulation.network.run_s", "s", "lower"),
    ("simulation.network.events_processed", "count", "lower"),
    ("simulation.network.ns_per_event", "ns", "lower"),
    ("experiments.soak.checkpoint_s", "s", "lower"),
    ("experiments.soak.checkpoints", "count", "lower"),
    ("experiments.soak.epoch_self_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Metrics that count work exactly: equal on every traced run of one input.
DETERMINISTIC = [
    name
    for name, unit, _ in PER_LAYER
    if unit == "count"
]

#: The engine-kernel metrics; pool workers run these where no parent-side
#: span can see them, so ``sweep-parallel`` takes them from a serial replay.
ENGINE_LAYER = [name for name, _, _ in PER_LAYER if name.startswith(("engines.", "core."))]


class Spans:
    """Lookups over one spans file's ``[name, start, end, parent, counts]`` rows."""

    def __init__(self, rows: Iterable[list]) -> None:
        self.rows = list(rows)
        self.children: Dict[int, List[int]] = defaultdict(list)
        for index, (_, _, _, parent, _) in enumerate(self.rows):
            if parent >= 0:
                self.children[parent].append(index)

    def _named(self, name: str) -> List[int]:
        return [index for index, row in enumerate(self.rows) if row[0] == name]

    def _duration(self, index: int) -> float:
        return self.rows[index][2] - self.rows[index][1]

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(self._duration(index) for index in self._named(name))

    def calls(self, name: str) -> int:
        """Number of spans called ``name``."""
        return len(self._named(name))

    def count(self, name: str, key: str) -> int:
        """Sum of one work count over the spans called ``name``."""
        return sum(self.rows[index][4].get(key, 0) for index in self._named(name))

    def self_time(self, name: str, minus: Tuple[str, ...] = ("",)) -> float:
        """Duration of ``name`` spans minus their direct children whose
        names start with one of ``minus`` (default: every child)."""
        result = 0.0
        for index in self._named(name):
            result += self._duration(index) - sum(
                self._duration(child)
                for child in self.children[index]
                if self.rows[child][0].startswith(minus)
            )
        return result


def layer_metrics(
    trace: dict, process_wall_s: float, workers: int, worker_busy_s: float
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead_frac``.

    ``trace`` is a spans file's payload, ``process_wall_s`` the traced
    process's spawn-to-exit wall, ``workers`` the campaign's worker count
    and ``worker_busy_s`` the summed ``wall_time_s`` of the records the run
    appended to its store shard.
    """
    spans = Spans(trace["spans"])
    traced_wall = trace["end"] - trace["entry"]
    run_s = spans.total("campaign.runner.run")
    kernel_s = spans.total("core.pulse_solver.planned") + spans.total("core.pulse_solver.reference")
    messages = spans.count("core.pulse_solver.planned", "messages") + spans.count(
        "core.pulse_solver.reference", "messages"
    )
    network_s = spans.total("simulation.network.run")
    events = spans.count("simulation.network.run", "events")
    budget = workers * run_s
    return {
        "cli.import_s": spans.total("cli.import"),
        "cli.main_self_s": spans.self_time("cli.main"),
        "cli.interpreter_s": process_wall_s - traced_wall,
        "campaign.spec.expand_s": spans.total("campaign.spec.expand"),
        "campaign.spec.task_key_s": spans.total("campaign.spec.task_key"),
        "campaign.spec.task_keys": spans.calls("campaign.spec.task_key"),
        "campaign.store.load_s": spans.total("campaign.store.load"),
        "campaign.store.records_loaded": spans.count("campaign.store.load", "records"),
        "campaign.store.append_s": spans.total("campaign.store.append"),
        "campaign.store.appends": spans.calls("campaign.store.append"),
        "campaign.store.bytes_written": spans.count("campaign.store.append", "bytes"),
        "campaign.records.canonical_json_s": spans.total("campaign.records.canonical_json"),
        "campaign.runner.run_s": run_s,
        "campaign.runner.batch_self_s": spans.self_time("campaign.runner.batch", ("engines.",)),
        "campaign.runner.batches": spans.calls("campaign.runner.batch"),
        "campaign.runner.batched_tasks": spans.count("campaign.runner.batch", "tasks"),
        "campaign.runner.worker_busy_s": worker_busy_s,
        "campaign.runner.worker_utilization": worker_busy_s / budget if budget > 0 else 0.0,
        "campaign.runner.dispatch_wait_s": budget - worker_busy_s,
        "engines.solver.run_batch_s": spans.total("engines.solver.run_batch"),
        "engines.solver.run_calls": spans.calls("engines.solver.run")
        + spans.calls("engines.solver.run_batch"),
        "core.pulse_solver.planned_s": spans.total("core.pulse_solver.planned"),
        "core.pulse_solver.planned_calls": spans.calls("core.pulse_solver.planned"),
        "core.pulse_solver.reference_s": spans.total("core.pulse_solver.reference"),
        "core.pulse_solver.reference_calls": spans.calls("core.pulse_solver.reference"),
        "core.pulse_solver.messages_delivered": messages,
        "core.pulse_solver.heap_pushes": spans.count("core.pulse_solver.planned", "heap_pushes")
        + spans.count("core.pulse_solver.reference", "heap_pushes"),
        "core.pulse_solver.ns_per_message": kernel_s / messages * 1e9 if messages else 0.0,
        "engines.des.multi_pulse_s": spans.total("engines.des.multi_pulse"),
        "engines.des.multi_pulse_calls": spans.calls("engines.des.multi_pulse"),
        "simulation.network.run_s": network_s,
        "simulation.network.events_processed": events,
        "simulation.network.ns_per_event": network_s / events * 1e9 if events else 0.0,
        "experiments.soak.checkpoint_s": spans.total("experiments.soak.checkpoint"),
        "experiments.soak.checkpoints": spans.calls("experiments.soak.checkpoint"),
        "experiments.soak.epoch_self_s": spans.self_time(
            "experiments.soak.run", ("engines.des.multi_pulse", "experiments.soak.checkpoint")
        ),
        "trace.coverage": (spans.total("cli.import") + spans.total("cli.main")) / traced_wall,
    }
