"""Traced run: ``repro.cli.main(argv)`` in-process, with spans around layers.

Usage: ``python perfbench/traced.py SPANS_FILE <repro CLI arguments...>``
with the checkout's ``src`` first on ``PYTHONPATH``.

The program is not modified.  After a timed fresh ``import repro.cli`` this
script replaces the public entry point of each layer (listed in
:func:`install`) with a wrapper that records a span -- name, start, end,
parent span, plus a few exact work counts read from the arguments or the
result -- into an in-memory list.  When ``main`` returns, the list is
written to ``SPANS_FILE`` as JSON and the process exits with ``main``'s
exit code.  ``perfbench/layers.py`` turns the spans into per-layer metrics.

Pool workers forked by ``sweep --workers N`` inherit the wrappers, but their
spans stay in the worker and are lost; the benchmark takes worker-side
numbers from the records' ``wall_time_s`` instead.
"""

import time

_ENTRY = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """In-memory span recorder: ``[name, start, end, parent, counts]`` rows."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def add(self, name, start, end, counts=None):
        """Record a span measured by the caller (a root span)."""
        self.spans.append([name, start, end, -1, counts or {}])

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` wrapped in a span.

        ``before(*args, **kwargs)`` runs ahead of the span and its value is
        handed to ``after(state, result, *args, **kwargs)``, which returns the
        span's counts; both stay outside the timed interval.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before is not None else None
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, {}])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                spans[index][4] = after(state, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def method(self, cls, attr, name, before=None, after=None):
        """Wrap ``cls.attr`` in place (a missing entry point records nothing)."""
        if hasattr(cls, attr):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), before, after))

    def function(self, module, attr, name, before=None, after=None):
        """Wrap ``module.attr`` and every ``repro`` module's import of it."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self.wrap(name, original, before, after)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                loaded.__dict__.get(attr) is original
            ):
                setattr(loaded, attr, wrapper)


def _solver_work(_state, solution, *_args, **_kwargs):
    work = getattr(solution, "work", {})
    return {
        "messages": work.get("messages_delivered", 0),
        "heap_pushes": work.get("heap_pushes", 0),
    }


def _events_processed(net, *_args, **_kwargs):
    return getattr(getattr(net, "queue", None), "num_processed", 0)


def install(tracer):
    """Wrap the public entry point of every measured layer."""
    from repro.campaign import records, runner, spec, store
    from repro.core import pulse_solver
    from repro.engines import des, solver
    from repro.experiments import soak
    from repro.simulation import network

    tracer.method(spec.CampaignSpec, "tasks", "campaign.spec.expand")
    tracer.method(spec.RunTask, "key", "campaign.spec.task_key")
    tracer.method(
        store.CampaignStore,
        "load",
        "campaign.store.load",
        after=lambda _state, loaded, *_a, **_k: {"records": len(loaded)},
    )
    tracer.method(
        store.ShardWriter,
        "append",
        "campaign.store.append",
        before=lambda writer, _record: os.path.getsize(writer.path),
        after=lambda size, _r, writer, _record: {"bytes": os.path.getsize(writer.path) - size},
    )
    tracer.method(records.RunRecord, "canonical_json", "campaign.records.canonical_json")
    tracer.method(runner.CampaignRunner, "run", "campaign.runner.run")
    tracer.function(
        runner,
        "execute_task_batch",
        "campaign.runner.batch",
        after=lambda _state, _records, tasks: {"tasks": len(tasks)},
    )
    tracer.method(solver.SolverEngine, "run", "engines.solver.run")
    tracer.method(solver.SolverEngine, "run_batch", "engines.solver.run_batch")
    tracer.function(
        pulse_solver, "solve_single_pulse_planned", "core.pulse_solver.planned", after=_solver_work
    )
    tracer.function(
        pulse_solver, "solve_single_pulse", "core.pulse_solver.reference", after=_solver_work
    )
    tracer.method(des.DesEngine, "multi_pulse", "engines.des.multi_pulse")
    # Counted from outside: the program's own des.events_processed counter is
    # skipped whenever a caller installs its own observer (soak does).
    tracer.method(
        network.HexNetwork,
        "run",
        "simulation.network.run",
        before=_events_processed,
        after=lambda seen, _r, net, *_a, **_k: {"events": _events_processed(net) - seen},
    )
    tracer.function(soak, "save_checkpoint", "experiments.soak.checkpoint")
    tracer.function(soak, "run_soak", "experiments.soak.run")


def main(spans_file, argv):
    tracer = Tracer()
    start = time.perf_counter()
    import repro.cli

    tracer.add("cli.import", start, time.perf_counter())
    install(tracer)
    code = tracer.wrap("cli.main", repro.cli.main)(argv)
    end = time.perf_counter()
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump({"entry": _ENTRY, "end": end, "exit_code": code, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
