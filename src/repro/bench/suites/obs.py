"""Observability suite: the cost of having (and not having) ``repro.obs``.

Three tracked cases:

* ``runner_overhead`` -- the campaign runner's orchestration cost with
  observability off (the shipping default), measured against direct
  ``execute_task_batch`` calls over the identical task list.  The full-mode
  check pins the overhead -- which includes every disabled obs guard on the
  hot path -- below 5%, the acceptance bar of the observability PR.
* ``obs_on_overhead`` -- the same seeded sweep with observability fully on
  (metrics + span trace); the check asserts the subsystem's hard contract
  (canonical records byte-identical either way), the info records the
  slowdown factor for the BENCH artifact.
* ``noop_guards`` -- microbenchmark of the disabled ``span``/``inc`` no-op
  guards (nanoseconds per call), so a regression that puts real work on the
  disabled path is visible in isolation.
* ``worker_fanin`` -- a 2-worker parallel campaign with cross-process
  observability fully on vs off; the check asserts record bit-identity plus
  the fan-in products (worker-tagged task spans parented under
  ``campaign.run``, ``worker.*`` counters incl. the deterministic work
  counters), the info records the instrumented slowdown.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any, Dict, List

from repro import obs
from repro.bench.case import BenchCase, BenchSettings
from repro.bench.registry import register_case
from repro.campaign import CampaignRunner, CampaignSpec, SweepSpec
from repro.campaign.runner import execute_task_batch

SUITE = "obs"

#: Serial-path batch size of :class:`CampaignRunner` (its default).
_BATCH_SIZE = 32


def _spec(settings: BenchSettings) -> CampaignSpec:
    cell = SweepSpec(
        layers=(24, 36),
        width=12,
        scenario=("i", "iii"),
        num_faults=0,
        runs=max(4, settings.effective_runs()),
        seed_salt=906,
    )
    return CampaignSpec(name="bench-obs", seed=2013, cells=(cell,))


def _raw_records(spec: CampaignSpec) -> List[Any]:
    """The reference execution: direct batch calls, no runner orchestration."""
    tasks = spec.tasks()
    records: List[Any] = []
    for start in range(0, len(tasks), _BATCH_SIZE):
        records.extend(execute_task_batch(tasks[start : start + _BATCH_SIZE]))
    return records


def _make_runner_overhead(settings: BenchSettings):
    spec = _spec(settings)
    # Warm the global grid / solver-plan caches outside the timed region so
    # the first measured execution does not pay their construction.
    _raw_records(spec)

    def workload() -> Dict[str, Any]:
        assert not obs.enabled()
        start = time.perf_counter()
        raw = _raw_records(spec)
        raw_wall = time.perf_counter() - start
        start = time.perf_counter()
        result = CampaignRunner(spec, workers=1, batch_size=_BATCH_SIZE).run()
        runner_wall = time.perf_counter() - start
        return {
            "spec": spec,
            "raw": raw,
            "result": result,
            "raw_wall_s": raw_wall,
            "runner_wall_s": runner_wall,
        }

    return workload


def _check_runner_overhead(result: Dict[str, Any], settings: BenchSettings) -> None:
    assert [r.canonical_json() for r in result["raw"]] == [
        r.canonical_json() for r in result["result"].records
    ]
    overhead = result["runner_wall_s"] / result["raw_wall_s"] - 1.0
    assert overhead < 0.05, (
        f"campaign-runner overhead {overhead * 100:.1f}% over direct batch "
        f"execution exceeds the 5% observability-PR bar "
        f"(runner {result['runner_wall_s']:.3f}s vs raw {result['raw_wall_s']:.3f}s)"
    )


def _info_runner_overhead(result: Dict[str, Any], settings: BenchSettings) -> Dict[str, Any]:
    return {
        "tasks": result["spec"].num_tasks,
        "raw_wall_s": round(result["raw_wall_s"], 4),
        "runner_wall_s": round(result["runner_wall_s"], 4),
        "overhead_pct": round(
            (result["runner_wall_s"] / result["raw_wall_s"] - 1.0) * 100, 2
        ),
    }


register_case(
    BenchCase(
        name="runner_overhead",
        suite=SUITE,
        make=_make_runner_overhead,
        repeats=3,
        quick_repeats=1,
        check=_check_runner_overhead,
        # Timing-floor check: meaningful on full-mode repeats, too noisy to
        # gate the CI-sized quick run.
        quick_check=False,
        info=_info_runner_overhead,
    ),
    replace=True,
)


def _make_obs_on_overhead(settings: BenchSettings):
    spec = _spec(settings)
    _raw_records(spec)

    def workload() -> Dict[str, Any]:
        start = time.perf_counter()
        off = CampaignRunner(spec, workers=1).run()
        off_wall = time.perf_counter() - start
        handle, trace_path = tempfile.mkstemp(suffix=".jsonl", prefix="hex-obs-bench-")
        os.close(handle)
        try:
            with obs.observed(trace=trace_path):
                start = time.perf_counter()
                on = CampaignRunner(spec, workers=1).run()
                on_wall = time.perf_counter() - start
        finally:
            os.unlink(trace_path)
        return {
            "spec": spec,
            "off": off,
            "on": on,
            "off_wall_s": off_wall,
            "on_wall_s": on_wall,
        }

    return workload


def _check_obs_on_overhead(result: Dict[str, Any], settings: BenchSettings) -> None:
    # The subsystem's hard contract: enabling observability never changes
    # canonical records.  Deterministic, so it gates quick mode too.
    assert [r.canonical_json() for r in result["off"].records] == [
        r.canonical_json() for r in result["on"].records
    ]


def _info_obs_on_overhead(result: Dict[str, Any], settings: BenchSettings) -> Dict[str, Any]:
    return {
        "tasks": result["spec"].num_tasks,
        "off_wall_s": round(result["off_wall_s"], 4),
        "on_wall_s": round(result["on_wall_s"], 4),
        "slowdown_factor": round(result["on_wall_s"] / result["off_wall_s"], 3),
    }


register_case(
    BenchCase(
        name="obs_on_overhead",
        suite=SUITE,
        make=_make_obs_on_overhead,
        repeats=3,
        quick_repeats=1,
        check=_check_obs_on_overhead,
        quick_check=True,
        info=_info_obs_on_overhead,
    ),
    replace=True,
)


def _make_noop_guards(settings: BenchSettings):
    iterations = 200_000 if settings.quick else 1_000_000

    def workload() -> Dict[str, Any]:
        assert not obs.enabled()
        start = time.perf_counter()
        for _ in range(iterations):
            obs.inc("bench.noop")
        inc_wall = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(iterations):
            with obs.span("bench.noop"):
                pass
        span_wall = time.perf_counter() - start
        return {
            "iterations": iterations,
            "inc_ns": inc_wall / iterations * 1e9,
            "span_ns": span_wall / iterations * 1e9,
        }

    return workload


def _info_noop_guards(result: Dict[str, Any], settings: BenchSettings) -> Dict[str, Any]:
    return {
        "iterations": result["iterations"],
        "disabled_inc_ns": round(result["inc_ns"], 1),
        "disabled_span_ns": round(result["span_ns"], 1),
    }


register_case(
    BenchCase(
        name="noop_guards",
        suite=SUITE,
        make=_make_noop_guards,
        repeats=3,
        quick_repeats=1,
        info=_info_noop_guards,
    ),
    replace=True,
)


def _fanin_spec(settings: BenchSettings) -> CampaignSpec:
    # Single-cell spec: fork/teardown cost dominates a 2-worker pool, so the
    # sweep itself stays small and the case measures the fan-in machinery.
    cell = SweepSpec(
        layers=(24,),
        width=12,
        scenario=("i",),
        num_faults=0,
        runs=max(4, settings.effective_runs()),
        seed_salt=907,
    )
    return CampaignSpec(name="bench-obs-fanin", seed=2013, cells=(cell,))


def _make_worker_fanin(settings: BenchSettings):
    spec = _fanin_spec(settings)
    CampaignRunner(spec, workers=1).run()  # warm grid/plan caches in-process

    def workload() -> Dict[str, Any]:
        assert not obs.enabled()
        start = time.perf_counter()
        off = CampaignRunner(spec, workers=2).run()
        off_wall = time.perf_counter() - start
        trace_dir = tempfile.mkdtemp(prefix="hex-obs-fanin-")
        trace_path = os.path.join(trace_dir, "fanin-trace.jsonl")
        try:
            with obs.observed(trace=trace_path) as session:
                start = time.perf_counter()
                on = CampaignRunner(spec, workers=2).run()
                on_wall = time.perf_counter() - start
                counters = dict(session.registry.snapshot()["counters"])
            records = obs.load_trace_records(trace_path)
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
        run_id = next(r["span_id"] for r in records if r.get("name") == "campaign.run")
        worker_tasks = [
            r
            for r in records
            if "worker" in r and r.get("name") in ("campaign.task", "campaign.task_batch")
        ]
        return {
            "spec": spec,
            "off": off,
            "on": on,
            "off_wall_s": off_wall,
            "on_wall_s": on_wall,
            "counters": counters,
            "worker_tasks_under_run": bool(worker_tasks)
            and all(r["parent_id"] == run_id for r in worker_tasks),
        }

    return workload


def _check_worker_fanin(result: Dict[str, Any], settings: BenchSettings) -> None:
    # Cross-process contract, all deterministic so it gates quick mode too:
    # records identical either way, worker task spans written into the
    # parent trace under campaign.run, and the workers' engine-level counters (incl. the deterministic work
    # counters) fanned back in under the worker.* provenance prefix.
    assert [r.canonical_json() for r in result["off"].records] == [
        r.canonical_json() for r in result["on"].records
    ]
    assert result["worker_tasks_under_run"], (
        "parallel trace lacks worker-tagged task spans parented under campaign.run"
    )
    counters = result["counters"]
    tasks = result["spec"].num_tasks
    assert counters.get("worker.campaign.tasks_executed") == tasks, (
        f"expected worker.campaign.tasks_executed == {tasks}, "
        f"got {counters.get('worker.campaign.tasks_executed')}"
    )
    for name in (
        "worker.solver.heap_pushes",
        "worker.solver.frontier_advances",
        "worker.solver.messages_delivered",
    ):
        assert counters.get(name, 0) > 0, f"missing merged work counter {name}"


def _info_worker_fanin(result: Dict[str, Any], settings: BenchSettings) -> Dict[str, Any]:
    counters = result["counters"]
    return {
        "tasks": result["spec"].num_tasks,
        "off_wall_s": round(result["off_wall_s"], 4),
        "on_wall_s": round(result["on_wall_s"], 4),
        "slowdown_factor": round(result["on_wall_s"] / result["off_wall_s"], 3),
        "worker_heap_pushes": counters.get("worker.solver.heap_pushes", 0),
        "worker_messages_delivered": counters.get(
            "worker.solver.messages_delivered", 0
        ),
    }


register_case(
    BenchCase(
        name="worker_fanin",
        suite=SUITE,
        make=_make_worker_fanin,
        repeats=3,
        quick_repeats=1,
        check=_check_worker_fanin,
        quick_check=True,
        info=_info_worker_fanin,
    ),
    replace=True,
)
