"""Tests of ``repro.obs``: registry, tracer, no-op guards, DES capture,
the bit-identity contract and the CLI surface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import timer_stats
from repro.obs.summary import render_summary, summarize_file, summary_to_json


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Every test starts and ends with observability off (process-global state)."""
    obs.disable()
    yield
    obs.disable()


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_timers(self):
        registry = obs.MetricsRegistry()
        registry.inc("runs")
        registry.inc("runs", 2)
        registry.gauge("utilization", 0.75)
        registry.gauge("utilization", 0.5)  # last write wins
        registry.observe("step_s", 0.1)
        registry.observe("step_s", 0.3)
        snap = registry.snapshot()
        assert snap["schema"] == obs.METRICS_SCHEMA
        assert snap["schema_version"] == obs.METRICS_SCHEMA_VERSION
        assert snap["counters"] == {"runs": 3.0}
        assert snap["gauges"] == {"utilization": 0.5}
        stats = snap["timers"]["step_s"]
        assert stats["count"] == 2
        assert stats["total_s"] == pytest.approx(0.4)
        assert stats["mean_s"] == pytest.approx(0.2)
        assert stats["min_s"] == pytest.approx(0.1)
        assert stats["max_s"] == pytest.approx(0.3)

    def test_time_context_manager_records_an_observation(self):
        registry = obs.MetricsRegistry()
        with registry.time("block_s"):
            pass
        stats = registry.snapshot()["timers"]["block_s"]
        assert stats["count"] == 1
        assert stats["total_s"] >= 0.0

    def test_snapshot_keys_are_sorted(self):
        registry = obs.MetricsRegistry()
        registry.inc("zebra")
        registry.inc("aardvark")
        assert list(registry.snapshot()["counters"]) == ["aardvark", "zebra"]

    def test_write_and_load_roundtrip(self, tmp_path):
        registry = obs.MetricsRegistry()
        registry.inc("runs", 5)
        path = registry.write(tmp_path / "metrics.json")
        payload = obs.load_metrics(path)
        assert payload["counters"] == {"runs": 5.0}

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "something/else", "counters": {}}))
        with pytest.raises(ValueError, match="schema"):
            obs.load_metrics(path)

    def test_metrics_delta_keeps_only_changes(self):
        registry = obs.MetricsRegistry()
        registry.inc("steady", 7)
        before = registry.counters()
        registry.inc("moved", 2)
        registry.inc("steady", 0)
        delta = obs.metrics_delta(before, registry.counters())
        assert delta == {"moved": 2.0}

    def test_timer_stats_quantiles(self):
        values = [float(i) for i in range(1, 101)]
        stats = timer_stats(values, len(values), sum(values))
        assert stats["median_s"] == pytest.approx(50.5)
        assert stats["p95_s"] == pytest.approx(95.05)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_header_written_eagerly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = obs.TraceSink(path)
        sink.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["type"] == "header"
        assert header["schema"] == obs.TRACE_SCHEMA
        assert obs.load_trace_records(path) == []

    def test_span_nesting_parent_ids_and_depth(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = obs.Tracer(obs.TraceSink(path))
        outer = tracer.start_span("outer", label="a")
        inner = tracer.start_span("inner")
        tracer.event("ping", n=1)
        tracer.end_span(inner)
        tracer.end_span(outer)
        tracer.close()
        records = obs.load_trace_records(path)
        by_name = {r["name"]: r for r in records if r["type"] == "span"}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["outer"]["depth"] == 0
        assert by_name["outer"]["attrs"] == {"label": "a"}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["depth"] == 1
        # Spans are written on close: inner closes before outer.
        span_names = [r["name"] for r in records if r["type"] == "span"]
        assert span_names == ["inner", "outer"]
        (event,) = [r for r in records if r["type"] == "event"]
        assert event["name"] == "ping"
        assert event["span_id"] == by_name["inner"]["span_id"]
        assert event["attrs"] == {"n": 1}

    def test_close_ends_dangling_spans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = obs.Tracer(obs.TraceSink(path))
        tracer.start_span("left-open")
        tracer.close()
        records = obs.load_trace_records(path)
        assert [r["name"] for r in records] == ["left-open"]

    def test_load_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text('{"type": "header", "schema": "bogus/v9"}\n')
        with pytest.raises(ValueError, match="not a trace file"):
            obs.load_trace_records(path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            obs.load_trace_records(empty)

    def test_attrs_coerced_to_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = obs.Tracer(obs.TraceSink(path))
        span = tracer.start_span("s", node=(3, 4), arr=np.int64(7))
        span.set(extra={"k": (1, 2)})
        tracer.end_span(span)
        tracer.close()
        (record,) = obs.load_trace_records(path)
        assert record["attrs"]["node"] == [3, 4]
        assert record["attrs"]["extra"] == {"k": [1, 2]}


# ----------------------------------------------------------------------
# global on/off switch
# ----------------------------------------------------------------------
class TestGlobalState:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.registry() is None
        assert obs.tracer() is None
        # Every guard is a no-op and the span handle is the shared singleton.
        obs.inc("nope")
        obs.gauge("nope", 1.0)
        obs.observe("nope", 0.1)
        obs.event("nope")
        first = obs.span("a", x=1)
        second = obs.span("b")
        assert first is second
        with first:
            first.set(anything=True)
        assert obs.des_observer() is None
        obs.record_des_observer(None)  # must not raise

    def test_enable_disable_cycle(self, tmp_path):
        session = obs.enable(metrics=True, trace=tmp_path / "t.jsonl")
        assert obs.enabled() and obs.metrics_enabled() and obs.tracing_enabled()
        obs.inc("runs")
        with obs.span("region", tag="x"):
            obs.event("mark")
        obs.disable()
        obs.disable()  # idempotent
        assert not obs.enabled()
        assert session.registry.snapshot()["counters"] == {"runs": 1.0}
        # A live span also feeds a timer observation named "<name>_s".
        assert "region_s" in session.registry.snapshot()["timers"]
        records = obs.load_trace_records(tmp_path / "t.jsonl")
        assert {r["type"] for r in records} == {"span", "event"}

    def test_observed_restores_outer_session(self, tmp_path):
        outer = obs.enable(metrics=True, trace=tmp_path / "outer.jsonl")
        obs.inc("outer.count")
        with obs.observed(trace=tmp_path / "inner.jsonl") as inner:
            obs.inc("inner.count")
            assert obs.registry() is inner.registry
        # Outer session restored, its tracer still writable.
        assert obs.registry() is outer.registry
        obs.inc("outer.count")
        with obs.span("still-works"):
            pass
        obs.disable()
        assert outer.registry.snapshot()["counters"]["outer.count"] == 2.0
        assert inner.registry.snapshot()["counters"] == {"inner.count": 1.0}
        assert [r["name"] for r in obs.load_trace_records(tmp_path / "outer.jsonl")] == [
            "still-works"
        ]

    def test_metrics_only_session_has_no_trace(self):
        obs.enable(metrics=True)
        assert obs.metrics_enabled() and not obs.tracing_enabled()
        obs.event("dropped")  # no tracer: silently ignored
        with obs.span("timed"):
            pass
        assert "timed_s" in obs.registry().snapshot()["timers"]


# ----------------------------------------------------------------------
# DES capture + the bit-identity contract
# ----------------------------------------------------------------------
def _des_spec(**overrides):
    from repro.engines.base import RunSpec

    defaults = dict(
        kind="single_pulse",
        layers=8,
        width=6,
        scenario="iii",
        num_faults=4,
        fault_type="byzantine",
        entropy=99,
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


class TestDesCapture:
    def test_event_capture_reconstructs_firing_matrix(self, tmp_path):
        from repro.engines import get_engine

        spec = _des_spec()
        engine = get_engine("des")
        trace = tmp_path / "run.jsonl"
        with obs.observed(trace=trace, des_events=True) as session:
            result = engine.run(spec, np.random.default_rng(99))
        counters = session.registry.snapshot()["counters"]
        assert counters["engine.des.runs"] == 1.0
        assert counters["des.events_processed"] > 0
        assert counters["des.firing"] > 0

        events = obs.load_event_trace(trace)
        kinds = {event["kind"] for event in events}
        assert {"source_pulse", "arrival", "firing"} <= kinds
        matrix = obs.first_firing_matrix_from_events(events, spec.layers, spec.width)
        times = np.asarray(result.trigger_times, dtype=float)
        finite = np.isfinite(times)
        assert (np.isfinite(matrix) == finite).all()
        assert np.allclose(matrix[finite], times[finite])

    def test_event_trace_without_captured_events_is_rejected(self, tmp_path):
        trace = tmp_path / "spans.jsonl"
        with obs.observed(trace=trace):
            pass
        with pytest.raises(ValueError, match="no captured DES events"):
            obs.load_event_trace(trace)

    def test_adversary_actions_are_counted(self, tmp_path):
        from repro.adversary.schedule import FaultSchedule
        from repro.engines import get_engine

        schedule = FaultSchedule.burst(time=20.0, count=2, duration=40.0)
        spec = _des_spec(
            kind="multi_pulse",
            num_faults=0,
            fault_type=None,
            num_pulses=4,
            fault_schedule=schedule,
        )
        engine = get_engine("des")
        with obs.observed(trace=tmp_path / "adv.jsonl", des_events=True) as session:
            engine.run(spec, np.random.default_rng(7))
        counters = session.registry.snapshot()["counters"]
        assert counters["des.adversary"] == 4.0  # 2 injections + 2 heals
        assert counters["des.faults_injected"] == 2.0
        assert counters["des.faults_healed"] == 2.0
        events = [
            record
            for record in obs.load_trace_records(tmp_path / "adv.jsonl")
            if record.get("type") == "event"
            and record["attrs"].get("kind") == "adversary_action"
        ]
        assert len(events) == 4
        assert all("detail" in record["attrs"] for record in events)

    def test_event_capture_off_without_trace(self):
        obs.enable(metrics=True, des_events=True)
        observer = obs.des_observer()
        # Counters still collected; per-event records need a trace file.
        assert observer is not None
        assert observer.capture_events is False


class TestBitIdentity:
    """The subsystem's hard contract: observability never changes results."""

    def _sweep(self):
        from repro.campaign import CampaignRunner, CampaignSpec, SweepSpec

        cell = SweepSpec(
            layers=(8,),
            width=6,
            scenario=("i", "iii"),
            num_faults=(0, 2),
            runs=3,
            engine=("solver", "des"),
            seed_salt=41,
        )
        spec = CampaignSpec(name="obs-identity", seed=2013, cells=(cell,))
        return CampaignRunner(spec, workers=1).run()

    def test_seeded_sweep_is_bit_identical_with_obs_fully_on(self, tmp_path):
        from repro.campaign.records import pooled_statistics

        baseline = self._sweep()
        with obs.observed(trace=tmp_path / "sweep.jsonl", des_events=True):
            observed_run = self._sweep()

        assert [r.canonical_json() for r in baseline.records] == [
            r.canonical_json() for r in observed_run.records
        ]
        base_stats = pooled_statistics(baseline.records).as_row()
        obs_stats = pooled_statistics(observed_run.records).as_row()
        assert base_stats == obs_stats

    def test_parallel_workers_fan_telemetry_back_in(self, tmp_path):
        """Pool workers run their own in-memory sessions and send the spans
        and counters back with their records: worker activity lands in the
        parent trace and the ``worker.*`` counters, while the records stay
        byte-identical to the serial obs-off run."""
        from repro.campaign import CampaignRunner, CampaignSpec, SweepSpec

        cell = SweepSpec(
            layers=(8,), width=6, scenario=("i", "iii"), num_faults=0, runs=3,
            engine=("des",), seed_salt=42,
        )
        spec = CampaignSpec(name="obs-parallel", seed=2013, cells=(cell,))
        baseline = CampaignRunner(spec, workers=1).run()
        trace = tmp_path / "parallel.jsonl"
        with obs.observed(trace=trace) as session:
            parallel = CampaignRunner(spec, workers=2).run()
            counters = session.registry.snapshot()["counters"]
        assert [r.canonical_json() for r in baseline.records] == [
            r.canonical_json() for r in parallel.records
        ]
        records = obs.load_trace_records(trace)
        _assert_unique_span_ids(records)
        names = {r["name"] for r in records}
        assert "campaign.run" in names
        # Worker engine runs appear in the parent trace...
        worker_spans = [r for r in records if "worker" in r]
        assert {r["name"] for r in worker_spans} >= {"engine.run"}
        # ...with every worker task span parented under campaign.run.
        campaign_span = next(r for r in records if r.get("name") == "campaign.run")
        task_spans = [r for r in worker_spans if r["name"] == "campaign.task_batch"]
        assert task_spans
        assert all(r["parent_id"] == campaign_span["span_id"] for r in task_spans)
        assert all(r["depth"] == campaign_span["depth"] + 1 for r in task_spans)
        # ...and the worker counters fan back in with provenance.
        assert counters["worker.engine.des.runs"] == float(len(baseline.records))
        assert counters["worker.campaign.tasks_executed"] == float(
            len(baseline.records)
        )
        assert "engine.des.runs" not in counters  # parent ran no engine itself

    def test_task_content_keys_unchanged(self):
        from repro.campaign import CampaignSpec, SweepSpec

        cell = SweepSpec(layers=(8,), width=6, scenario=("i",), num_faults=0, runs=2)
        spec = CampaignSpec(name="obs-keys", seed=5, cells=(cell,))
        keys_off = [task.key() for task in spec.tasks()]
        obs.enable(metrics=True)
        keys_on = [task.key() for task in spec.tasks()]
        assert keys_off == keys_on


# ----------------------------------------------------------------------
# cross-process fan-in: telemetry rides the pool's result channel
# ----------------------------------------------------------------------
def _assert_unique_span_ids(records) -> None:
    ids = [r["span_id"] for r in records if r.get("type") == "span"]
    assert len(ids) == len(set(ids)), "span ids repeat (duplicated trace lines?)"


def _parallel_spec(name: str, engines=("solver",), runs: int = 2):
    from repro.campaign import CampaignSpec, SweepSpec

    cell = SweepSpec(
        layers=(8,), width=6, scenario=("i",), num_faults=0, runs=runs,
        engine=engines, seed_salt=43,
    )
    return CampaignSpec(name=name, seed=2013, cells=(cell,))


class TestCrossProcess:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_context_propagates_under_both_start_methods(self, tmp_path, start_method):
        """The pool's chunk function must work when workers inherit the
        parent state (fork) AND when they start from a fresh interpreter
        (spawn, the macOS/Windows default): same records as in-process, with
        their worker-encoded text, and the requested telemetry comes back
        with them."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method!r} not available")
        from repro.campaign.runner import _execute_chunk_in_worker, execute_task_batch

        tasks = _parallel_spec(f"obs-{start_method}", runs=3).tasks()
        expected = [r.canonical_json() for r in execute_task_batch(tasks)]
        with obs.observed(trace=tmp_path / f"{start_method}.jsonl"):
            telemetry = obs.worker_telemetry()
            context = multiprocessing.get_context(start_method)
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
                records, spans, metrics = pool.submit(
                    _execute_chunk_in_worker, tasks, telemetry, True
                ).result()
        # The worker encoded each record; its text came back with it.
        assert [r._canonical for r in records] == expected
        batch_span = next(r for r in spans if r["name"] == "campaign.task_batch")
        assert batch_span["parent_id"] is None  # a root until the parent adopts it
        assert batch_span["attrs"]["size"] == len(tasks)
        assert all(isinstance(r["worker"], int) for r in spans)
        assert metrics["counters"]["campaign.tasks_executed"] == float(len(tasks))
        assert metrics["counters"]["solver.heap_pushes"] > 0

    def test_worker_metrics_shard_merges_exactly(self):
        source = obs.MetricsRegistry()
        source.inc("engine.solver.runs", 3)
        source.gauge("campaign.worker_utilization", 0.5)
        for value in (0.1, 0.2, 0.4):
            source.observe("campaign.task_s", value)

        target = obs.MetricsRegistry()
        target.merge_worker_snapshot(source.worker_snapshot())
        snap = target.snapshot()
        assert snap["counters"] == {"worker.engine.solver.runs": 3.0}
        assert snap["gauges"] == {"worker.campaign.worker_utilization": 0.5}
        merged = snap["timers"]["worker.campaign.task_s"]
        original = source.snapshot()["timers"]["campaign.task_s"]
        # Raw values travel with the snapshot, so the percentile statistics
        # are exact -- not recomputed from pre-aggregated summaries.
        for key in ("count", "total_s", "mean_s", "median_s", "p95_s"):
            assert merged[key] == original[key]

    def test_adopted_spans_renumber_and_reparent(self, tmp_path):
        trace = tmp_path / "adopt.jsonl"
        worker = obs.Tracer(obs.MemorySink())
        outer = worker.start_span("campaign.task_batch")
        worker.event("note")
        inner = worker.start_span("engine.run")
        worker.end_span(inner)
        worker.end_span(outer)

        parent = obs.Tracer(obs.TraceSink(trace))
        run = parent.start_span("campaign.run")
        parent.adopt(worker.sink.records)
        parent.adopt(worker.sink.records)  # a second worker reusing the ids
        parent.end_span(run)
        parent.close()
        records = obs.load_trace_records(trace)
        _assert_unique_span_ids(records)
        roots = [r for r in records if r.get("name") == "campaign.task_batch"]
        assert [r["parent_id"] for r in roots] == [run.span_id] * 2
        assert [r["depth"] for r in roots] == [1, 1]
        root_ids = {r["span_id"] for r in roots}
        inners = [r for r in records if r.get("name") == "engine.run"]
        assert {r["parent_id"] for r in inners} == root_ids
        assert [r["depth"] for r in inners] == [2, 2]
        events = [r for r in records if r.get("name") == "note"]
        assert {r["span_id"] for r in events} == root_ids
        assert parent.num_spans == 5 and parent.num_events == 2

    def test_work_counters_identical_across_solver_paths(self):
        """The deterministic work counters are path-independent: a serial
        campaign (one batched chunk) and a parallel one (smaller chunks in
        pool workers, counted under ``worker.*``) report the same numbers."""
        from repro.campaign import CampaignRunner

        spec = _parallel_spec("obs-work", runs=3)
        with obs.observed(metrics=True) as session:
            CampaignRunner(spec, workers=1).run()
            serial = session.registry.snapshot()["counters"]
        with obs.observed(metrics=True) as session:
            CampaignRunner(spec, workers=1).run()
            serial_again = session.registry.snapshot()["counters"]
        with obs.observed(metrics=True) as session:
            CampaignRunner(spec, workers=2).run()
            parallel = session.registry.snapshot()["counters"]
        for name in ("heap_pushes", "frontier_advances", "messages_delivered"):
            assert serial[f"solver.{name}"] > 0
            assert serial[f"solver.{name}"] == serial_again[f"solver.{name}"]
            assert serial[f"solver.{name}"] == parallel[f"worker.solver.{name}"]

    def test_resource_attrs_stamped_on_task_spans(self, tmp_path):
        from repro.campaign.runner import execute_task_batch

        spec = _parallel_spec("obs-resources", runs=1)
        trace = tmp_path / "res.jsonl"
        with obs.observed(trace=trace):
            execute_task_batch(spec.tasks())
        records = obs.load_trace_records(trace)
        task_span = next(r for r in records if r.get("name") == "campaign.task_batch")
        attrs = task_span["attrs"]
        for key in ("cpu_user_s", "cpu_system_s", "gc_collections", "max_rss_bytes"):
            assert key in attrs
        assert attrs["max_rss_bytes"] > 0

    def test_resources_helpers(self):
        before = obs.resources.snapshot()
        attrs = obs.resources.delta_attrs(before)
        assert set(attrs) == {
            "cpu_user_s", "cpu_system_s", "gc_collections", "max_rss_bytes",
        }
        gauges = obs.resources.usage_gauges("soak")
        assert set(gauges) == {
            "soak.cpu_user_s", "soak.cpu_system_s", "soak.gc_collections",
            "soak.max_rss_bytes",
        }
        assert obs.resources.rss_bytes() > 0

    def test_summarize_merged_trace_by_worker(self, tmp_path, capsys):
        from repro.campaign import CampaignRunner
        from repro.cli import main

        spec = _parallel_spec("obs-byworker")
        trace = tmp_path / "bw.jsonl"
        with obs.observed(trace=trace):
            CampaignRunner(spec, workers=2).run()
        _assert_unique_span_ids(obs.load_trace_records(trace))
        summary = summarize_file(trace)
        assert summary["workers"]
        for rollup in summary["workers"].values():
            assert rollup["task_total_s"] >= 0.0
            assert rollup["max_rss_bytes"] > 0
        assert sum(r["tasks"] for r in summary["workers"].values()) == spec.num_tasks
        rendered = render_summary(summary, by_worker=True)
        assert "by worker:" in rendered and "peak rss" in rendered
        assert main(["trace", "summarize", str(trace), "--by-worker"]) == 0
        assert "by worker:" in capsys.readouterr().out


# ----------------------------------------------------------------------
# campaign wall-time aggregation
# ----------------------------------------------------------------------
class TestWallTimeSummary:
    def test_summary_fields(self):
        from repro.campaign import CampaignRunner, CampaignSpec, SweepSpec

        cell = SweepSpec(layers=(8,), width=6, scenario=("i",), num_faults=0, runs=4)
        spec = CampaignSpec(name="obs-walltime", seed=11, cells=(cell,))
        result = CampaignRunner(spec, workers=1).run()
        times = result.wall_time_summary()
        assert times["tasks"] == spec.num_tasks
        assert times["executed"] == spec.num_tasks
        assert times["cached"] == 0
        assert times["task_total_s"] > 0.0
        assert times["task_median_s"] <= times["task_p95_s"] <= times["task_total_s"]
        assert times["tasks_per_s"] > 0.0

    def test_campaign_gauges_populated_when_metrics_on(self):
        from repro.campaign import CampaignRunner, CampaignSpec, SweepSpec

        cell = SweepSpec(layers=(8,), width=6, scenario=("i",), num_faults=0, runs=2)
        spec = CampaignSpec(name="obs-gauges", seed=12, cells=(cell,))
        with obs.observed() as session:
            CampaignRunner(spec, workers=1).run()
        snap = session.registry.snapshot()
        assert snap["counters"]["campaign.tasks_executed"] == float(spec.num_tasks)
        for name in (
            "campaign.task_total_s",
            "campaign.task_median_s",
            "campaign.task_p95_s",
            "campaign.tasks_per_s",
            "campaign.worker_utilization",
        ):
            assert name in snap["gauges"]


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
class TestSummaries:
    def test_summarize_metrics_and_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with obs.observed(trace=trace) as session:
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.event("mark")
            obs.inc("runs", 3)
        metrics = tmp_path / "m.json"
        session.registry.write(metrics)

        trace_summary = summarize_file(trace)
        assert trace_summary["format"] == "trace"
        assert trace_summary["num_spans"] == 2
        assert trace_summary["max_depth"] == 1
        assert set(trace_summary["spans"]) == {"outer", "inner"}
        assert trace_summary["events"] == {"mark": 1}

        metrics_summary = summarize_file(metrics)
        assert metrics_summary["format"] == "metrics"
        assert metrics_summary["counters"]["runs"] == 3.0

        for summary in (trace_summary, metrics_summary):
            text = render_summary(summary)
            assert summary["file"] in text
            json.loads(summary_to_json(summary))  # valid JSON

    def test_summarize_rejects_unknown_files(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text("{}")
        with pytest.raises(ValueError, match="unrecognized"):
            summarize_file(bogus)
        with pytest.raises(FileNotFoundError):
            summarize_file(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_version_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "hex-repro" in capsys.readouterr().out

    def test_build_parser_does_not_resolve_the_version(self, monkeypatch):
        import importlib.metadata

        from repro.cli import build_parser

        def version(name):
            raise AssertionError(f"build_parser looked up the version of {name}")

        monkeypatch.setattr(importlib.metadata, "version", version)
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"

    def test_sweep_trace_metrics_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "sweep.jsonl"
        metrics = tmp_path / "sweep-metrics.json"
        argv = [
            "sweep",
            "--layers", "8",
            "--width", "6",
            "--scenarios", "i",
            "--runs", "2",
            "--trace", str(trace),
            "--metrics-out", str(metrics),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "task wall time:" in out

        assert obs.load_metrics(metrics)["counters"]["campaign.tasks_executed"] == 2.0
        records = obs.load_trace_records(trace)
        spans = {r["name"]: r for r in records if r["type"] == "span"}
        assert {"cli.parse", "campaign.run", "campaign.expand"} <= set(spans)
        assert spans["cli.parse"]["parent_id"] is None
        assert spans["campaign.expand"]["parent_id"] == spans["campaign.run"]["span_id"]
        assert spans["campaign.expand"]["attrs"] == {"tasks": 2}

        assert main(["trace", "summarize", str(trace)]) == 0
        assert "spans" in capsys.readouterr().out
        assert main(["trace", "summarize", str(metrics), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "metrics"

    def test_simulate_trace_events(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "sim.jsonl"
        argv = [
            "simulate",
            "--layers", "6",
            "--width", "5",
            "--runs", "1",
            "--engine", "des",
            "--trace", str(trace),
            "--trace-events",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        records = obs.load_trace_records(trace)
        des_events = [
            r for r in records if r["type"] == "event" and r["name"] == "des.event"
        ]
        assert des_events, "per-event DES capture produced no des.event records"

    def test_trace_events_requires_trace(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--runs", "1", "--trace-events"]) == 2
        assert "--trace-events requires --trace" in capsys.readouterr().err

    def test_trace_summarize_missing_file_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        capsys.readouterr()

    def test_obs_left_disabled_after_command(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "sweep",
            "--layers", "8",
            "--width", "6",
            "--scenarios", "i",
            "--runs", "1",
            "--quiet",
            "--metrics-out", str(tmp_path / "m.json"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert not obs.enabled()


# ----------------------------------------------------------------------
# logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_configure_logging_is_idempotent(self):
        import io

        stream = io.StringIO()
        logger = obs.configure_logging(0, stream=stream)
        obs.configure_logging(0, stream=stream)
        handlers = [h for h in logger.handlers if getattr(h, "_repro_handler", False)]
        assert len(handlers) == 1
        assert not logger.propagate

    def test_verbosity_levels_and_format(self):
        import io
        import logging

        stream = io.StringIO()
        obs.configure_logging(0, stream=stream)
        child = obs.get_logger("cli")
        child.debug("hidden")
        child.info("plain note")
        assert stream.getvalue() == "plain note\n"

        stream = io.StringIO()
        logger = obs.configure_logging(1, stream=stream)
        assert logger.level == logging.DEBUG
        child.debug("shown now")
        assert "DEBUG repro.cli: shown now" in stream.getvalue()
