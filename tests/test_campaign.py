"""Tests for the campaign orchestration subsystem (``repro.campaign``).

Covers the acceptance surface of the subsystem: spec expansion and seed
derivation determinism, serial-vs-parallel record equality, cache
resume-after-interrupt, the experiment adapters' seed parity with the
historical hand-rolled loops, and the CLI regressions (``--runs 0``, the
``sweep`` subcommand round-trip).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import multiprocessing
import os
import re
import signal
import warnings

import numpy as np
import pytest

import repro.campaign.runner as campaign_runner
from repro import obs
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CampaignStore,
    RunRecord,
    SweepSpec,
    execute_task_batch,
    pooled_statistics,
)
from repro.campaign.progress import ProgressReporter, format_duration
from repro.campaign.store import ShardWriter, frame, unframe
from repro.cli import _experiment_config, main
from repro.clocksource.scenarios import Scenario, scenario_layer0_times
from repro.core.pulse_solver import solve_single_pulse
from repro.experiments.config import ExperimentConfig
from repro.experiments.single_pulse import run_scenario_set
from repro.faults.models import FaultType
from repro.faults.placement import build_fault_model
from repro.simulation.links import UniformRandomDelays


def small_spec(runs: int = 3, **cell_kwargs) -> CampaignSpec:
    """A fast two-point campaign on a small grid."""
    defaults = dict(
        layers=8, width=6, scenario=("i", "iii"), num_faults=1, runs=runs, seed_salt=11
    )
    defaults.update(cell_kwargs)
    return CampaignSpec(name="test", seed=99, cells=(SweepSpec(**defaults),))


class TestSpecExpansion:
    def test_cartesian_point_count_and_salts(self):
        cell = SweepSpec(
            layers=(8, 10), width=6, scenario=("i", "iv"), num_faults=(0, 1, 2),
            runs=2, seed_salt=40,
        )
        assert cell.num_points == 2 * 2 * 3
        assert cell.num_tasks == 24
        tasks = CampaignSpec(name="salts", seed=5, cells=(cell,)).tasks()
        assert len(tasks) == 24
        # Runs of one point are adjacent; every point's runs share its entropy.
        points = tasks[::2]
        assert [t.point_index for t in points] == list(range(12))
        assert [t.run_index for t in tasks] == [0, 1] * 12
        assert [t.entropy for t in tasks[1::2]] == [t.entropy for t in points]
        assert [t.entropy for t in points] == [5 + 40 + i for i in range(12)]
        # AXES order: layers outermost, num_faults innermost of the varied axes.
        assert (points[0].layers, points[0].scenario, points[0].num_faults) == (8, "zero", 0)
        assert (points[3].layers, points[3].scenario, points[3].num_faults) == (8, "ramp", 0)
        assert points[-1].layers == 10

    def test_task_seed_derivation_matches_spawn_rngs(self):
        spec = small_spec(runs=4)
        tasks = [t for t in spec.tasks() if t.point_index == 1]
        config = ExperimentConfig(layers=8, width=6, runs=4, seed=99)
        reference = config.spawn_rngs(4, salt=11 + 1)
        for task, expected in zip(tasks, reference):
            assert task.entropy == 99 + 11 + 1
            assert task.to_run_spec().rng().random(5) == pytest.approx(expected.random(5))

    def test_scenario_and_enum_canonicalization(self):
        cell = SweepSpec(scenario=("(iii)", "ramp"), fault_type=FaultType.FAIL_SILENT)
        assert cell.scenario == ("uniform_dmax", "ramp")
        assert cell.fault_type == ("fail_silent",)

    def test_fault_free_tasks_have_no_fault_type(self):
        spec = small_spec(num_faults=(0, 2))
        kinds = {(t.num_faults, t.fault_type) for t in spec.tasks()}
        assert (0, None) in kinds
        assert (2, "byzantine") in kinds

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SweepSpec(runs=0)
        with pytest.raises(ValueError):
            SweepSpec(engine="vhdl")
        with pytest.raises(ValueError):
            SweepSpec(kind="chaos")
        with pytest.raises(ValueError):
            SweepSpec(num_faults=-1)
        with pytest.raises(ValueError):
            CampaignSpec(name="", cells=(SweepSpec(),))

    def test_json_round_trip_preserves_key(self):
        spec = small_spec(fixed_fault_positions=((2, 3),), num_faults=1)
        payload = json.loads(json.dumps(spec.to_json_dict()))
        clone = CampaignSpec.from_json_dict(payload)
        assert clone == spec
        assert clone.key() == spec.key()

    def test_task_key_ignores_presentation_coordinates(self):
        spec = small_spec()
        task = spec.tasks()[0]
        import dataclasses

        moved = dataclasses.replace(task, cell_index=7, label="elsewhere")
        assert moved.key() == task.key()
        different = dataclasses.replace(task, entropy=task.entropy + 1)
        assert different.key() != task.key()


class TestExecutionDeterminism:
    def test_same_spec_yields_identical_records(self):
        spec = small_spec()
        first = CampaignRunner(spec).run()
        second = CampaignRunner(spec).run()
        assert [r.canonical_json() for r in first.records] == [
            r.canonical_json() for r in second.records
        ]

    def test_serial_and_parallel_records_identical(self):
        spec = small_spec(runs=4)
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(spec, workers=3).run()
        assert [r.canonical_json() for r in serial.records] == [
            r.canonical_json() for r in parallel.records
        ]

    def test_execute_task_matches_hand_rolled_run(self):
        """The executor reproduces the historical per-run body draw for draw."""
        config = ExperimentConfig(layers=8, width=6, runs=1, seed=99)
        spec = small_spec(runs=1, scenario="iii", num_faults=2)
        task = spec.tasks()[0]
        record = execute_task_batch([task])[0]

        grid = config.make_grid()
        rng = config.spawn_rngs(1, salt=11)[0]
        layer0 = scenario_layer0_times(Scenario.UNIFORM_DMAX, grid.width, config.timing, rng=rng)
        fault_model = build_fault_model(grid, 2, FaultType.BYZANTINE, rng)
        delays = UniformRandomDelays(config.timing, rng)
        solution = solve_single_pulse(grid, layer0, delays, fault_model=fault_model)

        assert record.faulty_nodes == tuple(fault_model.faulty_nodes())
        assert np.array_equal(record.trigger_matrix(), solution.trigger_times, equal_nan=True)
        assert record.layer0_times == pytest.approx(layer0.tolist())

    def test_multi_pulse_record_fields(self):
        spec = CampaignSpec(
            name="mp",
            seed=7,
            cells=(
                SweepSpec(
                    layers=8, width=6, scenario="i", num_faults=1, runs=2,
                    kind="multi_pulse", num_pulses=4, seed_salt=3,
                ),
            ),
        )
        result = CampaignRunner(spec).run()
        assert len(result.records) == 2
        for record in result.records:
            assert record.kind == "multi_pulse"
            assert record.total_firings > 0
            assert record.stabilization_time is not None
        times = result.point_stabilization_times(0, 0)
        assert times.shape == (2,)

    def test_keep_times_false_drops_dense_payload(self):
        spec = CampaignSpec(
            name="lean", seed=5, keep_times=False,
            cells=(SweepSpec(layers=8, width=6, runs=2),),
        )
        result = CampaignRunner(spec).run()
        record = result.records[0]
        assert record.trigger_times is None
        assert record.skew is not None  # summary row survives
        with pytest.raises(ValueError):
            record.trigger_matrix()

    def test_record_json_round_trip(self):
        spec = small_spec(runs=1)
        record = CampaignRunner(spec).run().records[0]
        clone = RunRecord.from_json_dict(json.loads(record.canonical_json()))
        assert clone.canonical_json() == record.canonical_json()
        # Infinity/NaN entries survive the round trip (never-fired / faulty).
        assert np.array_equal(clone.trigger_matrix(), record.trigger_matrix(), equal_nan=True)
        # Dense payloads load as float64 arrays, non-finite entries in place.
        times = record.trigger_matrix().copy()
        assert np.isnan(times).any()  # the faulty node
        times[2, 1], times[3, 4] = math.inf, -math.inf
        planted = dataclasses.replace(record, trigger_times=times)
        clone = RunRecord.from_json_dict(json.loads(planted.canonical_json()))
        for loaded, original in (
            (clone.trigger_times, times),
            (clone.layer0_times, record.layer0_times),
        ):
            assert isinstance(loaded, np.ndarray) and loaded.dtype == np.float64
            assert np.array_equal(loaded, original, equal_nan=True)
        assert clone.trigger_times[2, 1] == math.inf
        assert clone.trigger_times[3, 4] == -math.inf
        assert clone.canonical_json() == planted.canonical_json()


class TestStoreResume:
    def test_resume_after_interrupt_skips_completed_tasks(self, tmp_path, monkeypatch):
        # One-task chunks, so the interrupt lands between tasks; the runner
        # looks the executor up through the module this test monkeypatches.
        monkeypatch.setattr(campaign_runner, "BATCH_SIZE", 1)
        spec = small_spec(runs=3)
        store = CampaignStore(tmp_path / "cache")

        # Simulate an interrupt: execute only the first 4 tasks, then die.
        real_execute = campaign_runner.execute_task_batch
        calls = {"n": 0}

        def dying_execute(tasks):
            if calls["n"] >= 4:
                raise KeyboardInterrupt
            calls["n"] += len(tasks)
            return real_execute(tasks)

        monkeypatch.setattr(campaign_runner, "execute_task_batch", dying_execute)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(spec, store=store, resume=True).run()
        assert len(store.load(spec)) == 4

        # Resume: only the remaining tasks execute.
        executed = {"n": 0}

        def counting_execute(tasks):
            executed["n"] += len(tasks)
            return real_execute(tasks)

        monkeypatch.setattr(campaign_runner, "execute_task_batch", counting_execute)
        result = CampaignRunner(spec, store=store, resume=True).run()
        assert executed["n"] == spec.num_tasks - 4
        assert result.cached == 4
        assert result.executed == spec.num_tasks - 4

        # Re-invocation is a pure cache read and yields the same records.
        monkeypatch.setattr(campaign_runner, "execute_task_batch", real_execute)
        repeat = CampaignRunner(spec, store=store, resume=True).run()
        assert repeat.executed == 0
        assert repeat.cached == spec.num_tasks
        assert [r.canonical_json() for r in repeat.records] == [
            r.canonical_json() for r in result.records
        ]

    def test_interrupted_multi_pulse_campaign_keeps_finished_records(
        self, tmp_path, monkeypatch
    ):
        """A serial multi-pulse campaign persists each record before the next task."""
        cell = SweepSpec(
            layers=6, width=4, scenario="i", num_faults=1, engine="des",
            kind="multi_pulse", num_pulses=4, runs=3, seed_salt=7,
        )
        spec = CampaignSpec(name="mp-interrupt", seed=7, cells=(cell,))
        store = CampaignStore(tmp_path)
        real_execute = campaign_runner.execute_task_batch
        calls = {"n": 0}

        def dying_execute(tasks):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real_execute(tasks)

        monkeypatch.setattr(campaign_runner, "execute_task_batch", dying_execute)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(spec, store=store).run()
        assert list(store.load(spec)) == [spec.tasks()[0].key()]

    def test_cached_records_match_fresh_execution(self, tmp_path):
        spec = small_spec(runs=2)
        store = CampaignStore(tmp_path)
        fresh = CampaignRunner(spec, store=store).run()
        resumed = CampaignRunner(spec, store=store, resume=True).run()
        assert resumed.executed == 0
        assert [r.canonical_json() for r in resumed.records] == [
            r.canonical_json() for r in fresh.records
        ]

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        spec = small_spec(runs=2)
        store = CampaignStore(tmp_path)
        CampaignRunner(spec, store=store).run()
        shard = store.shard_path(spec)
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"key": "deadbeef", "record": {"trunc')
        with pytest.warns(RuntimeWarning, match="skipped 1 malformed line"):
            loaded = store.load(spec)
        assert len(loaded) == spec.num_tasks

    def test_resume_after_torn_tail_recovers_every_record(self, tmp_path):
        """A crash mid-write tears the last line; one resume must heal it.

        The resumed run's first append must not fuse onto the fragment (which
        would lose that record on the next load, too).
        """
        spec = small_spec(runs=2)
        store = CampaignStore(tmp_path)
        CampaignRunner(spec, store=store).run()
        shard = store.shard_path(spec)
        data = shard.read_bytes()
        last_line = data.rstrip(b"\n").rfind(b"\n") + 1
        shard.write_bytes(data[: last_line + 20])  # keep a 20-byte fragment
        with pytest.warns(RuntimeWarning, match="skipped 1 malformed line"):
            assert len(store.load(spec)) == spec.num_tasks - 1
        with pytest.warns(RuntimeWarning, match="skipped 1 malformed line"):
            resumed = CampaignRunner(spec, store=store, resume=True).run()
        assert resumed.executed == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(store.load(spec)) == spec.num_tasks

    def test_malformed_lines_are_counted_and_warned(self, tmp_path):
        spec = small_spec(runs=2)
        store = CampaignStore(tmp_path)
        CampaignRunner(spec, store=store).run()
        shard = store.shard_path(spec)
        lines = shard.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = '{"key": "corrupt", "rec\n'
        shard.write_text("".join(lines), encoding="utf-8")
        with obs.observed(metrics=True) as session:
            with pytest.warns(RuntimeWarning, match="skipped 1 malformed line") as caught:
                loaded = store.load(spec)
            assert session.registry.counter("store.lines_skipped") == 1.0
        assert str(shard) in str(caught[0].message)
        assert len(loaded) == spec.num_tasks - 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda times: times[0].pop(), id="ragged"),
            pytest.param(lambda times: times[1].__setitem__(2, "bogus"), id="non-sentinel"),
        ],
    )
    def test_malformed_dense_payload_is_skipped_and_rerun(self, tmp_path, corrupt):
        """A bad trigger-time matrix fails at load, not later in ``--out``."""
        spec = small_spec(runs=2)
        store = CampaignStore(tmp_path)
        fresh = CampaignRunner(spec, store=store).run()
        shard = store.shard_path(spec)
        lines = shard.read_text(encoding="utf-8").splitlines(keepends=True)
        payload = json.loads(lines[1])
        corrupt(payload["record"]["trigger_times"])
        lines[1] = json.dumps(payload) + "\n"
        shard.write_text("".join(lines), encoding="utf-8")
        with obs.observed(metrics=True) as session:
            with pytest.warns(RuntimeWarning, match="skipped 1 malformed line") as caught:
                loaded = store.load(spec)
            assert session.registry.counter("store.lines_skipped") == 1.0
        assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 1
        assert payload["key"] not in loaded
        assert len(loaded) == spec.num_tasks - 1
        with pytest.warns(RuntimeWarning, match="skipped 1 malformed line"):
            resumed = CampaignRunner(spec, store=store, resume=True).run()
        assert resumed.executed == 1
        assert [r.canonical_json() for r in resumed.records] == [
            r.canonical_json() for r in fresh.records
        ]

    def test_resume_requires_store(self):
        with pytest.raises(ValueError):
            CampaignRunner(small_spec(), resume=True)

    def test_widened_sweep_reuses_completed_tasks(self, tmp_path):
        """Content addressing: spec revisions under one name keep their runs.

        Raising the Monte Carlo run count (the "add more samples" workflow)
        and appending cells preserve existing task seeds, so every completed
        run is served from cache; only the new runs simulate.
        """
        store = CampaignStore(tmp_path)
        narrow = small_spec(runs=3)
        CampaignRunner(narrow, store=store, resume=True).run()

        more_runs = small_spec(runs=5)
        result = CampaignRunner(more_runs, store=store, resume=True).run()
        assert result.cached == narrow.num_tasks
        assert result.executed == more_runs.num_tasks - narrow.num_tasks

        extra_cell = CampaignSpec(
            name=more_runs.name,
            seed=more_runs.seed,
            cells=more_runs.cells + (SweepSpec(layers=8, width=6, runs=2, seed_salt=77),),
        )
        extended = CampaignRunner(extra_cell, store=store, resume=True).run()
        assert extended.cached == more_runs.num_tasks
        assert extended.executed == 2

    def test_duplicate_key_cells_get_independent_cached_records(self, tmp_path):
        """Cells differing only in label share task keys but not record objects."""
        cells = tuple(
            SweepSpec(layers=8, width=6, runs=2, seed_salt=3, label=label)
            for label in ("first", "second")
        )
        spec = CampaignSpec(name="twin", seed=5, cells=cells)
        store = CampaignStore(tmp_path)
        CampaignRunner(spec, store=store, resume=True).run()
        resumed = CampaignRunner(spec, store=store, resume=True).run()
        assert resumed.executed == 0
        assert [r.cell_index for r in resumed.records] == [0, 0, 1, 1]
        assert resumed.records[0] is not resumed.records[2]
        for record in resumed.records:
            assert record.params["cell_index"] == record.cell_index
        for cell_index in (0, 1):
            assert len(resumed.records_for(cell_index=cell_index)) == 2

    def test_shard_lines_are_strict_json(self, tmp_path):
        """Faulty runs carry nan/inf -- shard lines must still be RFC 8259 JSON."""

        def reject_constant(token):
            raise AssertionError(f"non-standard JSON constant {token!r}")

        spec = small_spec(runs=2, num_faults=2)
        store = CampaignStore(tmp_path)
        result = CampaignRunner(spec, store=store).run()
        for line in store.shard_path(spec).read_text().splitlines():
            json.loads(line, parse_constant=reject_constant)
        for record in result.records:
            json.loads(record.canonical_json(), parse_constant=reject_constant)


def mixed_spec(cells=None) -> CampaignSpec:
    """Fault-free and faulty solver cells plus a DES multi-pulse cell."""
    if cells is None:
        cells = (
            SweepSpec(
                layers=8, width=6, scenario=("i", "iii"), num_faults=(0, 2), runs=2,
                seed_salt=5,
            ),
            SweepSpec(
                layers=6, width=4, scenario="i", num_faults=1, engine="des",
                kind="multi_pulse", num_pulses=4, runs=2, seed_salt=7,
            ),
        )
    return CampaignSpec(name="mixed", seed=7, cells=cells)


def resume_counting_hits(spec, store):
    """Resume ``spec`` and return ``(result, hits_verbatim, hits_reencoded)``."""
    with obs.observed(metrics=True) as session:
        result = CampaignRunner(spec, store=store, resume=True).run()
        registry = session.registry
        return (
            result,
            registry.counter("campaign.hits_verbatim"),
            registry.counter("campaign.hits_reencoded"),
        )


class TestCanonicalStore:
    """Cache hits serve the stored canonical text; every other record re-encodes."""

    def test_frame_is_the_sorted_json_of_the_full_record(self, tmp_path):
        """The writer's framing equals the historical ``json.dumps`` line byte for byte.

        A record field sorting after ``wall_time_s`` would break the framing
        (the canonical text would no longer be a prefix of the record) and
        fail here.
        """
        spec = mixed_spec()
        store = CampaignStore(tmp_path)
        records = CampaignRunner(spec, store=store).run().records
        assert any('"NaN"' in record.canonical_json() for record in records)
        assert any(record.kind == "multi_pulse" for record in records)
        lines = []
        for record in records:
            line = frame(record.key, record.canonical_json(), record.wall_time_s)
            assert line == json.dumps(
                {"key": record.key, "record": record.to_json_dict()},
                sort_keys=True,
                separators=(",", ":"),
                allow_nan=False,
            )
            payload = json.loads(line)
            assert unframe(line, payload["key"], payload["record"]) == record.canonical_json()
            lines.append(line)
        assert store.shard_path(spec).read_text(encoding="utf-8").splitlines() == lines

    def test_unchanged_resume_serves_every_hit_verbatim(self, tmp_path):
        spec = mixed_spec()
        store = CampaignStore(tmp_path)
        fresh = CampaignRunner(spec, store=store).run()
        resumed, verbatim, reencoded = resume_counting_hits(spec, store)
        assert resumed.executed == 0
        assert (verbatim, reencoded) == (spec.num_tasks, 0)
        assert [r.canonical_json() for r in resumed.records] == [
            r.canonical_json() for r in fresh.records
        ]

    def test_reordered_cells_reencode_their_moved_hits(self, tmp_path):
        spec = mixed_spec()
        store = CampaignStore(tmp_path)
        CampaignRunner(spec, store=store).run()
        reordered = mixed_spec(cells=spec.cells[::-1])
        resumed, verbatim, reencoded = resume_counting_hits(reordered, store)
        assert resumed.executed == 0
        assert (verbatim, reencoded) == (0, reordered.num_tasks)
        fresh = CampaignRunner(reordered).run()
        assert [r.canonical_json() for r in resumed.records] == [
            r.canonical_json() for r in fresh.records
        ]

    def test_widened_campaign_reencodes_only_moved_hits(self, tmp_path):
        """More runs leave the old hits in place; a cell put in front moves them."""
        store = CampaignStore(tmp_path)
        CampaignRunner(small_spec(runs=2), store=store).run()
        more_runs = small_spec(runs=3)
        resumed, verbatim, reencoded = resume_counting_hits(more_runs, store)
        assert (resumed.executed, verbatim, reencoded) == (2, 4, 0)

        front = SweepSpec(layers=6, width=4, runs=1, seed_salt=77)
        shifted = CampaignSpec(
            name=more_runs.name, seed=more_runs.seed, cells=(front,) + more_runs.cells
        )
        resumed, verbatim, reencoded = resume_counting_hits(shifted, store)
        assert (resumed.executed, verbatim, reencoded) == (1, 0, more_runs.num_tasks)
        fresh = CampaignRunner(shifted).run()
        assert [r.canonical_json() for r in resumed.records] == [
            r.canonical_json() for r in fresh.records
        ]

    def test_non_writer_framing_is_reencoded(self, tmp_path):
        """Spaced or reordered lines still load, re-encode, and keep ``--out`` exact."""
        store = tmp_path / "cache"
        base = [
            "sweep", "--layers", "6", "--width", "5", "--scenarios", "i,iii",
            "--faults", "0,1", "--runs", "2", "--seed", "5", "--name", "t", "--quiet",
        ]
        fresh_out = tmp_path / "fresh.jsonl"
        assert main(base + ["--store", str(store), "--out", str(fresh_out)]) == 0
        shard = store / "t.jsonl"
        respelled = []
        for index, line in enumerate(shard.read_text(encoding="utf-8").splitlines()):
            payload = json.loads(line)
            if index % 2:
                respelled.append(json.dumps(payload, sort_keys=True))
            else:
                reordered = {"record": payload["record"], "key": payload["key"]}
                respelled.append(json.dumps(reordered, separators=(",", ":")))
        shard.write_text("\n".join(respelled) + "\n", encoding="utf-8")

        loaded = CampaignStore(store).load(dataclasses.replace(small_spec(), name="t"))
        assert len(loaded) == 8
        assert all(record._canonical is None for record in loaded.values())
        resumed_out = tmp_path / "resumed.jsonl"
        with obs.observed(metrics=True) as session:
            assert main(base + ["--store", str(store), "--resume", "--out", str(resumed_out)]) == 0
            assert session.registry.counter("campaign.hits_reencoded") == 8
            assert session.registry.counter("campaign.hits_verbatim") == 0
        assert resumed_out.read_bytes() == fresh_out.read_bytes()

    def test_replace_drops_the_stored_text(self, tmp_path):
        spec = small_spec(runs=1)
        store = CampaignStore(tmp_path)
        CampaignRunner(spec, store=store).run()
        loaded = next(iter(store.load(spec).values()))
        assert loaded._canonical is not None
        copy = dataclasses.replace(loaded)
        assert copy._canonical is None
        assert copy == loaded
        assert copy.canonical_json() == loaded.canonical_json()

    @pytest.mark.parametrize(
        "spelling", ['"NaN"', '"-Infinity"', '"\\u004eaN"'], ids=["nan", "minus-inf", "escaped"]
    )
    def test_sentinel_and_escaped_strings_take_the_full_decode(self, tmp_path, spelling):
        """Only a line free of sentinels and escapes skips the sentinel decode.

        The edited line keeps the exact writer framing, so its text is also
        what ``canonical_json`` serves: a hand-edited line is served as stored.
        """
        spec = small_spec(runs=1, num_faults=0)
        store = CampaignStore(tmp_path)
        CampaignRunner(spec, store=store).run()
        shard = store.shard_path(spec)
        lines = shard.read_text(encoding="utf-8").splitlines()
        payload = json.loads(lines[0])
        stored = json.dumps(payload["record"]["skew"]["inter_max"])
        lines[0] = lines[0].replace(f'"inter_max":{stored}', f'"inter_max":{spelling}', 1)
        assert f'"inter_max":{spelling}' in lines[0]
        shard.write_text("\n".join(lines) + "\n", encoding="utf-8")
        record = store.load(spec)[payload["key"]]
        value = record.skew["inter_max"]
        assert isinstance(value, float) and not math.isfinite(value)
        assert record.canonical_json() == unframe(
            lines[0], payload["key"], json.loads(lines[0])["record"]
        )
        assert spelling in record.canonical_json()

    def test_framed_line_missing_a_field_is_reencoded(self, tmp_path):
        """A line in writer framing from an older writer (no ``total_firings``) re-encodes."""
        spec = small_spec(runs=1)
        store = CampaignStore(tmp_path)
        fresh = CampaignRunner(spec, store=store).run().records[0]
        shard = store.shard_path(spec)
        lines = shard.read_text(encoding="utf-8").splitlines()
        payload = json.loads(lines[0])
        fields = payload["record"]
        wall_time_s = fields.pop("wall_time_s")
        del fields["total_firings"]
        text = json.dumps(fields, sort_keys=True, separators=(",", ":"), allow_nan=False)
        lines[0] = frame(payload["key"], text, wall_time_s)
        assert unframe(lines[0], payload["key"], json.loads(lines[0])["record"]) == text
        shard.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = store.load(spec)[payload["key"]]
        assert loaded._canonical is None
        assert loaded.canonical_json() == fresh.canonical_json()
        assert '"total_firings":null' in loaded.canonical_json()

    def test_non_object_record_is_a_malformed_line(self, tmp_path):
        spec = small_spec(runs=1)
        store = CampaignStore(tmp_path)
        CampaignRunner(spec, store=store).run()
        with open(store.shard_path(spec), "a", encoding="utf-8") as handle:
            handle.write('{"key":"deadbeef","record":[1,2]}\n')
        with pytest.warns(RuntimeWarning, match="skipped 1 malformed line"):
            assert len(store.load(spec)) == spec.num_tasks

    def test_sweep_encodes_each_executed_record_once(self, tmp_path, monkeypatch):
        """The store append encodes, ``--out`` reuses the text; pool workers encode.

        Forked pool workers inherit the patched encoder, but their calls
        count in their own memory, so ``calls`` sees the parent's alone.
        """
        calls = []
        encode = RunRecord.canonical_dict

        def counting(record):
            calls.append(record.key)
            return encode(record)

        monkeypatch.setattr(RunRecord, "canonical_dict", counting)
        base = [
            "sweep", "--layers", "6", "--width", "5", "--scenarios", "i,iii",
            "--faults", "0,1", "--runs", "2", "--seed", "5", "--name", "t", "--quiet",
        ]
        serial_out, pooled_out = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
        assert main(base + ["--store", str(tmp_path / "a"), "--out", str(serial_out)]) == 0
        assert len(calls) == 8 and len(set(calls)) == 8
        calls.clear()
        pooled = ["--workers", "2", "--store", str(tmp_path / "b"), "--out", str(pooled_out)]
        assert main(base + pooled) == 0
        assert calls == []
        assert pooled_out.read_bytes() == serial_out.read_bytes()


class TestShardLock:
    def test_second_writer_on_a_shard_is_refused(self, tmp_path):
        shard = tmp_path / "one.jsonl"
        record = execute_task_batch(small_spec(runs=1).tasks())[0]
        first = ShardWriter(shard)
        first.append(record)
        written = shard.read_bytes()
        for append in (True, False):
            with pytest.raises(RuntimeError, match=re.escape(str(shard))):
                ShardWriter(shard, append=append)
        assert shard.read_bytes() == written
        first.close()
        with ShardWriter(shard, append=False):
            pass
        assert shard.read_bytes() == b""

    def test_sweep_into_a_locked_shard_fails_loudly(self, tmp_path):
        spec = small_spec(runs=1)
        store = CampaignStore(tmp_path)
        CampaignRunner(spec, store=store).run()
        written = store.shard_path(spec).read_bytes()
        with store.open_writer(spec):
            with pytest.raises(RuntimeError, match="locked by another writer"):
                CampaignRunner(spec, store=store).run()
        assert store.shard_path(spec).read_bytes() == written

    def test_forked_child_does_not_keep_the_lock(self, tmp_path):
        """A pool worker forked while the shard is open must not pin its lock."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        context = multiprocessing.get_context("fork")
        forked = context.Event()

        def child_body():
            forked.set()
            signal.pause()

        shard = tmp_path / "one.jsonl"
        writer = ShardWriter(shard)
        child = context.Process(target=child_body)
        child.start()
        try:
            assert forked.wait(timeout=30)
            writer.close()
            with ShardWriter(shard):
                pass
        finally:
            child.terminate()
            child.join()


class TestWorkerDeath:
    def test_killed_worker_fails_loudly_and_keeps_flushed_records(
        self, tmp_path, monkeypatch
    ):
        """A SIGKILLed pool worker must raise, not hang the campaign.

        The chunk executor (inherited by forked workers) kills its own
        process on every ``run_index == 2`` task.  ``run()`` must raise a
        RuntimeError naming the lost tasks, keep every record that came back,
        and a resume must finish the campaign with the serial records.
        """
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the monkeypatched executor only under fork")
        spec = small_spec(runs=4)
        store = CampaignStore(tmp_path)
        real_chunk = campaign_runner.execute_task_batch

        def killing_chunk(tasks):
            if any(task.run_index == 2 for task in tasks):
                os.kill(os.getpid(), signal.SIGKILL)
            return real_chunk(tasks)

        def hung(signum, frame):
            raise TimeoutError("campaign still running 60 s after a worker died")

        monkeypatch.setattr(campaign_runner, "execute_task_batch", killing_chunk)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match="pool worker died") as caught:
                CampaignRunner(spec, workers=2, store=store, resume=True).run()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        stored = store.load(spec)
        lost = spec.num_tasks - len(stored)
        message = str(caught.value)
        assert f"{lost} task(s) were lost" in message
        named = set()
        for part in re.search(r"task indices ([0-9, -]+)\)", message).group(1).split(", "):
            low, _, high = part.partition("-")
            named.update(range(int(low), int(high or low) + 1))
        tasks = spec.tasks()
        assert named == {i for i, task in enumerate(tasks) if task.key() not in stored}
        assert {i for i, task in enumerate(tasks) if task.run_index == 2} <= named

        monkeypatch.setattr(campaign_runner, "execute_task_batch", real_chunk)
        resumed = CampaignRunner(spec, workers=2, store=store, resume=True).run()
        assert resumed.cached == len(stored)
        assert resumed.executed == lost
        serial = CampaignRunner(spec).run()
        assert [r.canonical_json() for r in resumed.records] == [
            r.canonical_json() for r in serial.records
        ]


class TestExperimentParity:
    """The campaign-backed adapters replicate the historical seed streams."""

    def test_run_scenario_set_matches_legacy_loop(self, quick_config):
        run_set = run_scenario_set(quick_config, "iii", num_faults=2, seed_salt=42)

        grid = quick_config.make_grid()
        rngs = quick_config.spawn_rngs(quick_config.runs, salt=42)
        for index, rng in enumerate(rngs):
            layer0 = scenario_layer0_times(
                Scenario.UNIFORM_DMAX, grid.width, quick_config.timing, rng=rng
            )
            fault_model = build_fault_model(grid, 2, FaultType.BYZANTINE, rng)
            delays = UniformRandomDelays(quick_config.timing, rng)
            solution = solve_single_pulse(grid, layer0, delays, fault_model=fault_model)
            assert np.array_equal(
                run_set.trigger_times[index], solution.trigger_times, equal_nan=True
            )
            assert run_set.fault_models[index].faulty_nodes() == fault_model.faulty_nodes()

    def test_run_scenario_set_workers_equivalence(self, quick_config):
        serial = run_scenario_set(quick_config, "i", num_faults=1, seed_salt=7, workers=1)
        parallel = run_scenario_set(quick_config, "i", num_faults=1, seed_salt=7, workers=2)
        assert serial.statistics(hops=1).as_row() == parallel.statistics(hops=1).as_row()

    def test_pooled_statistics_match_run_set_statistics(self, quick_config):
        from repro.experiments.single_pulse import scenario_set_spec

        spec = scenario_set_spec(quick_config, "iii", num_faults=2, seed_salt=42)
        records = CampaignRunner(spec).run().records
        run_set = run_scenario_set(quick_config, "iii", num_faults=2, seed_salt=42)
        for hops in (0, 1):
            assert pooled_statistics(records, hops=hops) == run_set.statistics(hops=hops)

    def test_fault_type_none_means_fault_free(self, quick_config):
        """Historical contract: fault_type=None injects nothing, whatever num_faults."""
        run_set = run_scenario_set(quick_config, "i", num_faults=2, fault_type=None, seed_salt=9)
        assert run_set.num_faults == 2  # reported as requested...
        assert run_set.fault_type is None
        assert all(model is None for model in run_set.fault_models)  # ...but none injected
        baseline = run_scenario_set(quick_config, "i", num_faults=0, seed_salt=9)
        for ours, theirs in zip(run_set.trigger_times, baseline.trigger_times):
            assert np.array_equal(ours, theirs, equal_nan=True)

    def test_des_engine_reachable_through_run_set(self):
        config = ExperimentConfig(layers=6, width=5, runs=2, seed=3)
        run_set = run_scenario_set(config, "i", engine="des")
        stats = run_set.statistics()
        assert np.isfinite(stats.intra_max)


class TestProgress:
    def test_eta_and_summary(self):
        reporter = ProgressReporter(total=10, label="x", enabled=False)
        reporter.start(cached=2)
        reporter.advance(4)
        assert reporter.done == 6
        reporter._started_at -= 1.0  # pretend a second passed: ETA becomes finite
        assert np.isfinite(reporter.eta())
        summary = reporter.finish()
        assert "6/10" in summary and "2 cached" in summary

    def test_format_duration(self):
        assert format_duration(3.21) == "3.2s"
        assert format_duration(192) == "3m12s"
        assert format_duration(3840) == "1h04m"
        assert format_duration(float("inf")) == "?"


class TestCli:
    def test_runs_zero_is_not_silently_ignored(self):
        """Regression: ``--runs 0`` used to fall through the truthiness check."""
        args = argparse.Namespace(runs=0, seed=None)
        with pytest.raises(ValueError):
            _experiment_config(args)

    def test_runs_and_seed_overrides_apply(self):
        args = argparse.Namespace(runs=7, seed=0)
        config = _experiment_config(args)
        assert config.runs == 7
        assert config.seed == 0  # seed 0 is a valid explicit choice

    def test_defaults_without_overrides(self):
        config = _experiment_config(argparse.Namespace(runs=None, seed=None))
        assert config.runs == ExperimentConfig().runs

    def test_simulate_engine_flag(self, capsys):
        code = main(
            [
                "simulate", "--layers", "6", "--width", "5", "--runs", "2",
                "--seed", "3", "--engine", "des",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine des" in out

    def test_sweep_cli_round_trip_and_resume(self, tmp_path, capsys):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        store = tmp_path / "cache"
        base = [
            "sweep", "--layers", "6", "--width", "5", "--scenarios", "i,iii",
            "--faults", "0,1", "--runs", "2", "--seed", "5", "--name", "t",
        ]
        assert main(base + ["--workers", "2", "--out", str(out_a), "--store", str(store)]) == 0
        assert main(base + ["--out", str(out_b), "--quiet"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

        capsys.readouterr()
        assert main(base + ["--store", str(store), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out and "8 from cache" in out

    def test_sweep_spec_file(self, tmp_path, capsys):
        spec = small_spec(runs=1)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_json_dict()))
        assert main(["sweep", "--spec", str(spec_file)]) == 0
        assert "Campaign test" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "edit, phrase",
        [
            ({"seeed": 5}, "unknown campaign spec keys: ['seeed']"),
            ({"timing": {"bogus": 1}}, "malformed campaign timing"),
            ({"timing": {"d_min": 1.0}}, "malformed campaign timing"),
            ({"timing": [1.0, 2.0]}, "malformed campaign timing"),
        ],
    )
    def test_sweep_spec_file_rejects_malformed_input(self, tmp_path, capsys, edit, phrase):
        """A typo or a bad timing object is a clean CLI error (exit 2), not a
        silently ignored key or a traceback."""
        payload = small_spec(runs=1).to_json_dict()
        payload.update(edit)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(payload))
        assert main(["sweep", "--spec", str(spec_file)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and phrase in err
        assert "Traceback" not in err

    def test_sweep_spec_file_must_hold_a_json_object(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps([small_spec(runs=1).to_json_dict()]))
        assert main(["sweep", "--spec", str(spec_file)]) == 2
        assert "campaign spec must be a JSON object, got list" in capsys.readouterr().err
