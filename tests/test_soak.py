"""Tests for the soak subsystem: runner, observer, checkpoints and CLI.

The load-bearing contracts:

* epoch accounting (pulses, faults injected/healed) matches the spec;
* a mid-run checkpoint exists, reloads, and a resumed run reaches a state
  bit-identical (``state_key``) to one that never stopped;
* the streamed skew agrees *exactly* with the post-hoc
  :func:`repro.analysis.stabilization.pulse_skew_series` computation on a
  fault-free run (same windowing rule, same firings);
* ``collect_firings=False`` keeps nothing per pulse;
* the ``hex-repro soak`` verb round-trips through checkpoint, resume and
  ``trace summarize``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.analysis.stabilization import pulse_skew_series
from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.clocksource.scenarios import Scenario
from repro.core.parameters import TimingConfig
from repro.core.topology import HexGrid
from repro.engines.des import DesEngine, scenario_stabilization_timeouts
from repro.experiments.soak import (
    SoakObserver,
    SoakSpec,
    checkpoint_path,
    load_checkpoint,
    run_soak,
)
from repro.stream import StreamSummary

TINY = SoakSpec(
    layers=3,
    width=3,
    num_pulses=60,
    pulses_per_epoch=20,
    faults=1,
    seed=99,
    exact_cap=16,
)


class TestSoakSpec:
    def test_epoch_arithmetic(self):
        spec = SoakSpec(num_pulses=1050, pulses_per_epoch=500)
        assert spec.num_epochs == 3
        assert spec.epoch_pulses(0) == 500
        assert spec.epoch_pulses(2) == 50

    def test_json_round_trip_omits_defaults(self):
        spec = SoakSpec()
        payload = spec.to_json_dict()
        assert "fault_type" not in payload
        assert "initial_states" not in payload
        assert SoakSpec.from_json_dict(payload) == spec
        variant = SoakSpec(fault_type="fail_silent", initial_states="clean")
        assert SoakSpec.from_json_dict(variant.to_json_dict()) == variant

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_pulses": 0},
            {"pulses_per_epoch": 0},
            {"faults": -1},
            {"fault_type": "gremlins"},
            {"heal_fraction": 0.25},
            {"heal_fraction": 0.95},
            {"epsilon": 0.0},
            {"exact_cap": -1},
            {"initial_states": "haunted"},
            {"width": 2},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SoakSpec(**kwargs)


class TestRunSoak:
    def test_counts_and_summary(self):
        result = run_soak(TINY)
        assert result.pulses == TINY.num_pulses
        assert result.epochs == TINY.num_epochs
        assert result.faults_injected == TINY.faults * TINY.num_epochs
        assert result.faults_healed == result.faults_injected
        # Every pulse window on this tiny fault-tolerant grid is eligible.
        assert 0 < result.skew.count <= TINY.num_pulses
        assert result.skew.stats()["max"] < math.inf
        assert result.checkpoint_path is None
        assert result.checkpoints_written == 0

    def test_deterministic_state_across_runs(self):
        first = run_soak(TINY)
        second = run_soak(TINY)
        assert (
            first.final_checkpoint().state_key()
            == second.final_checkpoint().state_key()
        )

    def test_mid_run_checkpoint_reloads_and_resume_is_bit_identical(self, tmp_path):
        straight = run_soak(TINY)

        class _StopEpoch(RuntimeError):
            pass

        def _interrupt(stats):
            # The progress callback fires before the epoch's checkpoint is
            # written, so dying at epoch 3 leaves the epoch-2 snapshot behind.
            if stats["epoch"] == 3:
                raise _StopEpoch()

        with pytest.raises(_StopEpoch):
            run_soak(TINY, store=tmp_path, checkpoint_every=1, progress=_interrupt)
        path = checkpoint_path(tmp_path, TINY)
        assert path.exists(), "mid-run checkpoint was not written"
        partial = load_checkpoint(path)
        assert partial.epochs_completed == 2
        assert partial.pulses_completed == 2 * TINY.pulses_per_epoch

        resumed = run_soak(TINY, store=tmp_path, resume=True, checkpoint_every=1)
        assert resumed.resumed_epochs == 2
        assert resumed.pulses == TINY.num_pulses
        assert (
            resumed.final_checkpoint().state_key()
            == straight.final_checkpoint().state_key()
        )

    def test_resume_of_finished_run_is_a_noop(self, tmp_path):
        done = run_soak(TINY, store=tmp_path)
        again = run_soak(TINY, store=tmp_path, resume=True)
        assert again.resumed_epochs == TINY.num_epochs
        assert again.checkpoints_written == 0
        assert (
            again.final_checkpoint().state_key()
            == done.final_checkpoint().state_key()
        )

    def test_resume_rejects_spec_mismatch(self, tmp_path):
        run_soak(TINY, store=tmp_path)
        other = SoakSpec(**{**TINY.__dict__, "seed": TINY.seed + 1})
        # Different spec -> different checkpoint file; forge a collision by
        # renaming the existing artifact onto the other spec's path.
        checkpoint_path(tmp_path, TINY).rename(checkpoint_path(tmp_path, other))
        with pytest.raises(ValueError, match="different spec"):
            run_soak(other, store=tmp_path, resume=True)

    def test_fault_free_soak_has_no_churn(self):
        spec = SoakSpec(
            layers=3, width=3, num_pulses=20, pulses_per_epoch=10, faults=0, seed=5
        )
        result = run_soak(spec)
        assert result.faults_injected == 0
        assert result.faults_healed == 0
        assert result.recoveries == 0
        assert result.skew.count == spec.num_pulses

    def test_obs_gauges_and_counters(self):
        from repro import obs

        obs.enable(metrics=True)
        try:
            run_soak(TINY)
            registry = obs.registry()
            assert registry is not None
            snapshot = registry.snapshot()
            assert snapshot["counters"]["soak.pulses"] == float(TINY.num_pulses)
            assert snapshot["gauges"]["soak.epochs"] == float(TINY.num_epochs)
            assert "soak.skew_p95_s" in snapshot["gauges"]
            assert snapshot["counters"]["des.events_processed"] > 0
        finally:
            obs.disable()

    def test_des_event_counters_do_not_depend_on_the_observer(self):
        """The soak monitor replaces the default DES observer; the queue
        counters must be recorded all the same."""
        from repro import obs

        grid = HexGrid(layers=3, width=3)
        timing = TimingConfig.paper_defaults()
        timeouts = scenario_stabilization_timeouts(
            Scenario.ZERO, 3, 3, 0, timing, extra_hops=grid.condition2_extra_hops()
        )
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(
                scenario=Scenario.ZERO, num_pulses=5,
                separation=timeouts.pulse_separation,
            ),
            3,
            timing,
            rng=np.random.default_rng(1),
        )
        soak_observer = SoakObserver(
            grid,
            separation=timeouts.pulse_separation,
            num_windows=5,
            skew_threshold=math.inf,
            skew=StreamSummary(),
            recovery=StreamSummary(),
        )
        counters = []
        for observer in (None, soak_observer):
            obs.enable(metrics=True)
            try:
                DesEngine().multi_pulse(
                    grid,
                    timing,
                    timeouts,
                    schedule,
                    rng=np.random.default_rng(2),
                    initial_states="clean",
                    observer=observer,
                )
                snapshot = obs.registry().snapshot()["counters"]
            finally:
                obs.disable()
            counters.append(
                (snapshot["des.events_scheduled"], snapshot["des.events_processed"])
            )
        assert counters[0][1] > 0
        assert counters[1] == counters[0]


class TestStreamingMatchesPostHoc:
    def test_fault_free_streamed_skew_equals_pulse_skew_series(self):
        """Streamed skew == the exact post-hoc series, observation for observation."""
        layers, width, num_pulses = 4, 4, 30
        grid = HexGrid(layers=layers, width=width)
        timing = TimingConfig.paper_defaults()
        timeouts = scenario_stabilization_timeouts(
            Scenario.ZERO, width, layers, 0, timing,
            extra_hops=grid.condition2_extra_hops(),
        )
        separation = timeouts.pulse_separation
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(
                scenario=Scenario.ZERO, num_pulses=num_pulses, separation=separation
            ),
            width,
            timing,
            rng=np.random.default_rng(17),
        )
        skew = StreamSummary(exact_cap=None)
        observer = SoakObserver(
            grid,
            separation=separation,
            num_windows=num_pulses,
            skew_threshold=math.inf,
            skew=skew,
            recovery=StreamSummary(),
        )
        result = DesEngine().multi_pulse(
            grid,
            timing,
            timeouts,
            schedule,
            rng=np.random.default_rng(23),
            initial_states="clean",
            observer=observer,
            collect_firings=True,
        )
        observer.finish_epoch()
        exact = pulse_skew_series(result)
        exact = exact[~np.isnan(exact)]
        streamed = np.sort(np.asarray(skew.quantiles._exact, dtype=float))
        assert streamed.size == exact.size
        np.testing.assert_array_equal(streamed, np.sort(exact))
        assert skew.quantile(0.95) == float(np.quantile(exact, 0.95))

    def test_collect_firings_false_keeps_nothing(self):
        grid = HexGrid(layers=3, width=3)
        timing = TimingConfig.paper_defaults()
        timeouts = scenario_stabilization_timeouts(
            Scenario.ZERO, 3, 3, 0, timing, extra_hops=grid.condition2_extra_hops()
        )
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(
                scenario=Scenario.ZERO, num_pulses=5,
                separation=timeouts.pulse_separation,
            ),
            3,
            timing,
            rng=np.random.default_rng(1),
        )
        result = DesEngine().multi_pulse(
            grid,
            timing,
            timeouts,
            schedule,
            rng=np.random.default_rng(2),
            initial_states="clean",
            collect_firings=False,
        )
        assert result.firing_times == {}


class TestSoakCli:
    def _run(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_soak_checkpoint_summarize_resume(self, tmp_path, capsys):
        store = tmp_path / "artifacts"
        argv = [
            "soak",
            "--layers", "3", "--width", "3",
            "--pulses", "40", "--pulses-per-epoch", "20",
            "--faults", "1", "--seed", "99",
            "--store", str(store), "--checkpoint-every", "1",
            "--quiet",
        ]
        code, out = self._run(argv, capsys)
        assert code == 0
        assert "40 pulses over 2 epochs" in out
        checkpoints = sorted(store.glob("soak-*.json"))
        assert len(checkpoints) == 1

        code, out = self._run(
            ["trace", "summarize", str(checkpoints[0]), "--top", "5"], capsys
        )
        assert code == 0
        assert "soak checkpoint" in out
        assert "skew" in out

        code, out = self._run(argv + ["--resume"], capsys)
        assert code == 0
        assert "(2 resumed)" in out

    @pytest.mark.parametrize(
        "corrupt, phrase",
        [
            (lambda payload: payload["spec"].update(bogus=1), "unknown SoakSpec fields"),
            (lambda payload: payload.pop("recoveries"), "missing fields: ['recoveries']"),
        ],
    )
    def test_resume_from_malformed_checkpoint_is_a_clean_error(
        self, tmp_path, capsys, corrupt, phrase
    ):
        from repro.cli import main

        store = tmp_path / "artifacts"
        argv = [
            "soak",
            "--layers", "3", "--width", "3",
            "--pulses", "20", "--pulses-per-epoch", "10",
            "--faults", "0", "--seed", "5",
            "--store", str(store), "--quiet",
        ]
        assert main(argv) == 0
        (checkpoint,) = store.glob("soak-*.json")
        payload = json.loads(checkpoint.read_text())
        corrupt(payload)
        checkpoint.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and phrase in err

    def test_soak_json_output(self, capsys):
        code, out = self._run(
            [
                "soak",
                "--layers", "3", "--width", "3",
                "--pulses", "20", "--pulses-per-epoch", "10",
                "--faults", "0", "--seed", "7",
                "--quiet", "--json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "hex-repro/soak/v1"
        assert payload["pulses_completed"] == 20
        assert payload["checkpoint_path"] is None

    def test_trace_summarize_top_truncates_spans(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "sweep", "--layers", "3", "--width", "3",
                "--scenarios", "i", "--runs", "2",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "more" in out
