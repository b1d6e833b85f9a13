"""Tests for the layer-0 clock-source substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.clocksource.scenarios import (
    SCENARIOS,
    Scenario,
    parse_scenario,
    scenario_label,
    scenario_layer0_times,
    scenario_skew_potential,
)


class TestScenarioParsing:
    @pytest.mark.parametrize(
        "alias, expected",
        [
            ("zero", Scenario.ZERO),
            ("i", Scenario.ZERO),
            ("(ii)", Scenario.UNIFORM_DMIN),
            ("III", Scenario.UNIFORM_DMAX),
            ("ramp", Scenario.RAMP),
            ("(iv)", Scenario.RAMP),
            (Scenario.RAMP, Scenario.RAMP),
        ],
    )
    def test_aliases(self, alias, expected):
        assert parse_scenario(alias) is expected

    def test_unknown_alias_raises(self):
        with pytest.raises(ValueError):
            parse_scenario("scenario-42")

    def test_labels(self):
        assert scenario_label("i") == "(i) 0"
        assert scenario_label("iv") == "(iv) ramp d+"
        assert [s.roman for s in SCENARIOS] == ["(i)", "(ii)", "(iii)", "(iv)"]


class TestScenarioTimes:
    def test_zero_scenario(self, timing):
        times = scenario_layer0_times("i", 10, timing)
        assert np.all(times == 0.0)

    def test_uniform_scenarios_respect_ranges(self, timing, rng):
        dmin_times = scenario_layer0_times("ii", 200, timing, rng=rng)
        assert np.all((0 <= dmin_times) & (dmin_times <= timing.d_min))
        dmax_times = scenario_layer0_times("iii", 200, timing, rng=rng)
        assert np.all((0 <= dmax_times) & (dmax_times <= timing.d_max))
        assert dmax_times.max() > timing.d_min  # actually uses the larger range

    def test_ramp_scenario_shape(self, timing):
        width = 20
        times = scenario_layer0_times("iv", width, timing)
        diffs = np.diff(times)
        half = width // 2
        assert np.allclose(diffs[:half], timing.d_max)
        assert np.allclose(diffs[half:], -timing.d_max)
        assert times.min() == 0.0
        assert times.max() == pytest.approx(half * timing.d_max)

    def test_seed_reproducibility(self, timing):
        a = scenario_layer0_times("iii", 20, timing, seed=77)
        b = scenario_layer0_times("iii", 20, timing, seed=77)
        assert np.array_equal(a, b)

    def test_width_validation(self, timing):
        with pytest.raises(ValueError):
            scenario_layer0_times("i", 2, timing)

    def test_skew_potentials(self, timing):
        assert scenario_skew_potential("i", 20, timing) == 0.0
        assert scenario_skew_potential("iv", 20, timing) == pytest.approx(
            10 * timing.epsilon, rel=0.05
        )


class TestPulseSchedules:
    def test_separation_between_pulses(self, timing, rng):
        config = PulseScheduleConfig(scenario="iii", num_pulses=5, separation=100.0)
        schedule = generate_pulse_schedule(config, 12, timing, rng=rng)
        assert schedule.shape == (5, 12)
        for pulse in range(4):
            assert schedule[pulse + 1, :].min() >= schedule[pulse, :].max() + 100.0 - 1e-9

    def test_extra_separation(self, timing, rng):
        config = PulseScheduleConfig(
            scenario="i", num_pulses=3, separation=50.0, extra_separation=10.0
        )
        schedule = generate_pulse_schedule(config, 6, timing, rng=rng)
        gaps = schedule[1:, :].min(axis=1) - schedule[:-1, :].max(axis=1)
        assert np.all(gaps >= 60.0 - 1e-9)

    def test_fixed_offsets_option(self, timing, rng):
        config = PulseScheduleConfig(
            scenario="iii", num_pulses=3, separation=50.0, redraw_offsets=False
        )
        schedule = generate_pulse_schedule(config, 6, timing, rng=rng)
        offsets = schedule - schedule.min(axis=1, keepdims=True)
        assert np.allclose(offsets[0], offsets[1])
        assert np.allclose(offsets[1], offsets[2])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PulseScheduleConfig(scenario="i", num_pulses=0, separation=1.0)
        with pytest.raises(ValueError):
            PulseScheduleConfig(scenario="i", num_pulses=1, separation=0.0)
        with pytest.raises(ValueError):
            PulseScheduleConfig(scenario="i", num_pulses=1, separation=1.0, extra_separation=-1.0)

