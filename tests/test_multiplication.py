"""Tests for the Section 5 extension: frequency multiplication."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.topology import HexGrid
from repro.multiplication.fastclock import (
    FrequencyMultiplier,
    MultiplierConfig,
    fast_clock_skew_bound,
    measure_fast_clock_skew,
)
from repro.multiplication.oscillator import StartStopOscillator


class TestOscillator:
    def test_tick_times(self):
        oscillator = StartStopOscillator(nominal_period=2.0, drift=1.0)
        assert np.allclose(oscillator.ticks(10.0, 3), [12.0, 14.0, 16.0])

    def test_drift_stretches_period(self):
        oscillator = StartStopOscillator(nominal_period=2.0, drift=1.05)
        assert oscillator.period == pytest.approx(2.1)

    def test_ticks_within_window(self):
        oscillator = StartStopOscillator(nominal_period=2.0)
        assert len(oscillator.ticks_within(0.0, 7.0)) == 3
        assert len(oscillator.ticks_within(0.0, 0.5)) == 0

    def test_random_drift_within_theta(self, rng):
        for _ in range(20):
            oscillator = StartStopOscillator.with_random_drift(1.0, theta=1.05, rng=rng)
            assert 1.0 <= oscillator.drift <= 1.05

    def test_validation(self):
        with pytest.raises(ValueError):
            StartStopOscillator(nominal_period=0.0)
        with pytest.raises(ValueError):
            StartStopOscillator(nominal_period=1.0, drift=0.9)
        with pytest.raises(ValueError):
            StartStopOscillator(nominal_period=1.0).ticks(0.0, -1)


class TestFrequencyMultiplication:
    def test_config_window(self):
        config = MultiplierConfig(multiplication_factor=8, nominal_period=2.0, theta=1.05)
        assert config.min_window == pytest.approx(8 * 2.0 * 1.05)
        assert config.effective_window == config.min_window
        with pytest.raises(ValueError):
            MultiplierConfig(multiplication_factor=8, nominal_period=2.0, theta=1.05, window=10.0)

    def test_skew_bound_formula(self):
        config = MultiplierConfig(multiplication_factor=4, nominal_period=2.0, theta=1.05)
        assert fast_clock_skew_bound(3.0, config) == pytest.approx(3.0 + 0.05 * config.min_window)
        with pytest.raises(ValueError):
            fast_clock_skew_bound(-1.0, config)

    def test_measured_skew_respects_bound(self, timing, rng):
        grid = HexGrid(layers=10, width=8)
        from repro.clocksource.scenarios import scenario_layer0_times
        from repro.core.pulse_solver import solve_single_pulse
        from repro.simulation.links import UniformRandomDelays

        layer0 = scenario_layer0_times("i", grid.width, timing, rng=rng)
        solution = solve_single_pulse(grid, layer0, UniformRandomDelays(timing, rng))
        config = MultiplierConfig(multiplication_factor=4, nominal_period=1.0, theta=1.05)
        multiplier = FrequencyMultiplier(grid, config, rng=rng)
        measured_max, measured_avg = measure_fast_clock_skew(
            grid, solution.trigger_times, multiplier
        )
        # HEX neighbour skew of this run:
        from repro.analysis.skew import inter_layer_skews, intra_layer_skews

        intra = intra_layer_skews(solution.trigger_times)
        inter = np.abs(inter_layer_skews(solution.trigger_times))
        hex_skew = float(max(np.nanmax(intra), np.nanmax(inter)))
        assert measured_avg <= measured_max
        assert measured_max <= fast_clock_skew_bound(hex_skew, config) + 1e-9

    def test_fast_ticks_shape_and_nan_handling(self, timing, rng):
        grid = HexGrid(layers=4, width=4)
        config = MultiplierConfig(multiplication_factor=3, nominal_period=1.0)
        multiplier = FrequencyMultiplier(grid, config, rng=rng)
        times = np.zeros(grid.shape)
        times[2, 1] = np.nan
        ticks = multiplier.fast_ticks_from_matrix(times)
        assert ticks.shape == (5, 4, 3)
        assert np.all(np.isnan(ticks[2, 1, :]))
        with pytest.raises(ValueError):
            multiplier.fast_ticks_from_matrix(np.zeros((2, 2)))

