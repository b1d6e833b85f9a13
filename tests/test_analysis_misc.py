"""Tests for histograms, traces and fault-locality analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.histograms import cumulative_histogram, skew_histograms, tail_fraction
from repro.analysis.locality import excluded_nodes, exclusion_mask, inclusion_mask, skew_vs_distance
from repro.analysis.traces import wave_rows
from repro.core.pulse_solver import solve_single_pulse
from repro.faults.models import FaultModel, NodeFault
from repro.simulation.links import UniformRandomDelays


class TestHistograms:
    def test_counts_and_edges(self):
        values = np.array([0.1, 0.2, 0.6, 1.4, 1.6])
        histogram = cumulative_histogram(values, bin_width=0.5)
        assert histogram.total == 5
        assert histogram.edges[0] <= 0.1
        assert histogram.edges[-1] >= 1.6
        assert histogram.counts.sum() == 5

    def test_normalized_and_cumulative(self):
        histogram = cumulative_histogram(np.array([0.1, 0.1, 0.9]), bin_width=0.5)
        assert histogram.normalized().sum() == pytest.approx(1.0)
        assert histogram.cumulative()[-1] == pytest.approx(1.0)

    def test_explicit_range(self):
        histogram = cumulative_histogram(np.array([1.0, 2.0]), bin_width=1.0, value_range=(0.0, 4.0))
        assert len(histogram.counts) == 4

    def test_empty_input(self):
        histogram = cumulative_histogram(np.array([np.nan]), bin_width=0.5)
        assert histogram.total == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            cumulative_histogram(np.array([1.0]), bin_width=0.0)
        with pytest.raises(ValueError):
            cumulative_histogram(np.array([1.0]), bin_width=0.5, value_range=(2.0, 1.0))

    def test_skew_histograms_keys(self, medium_grid, timing, rng):
        delays = UniformRandomDelays(timing, rng)
        times = solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays).trigger_times
        result = skew_histograms([times])
        assert set(result) == {"intra", "inter"}
        assert result["inter"].total == medium_grid.layers * medium_grid.width * 2

    def test_tail_fraction(self):
        values = np.array([0.5, 1.5, 2.5, np.nan])
        assert tail_fraction(values, 1.0) == pytest.approx(2 / 3)
        assert tail_fraction(np.array([]), 1.0) == 0.0


class TestTraces:
    def test_wave_rows_truncation(self):
        times = np.arange(12, dtype=float).reshape(4, 3)
        rows = wave_rows(times, truncate_layers=1)
        assert len(rows) == 6
        assert rows[0] == {"layer": 0.0, "column": 0.0, "time": 0.0}

    def test_wave_rows_nan_for_nonfinite(self):
        times = np.array([[0.0, np.inf], [1.0, np.nan]])
        rows = wave_rows(times)
        assert np.isnan(rows[1]["time"])
        assert np.isnan(rows[3]["time"])


class TestLocality:
    def test_excluded_nodes_hops(self, medium_grid):
        fault = (5, 3)
        zero_hop = excluded_nodes(medium_grid, [fault], hops=0)
        assert zero_hop == {fault}
        one_hop = excluded_nodes(medium_grid, [fault], hops=1)
        assert fault in one_hop
        assert set(medium_grid.out_neighbors(fault).values()) <= one_hop
        assert len(one_hop) == 5  # the fault plus its 4 out-neighbours
        two_hop = excluded_nodes(medium_grid, [fault], hops=2)
        assert one_hop < two_hop

    def test_exclusion_mask_matches_set(self, medium_grid):
        fault = (5, 3)
        mask = exclusion_mask(medium_grid, [fault], hops=1)
        expected = excluded_nodes(medium_grid, [fault], hops=1)
        assert mask.sum() == len(expected)
        for layer, column in expected:
            assert mask[layer, column]

    def test_inclusion_mask_combines_correctness_and_exclusion(self, medium_grid):
        model = FaultModel(medium_grid, [NodeFault.fail_silent(medium_grid, (5, 3))])
        h0 = inclusion_mask(medium_grid, model, hops=0)
        h1 = inclusion_mask(medium_grid, model, hops=1)
        assert not h0[5, 3]
        assert h1.sum() < h0.sum()
        assert np.all(inclusion_mask(medium_grid, None))

    def test_negative_hops_raise(self, medium_grid):
        with pytest.raises(ValueError):
            excluded_nodes(medium_grid, [(5, 3)], hops=-1)

    def test_skew_vs_distance_profile_decays(self, medium_grid, timing, rng):
        """Fault effects should be strongest near the fault (fault locality)."""
        from repro.faults.models import LinkBehavior

        fault = (5, 4)
        behaviors = {
            dest: LinkBehavior.CONSTANT_ZERO
            for dest in medium_grid.out_neighbors(fault).values()
        }
        model = FaultModel(medium_grid, [NodeFault.byzantine(medium_grid, fault, behaviors=behaviors)])
        delays = UniformRandomDelays(timing, rng)
        times = solve_single_pulse(
            medium_grid, np.zeros(medium_grid.width), delays, model
        ).trigger_times
        profile = skew_vs_distance(medium_grid, times, model, max_distance=4)
        assert set(profile) == {0, 1, 2, 3, 4}
        near = profile[1]
        far = max(v for k, v in profile.items() if k >= 3 and np.isfinite(v))
        assert near >= far - 1e-9

    def test_skew_vs_distance_requires_fault(self, medium_grid):
        with pytest.raises(ValueError):
            skew_vs_distance(medium_grid, np.zeros(medium_grid.shape), FaultModel.fault_free(medium_grid))
