"""Tests for the skew statistics (intra-/inter-layer, aggregations, per-layer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.skew import (
    SkewStatistics,
    aggregate,
    collect_inter_values,
    collect_intra_values,
    inter_layer_skews,
    intra_layer_skews,
    per_layer_inter_stats,
)


@pytest.fixture
def tiny_times() -> np.ndarray:
    """A hand-checkable 3-layer x 4-column trigger-time matrix."""
    return np.array(
        [
            [0.0, 1.0, 2.0, 3.0],
            [8.0, 9.0, 11.0, 10.0],
            [17.0, 16.0, 18.0, 19.0],
        ]
    )


class TestIntraLayerSkews:
    def test_values_with_wraparound(self, tiny_times):
        skews = intra_layer_skews(tiny_times)
        # Layer 1: |8-9|, |9-11|, |11-10|, |10-8| (cyclic wrap).
        assert np.allclose(skews[1, :], [1.0, 2.0, 1.0, 2.0])
        # Layer 0 is also computed (callers slice it off for statistics).
        assert np.allclose(skews[0, :], [1.0, 1.0, 1.0, 3.0])

    def test_mask_excludes_pairs(self, tiny_times):
        mask = np.ones_like(tiny_times, dtype=bool)
        mask[1, 2] = False
        skews = intra_layer_skews(tiny_times, mask)
        assert np.isnan(skews[1, 1]) and np.isnan(skews[1, 2])
        assert skews[1, 0] == 1.0

    def test_infinite_times_become_nan(self, tiny_times):
        times = tiny_times.copy()
        times[2, 0] = np.inf
        skews = intra_layer_skews(times)
        assert np.isnan(skews[2, 0]) and np.isnan(skews[2, 3])

    def test_mask_shape_mismatch_raises(self, tiny_times):
        with pytest.raises(ValueError):
            intra_layer_skews(tiny_times, np.ones((2, 2), dtype=bool))


class TestInterLayerSkews:
    def test_values(self, tiny_times):
        skews = inter_layer_skews(tiny_times)
        assert skews.shape == (3, 4, 2)
        assert np.all(np.isnan(skews[0]))
        # Node (1,0): lower-left (0,0)=0, lower-right (0,1)=1.
        assert skews[1, 0, 0] == pytest.approx(8.0)
        assert skews[1, 0, 1] == pytest.approx(7.0)
        # Wrap: node (1,3): lower-right is (0,0).
        assert skews[1, 3, 1] == pytest.approx(10.0)

    def test_signed_values_preserved(self):
        times = np.array([[10.0, 10.0, 10.0], [5.0, 5.0, 5.0]])
        skews = inter_layer_skews(times)
        assert np.all(skews[1, :, :] == -5.0)


class TestAggregation:
    def test_operators(self):
        values = np.arange(101, dtype=float)
        assert aggregate(values, "min") == 0.0
        assert aggregate(values, "max") == 100.0
        assert aggregate(values, "avg") == 50.0
        assert aggregate(values, "q5") == pytest.approx(5.0)
        assert aggregate(values, "q95") == pytest.approx(95.0)

    def test_ignores_nan(self):
        values = np.array([1.0, np.nan, 3.0])
        assert aggregate(values, "avg") == 2.0

    def test_empty_gives_nan(self):
        assert np.isnan(aggregate(np.array([np.nan]), "max"))

    def test_unknown_operator_raises(self):
        with pytest.raises(ValueError):
            aggregate(np.array([1.0]), "median")

    def test_collectors_skip_layer0_and_nan(self, tiny_times):
        intra = collect_intra_values([tiny_times])
        assert intra.size == 8  # layers 1 and 2, 4 pairs each
        inter = collect_inter_values([tiny_times])
        assert inter.size == 16  # 2 layers x 4 nodes x 2 lower neighbours


class TestSkewStatistics:
    def test_from_times_row_keys(self, tiny_times):
        stats = SkewStatistics.from_times(tiny_times)
        row = stats.as_row()
        assert set(row) == {
            "intra_avg", "intra_q95", "intra_max",
            "inter_min", "inter_q5", "inter_avg", "inter_q95", "inter_max",
        }
        assert row["intra_max"] == pytest.approx(2.0)
        assert row["inter_min"] == pytest.approx(5.0)
        assert row["inter_max"] == pytest.approx(11.0)

    def test_from_runs_pools_samples(self, tiny_times):
        single = SkewStatistics.from_times(tiny_times)
        pooled = SkewStatistics.from_runs([tiny_times, tiny_times])
        assert pooled.num_runs == 2
        assert pooled.intra_avg == pytest.approx(single.intra_avg)
        assert pooled.intra_max == pytest.approx(single.intra_max)

    def test_masks_applied_per_run(self, tiny_times):
        mask = np.ones_like(tiny_times, dtype=bool)
        mask[2, 2] = False
        masked = SkewStatistics.from_runs([tiny_times], [mask])
        unmasked = SkewStatistics.from_times(tiny_times)
        assert masked.intra_max <= unmasked.intra_max


class TestPerLayerStats:
    def test_inter_stats_structure(self, medium_grid, timing, rng):
        from repro.core.pulse_solver import solve_single_pulse
        from repro.simulation.links import UniformRandomDelays

        runs = []
        for _ in range(3):
            delays = UniformRandomDelays(timing, rng)
            runs.append(
                solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays).trigger_times
            )
        stats = per_layer_inter_stats(runs, max_layer=10)
        assert list(stats["layer"]) == list(range(1, 11))
        assert np.all(stats["min"] >= timing.d_min - 1e-9)
        assert np.all(stats["max"] <= 2 * timing.d_max + 1e-9)
        assert np.all(stats["avg"] >= stats["min"] - 1e-9)
        assert np.all(stats["avg"] <= stats["max"] + 1e-9)

    def test_requires_at_least_one_run(self):
        with pytest.raises(ValueError):
            per_layer_inter_stats([])
