"""Tests for ``repro.stream``: moments, quantile sketches and summaries.

The hypothesis properties here are the documented contracts of the package:

* :class:`~repro.stream.quantiles.GKSketch` returns stream elements whose
  rank error is within ``ceil(epsilon * n)`` of the target rank -- on
  uniform, bimodal and adversarially sorted (ascending/descending) streams;
* :class:`~repro.stream.moments.StreamingMoments` matches NumPy's mean and
  variance to 1e-9 and ``float(sum(...))`` bit for bit;
* the hybrid :class:`~repro.stream.quantiles.StreamingQuantiles` is
  bit-identical to ``numpy.quantile``/``numpy.median`` below ``exact_cap``;
* serialization round trips reproduce the uninterrupted accumulator state
  exactly (the soak checkpoint-resume contract).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.stream import (
    GKSketch,
    StreamSummary,
    StreamingMoments,
    StreamingQuantiles,
    exact_median,
    exact_quantiles,
    interpolated_quantile,
)

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)

value_lists = st.lists(finite_floats, min_size=1, max_size=2000)

quantile_points = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


def _rank_error(sketch: GKSketch, ordered: np.ndarray, q: float) -> int:
    """Rank distance between ``sketch.query(q)`` and the target rank.

    The estimate must be an element of the stream; with duplicates it
    occupies the whole rank range ``[lo, hi]`` and the error is the distance
    from that range to the target rank ``ceil(q * n)``.
    """
    n = ordered.size
    estimate = sketch.query(q)
    target = max(1, min(n, math.ceil(q * n)))
    lo = int(np.searchsorted(ordered, estimate, side="left")) + 1
    hi = int(np.searchsorted(ordered, estimate, side="right"))
    assert lo <= hi, f"query({q}) = {estimate} is not an element of the stream"
    if lo <= target <= hi:
        return 0
    return min(abs(lo - target), abs(hi - target))


def _assert_within_bound(values, epsilon: float) -> None:
    sketch = GKSketch(epsilon=epsilon)
    sketch.extend(values)
    ordered = np.sort(np.asarray(values, dtype=float))
    bound = math.ceil(epsilon * ordered.size)
    for q in quantile_points:
        assert _rank_error(sketch, ordered, q) <= bound


class TestGKSketch:
    @given(values=value_lists, epsilon=st.sampled_from([0.005, 0.01, 0.05, 0.1]))
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_rank_error_bound_arbitrary_order(self, values, epsilon):
        _assert_within_bound(values, epsilon)

    @given(values=value_lists, epsilon=st.sampled_from([0.01, 0.05]))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_rank_error_bound_adversarially_sorted(self, values, epsilon):
        """The bound is worst-case over orderings: sorted input must not break it."""
        _assert_within_bound(sorted(values), epsilon)
        _assert_within_bound(sorted(values, reverse=True), epsilon)

    @pytest.mark.parametrize("epsilon", [0.005, 0.02])
    def test_rank_error_bound_bimodal_stream(self, epsilon):
        rng = np.random.default_rng(42)
        values = np.concatenate(
            [rng.normal(-100.0, 1.0, 5000), rng.normal(100.0, 1.0, 5000)]
        )
        _assert_within_bound(values.tolist(), epsilon)

    @pytest.mark.parametrize("epsilon", [0.005, 0.02])
    def test_rank_error_bound_large_uniform_stream(self, epsilon):
        rng = np.random.default_rng(7)
        _assert_within_bound(rng.uniform(-1e3, 1e3, 20000).tolist(), epsilon)

    @given(values=value_lists)
    @settings(max_examples=50, deadline=None)
    def test_extremes_are_exact(self, values):
        """q=0 and q=1 return the exact stream min/max, never merged away."""
        sketch = GKSketch(epsilon=0.1)
        sketch.extend(values)
        assert sketch.query(0.0) == min(values)
        assert sketch.query(1.0) == max(values)

    def test_memory_stays_sublinear(self):
        rng = np.random.default_rng(3)
        sketch = GKSketch(epsilon=0.01)
        sketch.extend(rng.uniform(size=200_000).tolist())
        sketch.flush()
        # O((1/eps) * log(eps * n)) tuples; a generous multiple of 1/eps
        # still demonstrates the summary is nowhere near the stream length.
        assert sketch.num_entries < 20 * int(1.0 / sketch.epsilon)

    def test_empty_sketch_queries_nan(self):
        assert math.isnan(GKSketch().query(0.5))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GKSketch(epsilon=0.0)
        with pytest.raises(ValueError):
            GKSketch(epsilon=0.7)
        with pytest.raises(ValueError):
            GKSketch().query(1.5)

    @given(values=value_lists)
    @settings(max_examples=30, deadline=None)
    def test_serialization_round_trip_resumes_exactly(self, values):
        """Round-tripping mid-stream reproduces the uninterrupted state."""
        split = len(values) // 2
        straight = GKSketch(epsilon=0.02)
        straight.extend(values[:split])
        straight.flush()
        straight.extend(values[split:])
        resumed = GKSketch(epsilon=0.02)
        resumed.extend(values[:split])
        resumed = GKSketch.from_json_dict(
            json.loads(json.dumps(resumed.to_json_dict()))
        )
        resumed.extend(values[split:])
        assert resumed.to_json_dict() == straight.to_json_dict()


class TestStreamingMoments:
    @given(values=value_lists)
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_to_1e9(self, values):
        moments = StreamingMoments()
        moments.extend(values)
        array = np.asarray(values, dtype=float)
        assert moments.count == array.size
        assert math.isclose(moments.mean, float(np.mean(array)), rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(
            moments.variance(), float(np.var(array)), rel_tol=1e-9, abs_tol=1e-9
        )
        if array.size > 1:
            assert math.isclose(
                moments.variance(ddof=1), float(np.var(array, ddof=1)),
                rel_tol=1e-9, abs_tol=1e-9,
            )
        assert moments.min == float(np.min(array))
        assert moments.max == float(np.max(array))

    @given(values=value_lists)
    @settings(max_examples=50, deadline=None)
    def test_total_is_bit_identical_to_sequential_sum(self, values):
        """The campaign wall-time contract: total == float(sum(...)) exactly."""
        moments = StreamingMoments()
        moments.extend(values)
        assert moments.total == float(sum(values))

    @given(values=value_lists)
    @settings(max_examples=50, deadline=None)
    def test_serialization_round_trip_resumes_exactly(self, values):
        split = len(values) // 2
        straight = StreamingMoments()
        straight.extend(values)
        resumed = StreamingMoments()
        resumed.extend(values[:split])
        resumed = StreamingMoments.from_json_dict(
            json.loads(json.dumps(resumed.to_json_dict()))
        )
        resumed.extend(values[split:])
        assert resumed.to_json_dict() == straight.to_json_dict()

    def test_empty_moments(self):
        moments = StreamingMoments()
        assert moments.count == 0
        assert math.isnan(moments.variance())
        assert math.isnan(moments.std())
        assert moments.to_json_dict()["min"] is None


class TestStreamingQuantiles:
    @given(values=st.lists(finite_floats, min_size=1, max_size=256))
    @settings(max_examples=50, deadline=None)
    def test_exact_below_cap_bit_identical_to_numpy(self, values):
        quantiles = StreamingQuantiles(exact_cap=256)
        quantiles.extend(values)
        assert quantiles.is_exact
        array = np.asarray(values, dtype=float)
        for q in (0.1, 0.5, 0.95):
            assert quantiles.quantile(q) == float(np.quantile(array, q))
        assert quantiles.median() == float(np.median(array))

    def test_none_cap_never_spills(self):
        quantiles = StreamingQuantiles(exact_cap=None)
        quantiles.extend(range(10_000))
        assert quantiles.is_exact
        assert quantiles.count == 10_000
        assert quantiles.median() == float(np.median(np.arange(10_000)))

    def test_spill_preserves_count_and_bound(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(-1e3, 1e3, 5000)
        quantiles = StreamingQuantiles(epsilon=0.01, exact_cap=100)
        quantiles.extend(values.tolist())
        assert not quantiles.is_exact
        assert quantiles.count == values.size
        ordered = np.sort(values)
        bound = math.ceil(0.01 * values.size)
        assert quantiles._sketch is not None
        for q in quantile_points:
            assert _rank_error(quantiles._sketch, ordered, q) <= bound

    @given(values=value_lists, cap=st.sampled_from([16, 64, 4096]))
    @settings(max_examples=30, deadline=None)
    def test_serialization_round_trip_resumes_exactly(self, values, cap):
        split = len(values) // 2
        straight = StreamingQuantiles(epsilon=0.02, exact_cap=cap)
        straight.extend(values[:split])
        if straight._sketch is not None:
            straight._sketch.flush()
        straight.extend(values[split:])
        resumed = StreamingQuantiles(epsilon=0.02, exact_cap=cap)
        resumed.extend(values[:split])
        resumed = StreamingQuantiles.from_json_dict(
            json.loads(json.dumps(resumed.to_json_dict()))
        )
        resumed.extend(values[split:])
        assert resumed.to_json_dict() == straight.to_json_dict()

    def test_empty_quantiles_nan(self):
        quantiles = StreamingQuantiles()
        assert math.isnan(quantiles.quantile(0.5))
        assert math.isnan(quantiles.median())

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            StreamingQuantiles(exact_cap=0)


def _same_bits(got: float, expected: float) -> bool:
    """Equal as IEEE values: NaN matches NaN, and the sign of zero counts."""
    if math.isnan(expected):
        return math.isnan(got)
    return got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)


class TestExactOrderStatistics:
    """``exact_quantiles``/``exact_median`` against numpy, bit for bit."""

    @pytest.mark.parametrize("kind", ["random", "ties", "constant", "nan"])
    def test_bit_identical_to_numpy_for_every_size(self, kind):
        rng = np.random.default_rng(2013)
        for n in range(1, 2001):
            if kind == "random":
                values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            elif kind == "ties":
                values = rng.integers(0, 4, size=n) * 0.1
            elif kind == "constant":
                values = np.full(n, -0.7)
            else:
                values = rng.uniform(-1.0, 1.0, size=n)
                values[rng.integers(0, n)] = np.nan
            before = values.copy()
            qs = (0.0, 0.05, 0.5, 0.95, 1.0, float(rng.uniform()))
            for q, got in zip(qs, exact_quantiles(values, qs)):
                assert _same_bits(got, float(np.quantile(values, q))), (n, q)
            assert _same_bits(exact_median(values), float(np.median(values))), n
            assert np.array_equal(values, before, equal_nan=True)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinities_follow_numpy(self):
        for values in ([np.inf], [-np.inf, 1.0], [1.0, 2.0, np.inf], [-np.inf, np.inf]):
            array = np.asarray(values)
            for q, got in zip((0.0, 0.3, 0.5, 1.0), exact_quantiles(array, (0.0, 0.3, 0.5, 1.0))):
                assert _same_bits(got, float(np.quantile(array, q))), (values, q)
            assert _same_bits(exact_median(array), float(np.median(array))), values

    def test_empty_is_nan_and_q_is_checked(self):
        assert all(math.isnan(value) for value in exact_quantiles(np.empty(0), (0.1, 0.9)))
        assert math.isnan(exact_median(np.empty(0)))
        with pytest.raises(ValueError):
            exact_quantiles(np.ones(3), (1.5,))


class TestStreamSummary:
    @given(values=value_lists)
    @settings(max_examples=30, deadline=None)
    def test_stats_shape_and_exact_agreement_below_cap(self, values):
        summary = StreamSummary(exact_cap=4096)
        summary.extend(values)
        stats = summary.stats()
        array = np.asarray(values, dtype=float)
        assert stats["count"] == float(array.size)
        assert stats["min"] == float(np.min(array))
        assert stats["max"] == float(np.max(array))
        assert stats["p50"] == float(np.median(array))
        assert stats["p95"] == float(np.quantile(array, 0.95))

    @given(values=value_lists)
    @settings(max_examples=30, deadline=None)
    def test_checkpoint_round_trip_resumes_exactly(self, values):
        """The soak checkpoint contract: flush + serialize + resume is a no-op."""
        split = len(values) // 2
        straight = StreamSummary(epsilon=0.02, exact_cap=32)
        straight.extend(values[:split])
        straight.flush()
        straight.extend(values[split:])
        straight.flush()
        resumed = StreamSummary(epsilon=0.02, exact_cap=32)
        resumed.extend(values[:split])
        resumed.flush()
        resumed = StreamSummary.from_json_dict(
            json.loads(json.dumps(resumed.to_json_dict()))
        )
        resumed.extend(values[split:])
        resumed.flush()
        assert resumed.to_json_dict() == straight.to_json_dict()

    def test_empty_summary_stats_are_nan(self):
        stats = StreamSummary().stats()
        assert stats["count"] == 0.0
        for key in ("mean", "min", "max", "p50", "p95"):
            assert math.isnan(stats[key])


class TestInterpolatedQuantile:
    @given(values=st.lists(finite_floats, min_size=1, max_size=500), q=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_linear_interpolation(self, values, q):
        ordered = sorted(values)
        expected = float(np.quantile(np.asarray(ordered), q))
        assert math.isclose(
            interpolated_quantile(ordered, q), expected, rel_tol=1e-12, abs_tol=1e-12
        )

    def test_empty_is_nan(self):
        assert math.isnan(interpolated_quantile([], 0.5))
