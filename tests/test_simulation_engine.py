"""Tests for the event queue, the link delay models and the draw stream."""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.core.draws import DrawStream
from repro.core.parameters import TimerPolicy, condition2_timeouts
from repro.core.topology import HexGrid
from repro.simulation.engine import EventQueue
from repro.simulation.links import (
    ConstantDelays,
    FreshUniformDelays,
    TableDelays,
    UniformRandomDelays,
)
from repro.simulation.network import HexNetwork


def _pop_nodes(queue):
    """The ``node`` fields of the queued entries, in pop order."""
    return [heapq.heappop(queue.heap)[3] for _ in range(len(queue.heap))]


def _small_network(timing, **kwargs):
    grid = HexGrid(layers=3, width=4)
    timeouts = condition2_timeouts(timing, stable_skew=timing.d_max, layers=grid.layers)
    return HexNetwork(
        grid,
        timing,
        timeouts,
        ConstantDelays(timing.d_max),
        timer_policy=TimerPolicy.NOMINAL,
        **kwargs,
    )


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.schedule(3.0, 4, 2, 0)
        queue.schedule(1.0, 4, 0, 0)
        queue.schedule(2.0, 4, 1, 0)
        assert _pop_nodes(queue) == [0, 1, 2]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        for node in (2, 0, 1):
            queue.schedule(1.0, 4, node, 0)
        assert _pop_nodes(queue) == [2, 0, 1]

    def test_now_advances_with_pops(self, timing):
        network = _small_network(timing)
        network.schedule_source_pulses(np.zeros((1, 4)))
        assert network.queue.now == 0.0
        network.run(until=timing.d_max)
        # The last events processed are the layer-1 arrivals at d+.
        assert network.queue.now == timing.d_max

    def test_cannot_schedule_in_the_past(self):
        queue = EventQueue()
        queue.now = 5.0
        with pytest.raises(ValueError):
            queue.schedule(4.0, 4, 0, 0)
        queue.schedule(5.0, 4, 0, 0)

    def test_cannot_schedule_nonfinite(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(float("inf"), 4, 0, 0)
        with pytest.raises(ValueError):
            queue.schedule(float("nan"), 4, 0, 0)

    def test_counters(self, timing):
        network = _small_network(timing)
        network.schedule_source_pulses(np.zeros((1, 4)))
        processed = network.run(until=timing.d_max)
        queue = network.queue
        assert 0 < queue.num_processed == processed < queue.num_scheduled
        # The layer-1 flag and sleep timers are deferred, not queued.
        assert network.timers_deferred > 0
        assert queue.num_scheduled == processed + len(queue.heap) + network.timers_deferred

    def test_num_scheduled_counts_the_sequence_numbers_handed_out(self):
        queue = EventQueue()
        queue.schedule(1.0, 4, 0, 0)
        next(queue.sequence)
        assert queue.num_scheduled == 2


class TestDelayModels:
    def test_constant_delays(self):
        model = ConstantDelays(3.5)
        assert model.delay((0, 0), (1, 0)) == 3.5
        assert model.sample((0, 0), (1, 0)) == 3.5
        with pytest.raises(ValueError):
            ConstantDelays(0.0)

    def test_table_delays_default_and_override(self):
        model = TableDelays({((0, 0), (1, 0)): 2.0}, default=5.0)
        assert model.delay((0, 0), (1, 0)) == 2.0
        assert model.delay((0, 1), (1, 1)) == 5.0
        model.set((0, 1), (1, 1), 3.0)
        assert model.delay((0, 1), (1, 1)) == 3.0
        with pytest.raises(ValueError):
            model.set((0, 1), (1, 1), -1.0)
        with pytest.raises(ValueError):
            TableDelays({}, default=0.0)

    def test_uniform_delays_are_cached_and_in_range(self, timing, rng):
        model = UniformRandomDelays(timing, rng)
        first = model.delay((0, 0), (1, 0))
        second = model.delay((0, 0), (1, 0))
        assert first == second
        assert timing.d_min <= first <= timing.d_max

    def test_uniform_delays_differ_across_links(self, timing, rng):
        model = UniformRandomDelays(timing, rng)
        grid = HexGrid(layers=4, width=4)
        values = set(model.materialize(grid).values())
        assert len(values) > 10  # essentially all distinct

    def test_fresh_delays_resample_every_message(self, timing, rng):
        model = FreshUniformDelays(timing, rng)
        values = {model.sample((0, 0), (1, 0)) for _ in range(10)}
        assert len(values) > 1
        assert all(timing.d_min <= value <= timing.d_max for value in values)

    def test_validate_against(self, timing, rng):
        grid = HexGrid(layers=3, width=4)
        good = UniformRandomDelays(timing, rng)
        assert good.validate_against(timing, grid)
        bad = ConstantDelays(timing.d_max * 2)
        assert not bad.validate_against(timing, grid)


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.MT19937]


class TestDrawStream:
    """The buffered stream is interchangeable with scalar ``uniform`` calls."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    def test_draws_and_end_state_match_scalar_uniform(self, bit_generator):
        scalar = np.random.Generator(bit_generator(7))
        buffered = np.random.Generator(bit_generator(7))
        # A pending 32-bit half-word must survive the rewind as well.
        scalar.integers(0, 2)
        buffered.integers(0, 2)
        bounds = [(7.161, 8.197), (-0.05, 0.05), (0.0, 48.99)] * 300
        stream = DrawStream(buffered)
        expected = [float(scalar.uniform(low, high)) for low, high in bounds]
        assert [stream.uniform(low, high) for low, high in bounds] == expected
        stream.rewind()
        assert buffered.random() == scalar.random()
        assert buffered.integers(0, 1 << 30, size=5).tolist() == (
            scalar.integers(0, 1 << 30, size=5).tolist()
        )

    def test_rewind_reopens_on_the_next_draw(self):
        scalar, buffered = np.random.default_rng(3), np.random.default_rng(3)
        stream = DrawStream(buffered)
        for _ in range(2):
            assert stream.uniform(0.0, 1.0) == float(scalar.uniform(0.0, 1.0))
            stream.rewind()
            assert buffered.integers(0, 9) == scalar.integers(0, 9)

    def test_direct_draw_behind_the_stream_raises(self):
        rng = np.random.default_rng(5)
        stream = DrawStream(rng)
        stream.uniform(0.0, 1.0)
        rng.random()
        with pytest.raises(RuntimeError):
            stream.rewind()

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS[:2], ids=lambda bg: bg.__name__)
    @pytest.mark.parametrize("head, count", [(0, 400), (10, 20), (250, 400)])
    @pytest.mark.parametrize("unread", [0, 5])
    def test_block_matches_scalar_uniform_and_hands_back_its_tail(
        self, bit_generator, head, count, unread
    ):
        scalar, buffered, replay = (np.random.Generator(bit_generator(8)) for _ in range(3))
        for rng in (scalar, buffered, replay):
            rng.integers(0, 2)
        stream = DrawStream(buffered)
        assert [stream.uniform(0.0, 1.0) for _ in range(head)] == [
            float(scalar.uniform(0.0, 1.0)) for _ in range(head)
        ]
        assert stream.block(7.161, 8.197, count).tolist() == [
            float(scalar.uniform(7.161, 8.197)) for _ in range(count)
        ]
        stream.rewind(unread=unread)
        replay.random(head + count - unread)
        assert buffered.bit_generator.state == replay.bit_generator.state

    def test_block_needs_a_generator_that_rewinds(self):
        stream = DrawStream(np.random.Generator(np.random.MT19937(1)))
        assert not stream.reads_ahead
        with pytest.raises(ValueError):
            stream.block(0.0, 1.0, 3)
