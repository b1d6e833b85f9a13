"""Tests for the analytic single-pulse solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.algorithm import GuardKind
from repro.core.pulse_solver import solve_single_pulse
from repro.core.topology import Direction, HexGrid
from repro.faults.models import FaultModel, LinkBehavior, NodeFault
from repro.faults.placement import place_faults
from repro.simulation.links import (
    ConstantDelays,
    DelayModel,
    TableDelays,
    UniformRandomDelays,
)
from repro.topologies import build_topology


class TestFaultFreePropagation:
    def test_constant_delays_zero_skew(self, small_grid, simple_timing):
        """With identical delays and aligned sources every layer fires in lockstep."""
        delays = ConstantDelays(simple_timing.d_max)
        solution = solve_single_pulse(small_grid, np.zeros(small_grid.width), delays)
        for layer in range(small_grid.layers + 1):
            expected = layer * simple_timing.d_max
            assert np.allclose(solution.trigger_times[layer, :], expected)

    def test_all_nodes_triggered_with_random_delays(self, medium_grid, timing, rng):
        delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays)
        assert solution.all_triggered()

    def test_trigger_times_respect_link_delay_lower_bound(self, medium_grid, timing, rng):
        delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays)
        times = solution.trigger_times
        for layer in range(1, medium_grid.layers + 1):
            assert np.all(times[layer, :] >= layer * timing.d_min - 1e-9)
            assert np.all(times[layer, :] <= layer * timing.d_max + 1e-9)

    def test_every_node_fires_after_both_causal_inputs(self, medium_grid, timing, rng):
        """The firing time equals the max of the two causal arrivals (Definition 1)."""
        delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays)
        for node in medium_grid.forwarding_nodes():
            guard = solution.guard_kind(node)
            assert guard is not None
            arrivals = []
            for direction in guard.causal_directions:
                source = medium_grid.neighbor(node, direction)
                arrivals.append(solution.trigger_time(source) + delays.delay(source, node))
            assert solution.trigger_time(node) == pytest.approx(max(arrivals))

    def test_guard_reported_matches_definition1(self, medium_grid, timing, rng):
        """No other guard could have fired strictly earlier than the reported one."""
        delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays)
        for node in list(medium_grid.forwarding_nodes())[:50]:
            fire_time = solution.trigger_time(node)
            for kind in GuardKind:
                arrivals = []
                for direction in kind.causal_directions:
                    source = medium_grid.neighbor(node, direction)
                    arrivals.append(solution.trigger_time(source) + delays.delay(source, node))
                assert max(arrivals) >= fire_time - 1e-9

    def test_layer0_times_are_propagated_unchanged(self, small_grid, timing, rng):
        layer0 = np.linspace(0.0, 3.0, small_grid.width)
        delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(small_grid, layer0, delays)
        assert np.allclose(solution.layer0_times, layer0)
        assert np.allclose(solution.trigger_times[0, :], layer0)

    def test_monotone_in_layer0_times(self, small_grid, timing, rng):
        """Delaying a source can only delay (never advance) any trigger time."""
        delays = UniformRandomDelays(timing, rng)
        delays.materialize(small_grid)
        base = solve_single_pulse(small_grid, np.zeros(small_grid.width), delays)
        shifted_layer0 = np.zeros(small_grid.width)
        shifted_layer0[2] = 5.0
        shifted = solve_single_pulse(small_grid, shifted_layer0, delays)
        assert np.all(shifted.trigger_times >= base.trigger_times - 1e-9)

    def test_wrong_layer0_shape_raises(self, small_grid, timing, rng):
        with pytest.raises(ValueError):
            solve_single_pulse(small_grid, np.zeros(3), UniformRandomDelays(timing, rng))


class TestFaultyPropagation:
    def test_fail_silent_node_is_nan_and_neighbours_still_fire(self, medium_grid, timing, rng):
        fault = NodeFault.fail_silent(medium_grid, (5, 3))
        model = FaultModel(medium_grid, [fault])
        delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays, model)
        assert math.isnan(solution.trigger_time((5, 3)))
        assert solution.all_triggered()  # all *correct* nodes fired

    def test_two_adjacent_silent_nodes_starve_their_common_upper_neighbour(self, medium_grid, timing, rng):
        """Violating Condition 1 with two silent lower neighbours blocks a node."""
        model = FaultModel(
            medium_grid,
            [
                NodeFault.fail_silent(medium_grid, (4, 3)),
                NodeFault.fail_silent(medium_grid, (4, 4)),
            ],
        )
        delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays, model)
        # Node (5, 3) has lower-left (4,3) and lower-right (4,4) silent, so it
        # can only be left- or right-triggered -- which additionally requires
        # one of the silent nodes.  It therefore never fires.
        assert math.isinf(solution.trigger_time((5, 3)))

    def test_constant_one_links_can_trigger_early(self, medium_grid, timing, rng):
        """A Byzantine node asserting both links of a guard fires the victim at once."""
        node = (5, 3)
        grid = medium_grid
        behaviors = {dest: LinkBehavior.CONSTANT_ONE for dest in grid.out_neighbors(node).values()}
        model = FaultModel(grid, [NodeFault.byzantine(grid, node, behaviors=behaviors)])
        delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(grid, np.zeros(grid.width), delays, model)
        # The right neighbour of the fault sees a stuck-at-1 left link; its
        # left guard completes as soon as its lower-left message arrives, i.e.
        # potentially before the fault-free schedule -- and never later.
        victim = grid.neighbor(node, Direction.RIGHT)
        fault_free = solve_single_pulse(grid, np.zeros(grid.width), delays)
        assert solution.trigger_time(victim) <= fault_free.trigger_time(victim) + 1e-9

    def test_byzantine_node_never_delays_far_away_nodes(self, medium_grid, timing, rng):
        """Under Condition 1 a single Byzantine node cannot slow down remote nodes much."""
        node = (5, 3)
        model = FaultModel(medium_grid, [NodeFault.byzantine(medium_grid, node, rng=rng)])
        delays = UniformRandomDelays(timing, rng)
        delays.materialize(medium_grid)
        faulty = solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays, model)
        clean = solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays)
        far_node = (12, 8)
        assert faulty.trigger_time(far_node) <= clean.trigger_time(far_node) + 2 * timing.d_max

    def test_crash_fault_treated_as_silent_by_solver(self, medium_grid, timing, rng):
        model = FaultModel(medium_grid, [NodeFault.crash(medium_grid, (3, 2), crash_time=0.0)])
        delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays, model)
        assert math.isnan(solution.trigger_time((3, 2)))

    def test_faulty_layer0_source_is_ignored(self, medium_grid, timing, rng):
        model = FaultModel(medium_grid, [NodeFault.fail_silent(medium_grid, (0, 4))])
        delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays, model)
        assert math.isnan(solution.trigger_times[0, 4])
        assert solution.all_triggered()

    def test_mismatched_fault_model_grid_raises(self, medium_grid, small_grid, timing, rng):
        model = FaultModel(small_grid)
        with pytest.raises(ValueError):
            solve_single_pulse(
                medium_grid, np.zeros(medium_grid.width), UniformRandomDelays(timing, rng), model
            )


class TestSolutionAccessors:
    def test_causal_in_neighbors(self, small_grid, simple_timing):
        delays = ConstantDelays(simple_timing.d_min)
        solution = solve_single_pulse(small_grid, np.zeros(small_grid.width), delays)
        node = (3, 2)
        causal = solution.causal_in_neighbors(node)
        assert len(causal) == 2
        for neighbor in causal:
            assert neighbor in small_grid.in_neighbors(node).values()
        assert solution.causal_in_neighbors((0, 0)) == ()

    def test_finite_times_masks_inf(self, medium_grid, timing, rng):
        model = FaultModel(
            medium_grid,
            [
                NodeFault.fail_silent(medium_grid, (4, 3)),
                NodeFault.fail_silent(medium_grid, (4, 4)),
            ],
        )
        solution = solve_single_pulse(
            medium_grid, np.zeros(medium_grid.width), UniformRandomDelays(timing, rng), model
        )
        finite = solution.finite_times()
        assert np.isnan(finite[5, 3])

    def test_guard_matrix_values(self, small_grid, simple_timing):
        solution = solve_single_pulse(
            small_grid, np.zeros(small_grid.width), ConstantDelays(simple_timing.d_min)
        )
        assert np.all(solution.guards[0, :] == -1)
        assert np.all(solution.guards[1:, :] >= 0)


class TestWorstCaseDelays:
    def test_table_delays_shape_skews(self, simple_timing):
        """Fast left half / slow right half yields a bounded but visible skew."""
        grid = HexGrid(layers=8, width=8)
        table = TableDelays({}, default=simple_timing.d_max)
        for source, destination in grid.links():
            if destination[1] < 4:
                table.set(source, destination, simple_timing.d_min)
        solution = solve_single_pulse(grid, np.zeros(grid.width), table)
        top = solution.trigger_times[grid.layers, :]
        assert top[0] < top[5]
        # The coupling of the HEX rule keeps the neighbour skew of the boundary
        # columns far below the accumulated difference of the two halves.
        assert abs(top[4] - top[3]) < grid.layers * (simple_timing.d_max - simple_timing.d_min)


class _DrawsBehindTheStream(DelayModel):
    """Draws through ``uniform`` but also straight from ``rng``."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def delay(self, source, destination, uniform=None):
        self.rng.random()
        return uniform(1.0, 2.0)


class _FailsAfterDraws(DelayModel):
    """Draws ``draws`` delays through ``uniform``, then raises."""

    def __init__(self, rng: np.random.Generator, draws: int) -> None:
        self.rng = rng
        self._left = draws

    def delay(self, source, destination, uniform=None):
        if self._left == 0:
            raise LookupError("no delay for this link")
        self._left -= 1
        return uniform(1.0, 2.0)


class _PerLinkUniformDelays(UniformRandomDelays):
    """Uniform delays without block draws: the solver queries link by link."""

    def block_draw_bounds(self):
        return None


def _block_draw_case(name):
    """``(grid, fault_model)`` of one block-draw equivalence case."""
    if name == "degraded":
        return build_topology("degraded:nodes=12,links=20,seed=5", layers=20, width=10), None
    grid = HexGrid(layers=20, width=10)
    if name == "fault-free":
        return grid, None
    rng = np.random.default_rng(3)
    positions = place_faults(grid, 2, rng)
    if name == "byzantine":
        faults = [NodeFault.byzantine(grid, node, rng=rng) for node in positions]
    else:
        faults = [NodeFault.fail_silent(grid, node) for node in positions]
    return grid, FaultModel(grid, faults)


class TestBlockDraws:
    """An unused UniformRandomDelays is read as one block, bit-identically."""

    @pytest.mark.parametrize("case", ["fault-free", "byzantine", "fail-silent", "degraded"])
    def test_block_path_matches_per_link_path(self, timing, case):
        grid, faults = _block_draw_case(case)
        layer0 = np.random.default_rng(4).uniform(0.0, timing.d_max, grid.width)
        block_rng, per_link_rng = np.random.default_rng(2013), np.random.default_rng(2013)
        block = UniformRandomDelays(timing, block_rng)
        per_link = _PerLinkUniformDelays(timing, per_link_rng)
        queries = []
        block.delay = lambda *link: queries.append(link)  # the block path never calls it
        for second in (False, True):
            if second:
                # Both models are drawn now, so both query link by link.
                del block.delay
                assert block.block_draw_bounds() is None
            ours = solve_single_pulse(grid, layer0, block, faults)
            theirs = solve_single_pulse(grid, layer0, per_link, faults)
            assert np.array_equal(ours.trigger_times, theirs.trigger_times, equal_nan=True)
            assert np.array_equal(ours.guards, theirs.guards)
            assert ours.work == theirs.work
            assert list(block._cache.items()) == list(per_link._cache.items())
            assert block_rng.bit_generator.state == per_link_rng.bit_generator.state
        assert queries == []
        assert len(per_link._cache) > 256  # crosses a stream refill
        # Both generators stand at the same draw, so a new link gets one delay.
        extra = (grid.layers + 1, 0), (grid.layers + 1, 1)
        assert block.delay(*extra) == per_link.delay(*extra)


class TestDrawStreamContract:
    """Link delays are read from a DrawStream over the model's generator."""

    def test_generator_ends_where_scalar_draws_leave_it(self, timing):
        grid = HexGrid(layers=50, width=20)
        rng = np.random.default_rng(2013)
        delays = UniformRandomDelays(timing, rng)
        solve_single_pulse(grid, np.zeros(grid.width), delays)
        cached = list(delays._cache.values())
        assert len(cached) > 256  # crosses a stream refill
        replay = np.random.default_rng(2013)
        assert [replay.uniform(timing.d_min, timing.d_max) for _ in cached] == cached
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_direct_draw_from_the_generator_raises(self, medium_grid):
        delays = _DrawsBehindTheStream(np.random.default_rng(1))
        with pytest.raises(RuntimeError, match="drawn from directly"):
            solve_single_pulse(medium_grid, np.zeros(medium_grid.width), delays)

    @pytest.mark.parametrize("draws", [0, 5, 300])
    def test_raising_delay_leaves_only_its_draws_consumed(self, draws):
        grid = HexGrid(layers=50, width=20)
        rng = np.random.default_rng(99)
        with pytest.raises(LookupError):
            solve_single_pulse(grid, np.zeros(grid.width), _FailsAfterDraws(rng, draws))
        replay = np.random.default_rng(99)
        for _ in range(draws):
            replay.uniform(1.0, 2.0)
        assert rng.bit_generator.state == replay.bit_generator.state
