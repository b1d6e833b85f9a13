"""Tests for fault models and Condition 1 placement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.topology import HexGrid
from repro.faults.models import FaultModel, FaultType, LinkBehavior, NodeFault
from repro.faults.placement import (
    check_condition1,
    condition1_probability_lower_bound,
    condition1_violations,
    forbidden_region,
    place_faults,
)
from repro.topologies import available_topologies, build_topology


class TestNodeFault:
    def test_fail_silent_covers_all_outgoing_links(self, small_grid):
        fault = NodeFault.fail_silent(small_grid, (3, 2))
        assert fault.fault_type is FaultType.FAIL_SILENT
        assert set(fault.link_behaviors) == set(small_grid.out_neighbors((3, 2)).values())
        assert all(b is LinkBehavior.CONSTANT_ZERO for b in fault.link_behaviors.values())

    def test_byzantine_random_behaviour_uses_both_values_eventually(self, small_grid, rng):
        seen = set()
        for _ in range(20):
            fault = NodeFault.byzantine(small_grid, (3, 2), rng=rng)
            seen.update(fault.link_behaviors.values())
        assert seen == {LinkBehavior.CONSTANT_ZERO, LinkBehavior.CONSTANT_ONE}

    def test_byzantine_requires_rng_or_behaviours(self, small_grid):
        with pytest.raises(ValueError):
            NodeFault.byzantine(small_grid, (3, 2))

    def test_byzantine_rejects_unknown_destination(self, small_grid):
        with pytest.raises(ValueError):
            NodeFault.byzantine(
                small_grid, (3, 2), behaviors={(6, 0): LinkBehavior.CONSTANT_ONE}
            )

    def test_byzantine_fills_unspecified_links_with_silence(self, small_grid):
        destination = list(small_grid.out_neighbors((3, 2)).values())[0]
        fault = NodeFault.byzantine(
            small_grid, (3, 2), behaviors={destination: LinkBehavior.CONSTANT_ONE}
        )
        others = [d for d in small_grid.out_neighbors((3, 2)).values() if d != destination]
        assert fault.behavior_towards(destination) is LinkBehavior.CONSTANT_ONE
        assert all(fault.behavior_towards(d) is LinkBehavior.CONSTANT_ZERO for d in others)

    def test_crash_validation(self, small_grid):
        fault = NodeFault.crash(small_grid, (2, 1), crash_time=100.0)
        assert fault.crash_time == 100.0
        with pytest.raises(ValueError):
            NodeFault.crash(small_grid, (2, 1), crash_time=-1.0)


class TestFaultModel:
    def test_fault_free(self, small_grid):
        model = FaultModel.fault_free(small_grid)
        assert model.num_faulty_nodes == 0
        assert model.is_correct((3, 3))
        assert np.all(model.correctness_mask())

    def test_queries(self, small_grid, rng):
        model = FaultModel(small_grid, [NodeFault.byzantine(small_grid, (2, 1), rng=rng)])
        assert model.is_faulty((2, 1))
        assert not model.is_faulty((2, 2))
        assert model.faulty_nodes() == [(2, 1)]
        assert model.node_fault((2, 1)).fault_type is FaultType.BYZANTINE
        assert model.node_fault((2, 2)) is None
        assert (2, 1) not in model.correct_nodes()

    def test_correctness_mask(self, small_grid):
        model = FaultModel(small_grid, [NodeFault.fail_silent(small_grid, (4, 0))])
        mask = model.correctness_mask()
        assert not mask[4, 0]
        assert mask.sum() == small_grid.num_nodes - 1

    def test_faulty_layers(self, small_grid):
        model = FaultModel(
            small_grid,
            [NodeFault.fail_silent(small_grid, (4, 0)), NodeFault.fail_silent(small_grid, (2, 3))],
        )
        assert model.faulty_layers() == [2, 4]
        assert model.num_faulty_layers_up_to(3) == 1
        assert model.num_faulty_layers_up_to(6) == 2

    def test_link_behavior_for_crash_depends_on_time(self, small_grid):
        model = FaultModel(small_grid, [NodeFault.crash(small_grid, (2, 1), crash_time=50.0)])
        destination = list(small_grid.out_neighbors((2, 1)).values())[0]
        assert model.link_behavior(((2, 1), destination), time=10.0) is LinkBehavior.CORRECT
        assert model.link_behavior(((2, 1), destination), time=60.0) is LinkBehavior.CONSTANT_ZERO
        # Default (eventual) behaviour is post-crash.
        assert model.link_behavior(((2, 1), destination)) is LinkBehavior.CONSTANT_ZERO

    def test_individual_link_faults(self, small_grid):
        model = FaultModel.fault_free(small_grid)
        destination = list(small_grid.out_neighbors((3, 2)).values())[0]
        model.add_link_fault(((3, 2), destination), LinkBehavior.CONSTANT_ZERO)
        assert model.link_behavior(((3, 2), destination)) is LinkBehavior.CONSTANT_ZERO
        assert model.is_correct((3, 2))  # the node itself stays correct
        assert ((3, 2), destination) in model.faulty_links()
        # Setting it back to CORRECT removes the entry.
        model.add_link_fault(((3, 2), destination), LinkBehavior.CORRECT)
        assert model.faulty_links() == []

    def test_add_link_fault_rejects_non_links(self, small_grid):
        model = FaultModel.fault_free(small_grid)
        with pytest.raises(ValueError):
            model.add_link_fault(((1, 1), (5, 4)), LinkBehavior.CONSTANT_ZERO)

    def test_describe_lists_all_faults(self, small_grid, rng):
        model = FaultModel(
            small_grid,
            [
                NodeFault.byzantine(small_grid, (2, 1), rng=rng),
                NodeFault.crash(small_grid, (5, 4), crash_time=33.0),
            ],
        )
        text = "\n".join(model.describe())
        assert "byzantine" in text and "crash" in text


def _all_nodes_violations(grid, faulty_nodes):
    """Condition 1 violations by scanning every node's in-neighbours."""
    faulty = {grid.validate_node(node) for node in faulty_nodes}
    violations = []
    for node in grid.nodes():
        faulty_in = sorted(
            neighbor for neighbor in grid.in_neighbors(node).values() if neighbor in faulty
        )
        if len(faulty_in) > 1:
            violations.append((node, faulty_in))
    return violations


class TestCondition1:
    def test_far_apart_faults_satisfy_condition(self, medium_grid):
        assert check_condition1(medium_grid, [(3, 1), (10, 6)])

    def test_adjacent_lower_neighbours_violate_condition(self, medium_grid):
        # (4,3) and (4,4) are both in-neighbours of (5,3).
        violations = condition1_violations(medium_grid, [(4, 3), (4, 4)])
        assert not check_condition1(medium_grid, [(4, 3), (4, 4)])
        assert any(node == (5, 3) for node, _ in violations)

    def test_same_layer_distance_two_violates(self, medium_grid):
        # (4,2) and (4,4) are both in-neighbours of (4,3) (left and right).
        assert not check_condition1(medium_grid, [(4, 2), (4, 4)])

    def test_single_fault_always_satisfies(self, medium_grid):
        for node in [(1, 0), (7, 5), (15, 9)]:
            assert check_condition1(medium_grid, [node])

    def test_forbidden_region_size(self, medium_grid):
        region = forbidden_region(medium_grid, (7, 4))
        assert (7, 4) not in region
        assert 0 < len(region) <= 12
        # Every member of the region indeed shares an out-neighbour's in-set.
        for other in region:
            assert not check_condition1(medium_grid, [(7, 4), other])

    @pytest.mark.parametrize("family", available_topologies())
    def test_violations_match_an_all_nodes_scan(self, family):
        spec = "degraded:nodes=4,links=6,seed=3" if family == "degraded" else family
        grid = build_topology(spec, layers=6, width=7)
        nodes = list(grid.nodes())
        rng = np.random.default_rng(11)
        violating = 0
        for _ in range(200):
            picks = rng.choice(len(nodes), size=int(rng.integers(1, 7)), replace=False)
            faulty = [nodes[int(index)] for index in picks]
            expected = _all_nodes_violations(grid, faulty)
            assert condition1_violations(grid, faulty) == expected
            violating += bool(expected)
        assert 0 < violating < 200

    def test_forbidden_region_members_are_exactly_the_violators(self, medium_grid):
        fault = (7, 4)
        region = forbidden_region(medium_grid, fault)
        for node in medium_grid.nodes():
            if node == fault:
                continue
            violates = not check_condition1(medium_grid, [fault, node])
            assert violates == (node in region)


class TestPlacement:
    def test_placement_respects_condition1(self, medium_grid, rng):
        for num_faults in (1, 3, 5):
            placed = place_faults(medium_grid, num_faults, rng)
            assert len(placed) == num_faults
            assert check_condition1(medium_grid, placed)

    def test_placement_excludes_layer0_by_default(self, medium_grid, rng):
        placed = place_faults(medium_grid, 6, rng)
        assert all(layer > 0 for layer, _ in placed)

    def test_placement_can_include_layer0(self, medium_grid, rng):
        seen_layer0 = False
        for _ in range(20):
            placed = place_faults(medium_grid, 4, rng, include_layer0=True)
            if any(layer == 0 for layer, _ in placed):
                seen_layer0 = True
                break
        assert seen_layer0

    def test_placement_respects_exclusions(self, medium_grid, rng):
        exclude = [(5, 3), (6, 6)]
        for _ in range(10):
            placed = place_faults(medium_grid, 3, rng, exclude=exclude)
            assert not set(placed) & set(exclude)

    def test_exclusions_hold_for_iterators_and_wrapped_nodes(self):
        # Only (2, 1) is admissible once the other forwarding nodes are out.
        grid = HexGrid(layers=3, width=4)
        others = [node for node in grid.forwarding_nodes() if node != (2, 1)]
        wrapped = [(layer, column + grid.width) for layer, column in others]
        for seed in range(10):
            for exclude in (iter(others), wrapped):
                placed = place_faults(grid, 1, np.random.default_rng(seed), exclude=exclude)
                assert placed == [(2, 1)]

    def test_zero_faults(self, medium_grid, rng):
        assert place_faults(medium_grid, 0, rng) == []

    def test_too_many_faults_raises(self, rng):
        grid = HexGrid(layers=2, width=3)
        with pytest.raises((ValueError, RuntimeError)):
            place_faults(grid, 7, rng)

    def test_reproducible_with_same_seed(self, medium_grid):
        a = place_faults(medium_grid, 4, np.random.default_rng(9))
        b = place_faults(medium_grid, 4, np.random.default_rng(9))
        assert a == b


class TestProbabilityBound:
    def test_trivial_cases(self):
        assert condition1_probability_lower_bound(100, 0) == 1.0
        assert condition1_probability_lower_bound(100, 1) == 1.0

    def test_formula(self):
        # (1 - 13 (f-1)/n)^f
        value = condition1_probability_lower_bound(1020, 5)
        assert value == pytest.approx((1 - 13 * 4 / 1020) ** 5)

    def test_clipping_and_monotonicity(self):
        assert condition1_probability_lower_bound(50, 20) == 0.0
        assert condition1_probability_lower_bound(1000, 2) > condition1_probability_lower_bound(
            1000, 6
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            condition1_probability_lower_bound(0, 1)
        with pytest.raises(ValueError):
            condition1_probability_lower_bound(10, -1)
