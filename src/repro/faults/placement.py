"""Fault placement under Condition 1 (fault separation).

Condition 1 of the paper states:

    "For each node, no more than one of its incoming links connects to a faulty
    neighbor."

The paper notes that this is equivalent to declaring, for each faulty node, all
other nodes that are in-neighbours of some node who has the faulty node as its
in-neighbour (up to 12 nodes) as a *forbidden region* for additional faults,
and that placing ``f`` faults uniformly at random in a grid of ``n`` nodes
satisfies the condition with probability at least ``(1 - 13(f - 1)/n)^f``;
in expectation a uniformly random subset of ``Theta(sqrt(n))`` nodes may fail
before it is violated.

This module provides:

* :func:`check_condition1` / :func:`condition1_violations` -- verify the
  condition for a given set of faulty nodes;
* :func:`forbidden_region` -- the exclusion zone of a faulty node;
* :func:`place_faults` -- rejection-free random placement under Condition 1
  (draw nodes uniformly among those still allowed), as used for the
  fault-injection experiments of Section 4.3;
* :func:`condition1_probability_lower_bound` -- the paper's closed-form bound.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.topology import HexGrid, NodeId
from repro.faults.models import FaultModel, FaultType, NodeFault
from repro.topologies import condition1_fault_capacity
from repro.topologies.base import condition1_forbidden_region

__all__ = [
    "check_condition1",
    "condition1_violations",
    "forbidden_region",
    "place_faults",
    "build_fault_model",
    "condition1_probability_lower_bound",
    "condition1_fault_capacity",
]


def condition1_violations(
    grid: HexGrid, faulty_nodes: Iterable[NodeId]
) -> List[Tuple[NodeId, List[NodeId]]]:
    """All violations of Condition 1 for a given fault set.

    Returns
    -------
    list of (node, faulty_in_neighbours)
        One entry per grid node that has *two or more* faulty in-neighbours,
        together with the sorted list of those faulty in-neighbours.  An empty
        list means Condition 1 holds.
    """
    faulty = {grid.validate_node(node) for node in faulty_nodes}
    # Only an out-neighbour of a faulty node has a faulty in-neighbour;
    # sorted, they come in ``grid.nodes()`` (layer, column) order.
    suspects = {
        destination for node in faulty for destination in grid.out_neighbors(node).values()
    }
    violations: List[Tuple[NodeId, List[NodeId]]] = []
    for node in sorted(suspects):
        faulty_in = sorted(
            neighbor for neighbor in grid.in_neighbors(node).values() if neighbor in faulty
        )
        if len(faulty_in) > 1:
            violations.append((node, faulty_in))
    return violations


def check_condition1(grid: HexGrid, faulty_nodes: Iterable[NodeId]) -> bool:
    """Whether Condition 1 (fault separation) holds for the given fault set."""
    return not condition1_violations(grid, faulty_nodes)


def forbidden_region(grid: HexGrid, faulty_node: NodeId) -> Set[NodeId]:
    """The exclusion zone a faulty node imposes on further faults.

    A second fault at node ``v`` would violate Condition 1 exactly if some grid
    node has both ``faulty_node`` and ``v`` among its in-neighbours.  The
    forbidden region therefore consists of all in-neighbours (other than
    ``faulty_node`` itself) of all out-neighbours of ``faulty_node`` -- up to 12
    nodes, as stated in the paper.

    The faulty node itself is *not* part of the returned set.  Delegates to
    :func:`repro.topologies.base.condition1_forbidden_region` (the single home of
    the exclusion-zone logic, shared with the greedy capacity bound).
    """
    return condition1_forbidden_region(grid, grid.validate_node(faulty_node))


@lru_cache(maxsize=16)
def _candidates(grid: HexGrid, include_layer0: bool) -> Tuple[NodeId, ...]:
    """The sorted fault candidates of a grid, before any exclusion."""
    return tuple(sorted(node for node in grid.nodes() if include_layer0 or node[0] > 0))


def place_faults(
    grid: HexGrid,
    num_faults: int,
    rng: np.random.Generator,
    include_layer0: bool = False,
    exclude: Iterable[NodeId] = (),
    max_attempts: int = 10_000,
) -> List[NodeId]:
    """Place ``num_faults`` faulty nodes uniformly at random under Condition 1.

    The placement mimics the paper's experiments: "f faulty nodes were placed
    uniformly at random under the constraint that Condition 1 held".  Nodes are
    drawn one at a time uniformly among the still-admissible candidates (kept
    as one sorted list, from which each fault drops itself and its forbidden
    region); if the admissible set becomes empty before all faults are
    placed, the whole placement is retried (up to ``max_attempts`` times).

    Parameters
    ----------
    grid:
        The HEX grid.
    num_faults:
        The number of faulty nodes ``f`` to place.
    rng:
        Seeded random generator.
    include_layer0:
        Whether layer-0 clock sources may be selected.  The skew/stabilization
        experiments of the paper place faults among the forwarding nodes, so
        this defaults to ``False``.
    exclude:
        Additional nodes that must stay correct (e.g. deterministic fault
        positions already fixed by the experiment); any iterable, in any
        (column-wrapped) form :meth:`~repro.core.topology.HexGrid.validate_node`
        accepts.
    max_attempts:
        Safety bound on whole-placement retries.

    Returns
    -------
    list of NodeId
        The faulty nodes, sorted by (layer, column).

    Raises
    ------
    RuntimeError
        If no admissible placement was found within ``max_attempts`` retries
        (only plausible when ``num_faults`` is far beyond the grid's capacity).
    """
    if num_faults < 0:
        raise ValueError(f"num_faults must be non-negative, got {num_faults}")
    if num_faults == 0:
        return []

    excluded = {grid.validate_node(node) for node in exclude}
    candidates = _candidates(grid, include_layer0)
    if excluded:
        candidates = tuple(node for node in candidates if node not in excluded)
    if num_faults > len(candidates):
        raise ValueError(
            f"cannot place {num_faults} faults among {len(candidates)} candidate nodes"
        )

    for _attempt in range(max_attempts):
        admissible = list(candidates)
        placed: List[NodeId] = []
        for _ in range(num_faults):
            if not admissible:
                break
            choice = admissible[int(rng.integers(0, len(admissible)))]
            placed.append(choice)
            # Remove the fault itself and its forbidden region: every node
            # whose forbidden region contains the fault (symmetric condition).
            for banned in forbidden_region(grid, choice) | {choice}:
                position = bisect_left(admissible, banned)
                if position < len(admissible) and admissible[position] == banned:
                    del admissible[position]
        else:
            assert check_condition1(grid, placed), "internal error: placement violates Condition 1"
            return sorted(placed)
    # Compute the topology's deterministic packing bound only on the failure
    # path (it is O(n) forbidden-region sweeps) to make the error actionable:
    # minimum-size and rim-heavy grids used to fail here with no hint of what
    # the topology can actually host.
    capacity = condition1_fault_capacity(grid, include_layer0=include_layer0)
    raise RuntimeError(
        f"could not place {num_faults} faults under Condition 1 within "
        f"{max_attempts} attempts on {grid!r}; the deterministic greedy packing "
        f"of this topology hosts {capacity} fault(s) -- lower num_faults to at "
        f"most that, or use a larger (or less damaged / wrap-around) grid"
    )


def build_fault_model(
    grid: HexGrid,
    num_faults: int,
    fault_type: Optional[FaultType],
    rng: np.random.Generator,
    fixed_positions: Optional[Sequence[NodeId]] = None,
) -> Optional[FaultModel]:
    """Place and parameterise the faults of one simulation run.

    This is the per-run fault-injection step shared by the experiment harness
    and the campaign runner: positions are placed uniformly at random under
    Condition 1 (or taken from ``fixed_positions``), then per-link behaviour
    is drawn for Byzantine nodes.  The ``rng`` consumption order (placement
    first, then behaviour, node by node in sorted position order) is part of
    the reproducibility contract -- changing it changes every seeded result.

    Returns ``None`` for fault-free runs (``num_faults == 0`` or no type).
    """
    if num_faults == 0 or fault_type is None:
        return None
    if fixed_positions is not None:
        if len(fixed_positions) != num_faults:
            raise ValueError(
                f"expected {num_faults} fixed fault positions, got {len(fixed_positions)}"
            )
        positions = [grid.validate_node(node) for node in fixed_positions]
    else:
        positions = place_faults(grid, num_faults, rng)
    faults: List[NodeFault] = []
    for node in positions:
        if fault_type is FaultType.BYZANTINE:
            faults.append(NodeFault.byzantine(grid, node, rng=rng))
        elif fault_type is FaultType.FAIL_SILENT:
            faults.append(NodeFault.fail_silent(grid, node))
        else:
            raise ValueError(f"unsupported fault type for random runs: {fault_type}")
    return FaultModel(grid, faults)


def condition1_probability_lower_bound(num_nodes: int, num_faults: int) -> float:
    """The paper's lower bound on the probability that Condition 1 holds.

    For ``f`` faults placed uniformly at random among ``n`` nodes the paper
    bounds the probability that Condition 1 is satisfied from below by
    ``(1 - 13 (f - 1) / n)^f``.

    Values are clipped to ``[0, 1]``; for ``f <= 1`` the bound is exactly 1.
    """
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if num_faults < 0:
        raise ValueError(f"num_faults must be non-negative, got {num_faults}")
    if num_faults <= 1:
        return 1.0
    base = 1.0 - 13.0 * (num_faults - 1) / num_nodes
    if base <= 0.0:
        return 0.0
    return float(base**num_faults)
