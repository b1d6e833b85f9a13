"""The heap sweep the window sweep replaced, kept as a test oracle.

This is the Dijkstra-style single-pulse solver ``repro.core.pulse_solver``
shipped before its window sweep: a heap of ``(time, layer, column, guard)``
entries, one pop per fired node and one ``deliver`` call per fired node's
out-links.  It is kept here verbatim, with three adaptations to the present
library: it reads the plan's ``out_links`` (the window sweep uses the padded
tables instead), converts the float64 block of ``DrawStream.block`` to a
list for its pops and hands ``adopt_block`` the float64 array it now takes.
The property tests compare the two sweeps bit for bit: trigger times,
guards, work counters, generator end state and the delay model's cache.
"""

from __future__ import annotations

import heapq
import math
from functools import partial
from operator import length_hint
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.draws import DrawStream
from repro.core.pulse_solver import LinkDelayProvider, PulseSolution
from repro.core.solver_plan import OutLink, SolverPlan, solver_plan
from repro.core.topology import HexGrid, NodeId
from repro.faults.models import FaultModel, LinkBehavior

__all__ = ["heap_solve_single_pulse"]


def _fault_overlay(
    grid: HexGrid,
    plan: SolverPlan,
    faults: FaultModel,
    correct_mask: np.ndarray,
) -> Tuple[Sequence[Tuple[OutLink, ...]], List[Tuple[int, int]], Tuple[int, ...]]:
    """Per-run view of ``plan`` under a static fault model.

    Faults are static within one pulse: faulty nodes never fire, so the
    ``time`` argument of :meth:`FaultModel.link_behavior` never matters, and
    a correct source's links are fixed for the whole run.  Returns

    * the out-link table, with the lists of the in-neighbours of faulty
      nodes and of the sources of faulty links rebuilt to drop faulty
      destinations and links that are not ``CORRECT`` (so the sweep never
      queries their delay);
    * the stuck-at-1 seed arrivals as ``(dest_index, in_direction_index)``;
    * the correct layer-0 source columns.
    """
    out_links: List[Tuple[OutLink, ...]] = list(plan.out_links)
    faulty_nodes = faults.faulty_nodes()
    faulty_links = faults.faulty_links()
    # A registered link fault is never CORRECT (``add_link_fault`` drops those).
    silent = {
        (grid.node_index(source), grid.node_index(destination))
        for source, destination in faulty_links
    }
    rebuild = {source for source, _destination in silent}
    for node in faulty_nodes:
        rebuild.update(grid.node_index(source) for source in grid.in_neighbors(node).values())
    for source_index in rebuild:
        out_links[source_index] = tuple(
            link
            for link in plan.out_links[source_index]
            if correct_mask[link[2], link[3]] and (source_index, link[0]) not in silent
        )

    seeds: List[Tuple[int, int]] = []
    seed_links = [
        (node, destination)
        for node in faulty_nodes
        for destination in grid.out_neighbors(node).values()
    ]
    seed_links.extend(faulty_links)
    for source, destination in seed_links:
        if faults.link_behavior((source, destination)) is not LinkBehavior.CONSTANT_ONE:
            continue
        dest_index = grid.node_index(destination)
        for link in plan.out_links[grid.node_index(source)]:
            if link[0] == dest_index and correct_mask[link[2], link[3]]:
                seeds.append((dest_index, link[1]))
                break

    sources = tuple(column for column in plan.present_sources if correct_mask[0, column])
    return out_links, seeds, sources


def _query_order(
    nodes: Sequence[NodeId],
    out_links: Sequence[Tuple[OutLink, ...]],
    order: Sequence[int],
) -> Iterator[Tuple[NodeId, NodeId]]:
    """The links a sweep queried: each finalized node's out-links, in ``order``."""
    for source_index in order:
        source = nodes[source_index]
        for link in out_links[source_index]:
            yield source, nodes[link[0]]


def heap_solve_single_pulse(
    grid: HexGrid,
    layer0_times: Sequence[float],
    delays: LinkDelayProvider,
    fault_model: Optional[FaultModel] = None,
    byzantine_high_time: float = 0.0,
) -> PulseSolution:
    """Compute the firing time of every node for a single pulse wave.

    Runs a Dijkstra sweep over the flat arrays of the grid's cached
    :class:`SolverPlan`.  The delay model is queried lazily, once per
    correct link from a correct source that fires, in finalization order --
    that order is part of the reproducibility contract, since delay models
    such as :class:`~repro.simulation.links.UniformRandomDelays` draw on
    first query.  Queries draw through one :class:`~repro.core.draws.DrawStream`
    over ``delays.rng``, rewound when the sweep ends (also on an exception),
    so the generator stands where scalar ``rng.uniform`` calls would leave it.

    When ``delays.block_draw_bounds()`` offers bounds, the generator is
    PCG64 or PCG64DXSM and the plan's links are distinct, the sweep skips
    the per-link ``delay`` calls: it reads one block of draws (one per
    correct link), takes the ``k``-th as the ``k``-th queried delay, hands
    the unread tail back on rewind and passes the block and the query order
    to ``delays.adopt_block``, whose cache then fills lazily on first read.

    Parameters
    ----------
    grid:
        The HEX grid.
    layer0_times:
        Firing times of the ``W`` layer-0 clock sources (scenario-dependent;
        see :mod:`repro.clocksource.scenarios`).  Faulty layer-0 nodes are
        handled through the fault model; their entry here is ignored.
    delays:
        Link delay provider (see :class:`LinkDelayProvider`).  Only consulted
        for links that behave correctly.
    fault_model:
        Faults to inject; ``None`` means fault-free.
    byzantine_high_time:
        The time at which a stuck-at-1 Byzantine link sets the receiver's
        memory flag.  The paper's testbench drives such links high from the
        start of the run, hence the default of 0.

    Returns
    -------
    PulseSolution
    """
    layer0 = np.asarray(layer0_times, dtype=float)
    if layer0.shape != (grid.width,):
        raise ValueError(
            f"layer0_times must have shape ({grid.width},), got {layer0.shape}"
        )
    if fault_model is not None and fault_model.grid != grid:
        raise ValueError("fault model belongs to a different grid")
    plan = solver_plan(grid)
    # Structurally absent nodes (punctured slots of a degraded topology) are
    # excluded like faulty nodes: nan trigger time, masked out of statistics.
    correct_mask = grid.presence_mask().copy()
    out_links: Sequence[Tuple[OutLink, ...]] = plan.out_links
    seeds: List[Tuple[int, int]] = []
    sources = plan.present_sources
    if fault_model is not None and (fault_model.faulty_nodes() or fault_model.faulty_links()):
        correct_mask &= fault_model.correctness_mask()
        out_links, seeds, sources = _fault_overlay(grid, plan, fault_model, correct_mask)

    num_nodes, width = plan.num_nodes, plan.width
    trigger_flat = [math.inf] * num_nodes
    guard_flat = [-1] * num_nodes
    # arrivals[node * 4 + direction_index]; None = no message yet.
    arrivals: List[Optional[float]] = [None] * (num_nodes * 4)
    finalized = bytearray(num_nodes)
    heap: List[Tuple[float, int, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    node_tuples = plan.nodes
    link_delay = delays.delay
    stream = DrawStream(delays.rng) if delays.rng is not None else None
    uniform = stream.uniform if stream is not None else None
    block_bounds = getattr(delays, "block_draw_bounds", None)
    bounds = None
    if block_bounds is not None and stream is not None and stream.reads_ahead:
        bounds = block_bounds() if plan.distinct_links else None
    # Finalized nodes in finalization order (the delay query order).
    order: List[int] = []
    block: Optional[List[float]] = None
    next_delay = None

    # Stuck-at-1 links set the receiver's flag at ``byzantine_high_time``;
    # push every guard they complete on their own, once.
    for dest_index, direction in seeds:
        arrivals[dest_index * 4 + direction] = byzantine_high_time
    for dest_index in sorted({dest_index for dest_index, _direction in seeds}):
        base = dest_index * 4
        dest_layer, dest_column = node_tuples[dest_index]
        for guard_value in range(3):
            first, second = arrivals[base + guard_value], arrivals[base + guard_value + 1]
            if first is not None and second is not None:
                push(heap, (max(first, second), dest_layer, dest_column, guard_value))

    def deliver(source_index: int, fire_time: float) -> None:
        source = node_tuples[source_index]
        for dest_index, direction, dest_layer, dest_column in out_links[source_index]:
            if next_delay is None:
                arrival = fire_time + link_delay(source, node_tuples[dest_index], uniform)
            else:
                arrival = fire_time + next_delay()
            base = dest_index * 4
            arrivals[base + direction] = arrival
            # Push exactly the guards this arrival completes.  Heap tuples are
            # totally ordered, so re-pushing an already-complete guard (same
            # tuple) could never change the pop sequence -- and thus neither
            # the finalization nor the delay-query order.
            if direction == 0:
                other = arrivals[base + 1]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            0,
                        ),
                    )
            elif direction == 1:
                other = arrivals[base]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            0,
                        ),
                    )
                other = arrivals[base + 2]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            1,
                        ),
                    )
            elif direction == 2:
                other = arrivals[base + 1]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            1,
                        ),
                    )
                other = arrivals[base + 3]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            2,
                        ),
                    )
            else:
                other = arrivals[base + 2]
                if other is not None:
                    push(
                        heap,
                        (
                            arrival if arrival > other else other,
                            dest_layer,
                            dest_column,
                            2,
                        ),
                    )

    try:
        if bounds is not None:
            block = stream.block(*bounds, sum(map(len, out_links))).tolist()
            unread = iter(block)
            next_delay = unread.__next__
        for column in sources:
            fire_time = float(layer0[column])
            trigger_flat[column] = fire_time
            finalized[column] = 1
            order.append(column)
            deliver(column, fire_time)

        while heap:
            candidate, layer, column, guard_value = pop(heap)
            index = layer * width + column
            if finalized[index]:
                continue
            finalized[index] = 1
            trigger_flat[index] = candidate
            guard_flat[index] = guard_value
            order.append(index)
            deliver(index, candidate)
    finally:
        if stream is not None:
            stream.rewind(length_hint(unread) if block is not None else 0)
    if block is not None:
        delays.adopt_block(partial(_query_order, node_tuples, out_links, order), np.array(block))

    # Post-hoc work accounting over the flat arrival slots (O(n), outside the
    # sweep).  A guard counts as one heap push when both of its arrivals
    # landed -- exactly when the sweep (or the seeding) pushed it.
    messages_delivered = 0
    heap_pushes = 0
    for base in range(0, 4 * num_nodes, 4):
        has_left = arrivals[base] is not None
        has_lower_left = arrivals[base + 1] is not None
        has_lower_right = arrivals[base + 2] is not None
        has_right = arrivals[base + 3] is not None
        messages_delivered += has_left + has_lower_left + has_lower_right + has_right
        heap_pushes += (
            (has_left and has_lower_left)
            + (has_lower_left and has_lower_right)
            + (has_lower_right and has_right)
        )
    work = {
        "heap_pushes": heap_pushes,
        "frontier_advances": sum(finalized) - len(sources),
        "messages_delivered": messages_delivered,
    }

    trigger_times = np.array(trigger_flat, dtype=float).reshape(plan.layers + 1, width)
    guards = np.array(guard_flat, dtype=np.int8).reshape(plan.layers + 1, width)
    # Faulty and absent nodes never fire: nan, guard -1.
    trigger_times[~correct_mask] = math.nan
    return PulseSolution(
        grid=grid,
        trigger_times=trigger_times,
        guards=guards,
        correct_mask=correct_mask,
        layer0_times=trigger_times[0, :].copy(),
        work=work,
    )
