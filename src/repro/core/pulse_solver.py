"""Analytic single-pulse trigger-time solver.

For the propagation of a *single* pulse wave through the HEX grid -- assuming
constraints (C1) and (C2) of Section 3.1 hold, i.e. all correct nodes start
with cleared memory flags, never forget a memorized message before firing, and
do not sleep while the wave passes -- the firing time of a correct forwarding
node ``v`` is fully determined by the firing times of its in-neighbours and the
link delays:

    ``t_v = min over the three guards {(left, lower-left), (lower-left,
    lower-right), (lower-right, right)} of max(arrival_a, arrival_b)``

where ``arrival_x = t_x + delay(x -> v)`` for a correct in-neighbour ``x``,
``arrival_x = +inf`` for a silent (constant-0 / fail-silent / crashed) link and
``arrival_x = byzantine_high_time`` (default 0, the start of the run) for a
stuck-at-1 Byzantine link, which sets the receiver's memory flag as soon as the
run starts.

Because all link delays are strictly positive this fixed point can be computed
with a Dijkstra-style sweep: firing times are finalized in non-decreasing
order, and every candidate generated from a finalized neighbour is at least
that neighbour's firing time plus ``d-``.  This makes the solver exact and
O(n log n); it is the engine used for the large single-pulse statistical sweeps
(Tables 1-2, Figs. 8-16), while the discrete-event simulator in
:mod:`repro.simulation` handles multi-pulse and stabilization experiments.
The two engines are cross-validated against each other in the test suite.

There is one sweep, :func:`solve_single_pulse`, over the flat arrays of a
per-grid :class:`SolverPlan`.  Faults are static within one pulse (faulty
nodes never fire), so a faulty run only overlays a few rebuilt link lists
and its stuck-at-1 seed arrivals on the shared plan.

The sweep queries every correct link exactly once, in finalization order.
So for a delay model that offers block draws (an unused
:class:`~repro.simulation.links.UniformRandomDelays`) the ``k``-th query
takes the ``k``-th draw: the sweep reads one block of draws up front, takes
the link delays from it in query order and hands the model the block and
the query order, from which it fills its per-link cache lazily.  Records
are bit-identical to querying the model link by link.

The solver is deliberately defensive about *who* may fire: layer-0 nodes fire
exactly at the externally supplied times, faulty nodes never fire (their
outgoing links behave according to the fault model instead), and nodes whose
guard is never satisfied keep a firing time of ``+inf``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import length_hint
from typing import Dict, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.algorithm import GuardKind
from repro.core.draws import DrawStream, Uniform
from repro.core.topology import Direction, HexGrid, NodeId
from repro.faults.models import FaultModel, LinkBehavior

__all__ = [
    "LinkDelayProvider",
    "PulseSolution",
    "SolverPlan",
    "solve_single_pulse",
    "solver_plan",
]


class LinkDelayProvider(Protocol):
    """Anything that can report the delay of a directed link.

    The delay models in :mod:`repro.simulation.links` implement this protocol;
    a plain ``dict``-backed adapter or a constant-delay lambda wrapped in a
    small class with ``rng = None`` works just as well for analytic
    constructions.  ``rng`` is the generator the provider draws from
    (``None`` when it draws nothing); given ``uniform``, it draws through
    that instead of ``rng``.  A provider may also offer block draws through
    ``block_draw_bounds()`` and ``adopt_block(links, values)``, as
    :class:`~repro.simulation.links.DelayModel` documents.
    """

    rng: Optional[np.random.Generator]

    def delay(
        self, source: NodeId, destination: NodeId, uniform: Optional[Uniform] = None
    ) -> float:
        """The end-to-end delay of the directed link ``source -> destination``."""
        ...


@dataclass
class PulseSolution:
    """The result of propagating a single pulse through the grid.

    Attributes
    ----------
    grid:
        The HEX grid the pulse propagated through.
    trigger_times:
        Array of shape ``(L + 1, W)``.  Entry ``[l, i]`` is the firing time of
        node ``(l, i)``; ``+inf`` if the node never fired, ``nan`` if the node
        is faulty (faulty nodes have no meaningful firing time).
    guards:
        Integer array of shape ``(L + 1, W)``; entry is the
        :class:`~repro.core.algorithm.GuardKind` value of the guard that fired
        the node, ``-1`` for layer-0 sources, never-fired and faulty nodes.
    correct_mask:
        Boolean array, ``True`` where the node is correct.
    layer0_times:
        The layer-0 firing times the solution was computed from (length ``W``;
        faulty sources carry ``nan``).
    work:
        Deterministic work counters of the sweep: ``heap_pushes`` (guards that
        completed, each pushed exactly once), ``frontier_advances``
        (forwarding nodes finalized) and ``messages_delivered`` (trigger
        arrivals that landed, including Byzantine stuck-at-1 seeds).  Pure
        functions of topology, delays and faults -- bit-deterministic across
        runs and machines.
    """

    grid: HexGrid
    trigger_times: np.ndarray
    guards: np.ndarray
    correct_mask: np.ndarray
    layer0_times: np.ndarray
    work: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    def trigger_time(self, node: NodeId) -> float:
        """Firing time of a single node."""
        layer, column = self.grid.validate_node(node)
        return float(self.trigger_times[layer, column])

    def guard_kind(self, node: NodeId) -> Optional[GuardKind]:
        """The guard that fired ``node`` (Definition 1), or ``None``."""
        layer, column = self.grid.validate_node(node)
        value = int(self.guards[layer, column])
        return GuardKind(value) if value >= 0 else None

    def causal_in_neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """The in-neighbours on the causal links of ``node`` (Definition 1)."""
        guard = self.guard_kind(node)
        if guard is None:
            return ()
        return tuple(
            self.grid.neighbor(node, direction) for direction in guard.causal_directions
        )

    def all_triggered(self, include_faulty: bool = False) -> bool:
        """Whether every (correct) forwarding node fired."""
        times = self.trigger_times[1:, :]
        mask = self.correct_mask[1:, :]
        if include_faulty:
            return bool(np.all(np.isfinite(times)))
        return bool(np.all(np.isfinite(times[mask])))

    def finite_times(self) -> np.ndarray:
        """Copy of the trigger-time matrix with non-finite entries masked as ``nan``."""
        times = self.trigger_times.copy()
        times[~np.isfinite(times)] = np.nan
        return times


# ----------------------------------------------------------------------
# the compiled plan (RNG-free, shared per grid)
# ----------------------------------------------------------------------
#: Flat indices of the four incoming directions, chosen so that the three
#: guards of :data:`~repro.core.topology.TRIGGER_GUARDS` become the consecutive pairs
#: ``(0, 1), (1, 2), (2, 3)``.
_IN_INDEX = {
    Direction.LEFT: 0,
    Direction.LOWER_LEFT: 1,
    Direction.LOWER_RIGHT: 2,
    Direction.RIGHT: 3,
}

#: One entry of :attr:`SolverPlan.out_links`.
OutLink = Tuple[int, int, int, int]


@dataclass(frozen=True)
class SolverPlan:
    """RNG-free scaffolding of :func:`solve_single_pulse`.

    A plan compiles a grid's neighbour tables into flat Python lists indexed
    by the row-major node index, so the sweep's inner loop touches no dicts,
    no ``(layer, column)`` tuples and no :class:`Direction` enums.  Plans
    contain only topology-derived data (no randomness, no per-run state), so
    one plan serves every run on an equal grid; :func:`solver_plan` caches
    them by grid identity.  Faulty runs overlay a few rebuilt link lists on
    it (see :func:`_fault_overlay`) and never modify it.

    Attributes
    ----------
    nodes:
        Node index -> ``(layer, column)`` tuple (the form delay models and
        result matrices expect).
    out_links:
        Node index -> list of ``(dest_index, in_direction_index, dest_layer,
        dest_column)`` tuples, in the exact iteration order of
        ``grid.out_neighbors(node).values()`` (the order in which the sweep
        queries the delay model); destinations on layer 0 or structurally
        absent are excluded.
    present_sources:
        The layer-0 columns whose source node is structurally present.
    distinct_links:
        Whether no node has two out-links to one destination.  Only then is
        every delay query of a sweep a first query, which block draws need.
    """

    num_nodes: int
    width: int
    layers: int
    nodes: Tuple[NodeId, ...]
    out_links: Tuple[Tuple[OutLink, ...], ...]
    present_sources: Tuple[int, ...]
    distinct_links: bool

    @classmethod
    def compile(cls, grid: HexGrid) -> "SolverPlan":
        """Compile the plan of one grid (any registered topology family)."""
        width = grid.width
        presence = grid.presence_mask()
        # Enumerate every row-major slot, including structurally absent ones
        # (``grid.nodes()`` skips holes on degraded grids); absent slots keep
        # an empty link list and are never finalized.
        nodes = tuple(
            (layer, column)
            for layer in range(grid.layers + 1)
            for column in range(width)
        )
        out_links: List[Tuple[OutLink, ...]] = []
        for node in nodes:
            layer, column = node
            links: List[OutLink] = []
            if presence[layer, column]:
                for destination in grid.out_neighbors(node).values():
                    dest_layer, dest_column = destination
                    if dest_layer == 0 or not presence[dest_layer, dest_column]:
                        continue
                    direction = grid.direction_between(node, destination)
                    links.append(
                        (
                            dest_layer * width + dest_column,
                            _IN_INDEX[direction],
                            dest_layer,
                            dest_column,
                        )
                    )
            out_links.append(tuple(links))
        present_sources = tuple(
            column for column in range(width) if presence[0, column]
        )
        return cls(
            num_nodes=grid.num_nodes,
            width=width,
            layers=grid.layers,
            nodes=nodes,
            out_links=tuple(out_links),
            present_sources=present_sources,
            distinct_links=all(
                len({link[0] for link in links}) == len(links) for links in out_links
            ),
        )


@lru_cache(maxsize=16)
def solver_plan(grid: HexGrid) -> SolverPlan:
    """The (cached) :class:`SolverPlan` of a grid.

    Grids are immutable and equality-keyed by their identity (family,
    dimensions, damage spec), so equal grids share one compiled plan.
    """
    return SolverPlan.compile(grid)


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


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def solve_single_pulse(
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
            block = stream.block(*bounds, sum(map(len, out_links)))
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
        delays.adopt_block(partial(_query_order, node_tuples, out_links, order), block)

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
