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

Every link delay is at least ``d-`` > 0, so the fixed point is computed by a
window sweep.  Let ``T`` be the smallest pending firing candidate (the
earliest completed guard of a node that has not fired).  A candidate only
falls when a message arrives, and a node firing at ``T`` or later sends
messages that arrive at ``T + d-`` or later.  So every pending node whose
candidate lies below ``T + d-`` is final: the sweep fires all of them in one
step, in (candidate, row-major index) order, delivers their messages,
recomputes the candidates they touched and repeats.  Floating-point addition
is monotone, so the argument holds for the rounded sums too.  Those steps
fire the nodes in exactly the order a heap of ``(time, layer, column,
guard)`` entries would pop them, and each node's guard is the first minimal
of its three, as the heap's tie-break picks it.  The window is as wide as the
delay model's own lower bound (``min_delay()``; the block draws' ``low``).  A
model that reports none gets windows of exact ties, which is still exact, and
so does a window whose ``T + d-`` rounds back to ``T``.  The sweep never
assumes the bound: it checks that every message lands at or after the end of
the window it was sent from, the one condition the argument needs (a delay
too small to move a firing time that large fails it), and that every delay
a model answers is finite and at least its ``min_delay()``; a violation
raises :class:`ValueError`.

The solver is the engine of the large single-pulse statistical sweeps
(Tables 1-2, Figs. 8-16), while the discrete-event simulator in
:mod:`repro.simulation` handles multi-pulse and stabilization experiments.
The two engines are cross-validated against each other in the test suite.

:func:`solve_pulse_batch` sweeps several runs on one grid in lock step: each
step fires every run's window with the same array operations, over the
padded link table of the grid's cached
:class:`~repro.core.solver_plan.SolverPlan`.
:func:`solve_single_pulse` is a batch of one.  Faults are static within one
pulse (faulty nodes never fire), so a faulty run only masks some links of
the shared table and adds its stuck-at-1 seed arrivals.

Each run queries every correct link of a node that fires exactly once, node
by node in firing order and each node's links in plan order.  So for a delay
model that offers block draws (an unused
:class:`~repro.simulation.links.UniformRandomDelays`) the ``k``-th query
takes the ``k``-th draw: the sweep reads one block of draws per run up
front, takes the link delays from it at a running offset and hands the
model the block and the query order, from which it fills its per-link cache
lazily.  Other models answer ``delay()`` link by link in that same order.
Records are bit-identical to querying the model link by link.

The solver is deliberately defensive about *who* may fire: layer-0 nodes fire
exactly at the externally supplied times, faulty nodes never fire (their
outgoing links behave according to the fault model instead), and nodes whose
guard is never satisfied keep a firing time of ``+inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, NamedTuple, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.algorithm import GuardKind
from repro.core.draws import DrawStream, Uniform
from repro.core.solver_plan import SolverPlan, solver_plan
from repro.core.topology import HexGrid, NodeId
from repro.faults.models import FaultModel, LinkBehavior

__all__ = [
    "LinkDelayProvider",
    "PulseRun",
    "PulseSolution",
    "SolverPlan",
    "solve_pulse_batch",
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
    that instead of ``rng``.  A provider may also offer ``min_delay()``, a
    lower bound of every delay it returns (wider sweep windows), and block
    draws through ``block_draw_bounds()`` and ``adopt_block(links, values)``,
    as :class:`~repro.simulation.links.DelayModel` documents.
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
        Deterministic work counters of the sweep: ``heap_pushes`` (guards
        that completed: both of their arrivals landed; the name is the one
        the counter had when a heap finalized the nodes), ``frontier_advances``
        (forwarding nodes fired) and ``messages_delivered`` (trigger arrivals
        that landed, including Byzantine stuck-at-1 seeds).  Pure functions
        of topology, delays and faults -- bit-deterministic across runs and
        machines.
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


def _fault_overlay(
    grid: HexGrid,
    plan: SolverPlan,
    faults: FaultModel,
    correct_mask: np.ndarray,
) -> Tuple[np.ndarray, List[Tuple[int, int]], Tuple[int, ...]]:
    """Per-run view of ``plan`` under a static fault model.

    Faults are static within one pulse: faulty nodes never fire, so the
    ``time`` argument of :meth:`FaultModel.link_behavior` never matters, and
    a correct source's links are fixed for the whole run.  Returns

    * the run's copy of :attr:`SolverPlan.out_slots`, with the links of
      faulty nodes, the links into faulty nodes and the link faults (none
      is ``CORRECT``) set to -1, so the sweep never queries their delay;
    * the stuck-at-1 seed arrivals as ``(dest_index, in_direction_index)``;
    * the correct layer-0 source columns.
    """
    correct = correct_mask.ravel()
    links = plan.out_slots
    keep = (links >= 0) & correct[links >> 2] & correct[:, None]
    faulty_nodes = faults.faulty_nodes()
    faulty_links = faults.faulty_links()
    # A registered link fault is never CORRECT (``add_link_fault`` drops those).
    for source, destination in faulty_links:
        source_index = grid.node_index(source)
        keep[source_index] &= links[source_index] >> 2 != grid.node_index(destination)

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
        for slot in links[grid.node_index(source)].tolist():
            if slot >= 0 and slot >> 2 == dest_index and correct[dest_index]:
                seeds.append((dest_index, slot & 3))
                break

    sources = tuple(column for column in plan.present_sources if correct[column])
    return np.where(keep, links, -1), seeds, sources


def _firing_order(sources: Sequence[int], trigger: np.ndarray, width: int) -> np.ndarray:
    """The nodes of a run in the order they fired (compact ``int32``).

    The sources fire first, in column order.  Forwarding nodes then fire in
    increasing ``(trigger time, index)`` order: within a window by
    construction, and every window's times lie below the next window's
    start.  So the order follows from the flat trigger times.
    """
    forwarding = np.flatnonzero(np.isfinite(trigger[width:])) + width
    by_time = forwarding[trigger[forwarding].argsort(kind="stable")]
    return np.concatenate((np.asarray(sources, dtype=np.intp), by_time)).astype(np.int32)


def _query_order(
    plan: SolverPlan, links: np.ndarray, order: np.ndarray
) -> Iterator[Tuple[NodeId, NodeId]]:
    """The links a sweep queried: each fired node's ``links``, in firing ``order``."""
    rows = links.take(order, axis=0)
    present = rows >= 0
    senders = order.repeat(present.sum(axis=1)).tolist()
    destinations = (rows[present] >> 2).tolist()
    nodes = plan.nodes
    return zip(map(nodes.__getitem__, senders), map(nodes.__getitem__, destinations))


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
class PulseRun(NamedTuple):
    """The inputs of one run of :func:`solve_pulse_batch`.

    The same as the arguments of :func:`solve_single_pulse`: layer-0 firing
    times, a link delay provider and an optional static fault model.
    """

    layer0_times: Sequence[float]
    delays: LinkDelayProvider
    fault_model: Optional[FaultModel] = None


class _Run(NamedTuple):
    """One run, checked and laid over the plan."""

    layer0: np.ndarray
    delays: LinkDelayProvider
    correct_mask: np.ndarray
    links: np.ndarray
    seeds: List[Tuple[int, int]]
    sources: Tuple[int, ...]


def _prepare(grid: HexGrid, plan: SolverPlan, run: PulseRun) -> _Run:
    """Check one run's inputs and lay its faults over ``plan``."""
    layer0 = np.asarray(run.layer0_times, dtype=float)
    if layer0.shape != (grid.width,):
        raise ValueError(
            f"layer0_times must have shape ({grid.width},), got {layer0.shape}"
        )
    fault_model = run.fault_model
    if fault_model is not None and fault_model.grid != grid:
        raise ValueError("fault model belongs to a different grid")
    # Structurally absent nodes (punctured slots of a degraded topology) are
    # excluded like faulty nodes: nan trigger time, masked out of statistics.
    correct_mask = grid.presence_mask().copy()
    links, seeds, sources = plan.out_slots, [], plan.present_sources
    if fault_model is not None and (fault_model.faulty_nodes() or fault_model.faulty_links()):
        correct_mask &= fault_model.correctness_mask()
        links, seeds, sources = _fault_overlay(grid, plan, fault_model, correct_mask)
    if not np.isfinite(layer0[list(sources)]).all():
        raise ValueError("the layer-0 firing times of correct sources must be finite")
    return _Run(layer0, run.delays, correct_mask, links, seeds, sources)


def _block_bounds(
    delays: LinkDelayProvider, stream: Optional[DrawStream], plan: SolverPlan
) -> Optional[Tuple[float, float]]:
    """The ``(low, high)`` of a run's block draws; ``None``: query link by link."""
    offer = getattr(delays, "block_draw_bounds", None)
    if offer is None or stream is None or not stream.reads_ahead or not plan.distinct_links:
        return None
    bounds = offer()
    return bounds if bounds is not None and bounds[0] > 0 else None


def _min_delay(delays: LinkDelayProvider) -> float:
    """The provider's positive, finite lower bound on delays; 0 if it has none."""
    report = getattr(delays, "min_delay", None)
    bound = report() if report is not None else None
    return bound if bound is not None and 0 < bound < math.inf else 0.0


class _BatchSweep:
    """The window sweep of several runs on one plan, in lock step.

    Run ``r`` owns the global node ids ``r * n .. r * n + n - 1`` and the
    arrival slots ``4 * id .. 4 * id + 3``, so one flat array holds each
    quantity of every run and one step's selection of all runs is one index
    array, grouped by run.  A batch of one takes the same path.  Row gathers
    use ``take``, which is several times cheaper than fancy indexing on the
    small selections of one step.
    """

    def __init__(self, plan: SolverPlan, runs: Sequence[_Run], byzantine_high_time: float):
        size, n = len(runs), plan.num_nodes
        self.plan, self.runs, self.size, self.n = plan, runs, size, n
        self.byzantine_high_time = byzantine_high_time
        # Run-local slots, in the narrowest type that holds them.
        local = np.int16 if 4 * n <= np.iinfo(np.int16).max else np.int32
        self.links = np.concatenate([run.links for run in runs]).astype(local)
        # Links of each node, for the repeat of its firing time.
        self.senders = (self.links >= 0).sum(axis=1, dtype=np.uint8)
        self.arrival = np.full(4 * n * size, math.inf)
        self.arrival4 = self.arrival.reshape(n * size, 4)
        # Firing candidate of each node (+inf: no guard complete, or fired).
        self.candidate = np.full(n * size, math.inf)
        self.fired = np.zeros(n * size, dtype=bool)

        self.streams = [
            DrawStream(run.delays.rng) if run.delays.rng is not None else None for run in runs
        ]
        self.uniforms = [stream.uniform if stream is not None else None for stream in self.streams]
        self.block_bounds = [
            _block_bounds(run.delays, stream, plan) for run, stream in zip(runs, self.streams)
        ]
        # Window width per run; 0 means a window of exact ties.
        self.low = np.array(
            [
                bounds[0] if bounds is not None else _min_delay(run.delays)
                for run, bounds in zip(runs, self.block_bounds)
            ]
        )
        self.per_link = np.array([bounds is None for bounds in self.block_bounds])
        self.delay_of = [run.delays.delay for run in runs]
        self.any_per_link = bool(self.per_link.any())
        # Block draws of all runs in one pool: run r's block is the
        # ``block_size[r]`` draws from ``block_start[r]`` on, and its next
        # delay is ``pool[block_next[r]]``.
        self.pool = np.empty(0)
        self.block_size = np.zeros(size, dtype=np.intp)
        self.block_start = np.zeros(size, dtype=np.intp)
        self.block_next = np.zeros(size, dtype=np.intp)

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._read_blocks()
        self._seed()
        runs, n = self.runs, self.n
        sources = np.concatenate(
            [np.asarray(run.sources, dtype=np.intp) + index * n for index, run in enumerate(runs)]
        )
        times = np.concatenate([run.layer0[list(run.sources)] for run in runs])
        # Sources fire first, in column order, whatever their times.
        self._fire(sources, times, sources // n, np.full(self.size, -math.inf))
        candidate, smallest = self.candidate, np.minimum.reduce
        rows = candidate.reshape(self.size, n)
        while True:
            starts = smallest(rows, axis=1)
            # Each run's window ends at ``start + low``, and holds at least
            # the ties at ``start`` (``low`` is 0, or the sum rounds back to
            # ``start``).  A finished run's window is empty.
            limits = np.maximum(starts + self.low, np.nextafter(starts, math.inf))
            chosen = (rows < limits[:, None]).ravel().nonzero()[0]
            if not len(chosen):
                break
            times = candidate[chosen]
            # By run, then time; ties keep the index order of ``nonzero``.
            by_time = np.lexsort((times, chosen // n))
            chosen = chosen[by_time]
            self._fire(chosen, times[by_time], chosen // n, limits)

    def _read_blocks(self) -> None:
        """Read each block run's draws, one per link it may query."""
        n = self.n
        sizes = np.array(
            [
                self.senders[index * n : index * n + n].sum() if bounds is not None else 0
                for index, bounds in enumerate(self.block_bounds)
            ],
            dtype=np.intp,
        )
        self.block_start = np.cumsum(sizes) - sizes
        self.block_next = self.block_start.copy()
        self.pool = np.empty(int(sizes.sum()))
        for index, bounds in enumerate(self.block_bounds):
            if bounds is not None:
                start, size = self.block_start[index], int(sizes[index])
                self.pool[start : start + size] = self.streams[index].block(*bounds, size)
                self.block_size[index] = size

    def _seed(self) -> None:
        # Stuck-at-1 links set the receiver's flag at ``byzantine_high_time``.
        slots = [
            4 * (index * self.n + dest_index) + direction
            for index, run in enumerate(self.runs)
            for dest_index, direction in run.seeds
        ]
        if slots:
            landed = np.asarray(slots, dtype=np.intp)
            self.arrival[landed] = self.byzantine_high_time
            self._update(landed >> 2)

    def _fire(
        self, chosen: np.ndarray, times: np.ndarray, owner: np.ndarray, limits: np.ndarray
    ) -> None:
        """Fire ``chosen`` (global ids of runs ``owner``, in firing order) at ``times``.

        ``limits`` holds each run's window end: every arrival the firing
        sends must land at or after it.
        """
        self.candidate[chosen] = math.inf
        self.fired[chosen] = True
        rows = self.links.take(chosen, axis=0).ravel()
        local = rows.compress(rows >= 0)
        if len(local):
            senders = self.senders[chosen]
            link_run = owner.repeat(senders)
            # Run-local slots to global ones.
            slots = local + (4 * self.n) * link_run
            destinations = slots >> 2
            self.arrival[slots] = self._arrivals(
                chosen, senders, link_run, destinations, times.repeat(senders), limits
            )
            self._update(destinations)

    def _update(self, nodes: np.ndarray) -> None:
        """Recompute the candidates of ``nodes`` from their arrivals."""
        arrivals = self.arrival4.take(nodes, axis=0)
        lower_left = arrivals[:, 1]
        lower_right = arrivals[:, 2]
        best = np.minimum(
            np.minimum(
                np.maximum(arrivals[:, 0], lower_left), np.maximum(lower_left, lower_right)
            ),
            np.maximum(lower_right, arrivals[:, 3]),
        )
        self.candidate[nodes] = np.where(self.fired[nodes], math.inf, best)

    def _arrivals(
        self,
        chosen: np.ndarray,
        senders: np.ndarray,
        link_run: np.ndarray,
        destinations: np.ndarray,
        fire: np.ndarray,
        limits: np.ndarray,
    ) -> np.ndarray:
        """The arrival times of the messages that ``chosen`` (``senders``
        links each, of runs ``link_run``) send to ``destinations`` at ``fire``.

        Each must land at or after its run's window end in ``limits``, which
        is what makes the window's firings final.
        """
        if not len(self.pool):
            delays = self._query(link_run, chosen.repeat(senders), destinations)
        elif self.size == 1:
            # A lone block run takes its next draws in order (a slice: about
            # a fifth off a 50x20 batch of one against the cursors below).
            start = self.block_next[0]
            self.block_next[0] = start + len(fire)
            delays = self.pool[start : start + len(fire)]
        else:
            per_run = np.bincount(link_run, minlength=self.size)
            first = np.cumsum(per_run) - per_run
            positions = np.arange(len(fire)) + (self.block_next - first)[link_run]
            self.block_next += per_run
            # Runs without a block keep a cursor too; their positions are
            # clipped garbage, overwritten below.
            delays = self.pool.take(positions, mode="clip")
            if self.any_per_link:
                picked = self.per_link[link_run].nonzero()[0]
                if len(picked):
                    delays[picked] = self._query(
                        link_run[picked], chosen.repeat(senders)[picked], destinations[picked]
                    )
        arrivals = fire + delays
        limit = limits[link_run]
        if (arrivals >= limit).all():
            return arrivals
        bad = int((arrivals < limit).nonzero()[0][0])
        nodes, n, source = self.plan.nodes, self.n, chosen.repeat(senders)[bad]
        raise ValueError(
            f"a delay of {delays[bad]!r} on link {nodes[source % n]} -> "
            f"{nodes[destinations[bad] % n]} lands inside the sweep window that ends "
            f"at {limit[bad]!r}: the sweep needs delays of at least the model's "
            "min_delay() that advance their sender's firing time"
        )

    def _query(
        self, link_run: np.ndarray, sources: np.ndarray, destinations: np.ndarray
    ) -> np.ndarray:
        """Ask the delay models link by link; return the delays, each finite
        and at least its model's ``min_delay()``."""
        n, nodes, models, uniforms = self.n, self.plan.nodes, self.delay_of, self.uniforms
        delays = np.array(
            [
                models[index](nodes[source], nodes[destination], uniforms[index])
                for index, source, destination in zip(
                    link_run.tolist(), (sources % n).tolist(), (destinations % n).tolist()
                )
            ],
            dtype=float,
        )
        low = self.low[link_run]
        fine = (delays >= low) & (delays < math.inf)
        if fine.all():
            return delays
        bad = int((~fine).nonzero()[0][0])
        raise ValueError(
            f"delay model returned {delays[bad]!r} for link "
            f"{nodes[sources[bad] % n]} -> {nodes[destinations[bad] % n]}: the sweep "
            f"needs finite delays of at least the model's min_delay() ({low[bad]!r})"
        )

    def rewind(self) -> None:
        """Rewind every run's stream by its unread tail; raise the first failure."""
        unread = self.block_start + self.block_size - self.block_next
        errors = []
        for index, stream in enumerate(self.streams):
            try:
                if stream is not None:
                    stream.rewind(int(unread[index]) if self.block_bounds[index] else 0)
            except (RuntimeError, ValueError) as error:  # the rewind contract's errors
                errors.append(error)
        if errors:
            raise errors[0]

    # ------------------------------------------------------------------
    def solutions(self, grid: HexGrid) -> List[PulseSolution]:
        plan, n = self.plan, self.n
        shape = (plan.layers + 1, plan.width)
        solutions = []
        for index, run in enumerate(self.runs):
            span = slice(index * n, index * n + n)
            arrivals = self.arrival4[span]
            # A node fired at its smallest completed guard, the first one of
            # that value; guards completed later are larger (they complete
            # from messages of its window or later), so the final arrivals
            # give both back.
            guard_times = np.maximum(arrivals[:, :3], arrivals[:, 1:])
            fired = self.fired[span]
            trigger = np.where(fired, guard_times.min(axis=1), math.inf)
            guards = np.where(fired, guard_times.argmin(axis=1), -1).astype(np.int8)
            sources = list(run.sources)
            trigger[sources] = run.layer0[sources]
            guards[sources] = -1
            landed = arrivals < math.inf
            work = {
                "heap_pushes": int(np.count_nonzero(landed[:, :3] & landed[:, 1:])),
                "frontier_advances": int(np.count_nonzero(fired)) - len(sources),
                "messages_delivered": int(np.count_nonzero(landed)),
            }
            trigger_times = trigger.reshape(shape)
            # Faulty and absent nodes never fire: nan, guard -1.
            trigger_times[~run.correct_mask] = math.nan
            bounds = self.block_bounds[index]
            if bounds is not None:
                # The block is a view: the pool lives as long as the batch's
                # delay models.
                order = _firing_order(run.sources, trigger, plan.width)
                run.delays.adopt_block(
                    partial(_query_order, plan, run.links, order),
                    self.pool[self.block_start[index] : self.block_next[index]],
                )
            solutions.append(
                PulseSolution(
                    grid=grid,
                    trigger_times=trigger_times,
                    guards=guards.reshape(shape),
                    correct_mask=run.correct_mask,
                    layer0_times=trigger_times[0, :].copy(),
                    work=work,
                )
            )
        return solutions


def solve_pulse_batch(
    grid: HexGrid,
    runs: Sequence[PulseRun],
    byzantine_high_time: float = 0.0,
) -> List[PulseSolution]:
    """Solve several single-pulse runs on one grid in one lock-step sweep.

    Each solution is bit-identical to ``solve_single_pulse`` of that run
    alone, and so are the delay models and generators it leaves behind: a
    run's delay queries come in its own firing order, whatever else shares
    the batch.  Runs must therefore not share a generator.  When a delay
    query raises, every run's stream is rewound and the error propagates.
    """
    if not math.isfinite(byzantine_high_time):
        raise ValueError("byzantine_high_time must be finite")
    if not runs:
        return []
    generators = [run.delays.rng for run in runs if run.delays.rng is not None]
    if len({id(generator) for generator in generators}) != len(generators):
        raise ValueError("the runs of one batch must not share a generator")
    plan = solver_plan(grid)
    sweep = _BatchSweep(plan, [_prepare(grid, plan, run) for run in runs], byzantine_high_time)
    try:
        sweep.run()
    finally:
        sweep.rewind()
    return sweep.solutions(grid)


def solve_single_pulse(
    grid: HexGrid,
    layer0_times: Sequence[float],
    delays: LinkDelayProvider,
    fault_model: Optional[FaultModel] = None,
    byzantine_high_time: float = 0.0,
) -> PulseSolution:
    """Compute the firing time of every node for a single pulse wave.

    A batch of one of :func:`solve_pulse_batch`.  The delay model is queried
    lazily, once per correct link from a correct source that fires, in
    firing order -- that order is part of the reproducibility contract,
    since delay models such as
    :class:`~repro.simulation.links.UniformRandomDelays` draw on first
    query.  Queries draw through one :class:`~repro.core.draws.DrawStream`
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
        handled through the fault model; their entry here is ignored.  The
        others must be finite.
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
    runs = [PulseRun(layer0_times, delays, fault_model)]
    return solve_pulse_batch(grid, runs, byzantine_high_time)[0]
