"""A HEX grid running Algorithm 1 on flat integer state.

:class:`HexNetwork` executes the timed semantics of Algorithm 1 (Fig. 7) on
every node of a grid for the discrete-event simulator.  The event loop
touches only int-indexed state:

* node ``n = layer * W + column``, with the out-links ``(destination, flag
  slot)`` of the cached :class:`~repro.core.pulse_solver.SolverPlan`;
* flat per-node lists: ``ready`` (1 ready, 0 sleeping, -1 not running the
  algorithm), a 4-bit flag mask with expiries in ``flags[4n + slot]``
  (slots in :data:`~repro.core.algorithm.INCOMING_DIRECTIONS` order), the
  wake time and the firing times;
* per node, a faulty flag and the time it stops executing; per link, the
  eventual non-correct behaviours keyed ``source * N + destination``.  The
  mutation hooks keep both in step with :attr:`HexNetwork.faults`;
* ``(kind, node, arg)`` event tuples on the
  :class:`~repro.simulation.engine.EventQueue` heap (time, then insertion).

Byzantine stuck-at-1 links behave as the hardware does: the receiver's flag
for such a link is set at simulation start and re-set whenever it is
cleared (by a link timeout or a wake-up).  Timer draws, and the draws of a
delay model over the same generator, read one
:class:`~repro.core.draws.DrawStream`, rewound before every public
method returns, so the generator ends exactly where scalar draws would
leave it.  Node ids are validated at the API boundary only.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.algorithm import INCOMING_DIRECTIONS
from repro.core.draws import DrawStream
from repro.core.parameters import TimeoutConfig, TimerPolicy, TimingConfig
from repro.core.pulse_solver import solver_plan
from repro.core.topology import TRIGGER_GUARDS, Direction, HexGrid, NodeId
from repro.faults.models import FaultModel, FaultType, LinkBehavior, NodeFault
from repro.simulation.engine import EventQueue
from repro.simulation.events import (
    AdversaryAction,
    Event,
    FlagExpiry,
    MessageArrival,
    SourcePulse,
    WakeUp,
)
from repro.simulation.links import DelayModel

__all__ = ["HexNetwork"]

_INF = math.inf

#: Event kinds; ``arg`` is ``source * 4 + slot`` for arrivals, the flag slot
#: for expiries and the pulse index for source pulses.  Adversary events
#: carry the action index in the ``node`` field.
_ARRIVAL, _HIGH, _EXPIRY, _WAKE, _SOURCE, _ADVERSARY = range(6)

_SLOT = {direction: slot for slot, direction in enumerate(INCOMING_DIRECTIONS)}

_GUARD_MASKS = [(1 << _SLOT[a]) | (1 << _SLOT[b]) for a, b in TRIGGER_GUARDS]

#: Memorized-flag mask -> whether some guard of Algorithm 1 is satisfied.
_FIRES = tuple(any(mask & guard == guard for guard in _GUARD_MASKS) for mask in range(16))


class HexNetwork:
    """Executable HEX grid for the discrete-event simulator.

    Parameters
    ----------
    grid:
        The HEX grid topology.
    timing:
        Link-delay bounds and drift factor.
    timeouts:
        Algorithm timeouts (``T_link``, ``T_sleep``) and pulse separation.
    delays:
        Link delay model; ``sample`` is called once per message.
    fault_model:
        Faults to inject; ``None`` means fault-free.
    rng:
        Random generator used for timer draws and random initial states.
        Required unless ``timer_policy`` is ``NOMINAL`` and no random initial
        states are requested.
    timer_policy:
        How link/sleep timer durations are drawn.
    max_events:
        Safety cap on processed events (guards against run-away Byzantine
        feedback loops in misconfigured experiments).

    Attributes
    ----------
    observer:
        Optional read-only run observer, ``None`` by default.  It must
        define ``on_firing(node, time)`` and ``on_adversary(time, action)``;
        ``on_event(time, event)`` is called with a
        :mod:`repro.simulation.events` view of every popped event, and only
        when the observer defines it.  In practice a
        :class:`repro.obs.capture.DesRunObserver` (injected by the DES engine
        when observability is enabled) or a soak monitor; the network itself
        never imports :mod:`repro.obs`.
    stale_high_assertions, dropped_arrivals:
        Running counts of the loop's two silent skips: stuck-at-1 assertions
        whose link has stopped being stuck, and arrivals at nodes that are
        not executing.
    """

    def __init__(
        self,
        grid: HexGrid,
        timing: TimingConfig,
        timeouts: TimeoutConfig,
        delays: DelayModel,
        fault_model: Optional[FaultModel] = None,
        rng: Optional[np.random.Generator] = None,
        timer_policy: TimerPolicy = TimerPolicy.UNIFORM,
        max_events: int = 5_000_000,
    ) -> None:
        if fault_model is not None and fault_model.grid != grid:
            raise ValueError("fault model belongs to a different grid")
        if timer_policy is TimerPolicy.UNIFORM and rng is None:
            raise ValueError("a random generator is required for the UNIFORM timer policy")
        self.grid = grid
        self.timing = timing
        self.timeouts = timeouts
        self.delays = delays
        self.faults = fault_model if fault_model is not None else FaultModel.fault_free(grid)
        self.rng = rng
        self.timer_policy = timer_policy
        self.max_events = max_events
        self.queue: EventQueue[Tuple[int, int, int]] = EventQueue()
        self.observer: Optional[object] = None
        self.stale_high_assertions = 0
        self.dropped_arrivals = 0

        self._stream = DrawStream(rng) if rng is not None else None
        self._uniform = self._stream.uniform if self._stream is not None else None
        draws_from_run = rng is not None and delays.rng is rng
        self._delay_uniform = self._uniform if draws_from_run else None
        self._nominal = timer_policy is TimerPolicy.NOMINAL

        plan = solver_plan(grid)
        size = len(plan.nodes)
        self._size = size
        self._nodes = plan.nodes
        self._out = plan.out_links
        self._ready = [-1] * size
        self._mask = [0] * size
        self._flags = [0.0] * (4 * size)
        self._wake = [-_INF] * size
        self._firings: List[List[float]] = [[] for _ in range(size)]
        self._faulty = [False] * size
        self._alive_until = [_INF] * size
        #: Eventual non-correct link behaviours, keyed ``source * N + dest``.
        self._cut: Dict[int, LinkBehavior] = {}
        #: Receiving node -> its stuck-at-1 inputs ``(slot, source)``, by slot.
        self._high: Dict[int, List[Tuple[int, int]]] = {}
        for node in self.faults.faulty_nodes():
            self._sync_node_fault(node)
        for source, destination in self.faults.faulty_links():
            self._sync_link(source, destination)

        # Correct forwarding nodes run the algorithm, and so do crash-faulty
        # ones (correct until their crash time).
        for node in grid.forwarding_nodes():
            fault = self.faults.node_fault(node)
            if fault is None or fault.fault_type is FaultType.CRASH:
                self._ready[self._index(node)] = 1
        if LinkBehavior.CONSTANT_ONE in self._cut.values():
            for index in self._running():
                self._sync_stuck_high_inputs(index)

        #: Installed adversary actions (see :meth:`install_adversary`); the
        #: queue carries only indices into this table.
        self._adversary_actions: List[object] = []
        self._initialized = False

    # ------------------------------------------------------------------
    # index helpers and fault mirrors
    # ------------------------------------------------------------------
    def _index(self, node: NodeId) -> int:
        return node[0] * self.grid.width + node[1]

    def _running(self) -> List[int]:
        """Indices of the nodes that run the algorithm, ascending."""
        return [index for index, ready in enumerate(self._ready) if ready >= 0]

    def _sync_link(self, source: NodeId, destination: NodeId) -> None:
        key = self._index(source) * self._size + self._index(destination)
        behavior = self.faults.link_behavior((source, destination))
        if behavior is LinkBehavior.CORRECT:
            self._cut.pop(key, None)
        else:
            self._cut[key] = behavior

    def _sync_node_fault(self, node: NodeId) -> None:
        """Mirror ``node``'s live fault entry into the flat fault state."""
        fault = self.faults.node_fault(node)
        if fault is None:
            until = _INF
        elif fault.fault_type is FaultType.CRASH:
            until = fault.crash_time
        else:
            until = -_INF
        index = self._index(node)
        self._faulty[index] = fault is not None
        self._alive_until[index] = until
        for destination in self.grid.out_neighbors(node).values():
            self._sync_link(node, destination)

    def _sync_stuck_high_inputs(self, index: int) -> List[Tuple[int, int]]:
        """Rebuild a node's stuck-at-1 inputs from the live fault state."""
        entries = sorted(
            (_SLOT[direction], self._index(source))
            for direction, source in self.grid.in_neighbors(self._nodes[index]).items()
            if self._cut.get(self._index(source) * self._size + index)
            is LinkBehavior.CONSTANT_ONE
        )
        if entries:
            self._high[index] = entries
        else:
            self._high.pop(index, None)
        return entries

    # ------------------------------------------------------------------
    # initialisation
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Seed the event queue with the stuck-at-1 link assertions.

        Must be called exactly once before :meth:`run` (the runner does this).
        """
        if self._initialized:
            return
        self._initialized = True
        for index in sorted(self._high):
            for slot, source in self._high[index]:
                self.queue.schedule(0.0, (_HIGH, index, source * 4 + slot))

    def schedule_source_pulses(self, schedule: np.ndarray) -> None:
        """Schedule the layer-0 pulse generation.

        Parameters
        ----------
        schedule:
            Array of shape ``(num_pulses, W)``: entry ``[k, i]`` is the time at
            which source ``(0, i)`` generates its ``k``-th pulse.  Entries of
            faulty sources are ignored (their behaviour is governed by the
            fault model); ``nan`` entries are skipped.
        """
        schedule = np.atleast_2d(np.asarray(schedule, dtype=float))
        if schedule.shape[1] != self.grid.width:
            raise ValueError(
                f"schedule must have {self.grid.width} columns, got shape {schedule.shape}"
            )
        for pulse_index in range(schedule.shape[0]):
            for column in range(self.grid.width):
                if self.faults.is_faulty((0, column)):
                    continue
                time = schedule[pulse_index, column]
                if not math.isfinite(time):
                    continue
                self.queue.schedule(float(time), (_SOURCE, column, pulse_index))

    def apply_random_initial_states(self, rng: Optional[np.random.Generator] = None) -> None:
        """Put every correct forwarding node into a random internal state.

        Used by the self-stabilization experiments of Section 4.4 ("starting
        with all non-faulty nodes in random initial states").  Each node is
        independently ready or sleeping (with a uniformly random residual sleep
        time), and each of its memory flags is independently set (with a
        uniformly random residual link-timer duration).

        Must be called after :meth:`initialize` and before :meth:`run`.
        """
        generator = rng if rng is not None else self.rng
        if generator is None:
            raise ValueError("a random generator is required for random initial states")
        running = self._running()
        for index in running:
            sleeping = bool(generator.integers(0, 2))
            mask = 0
            for slot in range(4):
                if bool(generator.integers(0, 2)):
                    mask |= 1 << slot
                    self._flags[4 * index + slot] = float(
                        generator.uniform(0.0, self.timeouts.t_link_max)
                    )
            self._mask[index] = mask
            if sleeping:
                wake_time = float(generator.uniform(0.0, self.timeouts.t_sleep_max))
                self._ready[index] = 0
                self._wake[index] = wake_time
                self.queue.schedule(wake_time, (_WAKE, index, 0))
            else:
                self._ready[index] = 1
                self._wake[index] = -_INF
            for slot in range(4):
                if mask >> slot & 1:
                    self.queue.schedule(self._flags[4 * index + slot], (_EXPIRY, index, slot))
        # Nodes whose arbitrary initial flags already satisfy a guard fire as
        # soon as the run starts.
        self._fire_ready(running)

    def apply_adversarial_initial_states(self) -> None:
        """Put every correct forwarding node into the adversarial initial state.

        Every node starts ready with *all four* memory flags set (expiring at
        ``T^+_link``): every guard is satisfied at once, so the entire grid
        fires one spurious wave at ``t = 0`` and then sleeps -- the most
        violent coherent "arbitrary state" a transient fault can leave behind.
        Deterministic (no generator draws), so it composes with any seed
        stream.  Must be called after :meth:`initialize` and before
        :meth:`run`.
        """
        expiry = self.timeouts.t_link_max
        running = self._running()
        for index in running:
            self._ready[index] = 1
            self._wake[index] = -_INF
            self._mask[index] = 0b1111
            for slot in range(4):
                self._flags[4 * index + slot] = expiry
                self.queue.schedule(expiry, (_EXPIRY, index, slot))
        self._fire_ready(running)

    def _fire_ready(self, indices: List[int]) -> None:
        try:
            for index in indices:
                if self._ready[index] == 1 and _FIRES[self._mask[index]]:
                    if 0.0 < self._alive_until[index]:
                        self._fire(index, 0.0)
        finally:
            self._rewind()

    def _rewind(self) -> None:
        if self._stream is not None:
            self._stream.rewind()

    # ------------------------------------------------------------------
    # dynamic adversary hooks (repro.adversary)
    # ------------------------------------------------------------------
    def install_adversary(self, actions: Iterable[Tuple[float, object]]) -> None:
        """Schedule a materialized adversary's timed mutations.

        Parameters
        ----------
        actions:
            ``(time, action)`` pairs; each ``action`` implements
            ``apply(network, time)`` (see
            :class:`repro.adversary.runtime.ScheduledAdversary`).  Actions are
            scheduled in iteration order, which breaks same-time ties
            deterministically.
        """
        for time, action in actions:
            index = len(self._adversary_actions)
            self._adversary_actions.append(action)
            self.queue.schedule(float(time), (_ADVERSARY, index, 0))

    def inject_node_fault(self, fault: NodeFault, time: float) -> None:
        """Make a node faulty from ``time`` on (dynamic fault injection).

        The node stops executing -- its fault slot follows the *current*
        fault model -- and freshly stuck-at-1 outgoing links start asserting
        themselves at ``time``.  Messages the node sent before ``time`` are
        already in flight and still arrive, exactly as in hardware.
        """
        node = self.grid.validate_node(fault.node)
        self.faults.add_node_fault(fault)
        self._sync_node_fault(node)
        self._register_stuck_high_links(node, time)

    def heal_node(self, node: NodeId, time: float) -> None:
        """Return a faulty node to correct behaviour from ``time`` on.

        The transient fault ends: the fault entry (including any crash time)
        is removed, the node's stuck-at-1 output registrations are retracted
        (receivers' already-set flags persist until their own timeouts, as the
        hardware's would), and the node resumes with a clean ready state --
        re-stabilization of the *network* is HEX's job, not the healed
        node's.  Healing a node that was never faulty is a no-op.
        """
        node = self.grid.validate_node(node)
        if self.faults.remove_node_fault(node) is None:
            return
        self._sync_node_fault(node)
        self._unregister_stuck_high_links(node)
        if node[0] == 0:
            return
        index = self._index(node)
        self._ready[index] = 1
        self._mask[index] = 0
        self._wake[index] = -_INF
        # Stuck-at-1 in-links of *other* faulty neighbours resume driving the
        # healed node's flags immediately.  Recompute the entry from the live
        # fault model: a statically faulty node did not run the algorithm at
        # construction, so its in-link registrations were never built.
        for slot, source in self._sync_stuck_high_inputs(index):
            self.queue.schedule(time, (_HIGH, index, source * 4 + slot))

    def flip_node_behavior(self, node: NodeId, time: float) -> None:
        """Toggle a Byzantine node's per-link constant-0/constant-1 outputs."""
        node = self.grid.validate_node(node)
        fault = self.faults.node_fault(node)
        if fault is None or fault.fault_type is not FaultType.BYZANTINE:
            return
        flipped = {
            destination: (
                LinkBehavior.CONSTANT_ZERO
                if behavior is LinkBehavior.CONSTANT_ONE
                else LinkBehavior.CONSTANT_ONE
            )
            for destination, behavior in fault.link_behaviors.items()
        }
        self._unregister_stuck_high_links(node)
        self.faults.add_node_fault(
            NodeFault(node=node, fault_type=FaultType.BYZANTINE, link_behaviors=flipped)
        )
        self._sync_node_fault(node)
        self._register_stuck_high_links(node, time)

    def set_link_behavior(self, link: Tuple[NodeId, NodeId], behavior: LinkBehavior, time: float) -> None:
        """Force one directed link to a behaviour (intermittent-link faults)."""
        source, destination = link
        source = self.grid.validate_node(source)
        destination = self.grid.validate_node(destination)
        previous = self.faults.link_behavior((source, destination), time=time)
        self.faults.add_link_fault((source, destination), behavior)
        self._sync_link(source, destination)
        if behavior is LinkBehavior.CONSTANT_ONE and previous is not LinkBehavior.CONSTANT_ONE:
            self._register_one_stuck_high_link(source, destination, time)
        elif behavior is not LinkBehavior.CONSTANT_ONE and previous is LinkBehavior.CONSTANT_ONE:
            self._unregister_one_stuck_high_link(source, destination)

    def _register_stuck_high_links(self, node: NodeId, time: float) -> None:
        """Register (and assert) every stuck-at-1 outgoing link of ``node``."""
        for destination in sorted(self.grid.out_neighbors(node).values()):
            if self.faults.link_behavior((node, destination)) is LinkBehavior.CONSTANT_ONE:
                self._register_one_stuck_high_link(node, destination, time)

    def _register_one_stuck_high_link(
        self, source: NodeId, destination: NodeId, time: float
    ) -> None:
        dest = self._index(destination)
        if destination[0] == 0 or self._ready[dest] < 0:
            return
        src = self._index(source)
        entries = self._high.setdefault(dest, [])
        if any(existing == src for _slot, existing in entries):
            return
        slot = _SLOT[self.grid.direction_between(source, destination)]
        entries.append((slot, src))
        entries.sort()
        self.queue.schedule(float(time), (_HIGH, dest, src * 4 + slot))

    def _unregister_stuck_high_links(self, node: NodeId) -> None:
        """Retract every stuck-at-1 registration whose source is ``node``."""
        for destination in sorted(self.grid.out_neighbors(node).values()):
            self._unregister_one_stuck_high_link(node, destination)

    def _unregister_one_stuck_high_link(self, source: NodeId, destination: NodeId) -> None:
        dest = self._index(destination)
        entries = self._high.get(dest)
        if not entries:
            return
        src = self._index(source)
        remaining = [entry for entry in entries if entry[1] != src]
        if remaining:
            self._high[dest] = remaining
        else:
            del self._high[dest]

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def _fire(self, index: int, time: float) -> None:
        """Fire a ready node whose guard is satisfied: sleep and broadcast."""
        timeouts = self.timeouts
        if self._nominal:
            sleep = timeouts.t_sleep_min
        else:
            sleep = self._uniform(timeouts.t_sleep_min, timeouts.t_sleep_max)
        wake = time + sleep
        self._ready[index] = 0
        self._wake[index] = wake
        self._firings[index].append(time)
        if self.observer is not None:
            self.observer.on_firing(self._nodes[index], time)  # type: ignore[attr-defined]
        heapq.heappush(self.queue.heap, (wake, next(self.queue.sequence), (_WAKE, index, 0)))
        self._broadcast(index, time)

    def _broadcast(self, source: int, time: float) -> None:
        """Send the trigger message of ``source`` on all its outgoing links."""
        out_links = self._out[source]
        if not out_links:
            return
        ready = self._ready
        cut = self._cut
        # Only a correct source's links can carry link faults: a broadcasting
        # crash-faulty node is still before its crash, hence fully correct.
        check_cut = bool(cut) and not self._faulty[source]
        base = source * self._size
        sample = self.delays.sample
        uniform = self._delay_uniform
        nodes = self._nodes
        heap = self.queue.heap
        sequence = self.queue.sequence
        for destination, slot, _layer, _column in out_links:
            if ready[destination] < 0 or (check_cut and base + destination in cut):
                continue
            delay = sample(nodes[source], nodes[destination], uniform)
            arrival = time + delay
            if not time - 1e-12 <= arrival < _INF:
                raise ValueError(
                    f"delay model returned {delay!r} for link "
                    f"{nodes[source]} -> {nodes[destination]}"
                )
            heapq.heappush(
                heap, (arrival, next(sequence), (_ARRIVAL, destination, source * 4 + slot))
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float = math.inf) -> int:
        """Process events in time order up to ``until`` (inclusive).

        Returns
        -------
        int
            The number of events processed by this call.

        Raises
        ------
        RuntimeError
            If the safety cap ``max_events`` is exceeded.
        """
        if not self._initialized:
            self.initialize()
        queue = self.queue
        heap = queue.heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        next_seq = queue.sequence.__next__
        ready, mask, flags, wake_at = self._ready, self._mask, self._flags, self._wake
        alive_until, faulty = self._alive_until, self._faulty
        cut, high, size = self._cut, self._high, self._size
        fire, broadcast, firings = self._fire, self._broadcast, self._firings
        uniform = self._uniform
        nominal = self._nominal
        link_min = self.timeouts.t_link_min
        link_max = self.timeouts.t_link_max
        observer = self.observer
        on_event = getattr(observer, "on_event", None)
        stuck_high = LinkBehavior.CONSTANT_ONE
        limit = self.max_events - queue.num_processed
        processed = stale = dropped = 0
        time = queue.now
        try:
            while heap:
                if heap[0][0] > until:
                    break
                time, _seq, (kind, node, arg) = heappop(heap)
                processed += 1
                if on_event is not None:
                    on_event(time, self._event_view(kind, node, arg, time))
                if kind <= _HIGH:
                    if kind == _HIGH and (
                        cut.get((arg >> 2) * size + node) is not stuck_high
                        or (faulty[arg >> 2] and time < alive_until[arg >> 2])
                    ):
                        # Stale assertion of a stuck-at-1 link that has since
                        # healed (or whose crash-faulty source has not crashed).
                        stale += 1
                    elif ready[node] < 0 or not time < alive_until[node]:
                        dropped += 1
                    else:
                        link_timeout = link_min if nominal else uniform(link_min, link_max)
                        slot = arg & 3
                        memorized = mask[node]
                        if not memorized >> slot & 1:
                            # A set flag absorbs the message; a clear one is
                            # set and starts its link timer.
                            expiry = time + link_timeout
                            memorized |= 1 << slot
                            mask[node] = memorized
                            flags[4 * node + slot] = expiry
                            heappush(heap, (expiry, next_seq(), (_EXPIRY, node, slot)))
                        if ready[node] == 1 and _FIRES[memorized] and time < alive_until[node]:
                            fire(node, time)
                elif kind == _EXPIRY:
                    # Only the expiry the flag was armed with clears it.
                    if mask[node] >> arg & 1 and abs(flags[4 * node + arg] - time) <= 1e-12:
                        mask[node] ^= 1 << arg
                        for slot, source in high.get(node, ()) if high else ():
                            if slot == arg:
                                heappush(heap, (time, next_seq(), (_HIGH, node, source * 4 + slot)))
                elif kind == _WAKE:
                    # Stale wake-ups (the node was reset since) are ignored.
                    if ready[node] == 0 and abs(wake_at[node] - time) <= 1e-9:
                        ready[node] = 1
                        mask[node] = 0
                        wake_at[node] = -_INF
                        for slot, source in high.get(node, ()) if high else ():
                            heappush(heap, (time, next_seq(), (_HIGH, node, source * 4 + slot)))
                elif kind == _SOURCE:
                    # Sources that turned faulty mid-run (dynamic injection /
                    # crash) stop generating; statically faulty sources were
                    # never scheduled.
                    if time < alive_until[node]:
                        firings[node].append(time)
                        if observer is not None:
                            observer.on_firing(self._nodes[node], time)  # type: ignore[attr-defined]
                        broadcast(node, time)
                else:
                    queue.now = time
                    action = self._adversary_actions[node]
                    action.apply(self, time)  # type: ignore[attr-defined]
                    if observer is not None:
                        observer.on_adversary(time, action)  # type: ignore[attr-defined]
                if processed > limit:
                    raise RuntimeError(
                        f"event cap of {self.max_events} exceeded; "
                        "check the fault model / timeout configuration for livelock"
                    )
        finally:
            queue.now = time
            queue.num_processed += processed
            self.stale_high_assertions += stale
            self.dropped_arrivals += dropped
            self._rewind()
        return processed

    def _event_view(self, kind: int, node: int, arg: int, time: float) -> Event:
        """The :mod:`repro.simulation.events` form of one queued event."""
        if kind == _ADVERSARY:
            return AdversaryAction(index=node)
        nodes = self._nodes
        if kind <= _HIGH:
            return MessageArrival(
                source=nodes[arg >> 2],
                destination=nodes[node],
                direction=INCOMING_DIRECTIONS[arg & 3],
                from_byzantine_high=kind == _HIGH,
            )
        if kind == _EXPIRY:
            return FlagExpiry(node=nodes[node], direction=INCOMING_DIRECTIONS[arg], expiry=time)
        if kind == _WAKE:
            return WakeUp(node=nodes[node])
        return SourcePulse(node=nodes[node], pulse_index=arg)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def firing_times(self, node: NodeId) -> List[float]:
        """All firing times of a node (sources and forwarding nodes alike)."""
        return list(self._firings[self._index(self.grid.validate_node(node))])

    def memorized(self, node: NodeId) -> Dict[Direction, float]:
        """The node's memorized flags: incoming direction -> expiry time.

        Directions are listed in :data:`~repro.core.algorithm.INCOMING_DIRECTIONS`
        order; a node that does not run the algorithm has none.
        """
        index = self._index(self.grid.validate_node(node))
        mask = self._mask[index]
        return {
            direction: self._flags[4 * index + slot]
            for slot, direction in enumerate(INCOMING_DIRECTIONS)
            if mask >> slot & 1
        }

    def stuck_high_inputs(self, node: NodeId) -> List[Tuple[Direction, NodeId]]:
        """The registered stuck-at-1 in-links of a node, as ``(direction, source)``."""
        index = self._index(self.grid.validate_node(node))
        return [
            (INCOMING_DIRECTIONS[slot], self._nodes[source])
            for slot, source in self._high.get(index, ())
        ]

    def first_firing_matrix(self) -> np.ndarray:
        """Matrix of shape ``(L + 1, W)`` with each node's *first* firing time.

        Nodes that never fired carry ``+inf``; faulty nodes -- and
        structurally absent nodes of a degraded topology -- carry ``nan``.
        Intended for single-pulse runs, where the first firing is the pulse.
        """
        times = np.full(self.grid.shape, math.inf, dtype=float)
        times[~self.grid.presence_mask()] = math.nan
        for layer, column in self.grid.nodes():
            node = (layer, column)
            if self.faults.is_faulty(node):
                times[layer, column] = math.nan
                continue
            firings = self._firings[self._index(node)]
            if firings:
                times[layer, column] = firings[0]
        return times
