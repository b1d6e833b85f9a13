"""The DES event loop the inlined loop replaced, kept as a test oracle.

This is ``HexNetwork.run`` as it shipped before its event loop took in the
firing, the broadcast and the draws: a ``_fire`` call per firing, a
``_broadcast`` call per sender, one ``DrawStream.uniform`` call per timer
draw and one ``DelayModel.sample`` call per message.  Its logic is kept
here unchanged, with one adaptation to the present library: heap entries
are the flat ``(time, seq, kind, node, arg)`` tuples the public scheduling
methods now push, where the old loop carried ``(time, seq, (kind, node,
arg))``.  It queues every link and sleep timer, which the present loop
defers at nodes without a stuck-at-1 input, initial-state timers included:
its ``_arm`` always releases them to the heap.  ``tests/test_des_loop.py``
compares the two loops on randomized runs: firings, pending events,
scheduled-event and silent-skip counters and generator end state.
"""

from __future__ import annotations

import heapq
import math
from typing import List

from repro.faults.models import LinkBehavior
from repro.simulation.network import (
    _ARRIVAL,
    _EXPIRY,
    _FIRES,
    _HIGH,
    _SOURCE,
    _WAKE,
    HexNetwork,
)

__all__ = ["ReferenceHexNetwork"]

_INF = math.inf


class ReferenceHexNetwork(HexNetwork):
    """:class:`HexNetwork` driven by the call-per-firing reference loop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._uniform = self._stream.uniform if self._stream is not None else None
        draws_from_run = self.rng is not None and self.delays.rng is self.rng
        self._delay_uniform = self._uniform if draws_from_run else None

    def _arm(self, index: int, bits: int) -> None:
        super()._arm(index, bits)
        self._release(index)

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
        heapq.heappush(self.queue.heap, (wake, next(self.queue.sequence), _WAKE, index, 0))
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
                heap, (arrival, next(sequence), _ARRIVAL, destination, source * 4 + slot)
            )

    def run(self, until: float = math.inf) -> int:
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
                time, _seq, kind, node, arg = heappop(heap)
                processed += 1
                if on_event is not None:
                    on_event(time, self._event_view(kind, node, arg, time))
                if kind <= _HIGH:
                    if kind == _HIGH and (
                        cut.get((arg >> 2) * size + node) is not stuck_high
                        or (faulty[arg >> 2] and time < alive_until[arg >> 2])
                    ):
                        stale += 1
                    elif ready[node] < 0 or not time < alive_until[node]:
                        dropped += 1
                    else:
                        link_timeout = link_min if nominal else uniform(link_min, link_max)
                        slot = arg & 3
                        memorized = mask[node]
                        if not memorized >> slot & 1:
                            expiry = time + link_timeout
                            memorized |= 1 << slot
                            mask[node] = memorized
                            flags[4 * node + slot] = expiry
                            heappush(heap, (expiry, next_seq(), _EXPIRY, node, slot))
                        if ready[node] == 1 and _FIRES[memorized] and time < alive_until[node]:
                            fire(node, time)
                elif kind == _EXPIRY:
                    if mask[node] >> arg & 1 and abs(flags[4 * node + arg] - time) <= 1e-12:
                        mask[node] ^= 1 << arg
                        for slot, source in high.get(node, ()) if high else ():
                            if slot == arg:
                                heappush(heap, (time, next_seq(), _HIGH, node, source * 4 + slot))
                elif kind == _WAKE:
                    if ready[node] == 0 and abs(wake_at[node] - time) <= 1e-9:
                        ready[node] = 1
                        mask[node] = 0
                        wake_at[node] = -_INF
                        for slot, source in high.get(node, ()) if high else ():
                            heappush(heap, (time, next_seq(), _HIGH, node, source * 4 + slot))
                elif kind == _SOURCE:
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
