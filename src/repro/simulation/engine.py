"""The time-ordered event queue driving the HEX discrete-event simulation.

The queue is a thin, fully deterministic wrapper around :mod:`heapq`:

* events are ordered by scheduled time;
* ties are broken by insertion order (a monotonically increasing sequence
  number), never by comparing event payloads;
* time never moves backwards -- scheduling an event in the past of the current
  simulation time raises, which catches subtle causality bugs early.

Its entries are the flat tuples ``(time, seq, kind, node, arg)`` that
:meth:`repro.simulation.network.HexNetwork.run` pops.  The run loop works on
:attr:`EventQueue.heap` and :attr:`EventQueue.sequence` directly (plain
``heapq`` calls, no per-event method call or re-validation of times it
computed itself) and writes back :attr:`EventQueue.now` and
:attr:`EventQueue.num_processed`; :meth:`EventQueue.schedule` is the checked
entry point for everything else.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Tuple

__all__ = ["EventQueue"]


class EventQueue:
    """A deterministic priority queue of timestamped events.

    Examples
    --------
    >>> q = EventQueue()
    >>> q.schedule(2.0, 4, 1, 0)
    >>> q.schedule(1.0, 4, 0, 0)
    >>> q.heap[0]
    (1.0, 1, 4, 0, 0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: ``(time, seq, kind, node, arg)`` entries in heap order.
        self.heap: List[Tuple[float, int, int, int, int]] = []
        #: Source of the insertion-order tie-breakers ``seq``.
        self.sequence = itertools.count()
        #: The current simulation time (time of the last popped event).
        self.now = float(start_time)
        #: Total number of events popped so far.
        self.num_processed = 0

    @property
    def num_scheduled(self) -> int:
        """Total number of sequence numbers handed out so far.

        Every scheduled event takes one, and so does every timer the
        network arms without a heap entry.
        """
        # ``itertools.count`` shows its next value only in its repr.
        return int(repr(self.sequence)[len("count("):-1])

    def schedule(self, time: float, kind: int, node: int, arg: int) -> None:
        """Schedule event ``(kind, node, arg)`` at absolute ``time``.

        Raises
        ------
        ValueError
            If ``time`` lies strictly before the current simulation time or is
            not finite.
        """
        if not math.isfinite(time):
            raise ValueError(f"cannot schedule an event at non-finite time {time}")
        if time < self.now - 1e-12:
            raise ValueError(
                f"cannot schedule an event at {time} before current time {self.now}"
            )
        heapq.heappush(self.heap, (float(time), next(self.sequence), kind, node, arg))
