"""The time-ordered event queue driving the HEX discrete-event simulation.

The queue is a thin, fully deterministic wrapper around :mod:`heapq`:

* events are ordered by scheduled time;
* ties are broken by insertion order (a monotonically increasing sequence
  number), never by comparing event payloads;
* time never moves backwards -- scheduling an event in the past of the current
  simulation time raises, which catches subtle causality bugs early.

Keeping the engine this small (schedule / pop / peek) pushes all domain logic
into :mod:`repro.simulation.network`, which makes both parts easy to test in
isolation.  The network's run loop works on :attr:`EventQueue.heap` and
:attr:`EventQueue.sequence` directly (plain ``heapq`` calls, no per-event
method call or re-validation of times it computed itself) and writes back
:attr:`EventQueue.now` and :attr:`EventQueue.num_processed`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["EventQueue"]

E = TypeVar("E")


class EventQueue(Generic[E]):
    """A deterministic priority queue of timestamped events.

    Examples
    --------
    >>> q = EventQueue()
    >>> q.schedule(2.0, "b")
    >>> q.schedule(1.0, "a")
    >>> q.pop()
    (1.0, 'a')
    >>> q.now
    1.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: ``(time, seq, event)`` entries in heap order.
        self.heap: List[Tuple[float, int, E]] = []
        #: Source of the insertion-order tie-breakers ``seq``.
        self.sequence = itertools.count()
        #: The current simulation time (time of the last popped event).
        self.now = float(start_time)
        #: Total number of events popped so far.
        self.num_processed = 0
        self._num_cleared = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def num_scheduled(self) -> int:
        """Total number of events scheduled so far."""
        return self.num_processed + len(self.heap) + self._num_cleared

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def schedule(self, time: float, event: E) -> None:
        """Schedule ``event`` at absolute ``time``.

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
        heapq.heappush(self.heap, (float(time), next(self.sequence), event))

    def peek_time(self) -> Optional[float]:
        """The time of the next event, or ``None`` if the queue is empty."""
        if not self.heap:
            return None
        return self.heap[0][0]

    def pop(self) -> Tuple[float, E]:
        """Remove and return the next ``(time, event)`` pair, advancing time.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        time, _seq, event = heapq.heappop(self.heap)
        self.now = time
        self.num_processed += 1
        return time, event

    def pop_until(self, horizon: float) -> Iterator[Tuple[float, E]]:
        """Yield events in time order up to (and including) ``horizon``."""
        while self.heap and self.heap[0][0] <= horizon:
            yield self.pop()

    def clear(self) -> None:
        """Drop all pending events (current time is preserved)."""
        self._num_cleared += len(self.heap)
        self.heap.clear()
