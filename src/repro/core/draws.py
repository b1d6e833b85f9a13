"""The buffered draw stream the analytic solver and the DES draw through.

It replaces one scalar ``Generator.uniform`` call per link delay or timer,
bit-identically (values and generator end state).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["DrawStream", "Uniform"]

#: ``uniform(low, high) -> float``: one draw from ``[low, high)``.
Uniform = Callable[[float, float], float]

#: Draws per :class:`DrawStream` refill.
_CHUNK = 256


class DrawStream:
    """Buffered ``uniform(low, high)`` draws from one generator.

    The stream refills with ``rng.random(256)`` and returns
    ``low + (high - low) * u``, which is bit-identical to scalar
    ``Generator.uniform(low, high)``.  :meth:`block` reads the next ``n``
    draws at once, with the same scaling.  :meth:`rewind` hands the
    generator back exactly where those scalar calls would have left it: it
    restores the state saved before the first refill and advances it by the
    number of draws consumed.  Bit generators whose ``advance`` does not
    count double draws run the same code with a chunk of one, so nothing is
    ever drawn ahead (and :meth:`block` is unavailable, see
    :attr:`reads_ahead`).

    A hot loop may read the buffer in place instead of calling
    :meth:`uniform` per draw: :meth:`lend`, :meth:`refill` and
    :meth:`settle` hand it the raw draws and take its read position back.

    Between refills and :meth:`rewind` nothing else may draw from the
    generator: a refill or rewind that finds the generator moved raises
    :class:`RuntimeError` instead of silently reordering the draws.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        # Bit generators whose ``advance(n)`` skips exactly ``n`` double
        # draws (imported here: ``numpy.random`` loads lazily).
        from numpy.random import PCG64, PCG64DXSM

        self._rng = rng
        self._chunk = _CHUNK if isinstance(rng.bit_generator, (PCG64, PCG64DXSM)) else 1
        self._buffer: List[float] = []
        self._next = 0
        self._consumed = 0
        self._start: Optional[dict] = None
        self._expected: Optional[dict] = None

    @property
    def reads_ahead(self) -> bool:
        """Whether :meth:`rewind` can return draws read ahead (PCG64 family)."""
        return self._chunk > 1

    def uniform(self, low: float, high: float) -> float:
        """The next draw, scaled to ``[low, high)``."""
        index = self._next
        if index == len(self._buffer):
            self._refill()
            index = 0
        self._next = index + 1
        return low + (high - low) * self._buffer[index]

    def lend(self) -> Tuple[List[float], int]:
        """Lend the buffer to a loop that reads its draws in place.

        Returns the buffered raw draws (Python floats in ``[0, 1)``) and the
        index ``i`` of the next unread one.  The borrower scales
        ``raw[i]`` as ``low + (high - low) * raw[i]``, which is bit-identical
        to :meth:`uniform`; when ``i`` reaches ``len(raw)`` it calls
        :meth:`refill` and reads on from index 0 of the list that returns.
        It hands its index back with :meth:`settle` before the stream is
        used any other way (a :meth:`uniform` or :meth:`block` draw, or
        :meth:`rewind`).
        """
        return self._buffer, self._next

    def refill(self) -> List[float]:
        """Count the lent buffer as read and return the next raw draws."""
        self._refill()
        return self._buffer

    def settle(self, index: int) -> None:
        """Take a lent buffer back: its draws before ``index`` are read."""
        self._next = index

    def block(self, low: float, high: float, count: int) -> np.ndarray:
        """The next ``count`` draws, scaled to ``[low, high)``, as a float64 array.

        Bit-identical to ``count`` calls of :meth:`uniform`; all of them
        count as consumed until ``rewind(unread=...)`` hands a tail back.
        Needs :attr:`reads_ahead`.
        """
        if not self.reads_ahead:
            raise ValueError("block reads need a PCG64 or PCG64DXSM bit generator")
        head = self._buffer[self._next : self._next + count]
        self._next += len(head)
        if len(head) == count:
            raw = np.array(head)
        else:
            self._consumed += len(self._buffer) + count - len(head)
            self._buffer = []
            self._next = 0
            fresh = self._draw(count - len(head))
            raw = np.concatenate((head, fresh)) if head else fresh
        return low + (high - low) * raw

    def _refill(self) -> None:
        self._consumed += len(self._buffer)
        self._buffer = self._draw(self._chunk).tolist()
        self._next = 0

    def _draw(self, count: int) -> np.ndarray:
        bit_generator = self._rng.bit_generator
        if self._start is None:
            self._start = bit_generator.state
        else:
            self._check_untouched()
        draws = self._rng.random(count)
        if self._chunk > 1:
            self._expected = bit_generator.state
        return draws

    def _check_untouched(self) -> None:
        if self._chunk > 1 and self._rng.bit_generator.state != self._expected:
            raise RuntimeError(
                "the generator was drawn from directly while a DrawStream held "
                "buffered draws; route every draw through the stream"
            )

    def rewind(self, unread: int = 0) -> None:
        """Return unconsumed draws: leave the generator as scalar draws would.

        ``unread`` also hands back that many of the last consumed draws
        (the unused tail of a :meth:`block`).
        """
        consumed = self._consumed + self._next - unread
        if unread and (consumed < 0 or not self.reads_ahead):
            raise ValueError(f"cannot hand back {unread} draws")
        if self._start is None:
            return
        self._check_untouched()
        if consumed < self._consumed + len(self._buffer):
            start = self._start
            bit_generator = self._rng.bit_generator
            bit_generator.state = start
            bit_generator.advance(consumed)
            # advance() drops the buffered 32-bit half-word that double draws
            # never touch; put it back so later integer draws match too.
            state = bit_generator.state
            state["has_uint32"] = start["has_uint32"]
            state["uinteger"] = start["uinteger"]
            bit_generator.state = state
        self._buffer = []
        self._next = 0
        self._consumed = 0
        self._start = None
        self._expected = None
