"""The buffered draw stream the analytic solver and the DES draw through.

It replaces one scalar ``Generator.uniform`` call per link delay or timer,
bit-identically (values and generator end state).
"""

from __future__ import annotations

from typing import Callable, List, Optional

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
    ``Generator.uniform(low, high)``.  :meth:`rewind` hands the generator
    back exactly where those scalar calls would have left it: it restores
    the state saved before the first refill and advances it by the number
    of draws consumed.  Bit generators whose ``advance`` does not count
    double draws run the same code with a chunk of one, so nothing is ever
    drawn ahead.

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

    def uniform(self, low: float, high: float) -> float:
        """The next draw, scaled to ``[low, high)``."""
        index = self._next
        if index == len(self._buffer):
            self._refill()
            index = 0
        self._next = index + 1
        return low + (high - low) * self._buffer[index]

    def _refill(self) -> None:
        bit_generator = self._rng.bit_generator
        if self._start is None:
            self._start = bit_generator.state
        else:
            self._check_untouched()
        self._consumed += len(self._buffer)
        self._buffer = self._rng.random(self._chunk).tolist()
        self._next = 0
        if self._chunk > 1:
            self._expected = bit_generator.state

    def _check_untouched(self) -> None:
        if self._chunk > 1 and self._rng.bit_generator.state != self._expected:
            raise RuntimeError(
                "the generator was drawn from directly while a DrawStream held "
                "buffered draws; route every draw through the stream"
            )

    def rewind(self) -> None:
        """Return unconsumed draws: leave the generator as scalar draws would."""
        if self._start is None:
            return
        self._check_untouched()
        if self._next < len(self._buffer):
            start = self._start
            bit_generator = self._rng.bit_generator
            bit_generator.state = start
            bit_generator.advance(self._consumed + self._next)
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
