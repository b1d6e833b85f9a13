"""Bounded-memory streaming quantiles: a Greenwald-Khanna sketch + hybrid.

Two layers:

* :class:`GKSketch` -- the Greenwald-Khanna (SIGMOD'01) epsilon-approximate
  quantile summary.  **Documented error bound**: after ``n`` insertions,
  ``query(q)`` returns a stream element whose rank in the sorted stream is
  within ``ceil(epsilon * n)`` of the target rank ``ceil(q * n)`` (``q = 0``
  and ``q = 1`` return the exact minimum/maximum, which the sketch never
  merges away).  The bound is *worst-case over orderings* -- it holds on
  adversarially sorted input, unlike the heuristic P-squared estimator --
  and the sketch retains O((1/epsilon) * log(epsilon * n)) tuples.
* :class:`StreamingQuantiles` -- an exact buffer up to ``exact_cap``
  observations (queried through :mod:`repro.stream.exact`, so results are
  bit-identical to a post-hoc ``numpy.quantile``/``numpy.median``) that spills
  into a :class:`GKSketch` once the cap is exceeded.  ``exact_cap=None``
  keeps the buffer exact forever (the campaign wall-time path, where the
  observations already live in memory anyway).

Both serialize exactly through ``to_json_dict``/``from_json_dict``:
inserting the same values after a round trip yields the same state as an
uninterrupted run, which is what makes soak checkpoints resumable without
drift.  Compression runs at deterministic points (every ``buffer_size``
insertions and on :meth:`GKSketch.flush`), never on wall-clock or memory
pressure, for the same reason.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.stream.exact import exact_median, exact_quantiles
from repro.stream.moments import payload_field

__all__ = ["GKSketch", "StreamingQuantiles", "interpolated_quantile"]


def interpolated_quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sequence.

    The ``position = q * (n - 1)`` convention of ``numpy.quantile``'s default
    method (shared with :func:`repro.obs.metrics.timer_stats`, which routes
    through this helper).
    """
    if not ordered:
        return math.nan
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class GKSketch:
    """Greenwald-Khanna epsilon-approximate quantile summary.

    Entries are ``[value, g, delta]`` tuples sorted by value: ``g`` is the
    gap in minimum rank to the previous entry, ``delta`` the extra rank
    uncertainty, so entry ``i`` covers true ranks
    ``[sum(g_1..g_i), sum(g_1..g_i) + delta_i]``.  Insertions buffer into a
    sorted batch of ``buffer_size = ceil(1 / (2 * epsilon))`` values that is
    merged (and the summary compressed) in one linear pass -- the standard
    amortization that keeps per-observation cost O(log buffer_size).
    """

    __slots__ = ("epsilon", "count", "_entries", "_buffer", "_buffer_size")

    def __init__(self, epsilon: float = 0.005) -> None:
        if not 0.0 < epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
        self.epsilon = float(epsilon)
        self.count: int = 0
        self._entries: List[List[float]] = []  # [value, g, delta], sorted by value
        self._buffer: List[float] = []
        self._buffer_size = max(1, math.ceil(1.0 / (2.0 * self.epsilon)))

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Insert one observation (amortized through the sorted batch buffer)."""
        self._buffer.append(float(value))
        if len(self._buffer) >= self._buffer_size:
            self.flush()

    def extend(self, values: Iterable[float]) -> None:
        """Insert a sequence of observations."""
        for value in values:
            self.add(value)

    def flush(self) -> None:
        """Merge the pending batch into the summary and compress.

        Called automatically every ``buffer_size`` insertions and before any
        query or serialization, so the summary state is a deterministic
        function of the insertion sequence alone.
        """
        if not self._buffer:
            return
        batch = sorted(self._buffer)
        self._buffer = []
        # New interior tuples claim the maximum uncertainty the invariant
        # allows, floor(2 eps n) - 1 (Greenwald-Khanna insert rule); batch
        # members landing before the current minimum / after the current
        # maximum are exact (delta = 0), which keeps q=0 / q=1 exact.
        delta_new = max(0, int(2.0 * self.epsilon * self.count) - 1)
        merged: List[List[float]] = []
        entries = self._entries
        i = j = 0
        while i < len(entries) or j < len(batch):
            if j >= len(batch) or (i < len(entries) and entries[i][0] <= batch[j]):
                merged.append(entries[i])
                i += 1
            else:
                at_edge = not merged or (i >= len(entries))
                merged.append([batch[j], 1.0, 0.0 if at_edge else float(delta_new)])
                j += 1
        self.count += len(batch)
        self._entries = merged
        self._compress()

    def _compress(self) -> None:
        """Merge adjacent tuples while the GK invariant ``g + delta <= 2 eps n`` holds."""
        entries = self._entries
        if len(entries) < 3:
            return
        threshold = int(2.0 * self.epsilon * self.count)
        if threshold < 2:
            return
        compressed: List[List[float]] = [entries[-1]]
        # Sweep right to left, folding entry i into its successor when the
        # combined tuple still satisfies the invariant.  The first entry is
        # never folded away, so the stream minimum survives exactly.
        for i in range(len(entries) - 2, 0, -1):
            entry = entries[i]
            successor = compressed[-1]
            if entry[1] + successor[1] + successor[2] <= threshold:
                successor[1] += entry[1]
            else:
                compressed.append(entry)
        compressed.append(entries[0])
        compressed.reverse()
        self._entries = compressed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, q: float) -> float:
        """A value whose rank is within ``ceil(epsilon * n)`` of ``ceil(q * n)``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        self.flush()
        if self.count == 0:
            return math.nan
        entries = self._entries
        if q <= 0.0:
            return entries[0][0]
        if q >= 1.0:
            return entries[-1][0]
        target = max(1, min(self.count, math.ceil(q * self.count)))
        slack = self.epsilon * self.count
        rmin = 0.0
        best_value = entries[0][0]
        best_error = math.inf
        for value, g, delta in entries:
            rmin += g
            rmax = rmin + delta
            if target - rmin <= slack and rmax - target <= slack:
                return value
            error = max(abs(target - rmin), abs(rmax - target))
            if error < best_error:
                best_error = error
                best_value = value
        return best_value

    @property
    def num_entries(self) -> int:
        """Number of retained tuples (the O((1/eps) log(eps n)) bound)."""
        return len(self._entries) + len(self._buffer)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable state (flushes the pending batch first)."""
        self.flush()
        return {
            "epsilon": self.epsilon,
            "count": self.count,
            "entries": [[entry[0], int(entry[1]), int(entry[2])] for entry in self._entries],
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "GKSketch":
        """Rebuild a sketch from :meth:`to_json_dict` output."""
        sketch = cls(epsilon=float(payload_field(payload, "epsilon", cls.__name__)))
        sketch.count = int(payload_field(payload, "count", cls.__name__))
        entries = payload_field(payload, "entries", cls.__name__)
        sketch._entries = [[float(value), float(g), float(delta)] for value, g, delta in entries]
        return sketch


class StreamingQuantiles:
    """Hybrid exact/sketch quantile accumulator.

    Up to ``exact_cap`` observations are buffered and queried exactly --
    bit-identical to ``numpy.quantile`` / ``numpy.median`` post hoc on the
    full array.  Past the cap the buffer
    spills into a :class:`GKSketch` and queries carry that sketch's
    documented ``ceil(epsilon * n)`` rank-error bound.  ``exact_cap=None``
    never spills (exact forever).
    """

    __slots__ = ("epsilon", "exact_cap", "_exact", "_sketch")

    def __init__(self, epsilon: float = 0.005, exact_cap: Optional[int] = 4096) -> None:
        if exact_cap is not None and exact_cap < 1:
            raise ValueError(f"exact_cap must be >= 1 or None, got {exact_cap}")
        self.epsilon = float(epsilon)
        self.exact_cap = exact_cap
        self._exact: Optional[List[float]] = []
        self._sketch: Optional[GKSketch] = None

    @property
    def count(self) -> int:
        """Number of observations folded in so far."""
        if self._sketch is not None:
            return self._sketch.count + len(self._sketch._buffer)
        return len(self._exact or [])

    @property
    def is_exact(self) -> bool:
        """Whether queries are still exact (below the cap)."""
        return self._sketch is None

    def add(self, value: float) -> None:
        """Fold one observation in."""
        if self._sketch is not None:
            self._sketch.add(value)
            return
        exact = self._exact
        assert exact is not None
        exact.append(float(value))
        if self.exact_cap is not None and len(exact) > self.exact_cap:
            self._spill()

    def extend(self, values: Iterable[float]) -> None:
        """Fold a sequence of observations, in order."""
        for value in values:
            self.add(value)

    def _spill(self) -> None:
        """Hand the exact buffer over to a GK sketch (cap exceeded)."""
        sketch = GKSketch(epsilon=self.epsilon)
        sketch.extend(self._exact or [])
        self._sketch = sketch
        self._exact = None

    def quantile(self, q: float) -> float:
        """The ``q``-quantile: exact (NumPy linear interpolation) below the cap,
        sketch-approximate (rank error ``<= ceil(epsilon * n)``) above it."""
        if self._sketch is not None:
            return self._sketch.query(q)
        exact = self._exact
        if not exact:
            return math.nan
        return exact_quantiles(np.asarray(exact, dtype=float), (q,))[0]

    def median(self) -> float:
        """The median (``numpy.median``-exact below the cap)."""
        if self._sketch is not None:
            return self._sketch.query(0.5)
        exact = self._exact
        if not exact:
            return math.nan
        return exact_median(np.asarray(exact, dtype=float))

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable state (exact buffer or sketch state)."""
        payload: Dict[str, Any] = {"epsilon": self.epsilon, "exact_cap": self.exact_cap}
        if self._sketch is not None:
            payload["sketch"] = self._sketch.to_json_dict()
        else:
            payload["exact"] = list(self._exact or [])
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "StreamingQuantiles":
        """Rebuild an accumulator from :meth:`to_json_dict` output."""
        epsilon = float(payload_field(payload, "epsilon", cls.__name__))
        cap = payload.get("exact_cap")
        quantiles = cls(epsilon=epsilon, exact_cap=None if cap is None else int(cap))
        if "sketch" in payload:
            quantiles._sketch = GKSketch.from_json_dict(payload["sketch"])
            quantiles._exact = None
        else:
            exact = payload_field(payload, "exact", cls.__name__)
            quantiles._exact = [float(value) for value in exact]
        return quantiles
