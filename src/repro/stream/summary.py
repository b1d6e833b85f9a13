"""One-stop streaming summary: moments + quantiles behind a single ``add``.

:class:`StreamSummary` is the accumulator the soak runner feeds per-pulse
observations into: Welford moments (count/mean/variance), exact min/max and
hybrid exact/GK quantiles, all in bounded memory, all JSON-round-trippable
for checkpoints.  :meth:`StreamSummary.stats` renders the headline numbers
(count, mean, std, min, max, p50, p95) as a plain dict -- the shape that
lands in soak checkpoints, ``hex-repro soak`` reports and
``trace summarize`` output.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Optional

from repro.stream.moments import StreamingMoments, payload_field
from repro.stream.quantiles import StreamingQuantiles

__all__ = ["StreamSummary"]


class StreamSummary:
    """Combined bounded-memory moments + quantiles accumulator."""

    __slots__ = ("moments", "quantiles")

    def __init__(self, epsilon: float = 0.005, exact_cap: Optional[int] = 4096) -> None:
        self.moments = StreamingMoments()
        self.quantiles = StreamingQuantiles(epsilon=epsilon, exact_cap=exact_cap)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Fold one observation into both accumulators."""
        self.moments.add(value)
        self.quantiles.add(value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold a sequence of observations, in order."""
        for value in values:
            self.add(value)

    def flush(self) -> None:
        """Flush any pending sketch buffer.

        The soak runner calls this at every epoch boundary so the serialized
        state is a deterministic function of the observation sequence alone
        -- a checkpoint-resumed run and an uninterrupted run reach identical
        states.
        """
        sketch = self.quantiles._sketch
        if sketch is not None:
            sketch.flush()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of observations folded in."""
        return self.moments.count

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (see :class:`~repro.stream.quantiles.StreamingQuantiles`)."""
        return self.quantiles.quantile(q)

    def stats(self) -> Dict[str, float]:
        """Headline numbers: count, mean, std, min, max, p50, p95."""
        count = self.moments.count
        return {
            "count": float(count),
            "mean": self.moments.mean if count else math.nan,
            "std": self.moments.std(),
            "min": self.moments.min if count else math.nan,
            "max": self.moments.max if count else math.nan,
            "p50": self.quantiles.median(),
            "p95": self.quantiles.quantile(0.95),
        }

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable state of both accumulators."""
        return {
            "moments": self.moments.to_json_dict(),
            "quantiles": self.quantiles.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "StreamSummary":
        """Rebuild a summary from :meth:`to_json_dict` output."""
        summary = cls()
        moments = payload_field(payload, "moments", cls.__name__)
        quantiles = payload_field(payload, "quantiles", cls.__name__)
        summary.moments = StreamingMoments.from_json_dict(moments)
        summary.quantiles = StreamingQuantiles.from_json_dict(quantiles)
        return summary
