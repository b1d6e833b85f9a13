"""Streaming moment accumulators: count/mean/variance in O(1) memory.

:class:`StreamingMoments` implements Welford's online algorithm for the mean
and the centred second moment ``M2`` -- numerically stable under the
catastrophic-cancellation conditions that break the naive
``sum(x^2) - n*mean^2`` formula -- plus exact min/max tracking and a plain
sequential running sum.

The running ``total`` is deliberately *naive* (``total += x`` in arrival
order, not Welford-derived ``mean * count``): feeding the accumulator the
same values in the same order as a ``float(sum(values))`` call reproduces
that sum bit for bit, which is what lets
:meth:`repro.campaign.runner.CampaignResult.wall_time_summary` route its
totals through this class without changing a single historical byte.

Everything round-trips through :meth:`to_json_dict` /
:meth:`from_json_dict` exactly (Python's ``json`` emits shortest-round-trip
float reprs), so a checkpointed accumulator resumes with the identical
state the uninterrupted run would have had.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable

__all__ = ["StreamingMoments", "payload_field"]


def payload_field(payload: Any, name: str, owner: str) -> Any:
    """``payload[name]`` of a serialized ``owner``.

    A payload that is not a JSON object, or lacks the field, raises a
    ``ValueError`` naming the field, so a damaged checkpoint is one clean
    error rather than a ``KeyError`` from deep inside a loader.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{owner} state must be a JSON object, got {type(payload).__name__}")
    if name not in payload:
        raise ValueError(f"{owner} state is missing field {name!r}")
    return payload[name]


class StreamingMoments:
    """Welford count/mean/variance plus exact min/max and a sequential sum.

    Memory is O(1) regardless of how many observations are fed in.
    """

    __slots__ = ("count", "mean", "m2", "total", "min", "max")

    def __init__(self) -> None:
        self.count: int = 0
        self.mean: float = 0.0
        #: Centred second moment ``sum((x - mean)^2)`` (Welford's ``M2``).
        self.m2: float = 0.0
        #: Naive sequential running sum (bit-identical to ``float(sum(...))``
        #: over the same values in the same order).
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        value = float(value)
        self.count += 1
        self.total += value
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold a sequence of observations, in order."""
        for value in values:
            self.add(value)

    def variance(self, ddof: int = 0) -> float:
        """Variance with ``ddof`` delta degrees of freedom (NaN when undefined)."""
        if self.count <= ddof:
            return math.nan
        return self.m2 / (self.count - ddof)

    def std(self, ddof: int = 0) -> float:
        """Standard deviation (square root of :meth:`variance`)."""
        variance = self.variance(ddof)
        return math.sqrt(variance) if variance == variance else math.nan

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable state (exact float round trip)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self.m2,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "StreamingMoments":
        """Rebuild an accumulator from :meth:`to_json_dict` output."""
        moments = cls()
        moments.count = int(payload_field(payload, "count", cls.__name__))
        moments.mean = float(payload_field(payload, "mean", cls.__name__))
        moments.m2 = float(payload_field(payload, "m2", cls.__name__))
        moments.total = float(payload_field(payload, "total", cls.__name__))
        moments.min = math.inf if payload.get("min") is None else float(payload["min"])
        moments.max = -math.inf if payload.get("max") is None else float(payload["max"])
        return moments

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingMoments(count={self.count}, mean={self.mean:.6g}, "
            f"std={self.std():.6g})"
        )
