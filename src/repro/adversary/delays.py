"""Delay adversaries: per-message link delays chosen inside ``[d-, d+]``.

The paper's analysis quantifies over *every* admissible delay assignment: an
adversary may pick each message's delay anywhere in ``[d-, d+]``.  The stock
delay models (:mod:`repro.simulation.links`) only cover the benign random
choices (uniform per link or per message); the classes here implement hostile
strategies, all of which still respect the delay bounds -- HEX's guarantees
must hold against them, which is exactly what makes them useful workloads:

* :class:`MaxSkewDelays` -- a deterministic zig-zag-seeking adversary: links
  towards the left half of the ring are made as slow as possible and links
  towards the right half as fast as possible, driving neighbouring columns
  apart by ``epsilon`` per layer (the divergence pattern behind the zig-zag
  worst-case constructions of Figs. 5/17).  Delays are stable per link, so the
  analytic solver observes the same assignment as the simulator.

* :class:`BiasedLinkDelays` -- a per-link biased adversary: every link draws a
  persistent bias uniformly in ``[d-, d+]`` once (lazily, cached) and each
  message jitters around that bias within ``jitter * epsilon``, clipped to the
  bounds.  Models systematically mismatched wire lengths plus small dynamic
  noise; ``delay`` reports the stable bias (what the analytic solver sees),
  ``sample`` adds the per-message jitter (what the DES delivers).

Both are registered delay-model choices of :class:`repro.engines.base.RunSpec`
(``delay_model="max_skew"`` / ``"biased"``) and therefore sweepable campaign
axes.  Randomness flows exclusively from the run's seeded generator, in cache
order for the biased model -- the usual reproducibility contract.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.draws import Uniform
from repro.core.parameters import TimingConfig
from repro.core.topology import LinkId, NodeId
from repro.simulation.links import DelayModel

__all__ = ["MaxSkewDelays", "BiasedLinkDelays"]


class MaxSkewDelays(DelayModel):
    """Deterministic zig-zag-seeking adversary: slow left half, fast right half.

    For a destination column ``c`` of a width-``W`` grid, every link *into* the
    left half (``c < W // 2``) gets delay ``d+`` and every link into the right
    half gets ``d-``.  A pulse wave therefore arrives ever later on the left
    and ever earlier on the right, stretching the intra-layer skew by up to
    ``epsilon`` per layer until HEX's two-neighbour guards pull the halves back
    together -- the adversarial delay pattern the worst-case bounds (Lemma 5,
    Theorem 1) are fought against.

    The model is deterministic and stable (``sample == delay``), so it draws
    nothing from the run's generator and both execution engines observe the
    identical assignment.
    """

    def __init__(self, timing: TimingConfig, width: int) -> None:
        if width < 3:
            raise ValueError(f"width must be at least 3, got {width}")
        self._timing = timing
        self._width = int(width)

    @property
    def timing(self) -> TimingConfig:
        """The delay bounds the adversary chooses within."""
        return self._timing

    def delay(
        self, source: NodeId, destination: NodeId, uniform: Optional[Uniform] = None
    ) -> float:
        if destination[1] < self._width // 2:
            return self._timing.d_max
        return self._timing.d_min

    def min_delay(self) -> Optional[float]:
        return self._timing.d_min

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MaxSkewDelays([{self._timing.d_min}, {self._timing.d_max}], "
            f"width={self._width})"
        )


class BiasedLinkDelays(DelayModel):
    """Per-link biased adversary: persistent bias plus bounded per-message jitter.

    Each directed link lazily draws one bias uniformly in ``[d-, d+]`` (cached,
    like :class:`~repro.simulation.links.UniformRandomDelays`); every message
    on the link then jitters uniformly within ``+- jitter * epsilon`` around
    the bias, clipped to ``[d-, d+]``.  ``delay`` returns the stable bias,
    which is the assignment the analytic solver consumes.
    """

    def __init__(
        self, timing: TimingConfig, rng: np.random.Generator, jitter: float = 0.1
    ) -> None:
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must lie in [0, 1], got {jitter}")
        self._timing = timing
        self.rng = rng
        self._jitter = float(jitter)
        self._bias: Dict[LinkId, float] = {}

    @property
    def timing(self) -> TimingConfig:
        """The delay bounds the adversary chooses within."""
        return self._timing

    @property
    def jitter(self) -> float:
        """Per-message jitter amplitude as a fraction of ``epsilon``."""
        return self._jitter

    def delay(
        self, source: NodeId, destination: NodeId, uniform: Optional[Uniform] = None
    ) -> float:
        key = (source, destination)
        value = self._bias.get(key)
        if value is None:
            draw = uniform if uniform is not None else self.rng.uniform
            value = float(draw(self._timing.d_min, self._timing.d_max))
            self._bias[key] = value
        return value

    def min_delay(self) -> Optional[float]:
        return self._timing.d_min

    def sample(
        self, source: NodeId, destination: NodeId, uniform: Optional[Uniform] = None
    ) -> float:
        bias = self.delay(source, destination, uniform)
        if self._jitter == 0.0:
            return bias
        amplitude = self._jitter * self._timing.epsilon
        draw = uniform if uniform is not None else self.rng.uniform
        value = bias + float(draw(-amplitude, amplitude))
        return float(min(max(value, self._timing.d_min), self._timing.d_max))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BiasedLinkDelays([{self._timing.d_min}, {self._timing.d_max}], "
            f"jitter={self._jitter}, {len(self._bias)} cached)"
        )
