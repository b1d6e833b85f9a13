"""Timing parameters of the HEX system and the Condition 2 timeout computation.

Two dataclasses capture the timed model of Section 2 and the self-stabilization
parameters of Section 3.3:

* :class:`TimingConfig` -- the link-delay bounds ``[d-, d+]`` (and derived
  ``epsilon = d+ - d-``), the maximum clock-drift factor ``theta`` and the grid
  dimensions used by the bound formulas.  The paper's simulations use
  end-to-end delays in ``[7.161, 8.197]`` ns (wire/routing delay in ``[7, 8]``
  ns plus a switching delay in ``[0.161, 0.197]`` ns), which is what
  :meth:`TimingConfig.paper_defaults` returns.

* :class:`TimeoutConfig` -- the algorithm timeouts ``T^-_link, T^+_link,
  T^-_sleep, T^+_sleep`` and the pulse-separation time ``S``.
  :func:`condition2_timeouts` computes them from a stable-skew bound
  ``sigma(f)`` exactly as Condition 2 prescribes:

  .. math::

      T^-_{link}(f)  &= \\sigma(f) + \\varepsilon \\\\
      T^+_{link}(f)  &= \\vartheta\\, T^-_{link}(f) \\\\
      T^-_{sleep}(f) &= 2 T^+_{link}(f) + 2 d^+ \\\\
      T^+_{sleep}(f) &= \\vartheta\\, T^-_{sleep}(f) \\\\
      S(f)           &= T^-_{sleep}(f) + T^+_{sleep}(f) + \\varepsilon L + f d^+

  Footnote 10 of the paper notes that the values actually used in the
  stabilization experiments (Table 3) include a small additive slack accounting
  for the non-zero duration of the trigger signals in the VHDL implementation;
  the optional ``signal_duration`` argument reproduces this.

:class:`TimerPolicy` says how concrete timer durations are drawn within
those intervals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = [
    "TimingConfig",
    "TimeoutConfig",
    "TimerPolicy",
    "condition2_timeouts",
    "lambda0",
    "PAPER_SIGNAL_DURATION_NS",
]

#: Additive slack (in ns) the paper's testbench adds to ``T^-_link`` on top of
#: the Condition 2 value, to account for the non-zero duration of trigger
#: signals in the VHDL implementation (footnote 10).  Reverse-engineered from
#: Table 3: every row satisfies ``T^-_link = sigma + epsilon + 2.464``.
PAPER_SIGNAL_DURATION_NS: float = 2.464


@dataclass(frozen=True)
class TimingConfig:
    """Timed-model parameters of a HEX deployment.

    Attributes
    ----------
    d_min:
        Minimum end-to-end trigger-message delay ``d-`` (time units; the paper
        uses nanoseconds).
    d_max:
        Maximum end-to-end trigger-message delay ``d+``.
    theta:
        Maximum clock-drift factor ``theta >= 1`` of the local timers
        (Condition 2).  The paper's experiments assume ``theta = 1.05``.
    """

    d_min: float
    d_max: float
    theta: float = 1.05

    def __post_init__(self) -> None:
        if self.d_min <= 0:
            raise ValueError(f"d_min must be positive, got {self.d_min}")
        if self.d_max < self.d_min:
            raise ValueError(
                f"d_max ({self.d_max}) must be at least d_min ({self.d_min})"
            )
        if self.theta < 1.0:
            raise ValueError(f"theta must be >= 1, got {self.theta}")

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """The delay uncertainty ``epsilon = d+ - d-``."""
        return self.d_max - self.d_min

    @property
    def delay_midpoint(self) -> float:
        """The midpoint of the delay interval, ``(d- + d+) / 2``."""
        return 0.5 * (self.d_min + self.d_max)

    @property
    def satisfies_triangle_constraint(self) -> bool:
        """Whether ``epsilon <= d+ / 2`` (Section 2's triangle-like constraint)."""
        return self.epsilon <= self.d_max / 2.0

    @property
    def satisfies_theorem1_constraint(self) -> bool:
        """Whether ``epsilon <= d+ / 7`` as required by Theorem 1."""
        return self.epsilon <= self.d_max / 7.0

    def lambda0(self, layer: int) -> int:
        """The pivotal layer ``lambda_0 = floor(layer * d- / d+)`` of Lemma 4.

        ``lambda_0`` is the deepest layer a "slow" chain of trigger messages
        (all delays ``d+``) can have reached by the time a "fast" chain (all
        delays ``d-``) has climbed ``layer`` hops.
        """
        return lambda0(layer, self.d_min, self.d_max)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper_defaults(cls, theta: float = 1.05) -> "TimingConfig":
        """The delay bounds used throughout Section 4: ``[7.161, 8.197]`` ns.

        These combine the assumed wire/routing delay ``[7, 8]`` ns with the
        switching-delay interval ``[0.161, 0.197]`` ns determined by the
        paper's ModelSim timing analysis of the UMC 90 nm HEX node.
        """
        return cls(d_min=7.161, d_max=8.197, theta=theta)

    @classmethod
    def from_wire_and_switching(
        cls,
        wire_min: float,
        wire_max: float,
        switching_min: float = 0.161,
        switching_max: float = 0.197,
        theta: float = 1.05,
    ) -> "TimingConfig":
        """Combine wire/routing delay bounds with switching-delay bounds.

        The end-to-end delay of a trigger message is the sum of the wire delay
        and the receiving node's switching delay, so the bounds simply add.
        """
        return cls(
            d_min=wire_min + switching_min,
            d_max=wire_max + switching_max,
            theta=theta,
        )

    def with_uncertainty(self, epsilon: float) -> "TimingConfig":
        """A copy with the same ``d+`` but delay uncertainty ``epsilon``."""
        if epsilon < 0 or epsilon >= self.d_max:
            raise ValueError(
                f"epsilon must lie in [0, d_max), got {epsilon} with d_max={self.d_max}"
            )
        return replace(self, d_min=self.d_max - epsilon)

    def scaled(self, factor: float) -> "TimingConfig":
        """A copy with both delay bounds scaled by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return replace(self, d_min=self.d_min * factor, d_max=self.d_max * factor)


def lambda0(layer: int, d_min: float, d_max: float) -> int:
    """Compute ``lambda_0 = floor(layer * d- / d+)`` (Lemma 4, Eq. (4)).

    Parameters
    ----------
    layer:
        The layer ``l`` of interest (non-negative).
    d_min, d_max:
        The link-delay bounds.
    """
    if layer < 0:
        raise ValueError(f"layer must be non-negative, got {layer}")
    return int(math.floor(layer * d_min / d_max))


class TimerPolicy(enum.Enum):
    """How concrete timer durations are chosen within their allowed intervals."""

    #: Always use the lower bound (``T^-_link`` / ``T^-_sleep``): an ideal,
    #: drift-free implementation.
    NOMINAL = "nominal"
    #: Draw uniformly from ``[T^-, T^+]``: models the clock drift ``theta``.
    UNIFORM = "uniform"


@dataclass(frozen=True)
class TimeoutConfig:
    """The HEX algorithm timeouts and the pulse-separation time.

    All values are in the same time unit as the :class:`TimingConfig` they were
    derived from (ns for the paper's parameters).

    Attributes
    ----------
    t_link_min, t_link_max:
        Bounds ``[T^-_link, T^+_link]`` on the duration a received trigger
        message is memorized before the memory flag is cleared.
    t_sleep_min, t_sleep_max:
        Bounds ``[T^-_sleep, T^+_sleep]`` on the duration a node sleeps after
        firing before it clears its flags and becomes ready again.
    pulse_separation:
        The minimum pulse-separation time ``S`` that layer-0 clock sources must
        guarantee between the latest generation of pulse ``k`` and the earliest
        generation of pulse ``k + 1``.
    stable_skew:
        The stable-skew bound ``sigma(f)`` the timeouts were derived from
        (informational; used by the stabilization analysis).
    """

    t_link_min: float
    t_link_max: float
    t_sleep_min: float
    t_sleep_max: float
    pulse_separation: float
    stable_skew: float = field(default=float("nan"))

    def __post_init__(self) -> None:
        if self.t_link_min <= 0:
            raise ValueError(f"T^-_link must be positive, got {self.t_link_min}")
        if self.t_link_max < self.t_link_min:
            raise ValueError("T^+_link must be at least T^-_link")
        if self.t_sleep_min <= 0:
            raise ValueError(f"T^-_sleep must be positive, got {self.t_sleep_min}")
        if self.t_sleep_max < self.t_sleep_min:
            raise ValueError("T^+_sleep must be at least T^-_sleep")
        if self.pulse_separation <= 0:
            raise ValueError(f"pulse separation S must be positive, got {self.pulse_separation}")

    def as_row(self) -> dict:
        """The timeout values as a Table 3-style row dictionary."""
        return {
            "sigma": self.stable_skew,
            "T_link_min": self.t_link_min,
            "T_link_max": self.t_link_max,
            "T_sleep_min": self.t_sleep_min,
            "T_sleep_max": self.t_sleep_max,
            "S": self.pulse_separation,
        }


def condition2_timeouts(
    timing: TimingConfig,
    stable_skew: float,
    layers: int,
    num_faults: int = 0,
    signal_duration: float = 0.0,
    theta: Optional[float] = None,
) -> TimeoutConfig:
    """Compute the Condition 2 timeouts from a stable-skew bound.

    Parameters
    ----------
    timing:
        The timed-model parameters (provides ``d+``, ``epsilon`` and the
        default drift factor ``theta``).
    stable_skew:
        The assumed stable skew ``sigma(f)`` between any two correct
        neighbouring nodes once the system has stabilized.
    layers:
        The grid length ``L`` (enters the pulse-separation term
        ``epsilon * L``).
    num_faults:
        The number ``f`` of Byzantine faults the parameters should tolerate
        (enters the pulse-separation term ``f * d+``).
    signal_duration:
        Optional additive slack on ``T^-_link`` accounting for non-zero
        trigger-signal duration (footnote 10); the paper's Table 3 uses about
        :data:`PAPER_SIGNAL_DURATION_NS`.
    theta:
        Override for the drift factor; defaults to ``timing.theta``.

    Returns
    -------
    TimeoutConfig
        The timeouts ``T^-_link, T^+_link, T^-_sleep, T^+_sleep`` and the
        pulse-separation time ``S`` per Condition 2.
    """
    if stable_skew <= 0:
        raise ValueError(f"stable skew must be positive, got {stable_skew}")
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    if num_faults < 0:
        raise ValueError(f"num_faults must be non-negative, got {num_faults}")
    if signal_duration < 0:
        raise ValueError(f"signal_duration must be non-negative, got {signal_duration}")
    drift = timing.theta if theta is None else theta
    if drift < 1.0:
        raise ValueError(f"theta must be >= 1, got {drift}")

    t_link_min = stable_skew + timing.epsilon + signal_duration
    t_link_max = drift * t_link_min
    t_sleep_min = 2.0 * t_link_max + 2.0 * timing.d_max
    t_sleep_max = drift * t_sleep_min
    separation = (
        t_sleep_min + t_sleep_max + timing.epsilon * layers + num_faults * timing.d_max
    )
    return TimeoutConfig(
        t_link_min=t_link_min,
        t_link_max=t_link_max,
        t_sleep_min=t_sleep_min,
        t_sleep_max=t_sleep_max,
        pulse_separation=separation,
        stable_skew=stable_skew,
    )
