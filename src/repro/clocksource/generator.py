"""Multi-pulse layer-0 schedules with pulse separation ``S``.

The self-stabilization experiments (Section 4.4) need the layer-0 sources to
generate a whole sequence of pulses such that consecutive pulses are separated
by at least the pulse-separation time ``S`` of Condition 2:
``t^(k+1)_min >= t^(k)_max + S``.  :func:`generate_pulse_schedule` produces such
schedules, drawing the per-pulse initial skews from one of the Table 1
scenarios (independently per pulse by default, as the paper's testbench does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.clocksource.scenarios import Scenario, scenario_layer0_times
from repro.core.parameters import TimingConfig

__all__ = ["PulseScheduleConfig", "generate_pulse_schedule"]


@dataclass(frozen=True)
class PulseScheduleConfig:
    """Configuration of a multi-pulse layer-0 schedule.

    Attributes
    ----------
    scenario:
        The initial-skew scenario applied to each pulse.
    num_pulses:
        Number of pulses to generate.
    separation:
        The pulse-separation time ``S``: the gap enforced between the latest
        firing of pulse ``k`` and the earliest firing of pulse ``k + 1``.
    extra_separation:
        Additional slack added on top of ``S`` (the paper uses "nominal values
        compatible with the maximum observed skews", i.e. some headroom).
    redraw_offsets:
        Whether the per-column skew offsets are re-drawn for every pulse
        (default) or drawn once and reused for all pulses.
    """

    scenario: Union[Scenario, str]
    num_pulses: int
    separation: float
    extra_separation: float = 0.0
    redraw_offsets: bool = True

    def __post_init__(self) -> None:
        if self.num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {self.num_pulses}")
        if self.separation <= 0:
            raise ValueError(f"separation must be positive, got {self.separation}")
        if self.extra_separation < 0:
            raise ValueError(
                f"extra_separation must be non-negative, got {self.extra_separation}"
            )


def generate_pulse_schedule(
    config: PulseScheduleConfig,
    width: int,
    timing: TimingConfig,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Generate the layer-0 firing times of a sequence of pulses.

    Parameters
    ----------
    config:
        The schedule configuration.
    width:
        Grid width ``W`` (number of layer-0 sources).
    timing:
        Delay bounds (needed by the skew scenarios).
    rng, seed:
        Randomness for the stochastic scenarios.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(num_pulses, W)``; row ``k`` holds the firing times of
        pulse ``k``.  Consecutive rows satisfy
        ``min(row[k + 1]) >= max(row[k]) + separation + extra_separation``.
    """
    generator = rng if rng is not None else np.random.default_rng(seed)
    schedule = np.zeros((config.num_pulses, width), dtype=float)
    offsets = scenario_layer0_times(config.scenario, width, timing, rng=generator)
    base = 0.0
    for pulse in range(config.num_pulses):
        if config.redraw_offsets and pulse > 0:
            offsets = scenario_layer0_times(config.scenario, width, timing, rng=generator)
        schedule[pulse, :] = base + offsets
        base = float(schedule[pulse, :].max()) + config.separation + config.extra_separation
    return schedule
