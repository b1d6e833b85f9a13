"""The four layer-0 initial-skew scenarios of the evaluation (Table 1).

Every experiment of Section 4 drives layer 0 with one of four choices for the
firing times ``t_{0,i}`` of the clock sources:

========  =====================  ==========================================
Scenario  Paper label            Firing times
========  =====================  ==========================================
(i)       ``0``                  all zero (``sigma_0 = 0``, ``Delta_0 = 0``)
(ii)      ``random in [0, d-]``  i.i.d. uniform in ``[0, d-]``
(iii)     ``random in [0, d+]``  i.i.d. uniform in ``[0, d+]``
(iv)      ``ramp d+``            ``t_{0,i+1} = t_{0,i} + d+`` for
                                 ``0 <= i < W/2`` and ``t_{0,i+1} = t_{0,i} -
                                 d+`` for ``W/2 <= i < W - 1``
========  =====================  ==========================================

Scenario (iii) models the *average-case* and (iv) the *worst-case* input of a
layer-0 clock generation scheme whose neighbour skew bound is ``d+``.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

import numpy as np

from repro.core.parameters import TimingConfig

__all__ = [
    "Scenario",
    "SCENARIOS",
    "parse_scenario",
    "scenario_layer0_times",
    "scenario_layer0_spread",
    "scenario_skew_potential",
    "scenario_label",
]


class Scenario(enum.Enum):
    """The layer-0 initial-skew scenarios (i)-(iv) of the paper."""

    ZERO = "zero"
    UNIFORM_DMIN = "uniform_dmin"
    UNIFORM_DMAX = "uniform_dmax"
    RAMP = "ramp"

    @property
    def roman(self) -> str:
        """The paper's roman-numeral label ("(i)" ... "(iv)")."""
        return {
            Scenario.ZERO: "(i)",
            Scenario.UNIFORM_DMIN: "(ii)",
            Scenario.UNIFORM_DMAX: "(iii)",
            Scenario.RAMP: "(iv)",
        }[self]

    @property
    def description(self) -> str:
        """The paper's textual description of the layer-0 skews."""
        return {
            Scenario.ZERO: "0",
            Scenario.UNIFORM_DMIN: "random in [0, d-]",
            Scenario.UNIFORM_DMAX: "random in [0, d+]",
            Scenario.RAMP: "ramp d+",
        }[self]


#: All scenarios in the paper's order (i) to (iv).
SCENARIOS = (
    Scenario.ZERO,
    Scenario.UNIFORM_DMIN,
    Scenario.UNIFORM_DMAX,
    Scenario.RAMP,
)

_ALIASES = {
    "zero": Scenario.ZERO,
    "i": Scenario.ZERO,
    "(i)": Scenario.ZERO,
    "uniform_dmin": Scenario.UNIFORM_DMIN,
    "ii": Scenario.UNIFORM_DMIN,
    "(ii)": Scenario.UNIFORM_DMIN,
    "uniform_dmax": Scenario.UNIFORM_DMAX,
    "iii": Scenario.UNIFORM_DMAX,
    "(iii)": Scenario.UNIFORM_DMAX,
    "ramp": Scenario.RAMP,
    "iv": Scenario.RAMP,
    "(iv)": Scenario.RAMP,
}


def parse_scenario(scenario: Union[Scenario, str]) -> Scenario:
    """Coerce a :class:`Scenario` or one of its string aliases to the enum.

    Accepted aliases include the machine names (``"zero"``, ``"ramp"``, ...)
    and the paper's roman numerals with or without parentheses (``"iii"``,
    ``"(iv)"``, ...).
    """
    if isinstance(scenario, Scenario):
        return scenario
    key = scenario.strip().lower()
    if key in _ALIASES:
        return _ALIASES[key]
    raise ValueError(
        f"unknown scenario {scenario!r}; expected one of "
        f"{sorted(set(alias for alias in _ALIASES))}"
    )


# Backwards-compatible internal alias.
_coerce = parse_scenario


def scenario_label(scenario: Union[Scenario, str]) -> str:
    """Human-readable label, e.g. ``"(iv) ramp d+"``."""
    value = _coerce(scenario)
    return f"{value.roman} {value.description}"


def scenario_layer0_times(
    scenario: Union[Scenario, str],
    width: int,
    timing: TimingConfig,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Draw the layer-0 firing times for one pulse under a given scenario.

    Parameters
    ----------
    scenario:
        A :class:`Scenario` or one of its string aliases (``"zero"``, ``"i"``,
        ``"(iii)"``, ``"ramp"``, ...).
    width:
        The grid width ``W``.
    timing:
        The delay bounds (provide ``d-`` and ``d+``).
    rng, seed:
        Randomness for the stochastic scenarios (ii) and (iii).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(W,)`` of firing times, with minimum 0 for the
        deterministic scenarios.
    """
    value = _coerce(scenario)
    if width < 3:
        raise ValueError(f"width must be at least 3, got {width}")
    if value in (Scenario.UNIFORM_DMIN, Scenario.UNIFORM_DMAX):
        generator = rng if rng is not None else np.random.default_rng(seed)
        upper = timing.d_min if value is Scenario.UNIFORM_DMIN else timing.d_max
        return generator.uniform(0.0, upper, size=width).astype(float)
    if value is Scenario.ZERO:
        return np.zeros(width, dtype=float)
    # Scenario (iv): ramp up by d+ per column until W/2, then down by d+.
    times = np.zeros(width, dtype=float)
    half = width // 2
    for column in range(1, width):
        step = timing.d_max if column <= half else -timing.d_max
        times[column] = times[column - 1] + step
    times -= times.min()
    return times


def scenario_layer0_spread(scenario: Scenario, width: int, timing: TimingConfig) -> float:
    """Maximum layer-0 spread of a scenario (the C = 0 bound's ``t_max - t_min``)."""
    return {
        Scenario.ZERO: 0.0,
        Scenario.UNIFORM_DMIN: timing.d_min,
        Scenario.UNIFORM_DMAX: timing.d_max,
        Scenario.RAMP: (width // 2) * timing.d_max,
    }[scenario]


def scenario_skew_potential(
    scenario: Union[Scenario, str],
    width: int,
    timing: TimingConfig,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> float:
    """The layer-0 skew potential ``Delta_0`` of a scenario (Definition 3).

    For the deterministic scenarios this is exact; for the stochastic ones the
    potential of one concrete draw is returned.  The paper quotes
    ``Delta_0 = 0`` for (i)/(ii), ``Delta_0 ~ eps`` for (iii) and
    ``Delta_0 ~ W eps / 2`` for (iv).
    """
    from repro.core.bounds import skew_potential

    times = scenario_layer0_times(scenario, width, timing, rng=rng, seed=seed)
    return skew_potential(times, timing.d_min)
