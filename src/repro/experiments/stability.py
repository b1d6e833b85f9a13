"""Shared machinery for the stabilization experiments (Table 3, Figs. 18-19).

Each data point of Figs. 18/19 is defined by a scenario, a number of faults
``f``, a fault type (Byzantine or fail-silent) and a skew-bound choice
``C in {0..3}``.  For every run:

1. the faults are placed uniformly at random under Condition 1;
2. the algorithm timeouts are taken from Condition 2 with a stable-skew value
   that is compatible with the observed skews (the paper derives it from the
   single-pulse experiments plus a ``d+`` slack; we use the conservative
   Lemma 5 bound, which is always sufficient and keeps the harness
   self-contained);
3. the layer-0 sources generate ``num_pulses`` pulses separated by ``S``;
4. every correct node starts in a random internal state;
5. the run's stabilization time is estimated from the recorded firings against
   the per-layer bound ``sigma(f, l)`` selected by ``C``.

The summary per data point is the average stabilization time, its standard
deviation and the number of runs that stabilized within the observed pulses --
exactly the three series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.campaign.records import stabilization_times
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, SweepSpec
from repro.clocksource.scenarios import Scenario, parse_scenario, scenario_layer0_spread
from repro.core.bounds import lemma5_pulse_skew_bound
from repro.core.parameters import TimeoutConfig, condition2_timeouts
from repro.experiments.config import ExperimentConfig
from repro.faults.models import FaultType

__all__ = [
    "StabilizationPoint",
    "stabilization_point_spec",
    "run_stabilization_point",
    "scenario_timeouts",
]


def scenario_timeouts(
    config: ExperimentConfig,
    scenario: Union[Scenario, str],
    num_faults: int,
    stable_skew: Optional[float] = None,
    signal_duration: float = 0.0,
) -> TimeoutConfig:
    """Condition 2 timeouts for a stabilization experiment.

    The stable-skew value defaults to the conservative Lemma 5 bound with the
    scenario's maximum layer-0 spread (``0``, ``d-``, ``d+`` or ``W/2 * d+``
    for scenarios (i)-(iv)); pass an explicit ``stable_skew`` (e.g. the
    observed maximum skew plus ``d+``, as the paper does) to reproduce the
    Table 3 values instead.
    """
    scenario_value = parse_scenario(scenario)
    timing = config.timing
    if stable_skew is None:
        stable_skew = lemma5_pulse_skew_bound(
            timing,
            config.layers,
            num_faults,
            layer0_spread=scenario_layer0_spread(scenario_value, config.width, timing),
        )
    return condition2_timeouts(
        timing,
        stable_skew=stable_skew,
        layers=config.layers,
        num_faults=num_faults,
        signal_duration=signal_duration,
    )


@dataclass
class StabilizationPoint:
    """The outcome of one (scenario, f, fault type, C) data point.

    Attributes
    ----------
    scenario, num_faults, fault_type, skew_choice:
        The data-point coordinates.
    stabilization_times:
        Per-run estimates (1-based pulse numbers); ``nan`` for runs that did
        not stabilize within the observed pulses.
    num_pulses:
        Number of pulses observed per run.
    """

    scenario: Scenario
    num_faults: int
    fault_type: FaultType
    skew_choice: int
    stabilization_times: np.ndarray
    num_pulses: int

    @property
    def num_runs(self) -> int:
        """Number of runs at this data point."""
        return int(self.stabilization_times.size)

    @property
    def num_stabilized(self) -> int:
        """Runs that stabilized within the observed pulses."""
        return int(np.sum(np.isfinite(self.stabilization_times)))

    @property
    def average(self) -> float:
        """Average stabilization time over the stabilized runs."""
        finite = self.stabilization_times[np.isfinite(self.stabilization_times)]
        return float(finite.mean()) if finite.size else float("nan")

    @property
    def std(self) -> float:
        """Standard deviation of the stabilization time over the stabilized runs."""
        finite = self.stabilization_times[np.isfinite(self.stabilization_times)]
        return float(finite.std()) if finite.size else float("nan")

    def as_row(self) -> Dict[str, float]:
        """Summary row (the three series plotted in Figs. 18/19)."""
        return {
            "f": float(self.num_faults),
            "C": float(self.skew_choice),
            "avg": self.average,
            "avg_plus_std": self.average + self.std if np.isfinite(self.average) else float("nan"),
            "stabilized_runs": float(self.num_stabilized),
            "runs": float(self.num_runs),
        }


def stabilization_point_spec(
    config: ExperimentConfig,
    scenario: Union[Scenario, str],
    num_faults: int,
    fault_type: FaultType = FaultType.BYZANTINE,
    skew_choice: int = 0,
    runs: Optional[int] = None,
    num_pulses: Optional[int] = None,
    seed_salt: int = 0,
    timeouts: Optional[TimeoutConfig] = None,
) -> CampaignSpec:
    """The one-cell campaign spec equivalent of one stabilization data point.

    Without an explicit ``timeouts`` override the campaign executor derives
    the conservative Lemma 5 values per task -- the same formula as
    :func:`scenario_timeouts` -- which keeps the spec self-contained.
    """
    scenario_value = parse_scenario(scenario)
    cell = SweepSpec(
        layers=config.layers,
        width=config.width,
        scenario=scenario_value.value,
        num_faults=num_faults,
        fault_type=fault_type.value,
        runs=runs if runs is not None else config.runs,
        seed_salt=seed_salt,
        kind="multi_pulse",
        num_pulses=num_pulses if num_pulses is not None else config.num_pulses,
        skew_choice=skew_choice,
        timeouts=timeouts,
    )
    return CampaignSpec(
        name=f"stabilization-{scenario_value.value}",
        seed=config.seed,
        timing=config.timing,
        cells=(cell,),
    )


def run_stabilization_point(
    config: ExperimentConfig,
    scenario: Union[Scenario, str],
    num_faults: int,
    fault_type: FaultType = FaultType.BYZANTINE,
    skew_choice: int = 0,
    runs: Optional[int] = None,
    num_pulses: Optional[int] = None,
    seed_salt: int = 0,
    timeouts: Optional[TimeoutConfig] = None,
    workers: int = 1,
) -> StabilizationPoint:
    """Run all simulations of one stabilization data point.

    Parameters mirror the paper's experiment matrix; see the module docstring.
    Execution runs on the campaign subsystem (fault placement, pulse schedule
    and simulation draws consume each run's child stream in the historical
    order), so results are identical for any ``workers`` count.
    """
    scenario_value = parse_scenario(scenario)
    if skew_choice not in (0, 1, 2, 3):
        raise ValueError(f"skew_choice must be in 0..3, got {skew_choice}")
    if fault_type not in (FaultType.BYZANTINE, FaultType.FAIL_SILENT):
        raise ValueError("stabilization experiments use Byzantine or fail-silent faults")

    pulses = num_pulses if num_pulses is not None else config.num_pulses
    if timeouts is None:
        timeouts = scenario_timeouts(config, scenario_value, num_faults)
    spec = stabilization_point_spec(
        config,
        scenario_value,
        num_faults,
        fault_type=fault_type,
        skew_choice=skew_choice,
        runs=runs,
        num_pulses=pulses,
        seed_salt=seed_salt,
        timeouts=timeouts,
    )
    campaign = CampaignRunner(spec, workers=workers).run()
    return StabilizationPoint(
        scenario=scenario_value,
        num_faults=num_faults,
        fault_type=fault_type,
        skew_choice=skew_choice,
        stabilization_times=stabilization_times(campaign.records),
        num_pulses=pulses,
    )
