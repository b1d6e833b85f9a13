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

A data point is one campaign cell (:func:`stabilization_cell`, the only
builder of such cells): :func:`run_stabilization_point` runs one, and
Figs. 18/19 run all of theirs as one campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, SweepSpec
from repro.clocksource.scenarios import Scenario, parse_scenario
from repro.core.parameters import TimeoutConfig
from repro.engines.des import scenario_stabilization_timeouts
from repro.experiments.config import ExperimentConfig
from repro.faults.models import FaultType

__all__ = [
    "StabilizationPoint",
    "stabilization_cell",
    "stabilization_point",
    "stabilization_point_spec",
    "run_stabilization_point",
]


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


def stabilization_cell(
    config: ExperimentConfig,
    scenario: Union[Scenario, str],
    num_faults: int,
    fault_type: FaultType = FaultType.BYZANTINE,
    skew_choice: int = 0,
    runs: Optional[int] = None,
    num_pulses: Optional[int] = None,
    seed_salt: int = 0,
    timeouts: Optional[TimeoutConfig] = None,
) -> SweepSpec:
    """The campaign cell of one stabilization data point.

    Without an explicit ``timeouts`` override the cell carries the
    conservative Lemma 5 Condition 2 timeouts
    (:func:`~repro.engines.des.scenario_stabilization_timeouts`), so its task
    keys name the timeouts the runs use.
    """
    scenario_value = parse_scenario(scenario)
    if fault_type not in (FaultType.BYZANTINE, FaultType.FAIL_SILENT):
        raise ValueError("stabilization experiments use Byzantine or fail-silent faults")
    if timeouts is None:
        timeouts = scenario_stabilization_timeouts(
            scenario_value, config.width, config.layers, num_faults, config.timing
        )
    return SweepSpec(
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
    """The one-cell campaign spec of one stabilization data point
    (:func:`stabilization_cell`)."""
    cell = stabilization_cell(
        config,
        scenario,
        num_faults,
        fault_type=fault_type,
        skew_choice=skew_choice,
        runs=runs,
        num_pulses=num_pulses,
        seed_salt=seed_salt,
        timeouts=timeouts,
    )
    return CampaignSpec(
        name=f"stabilization-{cell.scenario[0]}",
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
    spec = stabilization_point_spec(
        config,
        scenario,
        num_faults,
        fault_type=fault_type,
        skew_choice=skew_choice,
        runs=runs,
        num_pulses=num_pulses,
        seed_salt=seed_salt,
        timeouts=timeouts,
    )
    campaign = CampaignRunner(spec, workers=workers).run()
    return stabilization_point(spec.cells[0], campaign.point_stabilization_times(0, 0))


def stabilization_point(cell: SweepSpec, times: np.ndarray) -> StabilizationPoint:
    """The :class:`StabilizationPoint` of a :func:`stabilization_cell` and
    its per-run stabilization estimates."""
    return StabilizationPoint(
        scenario=parse_scenario(cell.scenario[0]),
        num_faults=cell.num_faults[0],
        fault_type=FaultType(cell.fault_type[0]),
        skew_choice=cell.skew_choice,
        stabilization_times=times,
        num_pulses=cell.num_pulses,
    )
