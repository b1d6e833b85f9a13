"""Fig. 18: stabilization times under scenario (iii).

For every fault count ``f``, fault type (Byzantine / fail-silent) and
skew-bound choice ``C in {0..3}``, 250 multi-pulse runs are started from
random initial states and the estimated stabilization time (minimal pulse from
which on the per-layer skew bounds hold) is recorded.  The observations to
reproduce:

* with conservative bounds (small ``C``) HEX stabilizes after the very first
  pulse in essentially every run;
* with aggressively small bounds (large ``C``, i.e. ``sigma(f, l) = d+``) the
  average stabilization time rises moderately and a minority of runs (< 25 %
  even in the most unfavourable setting) does not stabilize within the 10
  observed pulses;
* all of this is far below the worst-case bound of ``L + 1`` pulses from
  Theorem 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.clocksource.scenarios import Scenario, scenario_label
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_table
from repro.experiments.stability import StabilizationPoint, stabilization_cell, stabilization_point
from repro.faults.models import FaultType

__all__ = ["StabilizationSweep", "run", "SCENARIO", "DEFAULT_FAULT_COUNTS", "DEFAULT_CHOICES"]

#: Which scenario this figure uses.
SCENARIO = Scenario.UNIFORM_DMAX

#: Fault counts evaluated by default (the paper sweeps 0..5; the scaled-down
#: default keeps the end points and one intermediate value).
DEFAULT_FAULT_COUNTS: Tuple[int, ...] = (0, 2, 5)

#: Skew-bound choices evaluated by default (the paper sweeps 0..3).
DEFAULT_CHOICES: Tuple[int, ...] = (0, 3)


@dataclass
class StabilizationSweep:
    """Stabilization statistics per (f, C, fault type) cell.

    Shared by the Fig. 18 and Fig. 19 experiments.
    """

    config: ExperimentConfig
    scenario: Scenario
    points: Dict[Tuple[int, int, FaultType], StabilizationPoint]

    def point(self, num_faults: int, choice: int, fault_type: FaultType) -> StabilizationPoint:
        """One data point of the sweep."""
        return self.points[(num_faults, choice, fault_type)]

    def rows(self, fault_type: FaultType) -> List[List[object]]:
        """Rows (f, C, avg, avg+std, stabilized runs, runs) for one fault type."""
        rows: List[List[object]] = []
        for (num_faults, choice, kind), point in sorted(
            self.points.items(), key=lambda item: (item[0][0], item[0][1], item[0][2].value)
        ):
            if kind is not fault_type:
                continue
            row = point.as_row()
            rows.append(
                [
                    num_faults,
                    choice,
                    row["avg"],
                    row["avg_plus_std"],
                    int(row["stabilized_runs"]),
                    int(row["runs"]),
                ]
            )
        return rows

    def render(self) -> str:
        """Text rendering of both fault types."""
        headers = ["f", "C", "avg", "avg+std", "stabilized", "runs"]
        parts = []
        for fault_type in (FaultType.BYZANTINE, FaultType.FAIL_SILENT):
            rows = self.rows(fault_type)
            if not rows:
                continue
            parts.append(
                format_table(
                    headers,
                    rows,
                    title=(
                        f"Stabilization, scenario {scenario_label(self.scenario)}, "
                        f"{fault_type.value} faults"
                    ),
                )
            )
        return "\n\n".join(parts)


def _sweep(
    config: ExperimentConfig,
    scenario: Scenario,
    fault_counts: Sequence[int],
    choices: Sequence[int],
    fault_types: Sequence[FaultType],
    runs: Optional[int],
    num_pulses: Optional[int],
    seed_salt: int,
    workers: int,
) -> StabilizationSweep:
    """One campaign with one cell per (fault type, f, C); cell ``k`` draws
    seed salt ``seed_salt + 1 + k``."""
    matrix = list(itertools.product(fault_types, fault_counts, choices))
    cells = tuple(
        stabilization_cell(
            config,
            scenario,
            num_faults=num_faults,
            fault_type=fault_type,
            skew_choice=choice,
            runs=runs,
            num_pulses=num_pulses,
            seed_salt=seed_salt + 1 + index,
        )
        for index, (fault_type, num_faults, choice) in enumerate(matrix)
    )
    spec = CampaignSpec(
        name=f"stabilization-{scenario.value}", seed=config.seed, timing=config.timing, cells=cells
    )
    campaign = CampaignRunner(spec, workers=workers).run()
    points = {
        (num_faults, choice, fault_type): stabilization_point(
            cells[index], campaign.point_stabilization_times(index, 0)
        )
        for index, (fault_type, num_faults, choice) in enumerate(matrix)
    }
    return StabilizationSweep(config=config, scenario=scenario, points=points)


def run(
    config: Optional[ExperimentConfig] = None,
    runs: Optional[int] = None,
    num_pulses: Optional[int] = None,
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    choices: Sequence[int] = DEFAULT_CHOICES,
    fault_types: Sequence[FaultType] = (FaultType.BYZANTINE, FaultType.FAIL_SILENT),
    seed_salt: int = 1800,
    workers: int = 1,
) -> StabilizationSweep:
    """Regenerate the Fig. 18 sweep (scenario (iii)).

    The default grid/run counts are scaled down because every data point is a
    full discrete-event simulation of ``num_pulses`` pulses; pass
    ``ExperimentConfig.paper()`` and the full ``fault_counts=(0,...,5)``,
    ``choices=(0,...,3)`` for the paper-scale suite.  Results are identical
    for any ``workers`` count.
    """
    config = config if config is not None else ExperimentConfig.quick()
    return _sweep(
        config, SCENARIO, fault_counts, choices, fault_types, runs, num_pulses, seed_salt, workers
    )
