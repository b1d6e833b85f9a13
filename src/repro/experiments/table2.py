"""Table 2: intra- and inter-layer skews with a single Byzantine node.

Identical setup to Table 1 except that every run contains one Byzantine node
placed uniformly at random (under Condition 1), whose behaviour on each
outgoing link is independently constant-0 or constant-1.  The faulty node's own
firing times are excluded from the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.skew import SkewStatistics
from repro.campaign.runner import CampaignRunner
from repro.clocksource.scenarios import SCENARIOS, Scenario, scenario_label
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_table
from repro.experiments.single_pulse import scenario_set_spec

__all__ = ["PAPER_TABLE2", "Table2Result", "run"]

#: The values reported in Table 2 of the paper (ns), f = 1 Byzantine node.
PAPER_TABLE2: Dict[Scenario, Dict[str, float]] = {
    Scenario.ZERO: {
        "intra_avg": 0.539, "intra_q95": 1.335, "intra_max": 10.385,
        "inter_min": 5.575, "inter_q5": 7.352, "inter_avg": 8.007,
        "inter_q95": 8.760, "inter_max": 17.548,
    },
    Scenario.UNIFORM_DMIN: {
        "intra_avg": 0.607, "intra_q95": 1.717, "intra_max": 10.123,
        "inter_min": 4.205, "inter_q5": 7.343, "inter_avg": 8.058,
        "inter_q95": 9.003, "inter_max": 20.027,
    },
    Scenario.UNIFORM_DMAX: {
        "intra_avg": 0.618, "intra_q95": 1.787, "intra_max": 10.363,
        "inter_min": 3.515, "inter_q5": 7.343, "inter_avg": 8.067,
        "inter_q95": 9.033, "inter_max": 20.717,
    },
    Scenario.RAMP: {
        "intra_avg": 1.973, "intra_q95": 7.660, "intra_max": 34.590,
        "inter_min": -19.695, "inter_q5": 7.260, "inter_avg": 8.690,
        "inter_q95": 14.866, "inter_max": 24.305,
    },
}

_COLUMNS = (
    "intra_avg", "intra_q95", "intra_max",
    "inter_min", "inter_q5", "inter_avg", "inter_q95", "inter_max",
)


@dataclass
class Table2Result:
    """Measured Table 2 rows."""

    config: ExperimentConfig
    statistics: Dict[Scenario, SkewStatistics]

    def rows(self) -> List[List[object]]:
        """Measured rows in the paper's column order."""
        rows: List[List[object]] = []
        for scenario in SCENARIOS:
            stats = self.statistics[scenario].as_row()
            rows.append([scenario_label(scenario)] + [stats[column] for column in _COLUMNS])
        return rows

    def paper_rows(self) -> List[List[object]]:
        """The paper's rows in the same format."""
        return [
            [scenario_label(scenario)] + [PAPER_TABLE2[scenario][column] for column in _COLUMNS]
            for scenario in SCENARIOS
        ]

    def render(self) -> str:
        """Text rendering: measured rows followed by the paper's rows."""
        headers = ["scenario"] + list(_COLUMNS)
        measured = format_table(headers, self.rows(), title="Table 2 (measured, f = 1 Byzantine)")
        paper = format_table(headers, self.paper_rows(), title="Table 2 (paper)")
        return f"{measured}\n\n{paper}"


def run(
    config: Optional[ExperimentConfig] = None,
    runs: Optional[int] = None,
    workers: int = 1,
) -> Table2Result:
    """Regenerate Table 2 (one random Byzantine node per run); point ``i``
    of the scenario axis draws seed salt ``200 + i``."""
    config = config if config is not None else ExperimentConfig()
    spec = scenario_set_spec(
        config, SCENARIOS, num_faults=1, runs=runs, seed_salt=200, name="table2"
    )
    campaign = CampaignRunner(spec, workers=workers).run()
    statistics: Dict[Scenario, SkewStatistics] = {
        scenario: campaign.point_statistics(0, index) for index, scenario in enumerate(SCENARIOS)
    }
    return Table2Result(config=config, statistics=statistics)
