"""Table 1: intra- and inter-layer skews in the fault-free case.

250 simulation runs on a 50x20 grid per scenario, no faults; the row of each
scenario reports the pooled average, 95 %-quantile and maximum intra-layer skew
and the minimum, 5 %-quantile, average, 95 %-quantile and maximum inter-layer
skew (all in ns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.skew import SkewStatistics
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.clocksource.scenarios import SCENARIOS, Scenario, scenario_label
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_table
from repro.experiments.single_pulse import scenario_set_spec

__all__ = ["PAPER_TABLE1", "Table1Result", "campaign_spec", "run"]

#: The values reported in Table 1 of the paper (ns).
PAPER_TABLE1: Dict[Scenario, Dict[str, float]] = {
    Scenario.ZERO: {
        "intra_avg": 0.395, "intra_q95": 1.000, "intra_max": 3.098,
        "inter_min": 7.164, "inter_q5": 7.356, "inter_avg": 7.937,
        "inter_q95": 8.626, "inter_max": 11.030,
    },
    Scenario.UNIFORM_DMIN: {
        "intra_avg": 0.462, "intra_q95": 1.226, "intra_max": 6.888,
        "inter_min": 7.164, "inter_q5": 7.350, "inter_avg": 7.988,
        "inter_q95": 8.795, "inter_max": 15.199,
    },
    Scenario.UNIFORM_DMAX: {
        "intra_avg": 0.473, "intra_q95": 1.260, "intra_max": 7.786,
        "inter_min": 7.164, "inter_q5": 7.349, "inter_avg": 7.997,
        "inter_q95": 8.814, "inter_max": 16.219,
    },
    Scenario.RAMP: {
        "intra_avg": 1.860, "intra_q95": 7.639, "intra_max": 8.191,
        "inter_min": 0.357, "inter_q5": 7.262, "inter_avg": 8.642,
        "inter_q95": 14.834, "inter_max": 16.390,
    },
}

_COLUMNS = (
    "intra_avg", "intra_q95", "intra_max",
    "inter_min", "inter_q5", "inter_avg", "inter_q95", "inter_max",
)


@dataclass
class Table1Result:
    """Measured Table 1 rows (one :class:`SkewStatistics` per scenario)."""

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
            [scenario_label(scenario)] + [PAPER_TABLE1[scenario][column] for column in _COLUMNS]
            for scenario in SCENARIOS
        ]

    def render(self) -> str:
        """Text rendering: measured rows followed by the paper's rows."""
        headers = ["scenario"] + list(_COLUMNS)
        measured = format_table(headers, self.rows(), title="Table 1 (measured)")
        paper = format_table(headers, self.paper_rows(), title="Table 1 (paper)")
        return f"{measured}\n\n{paper}"


def campaign_spec(
    config: ExperimentConfig, runs: Optional[int] = None
) -> CampaignSpec:
    """The Table 1 campaign: one cell sweeping the four scenarios, no faults.

    The scenario axis enumerates in paper order, so point ``i`` inherits seed
    salt ``100 + i`` -- the exact streams of the historical per-scenario loop.
    """
    return scenario_set_spec(config, SCENARIOS, runs=runs, seed_salt=100, name="table1")


def run(
    config: Optional[ExperimentConfig] = None,
    runs: Optional[int] = None,
    workers: int = 1,
) -> Table1Result:
    """Regenerate Table 1.

    Parameters
    ----------
    config:
        Experiment configuration; defaults to the paper's grid with the scaled
        default run count.
    runs:
        Override of the run count (use 250 for the paper-scale suite).
    workers:
        Worker processes for the campaign runner (results are identical for
        any worker count).
    """
    config = config if config is not None else ExperimentConfig()
    campaign = CampaignRunner(campaign_spec(config, runs), workers=workers).run()
    statistics: Dict[Scenario, SkewStatistics] = {
        scenario: campaign.point_statistics(0, index) for index, scenario in enumerate(SCENARIOS)
    }
    return Table1Result(config=config, statistics=statistics)
