"""Table 3: stable skews and timeout values used in the stabilization experiments.

The paper derives the timeouts for the stabilization experiments from the
scenario-dependent maximum skews observed with up to five faults, plus a slack
of ``d+``, plugged into (a slightly modified version of) Condition 2 with
``theta = 1.05``.  This module reproduces the table twice:

* with the paper's stable-skew inputs (column ``sigma`` of Table 3) -- the
  timeout columns then follow from Condition 2 exactly (up to the small
  trigger-signal-duration slack of footnote 10, exposed as
  ``signal_duration``);
* with stable skews measured by *this* reproduction (the observed maxima of a
  Table 2-style run set with ``f = 5`` faults plus ``d+``), showing how the
  whole parameter chain is regenerated end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.campaign.runner import CampaignRunner
from repro.clocksource.scenarios import SCENARIOS, Scenario, scenario_label
from repro.core.parameters import PAPER_SIGNAL_DURATION_NS, TimeoutConfig, condition2_timeouts
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_table
from repro.experiments.single_pulse import scenario_set_spec

__all__ = ["PAPER_TABLE3", "Table3Result", "run", "NUM_FAULTS_FOR_TABLE3"]

#: Number of faults the Table 3 parameters are provisioned for (f in [6] means
#: up to five faulty nodes).
NUM_FAULTS_FOR_TABLE3 = 5

#: The values reported in Table 3 of the paper (ns).
PAPER_TABLE3: Dict[Scenario, Dict[str, float]] = {
    Scenario.ZERO: {
        "sigma": 28.48, "T_link_min": 31.98, "T_link_max": 33.58,
        "T_sleep_min": 83.56, "T_sleep_max": 87.74, "S": 264.08,
    },
    Scenario.UNIFORM_DMIN: {
        "sigma": 31.16, "T_link_min": 34.66, "T_link_max": 36.39,
        "T_sleep_min": 89.18, "T_sleep_max": 93.64, "S": 275.60,
    },
    Scenario.UNIFORM_DMAX: {
        "sigma": 31.75, "T_link_min": 35.25, "T_link_max": 37.01,
        "T_sleep_min": 90.42, "T_sleep_max": 94.94, "S": 278.14,
    },
    Scenario.RAMP: {
        "sigma": 40.64, "T_link_min": 44.14, "T_link_max": 46.34,
        "T_sleep_min": 109.08, "T_sleep_max": 114.53, "S": 316.40,
    },
}

_COLUMNS = ("sigma", "T_link_min", "T_link_max", "T_sleep_min", "T_sleep_max", "S")


@dataclass
class Table3Result:
    """Measured Table 3 rows.

    Attributes
    ----------
    from_paper_sigma:
        Timeouts obtained by feeding the paper's ``sigma`` column through
        Condition 2 (validates the parameter formulas).
    from_measured_sigma:
        Timeouts obtained from this reproduction's own observed maximum skews
        (validates the end-to-end parameter derivation).
    measured_sigma:
        The observed maximum skews (plus ``d+`` slack) per scenario.
    """

    config: ExperimentConfig
    from_paper_sigma: Dict[Scenario, TimeoutConfig]
    from_measured_sigma: Dict[Scenario, TimeoutConfig]
    measured_sigma: Dict[Scenario, float]

    def rows(self, which: str = "paper_sigma") -> List[List[object]]:
        """Rows of one of the two derivations (``"paper_sigma"`` / ``"measured_sigma"``)."""
        source = self.from_paper_sigma if which == "paper_sigma" else self.from_measured_sigma
        rows: List[List[object]] = []
        for scenario in SCENARIOS:
            row = source[scenario].as_row()
            rows.append([scenario_label(scenario)] + [row[column] for column in _COLUMNS])
        return rows

    def paper_rows(self) -> List[List[object]]:
        """The paper's rows in the same format."""
        return [
            [scenario_label(scenario)] + [PAPER_TABLE3[scenario][column] for column in _COLUMNS]
            for scenario in SCENARIOS
        ]

    def render(self) -> str:
        """Text rendering of both derivations next to the paper's values."""
        headers = ["scenario"] + list(_COLUMNS)
        parts = [
            format_table(
                headers,
                self.rows("paper_sigma"),
                title="Table 3 (Condition 2 applied to the paper's sigma)",
            ),
            format_table(
                headers,
                self.rows("measured_sigma"),
                title="Table 3 (Condition 2 applied to this reproduction's measured sigma)",
            ),
            format_table(headers, self.paper_rows(), title="Table 3 (paper)"),
        ]
        return "\n\n".join(parts)


def run(
    config: Optional[ExperimentConfig] = None,
    runs: Optional[int] = None,
    signal_duration: float = PAPER_SIGNAL_DURATION_NS,
    workers: int = 1,
) -> Table3Result:
    """Regenerate Table 3.

    Parameters
    ----------
    signal_duration:
        The footnote-10 slack added to ``T^-_link``; defaults to the value
        reverse-engineered from the paper's table so the ``paper_sigma``
        derivation matches it exactly.  Pass 0 for the plain Condition 2
        values.
    """
    config = config if config is not None else ExperimentConfig()
    timing = config.timing
    # One cell sweeps the scenarios in paper order: point i draws salt 300 + i.
    spec = scenario_set_spec(
        config, SCENARIOS, num_faults=NUM_FAULTS_FOR_TABLE3, runs=runs, seed_salt=300, name="table3"
    )
    campaign = CampaignRunner(spec, workers=workers).run()

    from_paper_sigma: Dict[Scenario, TimeoutConfig] = {}
    from_measured_sigma: Dict[Scenario, TimeoutConfig] = {}
    measured_sigma: Dict[Scenario, float] = {}
    for index, scenario in enumerate(SCENARIOS):
        paper_sigma = PAPER_TABLE3[scenario]["sigma"]
        from_paper_sigma[scenario] = condition2_timeouts(
            timing,
            stable_skew=paper_sigma,
            layers=config.layers,
            num_faults=NUM_FAULTS_FOR_TABLE3,
            signal_duration=signal_duration,
        )

        stats = campaign.point_statistics(0, index)
        observed_max = max(stats.intra_max, stats.inter_max)
        sigma = observed_max + timing.d_max
        measured_sigma[scenario] = sigma
        from_measured_sigma[scenario] = condition2_timeouts(
            timing,
            stable_skew=sigma,
            layers=config.layers,
            num_faults=NUM_FAULTS_FOR_TABLE3,
            signal_duration=signal_duration,
        )

    return Table3Result(
        config=config,
        from_paper_sigma=from_paper_sigma,
        from_measured_sigma=from_measured_sigma,
        measured_sigma=measured_sigma,
    )
