"""Fig. 12: per-layer inter-layer skews for scenarios (iii) and (iv).

For each layer (truncated to the first 30) the figure plots the per-run
minimum, average and maximum inter-layer skew, averaged over 250 runs, with
standard deviations.  The behaviour to reproduce: in scenario (iv) the widely
discrepant skews of the lower layers smooth out after roughly layer ``W - 2``
(Lemma 3), while scenario (iii) is flat from the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.skew import per_layer_inter_stats
from repro.campaign.runner import CampaignRunner
from repro.clocksource.scenarios import Scenario, scenario_label
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_table
from repro.experiments.single_pulse import scenario_set_spec

__all__ = ["Fig12Result", "run", "SCENARIOS_USED", "MAX_LAYER"]

#: The two scenarios shown in the figure.
SCENARIOS_USED = (Scenario.UNIFORM_DMAX, Scenario.RAMP)

#: The figure truncates the layer axis to the first 30 layers.
MAX_LAYER = 30


@dataclass
class Fig12Result:
    """Per-layer inter-layer skew series for the two scenarios."""

    config: ExperimentConfig
    series: Dict[Scenario, Dict[str, np.ndarray]]

    def smoothing_layer(self, scenario: Scenario, tolerance: float = 0.5) -> int:
        """First layer from which the per-layer max skew stays within
        ``tolerance`` ns of its value at the top of the evaluated range.

        Used to check the Lemma 3 prediction that scenario (iv) smooths out
        after about ``W - 2`` layers.
        """
        data = self.series[scenario]
        max_series = data["max"]
        final = float(np.nanmean(max_series[-3:]))
        for index in range(len(max_series)):
            if np.all(np.abs(max_series[index:] - final) <= tolerance):
                return int(data["layer"][index])
        return int(data["layer"][-1])

    def rows(self, scenario: Scenario) -> List[List[object]]:
        """Per-layer rows (layer, min, avg, max, std) for one scenario."""
        data = self.series[scenario]
        return [
            [int(layer), data["min"][i], data["avg"][i], data["max"][i], data["std"][i]]
            for i, layer in enumerate(data["layer"])
        ]

    def render(self) -> str:
        """Text rendering of both scenarios."""
        parts = []
        for scenario in SCENARIOS_USED:
            parts.append(
                format_table(
                    ["layer", "min", "avg", "max", "std"],
                    self.rows(scenario),
                    title=f"Fig. 12, scenario {scenario_label(scenario)}",
                )
            )
        return "\n\n".join(parts)


def run(
    config: Optional[ExperimentConfig] = None,
    runs: Optional[int] = None,
    seed_salt: int = 1200,
    workers: int = 1,
) -> Fig12Result:
    """Regenerate the Fig. 12 per-layer series."""
    config = config if config is not None else ExperimentConfig()
    spec = scenario_set_spec(config, SCENARIOS_USED, runs=runs, seed_salt=seed_salt, name="fig12")
    campaign = CampaignRunner(spec, workers=workers).run()
    series: Dict[Scenario, Dict[str, np.ndarray]] = {
        scenario: per_layer_inter_stats(
            [record.trigger_matrix() for record in campaign.records_for(0, index)],
            max_layer=MAX_LAYER,
        )
        for index, scenario in enumerate(SCENARIOS_USED)
    }
    return Fig12Result(config=config, series=series)
