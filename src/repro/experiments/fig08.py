"""Fig. 8: pulse-wave propagation with zero layer-0 skew (scenario (i)).

A single fault-free run on the 50x20 grid with all layer-0 sources firing at
time 0.  The regenerated data is the full trigger-time surface ``t_{l,i}``; the
properties the figure illustrates -- the wave propagates evenly, every layer is
triggered within a narrow band, the skew does not build up with the layer --
are summarised numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.skew import intra_layer_skews
from repro.analysis.traces import wave_rows
from repro.clocksource.scenarios import Scenario
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_kv
from repro.experiments.single_pulse import run_scenario_set

__all__ = ["WaveResult", "run"]

#: Which scenario this figure uses.
SCENARIO = Scenario.ZERO


@dataclass
class WaveResult:
    """A single pulse wave plus its summary statistics.

    Shared by the Fig. 8 and Fig. 9 experiments (they differ only in the
    layer-0 scenario).
    """

    config: ExperimentConfig
    scenario: Scenario
    trigger_times: np.ndarray

    def rows(self, truncate_layers: int = 30) -> List[Dict[str, float]]:
        """The plottable (layer, column, time) rows of the wave surface."""
        return wave_rows(self.trigger_times, truncate_layers=truncate_layers)

    def summary(self) -> Dict[str, float]:
        """Per-wave summary: propagation span and skew behaviour along the wave."""
        times = self.trigger_times
        skews = intra_layer_skews(times)
        layer0_spread = float(np.nanmax(times[0, :]) - np.nanmin(times[0, :]))
        top = times.shape[0] - 1
        top_spread = float(np.nanmax(times[top, :]) - np.nanmin(times[top, :]))
        return {
            "layer0_spread": layer0_spread,
            "top_layer_spread": top_spread,
            "max_intra_layer_skew": float(np.nanmax(skews[1:, :])),
            "avg_intra_layer_skew": float(np.nanmean(skews[1:, :])),
            "total_propagation_time": float(np.nanmax(times) - np.nanmin(times)),
            "per_layer_time": float((np.nanmax(times) - np.nanmin(times[0, :])) / top),
        }

    def render(self) -> str:
        """Text rendering of the summary."""
        return format_kv(self.summary(), title=f"Pulse wave, scenario {self.scenario.roman}")


def run(
    config: Optional[ExperimentConfig] = None, seed_salt: int = 800, workers: int = 1
) -> WaveResult:
    """Regenerate the Fig. 8 wave (one fault-free run, scenario (i))."""
    config = config if config is not None else ExperimentConfig()
    (record,) = run_scenario_set(
        config, SCENARIO, num_faults=0, runs=1, seed_salt=seed_salt, workers=workers
    )
    return WaveResult(config=config, scenario=SCENARIO, trigger_times=record.trigger_matrix())
