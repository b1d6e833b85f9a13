"""Fig. 9: pulse-wave propagation with ramped layer-0 skews (scenario (iv)).

Same single-run setup as Fig. 8, but the layer-0 firing times ramp up and down
by ``d+`` per column.  The figure's point -- the grid smooths the large initial
skews out over roughly the first ``W - 2`` layers (Lemma 3) -- is captured by
comparing the intra-layer skews of the lowest layers against those above layer
``W - 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.skew import intra_layer_skews
from repro.clocksource.scenarios import Scenario
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig08 import WaveResult
from repro.experiments.report import format_kv
from repro.experiments.single_pulse import run_scenario_set

__all__ = ["Fig9Result", "run"]

#: Which scenario this figure uses.
SCENARIO = Scenario.RAMP


@dataclass
class Fig9Result(WaveResult):
    """The Fig. 9 wave with the smoothing-specific summary added."""

    def smoothing_summary(self) -> Dict[str, float]:
        """Maximum intra-layer skew below vs above the Lemma 3 horizon ``W - 2``."""
        width = self.config.width
        horizon = width - 2
        skews = intra_layer_skews(self.trigger_times)
        below = skews[1 : horizon + 1, :]
        above = skews[horizon + 1 :, :]
        return {
            "lemma3_horizon_layer": float(horizon),
            "max_skew_below_horizon": float(np.nanmax(below)) if below.size else float("nan"),
            "max_skew_above_horizon": float(np.nanmax(above)) if above.size else float("nan"),
            "initial_layer0_skew": float(
                np.nanmax(self.trigger_times[0, :]) - np.nanmin(self.trigger_times[0, :])
            ),
        }

    def render(self) -> str:
        """Text rendering of both summaries."""
        base = format_kv(self.summary(), title="Pulse wave, scenario (iv)")
        smoothing = format_kv(self.smoothing_summary(), title="Initial-skew smoothing (Lemma 3)")
        return f"{base}\n\n{smoothing}"


def run(
    config: Optional[ExperimentConfig] = None, seed_salt: int = 900, workers: int = 1
) -> Fig9Result:
    """Regenerate the Fig. 9 wave (one fault-free run, scenario (iv))."""
    config = config if config is not None else ExperimentConfig()
    (record,) = run_scenario_set(
        config, SCENARIO, num_faults=0, runs=1, seed_salt=seed_salt, workers=workers
    )
    return Fig9Result(config=config, scenario=SCENARIO, trigger_times=record.trigger_matrix())
