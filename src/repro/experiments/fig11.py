"""Fig. 11: cumulated skew histograms for scenario (iv).

Same pooling as Fig. 10 but for the ramped layer-0 scenario.  The shape to
reproduce: both histograms develop a visible cluster near the end of the tail
(intra-layer skews close to ``d+``, inter-layer skews close to ``2 d+``) caused
by the large initial skews in the lower layers.
"""

from __future__ import annotations

from typing import Optional

from repro.clocksource.scenarios import Scenario
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig10 import HistogramResult, _build

__all__ = ["run", "SCENARIO"]

#: Which scenario this figure uses.
SCENARIO = Scenario.RAMP


def run(
    config: Optional[ExperimentConfig] = None,
    runs: Optional[int] = None,
    seed_salt: int = 1100,
    workers: int = 1,
) -> HistogramResult:
    """Regenerate the Fig. 11 histograms (scenario (iv), fault-free)."""
    config = config if config is not None else ExperimentConfig()
    return _build(config, SCENARIO, runs, seed_salt, workers)
