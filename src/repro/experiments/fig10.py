"""Fig. 10: cumulated skew histograms for scenario (i).

Histograms of the intra- and inter-layer skews pooled over all nodes and runs
of the fault-free scenario (i) suite.  The qualitative observations to
reproduce: a sharp concentration (the bulk of the intra-layer skews well below
``epsilon``), an exponential-looking tail, and -- unlike scenario (iv) -- no
secondary cluster near the end of the tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.histograms import Histogram, skew_histograms, tail_fraction
from repro.analysis.skew import collect_inter_values, collect_intra_values
from repro.clocksource.scenarios import Scenario
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_kv
from repro.experiments.single_pulse import run_scenario_set

__all__ = ["HistogramResult", "run", "SCENARIO"]

#: Which scenario this figure uses.
SCENARIO = Scenario.ZERO


@dataclass
class HistogramResult:
    """Histograms plus the tail metrics used for shape comparison.

    Shared by the Fig. 10 and Fig. 11 experiments.
    """

    config: ExperimentConfig
    scenario: Scenario
    intra: Histogram
    inter: Histogram
    intra_values: np.ndarray
    inter_values: np.ndarray

    def summary(self) -> Dict[str, float]:
        """Concentration / tail metrics of both histograms."""
        d_max = self.config.timing.d_max
        epsilon = self.config.timing.epsilon
        return {
            "intra_samples": float(self.intra_values.size),
            "intra_median": float(np.median(self.intra_values)),
            "intra_frac_above_eps": tail_fraction(self.intra_values, epsilon),
            "intra_frac_above_dmax": tail_fraction(self.intra_values, d_max),
            "inter_median": float(np.median(self.inter_values)),
            "inter_frac_above_dmax_plus_eps": tail_fraction(self.inter_values, d_max + epsilon),
            "inter_frac_above_2dmax": tail_fraction(self.inter_values, 2 * d_max),
        }

    def render(self) -> str:
        """Text rendering of the summary."""
        return format_kv(
            self.summary(), title=f"Skew histograms, scenario {self.scenario.roman}"
        )


def _build(
    config: ExperimentConfig,
    scenario: Scenario,
    runs: Optional[int],
    seed_salt: int,
    workers: int,
) -> HistogramResult:
    records = run_scenario_set(
        config, scenario, num_faults=0, runs=runs, seed_salt=seed_salt, workers=workers
    )
    times = [record.trigger_matrix() for record in records]
    histograms = skew_histograms(times)
    intra_values = collect_intra_values(times)
    inter_values = collect_inter_values(times)
    return HistogramResult(
        config=config,
        scenario=scenario,
        intra=histograms["intra"],
        inter=histograms["inter"],
        intra_values=intra_values,
        inter_values=inter_values,
    )


def run(
    config: Optional[ExperimentConfig] = None,
    runs: Optional[int] = None,
    seed_salt: int = 1000,
    workers: int = 1,
) -> HistogramResult:
    """Regenerate the Fig. 10 histograms (scenario (i), fault-free)."""
    config = config if config is not None else ExperimentConfig()
    return _build(config, SCENARIO, runs, seed_salt, workers)
