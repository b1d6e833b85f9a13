"""Fig. 19: stabilization times under scenario (iv).

Same sweep as Fig. 18 but with the ramped layer-0 scenario.  The qualitative
picture is identical (stabilization within one or two pulses unless the skew
bound is chosen aggressively small); absolute skews are larger, so the
timeouts derived from Condition 2 are larger as well (Table 3, last row).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.clocksource.scenarios import Scenario
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig18 import (
    DEFAULT_CHOICES,
    DEFAULT_FAULT_COUNTS,
    StabilizationSweep,
    _sweep,
)
from repro.faults.models import FaultType

__all__ = ["run", "SCENARIO"]

#: Which scenario this figure uses.
SCENARIO = Scenario.RAMP


def run(
    config: Optional[ExperimentConfig] = None,
    runs: Optional[int] = None,
    num_pulses: Optional[int] = None,
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    choices: Sequence[int] = DEFAULT_CHOICES,
    fault_types: Sequence[FaultType] = (FaultType.BYZANTINE, FaultType.FAIL_SILENT),
    seed_salt: int = 1900,
    workers: int = 1,
) -> StabilizationSweep:
    """Regenerate the Fig. 19 sweep (scenario (iv))."""
    config = config if config is not None else ExperimentConfig.quick()
    return _sweep(
        config, SCENARIO, fault_counts, choices, fault_types, runs, num_pulses, seed_salt, workers
    )
