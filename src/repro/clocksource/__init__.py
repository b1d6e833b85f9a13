"""Layer-0 clock-source substrate.

HEX assumes that the ``W`` nodes of layer 0 act as synchronized clock sources
generating well-separated pulses (Section 2); the paper points at DARTS and
FATAL+ as suitable implementations.  This subpackage provides

* :mod:`repro.clocksource.scenarios` -- the four initial-skew scenarios used in
  every evaluation table/figure: (i) zero skew, (ii) uniform in ``[0, d-]``,
  (iii) uniform in ``[0, d+]``, (iv) a ramp of ``+-d+`` per column;
* :mod:`repro.clocksource.generator` -- multi-pulse schedules with pulse
  separation ``S`` and per-pulse scenario offsets, used by the stabilization
  experiments.

Every run drives layer 0 from these scenarios; the layer-0 synchronizer
itself (FATAL+, DARTS) is outside the model.
"""

from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.clocksource.scenarios import (
    SCENARIOS,
    Scenario,
    scenario_label,
    scenario_layer0_times,
    scenario_skew_potential,
)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "scenario_layer0_times",
    "scenario_skew_potential",
    "scenario_label",
    "generate_pulse_schedule",
    "PulseScheduleConfig",
]
