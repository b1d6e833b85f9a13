"""Post-processing and statistics substrate (the paper's Haskell framework).

* :mod:`repro.analysis.skew` -- intra-/inter-layer skew matrices, the
  ``sigma^op`` / ``sigma-hat^op`` aggregations of Section 4.1 and per-layer
  statistics (Fig. 12).
* :mod:`repro.analysis.traces` -- trigger-time matrices and pulse-wave series
  (Figs. 8, 9, 13, 14).
* :mod:`repro.analysis.histograms` -- cumulative skew histograms (Figs. 10, 11).
* :mod:`repro.analysis.locality` -- h-hop exclusion zones around faults
  (Figs. 15, 16) and fault-locality metrics.
* :mod:`repro.analysis.stabilization` -- pulse assignment and stabilization-time
  estimation for multi-pulse runs (Figs. 18, 19).
* :mod:`repro.analysis.streaming` -- post-hoc mirrors of the streaming soak
  telemetry, for streaming-vs-exact equivalence tests.
"""

from repro.analysis.histograms import cumulative_histogram, skew_histograms
from repro.analysis.locality import exclusion_mask, inclusion_mask, skew_vs_distance
from repro.analysis.skew import (
    SkewStatistics,
    aggregate,
    inter_layer_skews,
    intra_layer_skews,
    per_layer_inter_stats,
)
from repro.analysis.stabilization import PulseAssignment, assign_pulses, stabilization_time
from repro.analysis.streaming import pulse_skew_series
from repro.analysis.traces import (
    event_trace_times,
    load_event_trace,
    load_trace,
    save_trace,
    wave_rows,
)

__all__ = [
    "SkewStatistics",
    "intra_layer_skews",
    "inter_layer_skews",
    "aggregate",
    "per_layer_inter_stats",
    "cumulative_histogram",
    "skew_histograms",
    "exclusion_mask",
    "inclusion_mask",
    "skew_vs_distance",
    "PulseAssignment",
    "assign_pulses",
    "stabilization_time",
    "pulse_skew_series",
    "wave_rows",
    "save_trace",
    "load_trace",
    "load_event_trace",
    "event_trace_times",
]
