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
