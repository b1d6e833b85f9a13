"""Dynamic adversaries: fault schedules, delay adversaries, recovery workloads.

This package is the layer between :mod:`repro.faults` (static fault models)
and :mod:`repro.engines` (execution backends).  It makes the *time axis* of
fault injection first class, which is what the paper's self-stabilization
claims are actually about:

* :mod:`repro.adversary.schedule` -- declarative, JSON-round-trippable
  :class:`FaultSchedule` objects: timed ``inject`` / ``heal`` / ``crash`` /
  ``flip_behavior`` events plus generators for bursts, spatially-correlated
  clusters, intermittent links and mobile Byzantine faults;
* :mod:`repro.adversary.runtime` -- the materialized
  :class:`ScheduledAdversary`: concrete, randomness-free timed actions the
  discrete-event network executes through its mutation hooks;
* :mod:`repro.adversary.delays` -- delay adversaries choosing per-message
  delays inside ``[d-, d+]`` (zig-zag-seeking :class:`MaxSkewDelays`,
  per-link :class:`BiasedLinkDelays`), available as ``RunSpec`` delay-model
  choices.

Schedules ride inside :class:`repro.engines.base.RunSpec`
(``fault_schedule=...``) and sweep as campaign axes; the DES engine executes
them natively while the solver and clock-tree backends reject them early with
a capability error (see ``EngineCapabilities.supports_fault_schedules``).
"""

from repro.adversary.schedule import FaultSchedule

__all__ = ["FaultSchedule"]
