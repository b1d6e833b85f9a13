"""Fault-injection substrate: Byzantine / fail-silent / crash faults and placement.

* :mod:`repro.faults.models` -- the fault taxonomy used by the paper's
  testbench (Section 4.1, item 4): per-link constant-0 / constant-1 behaviour,
  fail-silent nodes, crash faults, and broken individual links.
* :mod:`repro.faults.placement` -- Condition 1 (fault separation), forbidden
  regions, random placement under Condition 1 and the probability bound the
  paper derives for it.
"""
