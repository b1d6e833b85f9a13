"""Unified execution engines: one protocol, one run description, one registry.

The paper evaluates HEX under two interchangeable execution semantics -- the
analytic single-pulse solver and the ModelSim-style discrete-event testbed --
and compares the result against an H-tree clock-tree baseline.  This package
makes that choice a first-class object instead of a stringly-typed keyword:

* :class:`~repro.engines.base.Engine` -- the backend protocol
  (``name``, ``capabilities``, ``run(spec, rng) -> RunResult``);
* :class:`~repro.engines.base.RunSpec` -- a frozen, JSON-round-trippable
  description of one run (grid, timing, scenario, faults, delay model,
  timeouts, timer policy, pulse schedule, seed-derivation coordinates);
* :class:`~repro.engines.base.RunResult` -- the unified result, subsuming the
  single-pulse and multi-pulse fields the analysis layer consumes;
* :func:`~repro.engines.registry.register_engine` /
  :func:`~repro.engines.registry.get_engine` /
  :func:`~repro.engines.registry.available_engines` -- the registry every
  dispatch site (simulation shims, campaign executor, CLI) goes through.

Built-in engines: ``solver`` (:class:`~repro.engines.solver.SolverEngine`),
``des`` (:class:`~repro.engines.des.DesEngine`), ``clocktree``
(:class:`~repro.engines.clocktree.ClockTreeEngine`) and ``array``
(:class:`~repro.engines.array.ArrayEngine`, the dense numpy-frontier fast
path for very large fault-free grids).  The registry lists them by name and
imports each engine's module on its first :func:`get_engine` call.
Capabilities say what an engine can run; how closely two engines agree is
stated by the agreement tests in ``tests/test_engines.py``.

>>> from repro.engines import RunSpec, get_engine
>>> spec = RunSpec(kind="single_pulse", layers=10, width=8, scenario="iii",
...                entropy=2013, run_index=0)
>>> result = get_engine("solver").run(spec)
>>> result.all_correct_triggered()
True
>>> get_engine("array").capabilities.kinds
('single_pulse',)
"""

from repro.engines.base import Engine, EngineCapabilities, RunResult, RunSpec, generic_run_batch
from repro.engines.registry import available_engines, get_engine, register_engine, unregister_engine

__all__ = [
    "Engine",
    "EngineCapabilities",
    "RunSpec",
    "RunResult",
    "generic_run_batch",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "available_engines",
]
