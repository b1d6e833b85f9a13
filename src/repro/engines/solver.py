"""The analytic single-pulse solver as an execution engine.

Every path -- :meth:`SolverEngine.run`, :meth:`SolverEngine.run_batch` and
the explicit-input :meth:`SolverEngine.single_pulse` -- runs the one
plan-compiled sweep :func:`~repro.core.pulse_solver.solve_single_pulse`,
faulty or not.

Draw order (the reproducibility contract, identical to the historical
per-run single-pulse body): layer-0 firing times, then fault
placement and behaviour, then the per-link delays -- which
:class:`~repro.simulation.links.UniformRandomDelays` draws lazily, in the
solver's link traversal order, through its buffered draw stream.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.clocksource.scenarios import scenario_layer0_times
from repro.core.parameters import TimeoutConfig, TimingConfig
from repro.core.pulse_solver import solve_single_pulse
from repro.core.topology import HexGrid
from repro.engines.base import (
    EngineCapabilities,
    RunResult,
    RunSpec,
    batch_key,
    require_kind,
    require_schedule_support,
    require_topology_support,
    shared_grid,
    validate_layer0,
)
from repro.faults.models import FaultModel
from repro.faults.placement import build_fault_model
from repro.simulation.links import DelayModel, UniformRandomDelays
from repro.simulation.network import TimerPolicy

__all__ = ["SolverEngine"]


def _record_solver_work(solution) -> None:
    """Record one solution's deterministic work counters (no-op when off).

    ``solver.heap_pushes`` / ``solver.frontier_advances`` /
    ``solver.messages_delivered`` are pure functions of topology, delays and
    faults (see :attr:`~repro.core.pulse_solver.PulseSolution.work`), so they
    diagnose perf regressions independent of wall clock and are identical
    whether a sweep ran serially or across pool workers.
    """
    if not obs.metrics_enabled():
        return
    for name, value in solution.work.items():
        obs.inc(f"solver.{name}", value)


class SolverEngine:
    """The paper's single-pulse semantics: the analytic fixed-point solver.

    Fast and exact under constraints (C1)/(C2); the reference backend for the
    skew experiments (Tables 1-2, Figs. 8-16).
    """

    name = "solver"
    capabilities = EngineCapabilities(
        kinds=("single_pulse",),
        supports_faults=True,
        supports_explicit_inputs=True,
        supported_topologies=("*",),
        exactness="bit_identical",
        description="analytic single-pulse fixed-point solver (exact under (C1)/(C2))",
    )

    def run(self, spec: RunSpec, rng: Optional[np.random.Generator] = None) -> RunResult:
        """Execute a declarative single-pulse run (scenario-driven draws)."""
        with obs.span("engine.run", engine=self.name, kind=spec.kind):
            obs.inc("engine.solver.runs")
            return self._run(spec, rng if rng is not None else spec.rng())

    def run_batch(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute several single-pulse runs.

        Bit-identical to ``[run(spec) for spec in specs]`` (pinned by the
        test suite): both take the same path, one sweep per spec.  Runs on
        equal ``(topology, layers, width)`` share one grid -- and so its
        neighbour tables and compiled
        :class:`~repro.core.pulse_solver.SolverPlan` -- across calls.  Grid
        construction and plan compilation consume no randomness, so the
        sharing cannot perturb seeded draws.
        """
        with obs.span("engine.run_batch", engine=self.name, size=len(specs)):
            obs.inc("engine.solver.runs", len(specs))
            return [self._run(spec, spec.rng()) for spec in specs]

    def _run(self, spec: RunSpec, generator: np.random.Generator) -> RunResult:
        require_kind(self, spec)
        require_schedule_support(self, spec)
        require_topology_support(self, spec)
        grid = shared_grid(*batch_key(spec))
        timing = spec.make_timing()
        layer0 = scenario_layer0_times(spec.scenario, grid.width, timing, rng=generator)
        fault_model = build_fault_model(
            grid,
            spec.num_faults,
            spec.make_fault_type(),
            generator,
            fixed_positions=spec.fixed_fault_positions,
        )
        result = self.single_pulse(
            grid,
            timing,
            layer0,
            rng=generator,
            fault_model=fault_model,
            delays=spec.make_delays(timing, generator, kind_default="uniform"),
        )
        result.spec = spec
        return result

    def single_pulse(
        self,
        grid: HexGrid,
        timing: TimingConfig,
        layer0_times: Sequence[float],
        *,
        rng: np.random.Generator,
        fault_model: Optional[FaultModel] = None,
        delays: Optional[DelayModel] = None,
        timeouts: Optional[TimeoutConfig] = None,
        timer_policy: TimerPolicy = TimerPolicy.UNIFORM,
    ) -> RunResult:
        """Propagate one pulse wave with explicit inputs.

        ``timeouts`` and ``timer_policy`` are accepted for interface parity
        with the DES engine and ignored (the analytic solver has neither).
        """
        layer0 = validate_layer0(grid, layer0_times)
        if delays is None:
            delays = UniformRandomDelays(timing, rng)
        solution = solve_single_pulse(grid, layer0, delays, fault_model=fault_model)
        _record_solver_work(solution)
        return RunResult(
            engine=self.name,
            kind="single_pulse",
            grid=grid,
            timing=timing,
            trigger_times=solution.trigger_times,
            correct_mask=solution.correct_mask,
            layer0_times=solution.layer0_times,
            solution=solution,
            fault_model=fault_model,
        )
