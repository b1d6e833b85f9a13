"""The analytic single-pulse solver as an execution engine.

Every path runs the one window sweep of :mod:`repro.core.pulse_solver`,
faulty or not.  :meth:`SolverEngine.run_batch` sweeps the specs of one grid
together, in lock step
(:func:`~repro.core.pulse_solver.solve_pulse_batch`);
:meth:`SolverEngine.run` and the explicit-input
:meth:`SolverEngine.single_pulse` are batches of one.  Each spec draws its
inputs from its own generator just before its grid's sweep runs, so a result
does not depend on the batch it ran in.  The sweep holds the state of all of
a grid's specs at once; the campaign runner passes at most
:data:`~repro.campaign.runner.BATCH_SIZE` specs per call.

Draw order (the reproducibility contract, identical to the historical
per-run single-pulse body): layer-0 firing times, then fault
placement and behaviour, then the per-link delays, in the solver's link
query order.  A fresh :class:`~repro.simulation.links.UniformRandomDelays`
has them read as one block of draws in that order, and fills its per-link
cache from the block lazily, on first read; the values are those of one
scalar draw per link.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.clocksource.scenarios import scenario_layer0_times
from repro.core.parameters import TimeoutConfig, TimerPolicy, TimingConfig
from repro.core.pulse_solver import PulseRun, PulseSolution, solve_pulse_batch, solve_single_pulse
from repro.core.topology import HexGrid
from repro.engines.base import (
    EngineCapabilities,
    RunResult,
    RunSpec,
    batch_key,
    require_support,
    shared_grid,
    validate_layer0,
)
from repro.faults.models import FaultModel
from repro.faults.placement import build_fault_model
from repro.simulation.links import DelayModel, UniformRandomDelays

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
        supported_topologies=("*",),
        exactness="bit_identical",
        description="analytic single-pulse fixed-point solver (exact under (C1)/(C2))",
    )

    def run(self, spec: RunSpec, rng: Optional[np.random.Generator] = None) -> RunResult:
        """Execute a declarative single-pulse run (scenario-driven draws)."""
        with obs.span("engine.run", engine=self.name, kind=spec.kind):
            obs.inc("engine.solver.runs")
            require_support(self, spec)
            generator = rng if rng is not None else spec.rng()
            return self._solve(shared_grid(*batch_key(spec)), [spec], [generator])[0]

    def run_batch(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute several single-pulse runs.

        Bit-identical to ``[run(spec) for spec in specs]`` (pinned by the
        test suite).  Specs with equal ``(topology, layers, width)`` share
        one grid, its compiled :class:`~repro.core.pulse_solver.SolverPlan`
        and one lock-step sweep of
        :func:`~repro.core.pulse_solver.solve_pulse_batch`.  Each spec draws
        from its own generator, and grids and plans consume no randomness,
        so the grouping cannot perturb seeded draws.
        """
        with obs.span("engine.run_batch", engine=self.name, size=len(specs)):
            obs.inc("engine.solver.runs", len(specs))
            groups: Dict[Tuple[str, int, int], List[int]] = {}
            for index, spec in enumerate(specs):
                require_support(self, spec)
                groups.setdefault(batch_key(spec), []).append(index)
            results: List[Optional[RunResult]] = [None] * len(specs)
            for key, indices in groups.items():
                group = [specs[index] for index in indices]
                solved = self._solve(shared_grid(*key), group, [spec.rng() for spec in group])
                for index, result in zip(indices, solved):
                    results[index] = result
            return results  # type: ignore[return-value]

    def _solve(
        self,
        grid: HexGrid,
        specs: Sequence[RunSpec],
        generators: Sequence[np.random.Generator],
    ) -> List[RunResult]:
        """Draw the inputs of ``specs`` on ``grid`` and sweep them together.

        The delay models exist only while this sweep runs.
        """
        timings, runs = [], []
        for spec, generator in zip(specs, generators):
            timing = spec.make_timing()
            layer0 = scenario_layer0_times(spec.scenario, grid.width, timing, rng=generator)
            fault_model = build_fault_model(
                grid,
                spec.num_faults,
                spec.make_fault_type(),
                generator,
                fixed_positions=spec.fixed_fault_positions,
            )
            delays = spec.make_delays(timing, generator, kind_default="uniform")
            timings.append(timing)
            runs.append(PulseRun(validate_layer0(grid, layer0), delays, fault_model))
        solutions = solve_pulse_batch(grid, runs)
        results = []
        for spec, timing, run, solution in zip(specs, timings, runs, solutions):
            result = self._result(grid, timing, solution, run.fault_model)
            result.spec = spec
            results.append(result)
        return results

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
        return self._result(grid, timing, solution, fault_model)

    def _result(
        self,
        grid: HexGrid,
        timing: TimingConfig,
        solution: PulseSolution,
        fault_model: Optional[FaultModel],
    ) -> RunResult:
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
