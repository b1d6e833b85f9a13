"""The discrete-event testbed as an execution engine.

Replaces the paper's ModelSim/VHDL testbench: full node state machines over a
time-ordered event queue, supporting both the single-pulse workload (for
cross-validation against the analytic solver) and the multi-pulse
stabilization workload of Section 4.4.

Draw order (the reproducibility contract, identical to the historical
per-run campaign bodies):

* single-pulse -- layer-0 firing times, fault placement/behaviour, then link
  delays and timer draws inside the simulation;
* multi-pulse -- fault placement/behaviour, the pulse schedule, then the
  simulation's own draws (initial states, timers, per-message delays).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.adversary.runtime import ScheduledAdversary
from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.clocksource.scenarios import Scenario, scenario_layer0_spread, scenario_layer0_times
from repro.core.bounds import lemma5_pulse_skew_bound
from repro.core.parameters import TimeoutConfig, TimerPolicy, TimingConfig, condition2_timeouts
from repro.core.topology import HexGrid, NodeId
from repro.engines.base import (
    EngineCapabilities,
    RunResult,
    RunSpec,
    batch_key,
    generic_run_batch,
    require_support,
    shared_grid,
    validate_layer0,
)
from repro.faults.models import FaultModel
from repro.faults.placement import build_fault_model
from repro.simulation.links import DelayModel, FreshUniformDelays, UniformRandomDelays
from repro.simulation.network import HexNetwork

__all__ = [
    "DesEngine",
    "single_pulse_default_timeouts",
    "scenario_stabilization_timeouts",
]


def single_pulse_default_timeouts(
    grid: HexGrid,
    timing: TimingConfig,
    num_faults: int = 0,
    layer0_spread: float = 0.0,
) -> TimeoutConfig:
    """Conservative Condition 2 timeouts from the Lemma 5 stable-skew bound.

    This is the "C = 0" parameter choice of the stabilization experiments: the
    stable skew is bounded by Lemma 5 as ``t_max - t_min + epsilon L + f d+``,
    where ``layer0_spread`` plays the role of ``t_max - t_min``.  Topologies
    with laterally-triggered nodes (patch rim, degraded holes) charge their
    :meth:`~repro.core.topology.HexGrid.condition2_extra_hops` margin on top
    -- zero on the cylinder, so its timeouts are unchanged.
    """
    stable_skew = lemma5_pulse_skew_bound(
        timing, grid.layers, num_faults, layer0_spread=layer0_spread
    )
    stable_skew += grid.condition2_extra_hops() * timing.d_max
    return condition2_timeouts(
        timing, stable_skew=stable_skew, layers=grid.layers, num_faults=num_faults
    )


def scenario_stabilization_timeouts(
    scenario: Scenario,
    width: int,
    layers: int,
    num_faults: int,
    timing: TimingConfig,
    extra_hops: int = 0,
) -> TimeoutConfig:
    """Condition 2 timeouts from the conservative Lemma 5 stable-skew bound.

    The stable skew is the same sum as
    :func:`repro.core.bounds.lemma5_pulse_skew_bound` with the
    :func:`~repro.clocksource.scenarios.scenario_layer0_spread` of
    ``scenario``, with ``extra_hops`` more ``d+`` terms.  ``extra_hops`` is
    the topology's lateral-trigger margin (see
    :meth:`~repro.core.topology.HexGrid.condition2_extra_hops`); the default
    of 0 keeps every cylinder caller byte-identical.
    """
    spread = scenario_layer0_spread(scenario, width, timing)
    stable_skew = (
        spread + timing.epsilon * layers + (num_faults + extra_hops) * timing.d_max
    )
    return condition2_timeouts(
        timing, stable_skew=stable_skew, layers=layers, num_faults=num_faults
    )


def _simulate(
    network: HexNetwork,
    schedule: np.ndarray,
    num_faults: int,
    *,
    observer: Optional[object],
    adversary: Optional[ScheduledAdversary],
    initial_states: str = "clean",
    run_slack: float = 0.0,
) -> HexNetwork:
    """Drive a fresh network through one run and flush its counters into obs.

    Order (part of the draw-order contract): initial stuck-at-1 assertions,
    the adversary's actions, the initial states, the layer-0 pulses, then the
    run.  ``observer`` replaces the default :func:`repro.obs.des_observer`;
    the network's counters are recorded whenever metrics are on, but a
    caller's own observer (e.g. the soak monitor) is not flushed into obs.
    """
    custom_observer = observer is not None
    network.observer = observer if custom_observer else obs.des_observer()
    network.initialize()
    if adversary is not None:
        adversary.install(network)
    if initial_states == "random":
        network.apply_random_initial_states(network.rng)
    elif initial_states == "adversarial":
        network.apply_adversarial_initial_states()
    network.schedule_source_pulses(schedule)
    # Byzantine stuck-at-1 links re-assert themselves forever, so the run
    # must be bounded; by Lemma 5 every correct node that fires at all does
    # so within (L + f) d+ of the last layer-0 firing -- plus the topology's
    # lateral-trigger margin (0 on the cylinder).  Schedule-driven runs also
    # cover late adversary actions plus one full propagation afterwards.
    grid = network.grid
    propagation_hops = grid.layers + grid.condition2_extra_hops() + num_faults + 2
    hops = propagation_hops * network.timing.d_max
    sleep = network.timeouts.t_sleep_max
    horizon = float(np.nanmax(schedule)) + hops + sleep + run_slack
    if adversary is not None:
        horizon = max(horizon, adversary.last_time + hops + sleep + run_slack)
    network.run(until=horizon)
    obs.record_des_observer(
        None if custom_observer else network.observer,
        events_scheduled=network.queue.num_scheduled,
        events_processed=network.queue.num_processed,
        stale_high_assertions=network.stale_high_assertions,
        dropped_arrivals=network.dropped_arrivals,
    )
    return network


class DesEngine:
    """The ModelSim-style discrete-event execution semantics."""

    name = "des"
    capabilities = EngineCapabilities(
        kinds=("single_pulse", "multi_pulse"),
        supports_faults=True,
        supports_fault_schedules=True,
        supported_topologies=("*",),
        exactness="tolerance",
        tolerance=1.0,
        description="discrete-event simulation of the full node state machines",
    )

    @staticmethod
    def _materialize_schedule(
        spec: RunSpec,
        grid: HexGrid,
        fault_model: Optional[FaultModel],
        rng: np.random.Generator,
    ) -> Optional[ScheduledAdversary]:
        """Resolve the spec's fault schedule (if any) into concrete actions.

        Draw-order contract: materialization happens immediately *after* the
        static fault model's draws and consumes the generator only when a
        schedule is present, so schedule-free specs keep the historical
        stream bit for bit.
        """
        if spec.fault_schedule is None:
            return None
        exclude = fault_model.faulty_nodes() if fault_model is not None else ()
        return spec.fault_schedule.materialize(grid, rng, exclude=exclude)

    def run(self, spec: RunSpec, rng: Optional[np.random.Generator] = None) -> RunResult:
        """Execute a declarative run (scenario-driven draws)."""
        with obs.span("engine.run", engine=self.name, kind=spec.kind):
            obs.inc("engine.des.runs")
            return self._run(spec, rng)

    def _run(self, spec: RunSpec, rng: Optional[np.random.Generator] = None) -> RunResult:
        require_support(self, spec)
        generator = rng if rng is not None else spec.rng()
        grid = shared_grid(*batch_key(spec))
        timing = spec.make_timing()
        timer_policy = TimerPolicy(spec.timer_policy)

        if spec.kind == "single_pulse":
            layer0 = scenario_layer0_times(spec.scenario, grid.width, timing, rng=generator)
            fault_model = build_fault_model(
                grid,
                spec.num_faults,
                spec.make_fault_type(),
                generator,
                fixed_positions=spec.fixed_fault_positions,
            )
            adversary = self._materialize_schedule(spec, grid, fault_model, generator)
            result = self.single_pulse(
                grid,
                timing,
                layer0,
                rng=generator,
                fault_model=fault_model,
                delays=spec.make_delays(timing, generator, kind_default="uniform"),
                timeouts=spec.make_timeouts(),
                timer_policy=timer_policy,
                adversary=adversary,
            )
            result.spec = spec
            return result

        scenario = Scenario(spec.scenario)
        fault_model = build_fault_model(
            grid,
            spec.num_faults,
            spec.make_fault_type(),
            generator,
            fixed_positions=spec.fixed_fault_positions,
        )
        adversary = self._materialize_schedule(spec, grid, fault_model, generator)
        timeouts = spec.make_timeouts()
        if timeouts is None:
            timeouts = scenario_stabilization_timeouts(
                scenario,
                grid.width,
                grid.layers,
                spec.num_faults,
                timing,
                extra_hops=grid.condition2_extra_hops(),
            )
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(
                scenario=scenario,
                num_pulses=spec.num_pulses,
                separation=timeouts.pulse_separation,
            ),
            grid.width,
            timing,
            rng=generator,
        )
        result = self.multi_pulse(
            grid,
            timing,
            timeouts,
            schedule,
            rng=generator,
            fault_model=fault_model,
            delays=spec.make_delays(timing, generator, kind_default="fresh"),
            timer_policy=timer_policy,
            run_slack=spec.run_slack,
            adversary=adversary,
            initial_states=spec.effective_initial_states(),
        )
        result.spec = spec
        return result

    def run_batch(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Per-spec loop: the event queue offers no cross-run setup to share.

        (The network, its timers and the delay draws are all per-run state;
        only grid construction could be amortized, which is negligible next
        to a full discrete-event simulation.)
        """
        with obs.span("engine.run_batch", engine=self.name, size=len(specs)):
            return generic_run_batch(self, specs)

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
        adversary: Optional[ScheduledAdversary] = None,
        observer: Optional[object] = None,
    ) -> RunResult:
        """Propagate one pulse wave through the full state machines.

        ``observer`` replaces the default :func:`repro.obs.des_observer` hook
        with a caller-supplied network observer (``on_firing`` /
        ``on_adversary``, optionally ``on_event``); the caller then owns
        whatever the observer accumulated -- only the network's counters are
        recorded into ``repro.obs``.
        """
        layer0 = validate_layer0(grid, layer0_times)
        if delays is None:
            delays = UniformRandomDelays(timing, rng)
        num_faults = fault_model.num_faulty_nodes if fault_model is not None else 0
        if timeouts is None:
            spread = float(np.nanmax(layer0) - np.nanmin(layer0)) if layer0.size else 0.0
            timeouts = single_pulse_default_timeouts(
                grid, timing, num_faults=num_faults, layer0_spread=spread
            )
        network = _simulate(
            HexNetwork(grid, timing, timeouts, delays, fault_model, rng, timer_policy),
            layer0[np.newaxis, :],
            num_faults,
            observer=observer,
            adversary=adversary,
        )
        trigger_times = network.first_firing_matrix()
        final_model = self._final_fault_model(network, fault_model, adversary)
        correct_mask = (
            final_model.correctness_mask()
            if final_model is not None
            else np.ones(grid.shape, dtype=bool)
        )
        correct_mask &= grid.presence_mask()
        result = RunResult(
            engine=self.name,
            kind="single_pulse",
            grid=grid,
            timing=timing,
            trigger_times=trigger_times,
            correct_mask=correct_mask,
            layer0_times=layer0.copy(),
            solution=None,
            fault_model=final_model,
            timeouts=timeouts,
        )
        if adversary is not None:
            result.metrics["adversary_actions"] = float(adversary.num_actions)
            result.metrics["adversary_last_time"] = float(adversary.last_time)
        return result

    @staticmethod
    def _final_fault_model(
        network: HexNetwork,
        fault_model: Optional[FaultModel],
        adversary: Optional[ScheduledAdversary],
    ) -> Optional[FaultModel]:
        """The fault model describing the *end-of-run* state.

        Static runs report the caller's model unchanged; schedule-driven runs
        report the network's live (mutated) model, normalised to ``None``
        when every fault has healed -- matching the fault-free convention the
        analysis layer expects.
        """
        if adversary is None:
            return fault_model
        final = network.faults
        if final.num_faulty_nodes == 0 and not final.faulty_links():
            return None
        return final

    def multi_pulse(
        self,
        grid: HexGrid,
        timing: TimingConfig,
        timeouts: TimeoutConfig,
        source_schedule: Union[np.ndarray, Sequence[Sequence[float]]],
        *,
        rng: np.random.Generator,
        fault_model: Optional[FaultModel] = None,
        delays: Optional[DelayModel] = None,
        timer_policy: TimerPolicy = TimerPolicy.UNIFORM,
        run_slack: float = 0.0,
        adversary: Optional[ScheduledAdversary] = None,
        initial_states: str = "random",
        observer: Optional[object] = None,
        collect_firings: bool = True,
    ) -> RunResult:
        """Run the simulator over a whole schedule of layer-0 pulses.

        ``initial_states`` is one of :data:`~repro.engines.base.INITIAL_STATES`
        (``"clean"`` / ``"random"`` / ``"adversarial"``); ``adversary``
        installs a materialized fault schedule whose timed actions mutate the
        fault model mid-run.

        ``observer`` replaces the default :func:`repro.obs.des_observer` hook
        with a caller-supplied network observer (``on_firing`` /
        ``on_adversary``, optionally ``on_event``) that sees every firing as
        it happens; ``collect_firings=False`` additionally skips building the
        per-node ``firing_times`` dict on the result, so long soak epochs
        whose observer already consumed the stream keep memory bounded.
        """
        schedule = np.atleast_2d(np.asarray(source_schedule, dtype=float))
        if schedule.shape[1] != grid.width:
            raise ValueError(
                f"source_schedule must have {grid.width} columns -- one per layer-0 "
                f"clock source of this width-{grid.width} grid -- got shape "
                f"{schedule.shape}; repro.clocksource.generator.generate_pulse_schedule "
                "produces valid schedules"
            )
        if delays is None:
            delays = FreshUniformDelays(timing, rng)

        network = _simulate(
            HexNetwork(grid, timing, timeouts, delays, fault_model, rng, timer_policy),
            schedule,
            fault_model.num_faulty_nodes if fault_model is not None else 0,
            observer=observer,
            adversary=adversary,
            initial_states=initial_states,
            run_slack=run_slack,
        )

        final_model = self._final_fault_model(network, fault_model, adversary)
        firing_times: Dict[NodeId, List[float]] = {}
        if collect_firings:
            firing_times = network.all_firing_times(
                exclude=set(final_model.faulty_nodes()) if final_model is not None else ()
            )

        result = RunResult(
            engine=self.name,
            kind="multi_pulse",
            grid=grid,
            timing=timing,
            timeouts=timeouts,
            source_schedule=schedule,
            firing_times=firing_times,
            fault_model=final_model,
        )
        if adversary is not None:
            result.metrics["adversary_actions"] = float(adversary.num_actions)
            result.metrics["adversary_last_time"] = float(adversary.last_time)
        return result
