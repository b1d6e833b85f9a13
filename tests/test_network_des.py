"""Tests for the discrete-event simulator (network + engine entry points)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.adversary import FaultSchedule
from repro.adversary.runtime import HealNode, InjectFault, ScheduledAdversary
from repro.analysis.stabilization import assign_pulses
from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.core.parameters import TimerPolicy, condition2_timeouts
from repro.core.topology import Direction, HexGrid
from repro.engines import get_engine
from repro.engines.des import single_pulse_default_timeouts as default_timeouts
from repro.faults.models import FaultModel, LinkBehavior, NodeFault
from repro.simulation.links import ConstantDelays, UniformRandomDelays
from repro.simulation.network import HexNetwork


@pytest.fixture
def grid() -> HexGrid:
    return HexGrid(layers=8, width=6)


@pytest.fixture
def timeouts(grid, timing):
    return default_timeouts(grid, timing, num_faults=1, layer0_spread=timing.d_max)


class TestSinglePulseDES:
    def test_all_nodes_fire_exactly_once(self, grid, timing, timeouts, rng):
        network = HexNetwork(
            grid, timing, timeouts, ConstantDelays(timing.d_max), rng=rng
        )
        network.initialize()
        network.schedule_source_pulses(np.zeros((1, grid.width)))
        network.run(until=1000.0)
        for node in grid.forwarding_nodes():
            assert len(network.firing_times(node)) == 1

    def test_agrees_with_analytic_solver_exactly(self, grid, timing, rng):
        """With a shared per-link delay model the two engines coincide."""
        delays = UniformRandomDelays(timing, np.random.default_rng(5))
        delays.materialize(grid)
        layer0 = np.linspace(0.0, timing.d_max, grid.width)
        solver = get_engine("solver").single_pulse(
            grid, timing, layer0, rng=rng, delays=delays
        )
        des = get_engine("des").single_pulse(
            grid, timing, layer0, rng=np.random.default_rng(9), delays=delays
        )
        assert np.allclose(solver.trigger_times, des.trigger_times, atol=1e-9)

    def test_agrees_with_solver_under_byzantine_faults(self, grid, timing):
        delays = UniformRandomDelays(timing, np.random.default_rng(6))
        delays.materialize(grid)
        fault_rng = np.random.default_rng(3)
        model = FaultModel(grid, [NodeFault.byzantine(grid, (4, 2), rng=fault_rng)])
        layer0 = np.zeros(grid.width)
        solver = get_engine("solver").single_pulse(
            grid, timing, layer0, rng=np.random.default_rng(1), delays=delays,
            fault_model=model,
        )
        des = get_engine("des").single_pulse(
            grid, timing, layer0, rng=np.random.default_rng(2), delays=delays,
            fault_model=model,
        )
        mask = model.correctness_mask()
        assert np.allclose(solver.trigger_times[mask], des.trigger_times[mask], atol=1e-9)

    def test_sleeping_node_does_not_refire_within_a_pulse(self, grid, timing, timeouts, rng):
        network = HexNetwork(grid, timing, timeouts, ConstantDelays(timing.d_min), rng=rng)
        network.initialize()
        network.schedule_source_pulses(np.zeros((1, grid.width)))
        network.run(until=10_000.0)
        assert all(len(network.firing_times(node)) == 1 for node in grid.forwarding_nodes())

    def test_constant_one_link_reasserts_after_timeout(self, grid, timing, timeouts):
        """A stuck-at-1 in-link keeps the victim's flag set across link timeouts."""
        fault_node = (3, 2)
        behaviors = {
            dest: LinkBehavior.CONSTANT_ONE for dest in grid.out_neighbors(fault_node).values()
        }
        model = FaultModel(grid, [NodeFault.byzantine(grid, fault_node, behaviors=behaviors)])
        network = HexNetwork(
            grid, timing, timeouts, ConstantDelays(timing.d_max),
            fault_model=model, rng=np.random.default_rng(0),
        )
        network.initialize()
        # Do not schedule any source pulses: run well past several link
        # timeouts; the victim must not fire (one stuck flag is not a guard)
        # and the simulation must not livelock.
        horizon = 5 * timeouts.t_link_max
        network.run(until=horizon)
        victim = grid.neighbor(fault_node, Direction.UPPER_RIGHT)
        assert network.firing_times(victim) == []
        assert Direction.LOWER_LEFT in network.memorized(victim)

    def test_crash_fault_forwards_before_crash_only(self, grid, timing, timeouts):
        model = FaultModel(grid, [NodeFault.crash(grid, (2, 3), crash_time=1000.0)])
        network = HexNetwork(
            grid, timing, timeouts, ConstantDelays(timing.d_max),
            fault_model=model, rng=np.random.default_rng(0),
        )
        network.initialize()
        network.schedule_source_pulses(np.zeros((1, grid.width)))
        network.run(until=900.0)
        # Before the crash the node behaves correctly and forwards the pulse.
        assert len(network.firing_times((2, 3))) == 1

    def test_event_cap_guards_against_livelock(self, grid, timing, timeouts):
        network = HexNetwork(
            grid, timing, timeouts, ConstantDelays(timing.d_max),
            rng=np.random.default_rng(0), max_events=10,
        )
        network.initialize()
        network.schedule_source_pulses(np.zeros((1, grid.width)))
        with pytest.raises(RuntimeError):
            network.run(until=1e9)

    def test_uniform_timer_policy_requires_rng(self, grid, timing, timeouts):
        with pytest.raises(ValueError):
            HexNetwork(grid, timing, timeouts, ConstantDelays(timing.d_max), rng=None)

    def test_nominal_policy_without_rng_is_allowed(self, grid, timing, timeouts):
        network = HexNetwork(
            grid, timing, timeouts, ConstantDelays(timing.d_max),
            rng=None, timer_policy=TimerPolicy.NOMINAL,
        )
        network.initialize()
        network.schedule_source_pulses(np.zeros((1, grid.width)))
        network.run(until=1000.0)
        assert network.first_firing_matrix()[grid.layers, 0] > 0


class TestSilentSkipCounters:
    """The DES's two silent skips and its deferred timers are counted and
    reach ``repro.obs``."""

    @staticmethod
    def _counters(grid, timing, timeouts, **kwargs):
        schedule = np.zeros((2, grid.width))
        schedule[1] += timeouts.pulse_separation
        with obs.observed(metrics=True) as session:
            get_engine("des").multi_pulse(
                grid, timing, timeouts, schedule, rng=np.random.default_rng(4),
                initial_states="clean", **kwargs,
            )
        return session.registry.counters()

    def test_fault_free_run_skips_nothing(self, grid, timing, timeouts):
        counters = self._counters(grid, timing, timeouts)
        assert counters["des.stale_high_assertions"] == 0
        assert counters["des.dropped_arrivals"] == 0

    def test_fault_free_run_queues_no_wake_up(self, grid, timing, timeouts):
        """Without stuck-at-1 inputs every sleep timer is deferred."""
        counters = self._counters(grid, timing, timeouts)
        firings = counters["des.firing"] - counters["des.source_pulse"]
        assert counters["des.timers_deferred"] > firings > 0
        assert "des.wake_up" not in counters

    def test_heal_mid_run_counts_stale_stuck_high_assertions(self, grid, timing, timeouts):
        """A heal in the same instant as the injection strands its assertions."""
        node = (3, 2)
        fault = NodeFault.byzantine(
            grid,
            node,
            behaviors={
                dest: LinkBehavior.CONSTANT_ONE for dest in grid.out_neighbors(node).values()
            },
        )
        adversary = ScheduledAdversary(
            actions=((50.0, InjectFault(fault)), (50.0, HealNode(node)))
        )
        counters = self._counters(grid, timing, timeouts, adversary=adversary)
        # One stuck-at-1 assertion per out-link, each dropped after the heal.
        assert counters["des.stale_high_assertions"] == len(grid.out_neighbors(node))

    def test_crashed_node_counts_dropped_arrivals(self, grid, timing, timeouts):
        model = FaultModel(grid, [NodeFault.crash(grid, (2, 3), crash_time=1.0)])
        counters = self._counters(grid, timing, timeouts, fault_model=model)
        # Two pulses, each delivering at least the two lower in-links.
        assert counters["des.dropped_arrivals"] >= 4
        assert counters["des.stale_high_assertions"] == 0


class TestRunnerInterfaces:
    def test_single_pulse_result_accessors(self, grid, timing, rng):
        layer0 = np.zeros(grid.width)
        result = get_engine("solver").single_pulse(grid, timing, layer0, rng=rng)
        assert result.trigger_time((0, 0)) == 0.0
        assert result.all_correct_triggered()
        assert result.engine == "solver"
        assert result.solution is not None

    def test_unknown_engine_raises(self, grid, timing, rng):
        with pytest.raises(ValueError):
            get_engine("vhdl")

    def test_bad_layer0_shape_raises(self, grid, timing, rng):
        with pytest.raises(ValueError):
            get_engine("solver").single_pulse(grid, timing, np.zeros(3), rng=rng)

    def test_multi_pulse_counts_pulses(self, grid, timing, timeouts, rng):
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="i", num_pulses=3, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            rng=rng,
        )
        result = get_engine("des").multi_pulse(
            grid, timing, timeouts, schedule, rng=rng, initial_states="clean"
        )
        assert result.num_pulses == 3
        # Every forwarding node fires exactly once per pulse from a clean start.
        for node in grid.forwarding_nodes():
            assert len(result.firings_of(node)) == 3
        assert result.total_firings() == 3 * (grid.num_nodes)

    def test_multi_pulse_with_random_initial_states_recovers(self, grid, timing, timeouts, rng):
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="iii", num_pulses=4, separation=timeouts.pulse_separation),
            grid.width,
            timing,
            rng=rng,
        )
        result = get_engine("des").multi_pulse(
            grid, timing, timeouts, schedule, rng=rng, initial_states="random"
        )
        # In the last pulse window every forwarding node fires (the system has
        # recovered from the arbitrary initial states).
        last_window_start = float(np.nanmin(schedule[-1, :]))
        for node in grid.forwarding_nodes():
            firings = [t for t in result.firings_of(node) if t >= last_window_start]
            assert len(firings) == 1

    @pytest.mark.parametrize("declare_silent", [True, False], ids=["fail-silent", "nan-only"])
    def test_nan_sources_and_burst_recover(self, timing, declare_silent):
        """Dead layer-0 columns plus a mid-run grid burst, healed two windows later.

        Columns 2 and 6 of the source schedule are ``nan``.  With
        ``declare_silent`` their sources are also fail-silent in the fault
        model; without it only the network's ``nan`` skip keeps them quiet.
        After the heal every correct forwarding node fires exactly once in the
        last pulse window.
        """
        grid = HexGrid(layers=8, width=8)
        dead_columns = [2, 6]  # non-adjacent, so Condition 1 holds at layer 1
        stable_skew = timing.d_max + timing.epsilon * grid.layers + 2 * timing.d_max
        timeouts = condition2_timeouts(
            timing, stable_skew=stable_skew, layers=grid.layers, num_faults=2
        )
        schedule = generate_pulse_schedule(
            PulseScheduleConfig(scenario="iii", num_pulses=6, separation=400.0),
            grid.width,
            timing,
            rng=np.random.default_rng(2013),
        )
        schedule[:, dead_columns] = np.nan

        window = float(np.nanmin(schedule[1])) - float(np.nanmin(schedule[0]))
        burst = FaultSchedule.burst(
            time=float(np.nanmin(schedule[1])) + 0.5 * window,
            count=2,
            duration=2.0 * window,
        )
        run_rng = np.random.default_rng(99)
        adversary = burst.materialize(
            grid, run_rng, exclude=[(0, column) for column in dead_columns]
        )
        silent = [NodeFault.fail_silent(grid, (0, column)) for column in dead_columns]
        fault_model = FaultModel(grid, silent) if declare_silent else None
        result = get_engine("des").multi_pulse(
            grid,
            timing,
            timeouts,
            schedule,
            rng=run_rng,
            fault_model=fault_model,
            initial_states="clean",
            adversary=adversary,
        )

        for column in dead_columns:
            assert result.firings_of((0, column)) == []
        assignment = assign_pulses(result)
        counts = assignment.counts[assignment.num_pulses - 1]
        mask = (result.fault_model or FaultModel(grid, [])).correctness_mask()
        mask[0, :] = False  # sources are assigned by schedule, not counted here
        assert np.all(counts[mask] == 1)

    def test_multi_pulse_bad_schedule_shape(self, grid, timing, timeouts, rng):
        with pytest.raises(ValueError):
            get_engine("des").multi_pulse(grid, timing, timeouts, np.zeros((2, 3)), rng=rng)

    def test_default_timeouts_satisfy_condition2_relations(self, grid, timing):
        timeouts = default_timeouts(grid, timing, num_faults=2, layer0_spread=1.0)
        assert timeouts.t_link_max == pytest.approx(timing.theta * timeouts.t_link_min)
        assert timeouts.t_sleep_min == pytest.approx(2 * timeouts.t_link_max + 2 * timing.d_max)
