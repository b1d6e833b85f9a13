"""Tests of the dynamic adversary layer (repro.adversary) and its wiring.

Covers the declarative FaultSchedule (validation, JSON round trips, content
keys), seeded materialization (determinism, Condition 1 awareness), the DES
engine's schedule execution semantics (inject / heal / crash / flip /
intermittent links / mobile faults), delay adversaries, arbitrary initial
states, campaign integration (schedule axis: serial == parallel == resumed),
backwards compatibility of the static path, and the recovery experiment's
re-stabilization claim.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.adversary import (
    BiasedLinkDelays,
    FaultDirective,
    FaultSchedule,
    InjectFault,
    MaxSkewDelays,
)
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, RunTask, SweepSpec
from repro.campaign.store import CampaignStore
from repro.core.parameters import TimingConfig
from repro.core.topology import HexGrid
from repro.engines import RunSpec, get_engine
from repro.engines.des import scenario_stabilization_timeouts
from repro.experiments import recovery
from repro.faults.models import FaultModel, FaultType, LinkBehavior, NodeFault
from repro.faults.placement import check_condition1


@pytest.fixture
def timing():
    return TimingConfig.paper_defaults()


@pytest.fixture
def grid():
    return HexGrid(layers=10, width=8)


def separation(layers=10, width=8, num_faults=0, timing=None):
    """Pulse separation S of the default scenario-(i) stabilization timeouts."""
    timing = timing if timing is not None else TimingConfig.paper_defaults()
    from repro.clocksource.scenarios import Scenario

    return scenario_stabilization_timeouts(
        Scenario.ZERO, width, layers, num_faults, timing
    ).pulse_separation


# ----------------------------------------------------------------------
# schedule declaration & serialization
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_json_round_trip_is_identity(self):
        schedule = FaultSchedule(
            directives=(
                FaultDirective(kind="inject", time=10.0, node=(3, 2), fault_type="fail_silent"),
                FaultDirective(kind="heal", time=50.0, node=(3, 2)),
                FaultDirective(kind="crash", time=70.0),
                FaultDirective(kind="burst", time=100.0, count=2, duration=40.0),
                FaultDirective(kind="cluster", time=200.0, count=3, radius=2),
                FaultDirective(
                    kind="intermittent_link", time=20.0, period=30.0, duty=0.25, until=140.0
                ),
                FaultDirective(kind="mobile", time=5.0, interval=25.0, hops=3, until=105.0),
                FaultDirective(kind="flip_behavior", time=120.0),
            ),
            label="everything",
        )
        rebuilt = FaultSchedule.from_json(schedule.to_json())
        assert rebuilt == schedule
        assert rebuilt.key() == schedule.key()

    def test_generators_produce_single_directives(self):
        assert FaultSchedule.burst(time=1.0, count=3).directives[0].kind == "burst"
        assert FaultSchedule.cluster(time=1.0, count=2).directives[0].kind == "cluster"
        assert (
            FaultSchedule.intermittent_link(time=1.0, period=5.0, until=20.0)
            .directives[0]
            .kind
            == "intermittent_link"
        )
        assert (
            FaultSchedule.mobile_byzantine(time=1.0, interval=5.0, hops=2)
            .directives[0]
            .kind
            == "mobile"
        )

    def test_directive_validation(self):
        with pytest.raises(ValueError, match="unknown directive kind"):
            FaultDirective(kind="explode", time=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            FaultDirective(kind="inject", time=-1.0)
        with pytest.raises(ValueError, match="fault_type"):
            FaultDirective(kind="inject", time=1.0, fault_type="crash")
        with pytest.raises(ValueError, match="duty"):
            FaultDirective(
                kind="intermittent_link", time=1.0, period=5.0, duty=1.5, until=20.0
            )
        with pytest.raises(ValueError, match="until > time"):
            FaultDirective(kind="intermittent_link", time=10.0, period=5.0, until=10.0)
        with pytest.raises(ValueError, match="interval"):
            FaultDirective(kind="mobile", time=1.0, hops=2)
        with pytest.raises(ValueError, match="at least one directive"):
            FaultSchedule(directives=())

    def test_unknown_schema_and_fields_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            FaultSchedule.from_json_dict({"schema": "bogus/v9", "directives": []})
        with pytest.raises(ValueError, match="unknown FaultDirective fields"):
            FaultDirective.from_json_dict({"kind": "inject", "time": 1.0, "wat": 2})

    def test_dict_directives_are_coerced(self):
        schedule = FaultSchedule(directives=({"kind": "burst", "time": 3.0, "count": 2},))
        assert schedule.directives[0] == FaultDirective(kind="burst", time=3.0, count=2)


# ----------------------------------------------------------------------
# materialization
# ----------------------------------------------------------------------
class TestMaterialization:
    def test_same_seed_same_actions(self, grid):
        schedule = FaultSchedule.burst(time=50.0, count=3, duration=100.0)
        first = schedule.materialize(grid, np.random.default_rng(7))
        second = schedule.materialize(grid, np.random.default_rng(7))
        assert first == second
        third = schedule.materialize(grid, np.random.default_rng(8))
        assert third != first  # placements differ for a different stream

    def test_burst_respects_condition1_and_excludes(self, grid):
        schedule = FaultSchedule.burst(time=10.0, count=3)
        static = [(1, 0), (5, 4)]
        adversary = schedule.materialize(grid, np.random.default_rng(3), exclude=static)
        injected = [
            action.fault.node
            for _time, action in adversary.actions
            if isinstance(action, InjectFault)
        ]
        assert len(injected) == 3
        assert not set(injected) & set(static)
        assert check_condition1(grid, injected + static)

    def test_cluster_members_stay_within_radius(self, grid):
        schedule = FaultSchedule.cluster(time=10.0, count=3, radius=3)
        adversary = schedule.materialize(grid, np.random.default_rng(11))
        injected = [
            action.fault.node
            for _time, action in adversary.actions
            if isinstance(action, InjectFault)
        ]
        assert len(injected) == 3
        center = injected[0]
        for node in injected[1:]:
            column_gap = abs(node[1] - center[1])
            distance = abs(node[0] - center[0]) + min(column_gap, grid.width - column_gap)
            assert distance <= 3
        assert check_condition1(grid, injected)

    def test_mobile_walk_heals_previous_position(self, grid):
        schedule = FaultSchedule.mobile_byzantine(time=10.0, interval=20.0, hops=3, until=90.0)
        adversary = schedule.materialize(grid, np.random.default_rng(5))
        timeline = adversary.describe()
        injects = [line for line in timeline if "inject" in line]
        heals = [line for line in timeline if "heal" in line]
        assert len(injects) == 4  # initial position + 3 hops
        assert len(heals) == 4  # each position healed (final one at `until`)
        assert adversary.last_time == 90.0

    def test_intermittent_link_alternates_behaviors(self, grid):
        schedule = FaultSchedule.intermittent_link(
            time=0.0, period=20.0, duty=0.5, until=60.0, link=((2, 1), (3, 1))
        )
        adversary = schedule.materialize(grid, np.random.default_rng(0))
        kinds = [action.behavior for _time, action in adversary.actions]
        assert kinds == [
            LinkBehavior.CONSTANT_ZERO,
            LinkBehavior.CORRECT,
            LinkBehavior.CONSTANT_ZERO,
            LinkBehavior.CORRECT,
            LinkBehavior.CONSTANT_ZERO,
            LinkBehavior.CORRECT,
        ]

    def test_impossible_density_raises(self):
        tiny = HexGrid(layers=2, width=4)
        schedule = FaultSchedule.burst(time=1.0, count=8)
        with pytest.raises(RuntimeError, match="Condition 1"):
            schedule.materialize(tiny, np.random.default_rng(0))

    def test_early_heal_cancels_stale_duration_heal(self, grid):
        """A re-injected fault must not be ended by the previous episode's heal.

        inject@10 with duration 20 queues a heal@30; an explicit heal@15 ends
        the episode early, and a *permanent* re-inject@20 must stay faulty --
        the stale heal@30 has to be dropped at materialization.
        """
        node = (2, 2)
        schedule = FaultSchedule(
            directives=(
                FaultDirective(kind="inject", time=10.0, node=node, duration=20.0),
                FaultDirective(kind="heal", time=15.0, node=node),
                FaultDirective(kind="inject", time=20.0, node=node),
            )
        )
        adversary = schedule.materialize(grid, np.random.default_rng(0))
        times = [
            (at, type(action).__name__, getattr(action, "node", None))
            for at, action in adversary.actions
        ]
        assert (30.0, "HealNode", node) not in times
        assert adversary.last_time == 20.0  # permanent fault: nothing after t=20


# ----------------------------------------------------------------------
# DES execution semantics
# ----------------------------------------------------------------------
class TestDesScheduleExecution:
    def run_spec(self, schedule, **overrides):
        params = dict(
            kind="multi_pulse",
            layers=10,
            width=8,
            scenario="i",
            num_pulses=6,
            entropy=42,
            fault_schedule=schedule,
        )
        params.update(overrides)
        return RunSpec(**params)

    def test_transient_burst_heals_to_fault_free(self):
        s = separation()
        schedule = FaultSchedule.burst(time=1.5 * s, count=2, duration=2.0 * s)
        result = get_engine("des").run(self.run_spec(schedule))
        assert result.fault_model is None  # everything healed by the end
        assert result.metrics["adversary_actions"] == 4.0
        assert result.total_firings() > 0

    def test_permanent_burst_reports_final_faults(self):
        s = separation()
        schedule = FaultSchedule.burst(time=1.5 * s, count=2)
        result = get_engine("des").run(self.run_spec(schedule))
        assert result.fault_model is not None
        assert result.fault_model.num_faulty_nodes == 2
        for node in result.fault_model.faulty_nodes():
            assert result.firings_of(node) == []

    def test_crash_stops_firing_heal_resumes(self):
        s = separation()
        node = (5, 3)
        schedule = FaultSchedule(
            directives=(
                FaultDirective(kind="crash", time=1.5 * s, node=node, duration=2.0 * s),
            )
        )
        result = get_engine("des").run(self.run_spec(schedule, random_initial_states=False))
        firings = np.asarray(result.firings_of(node))
        # Fires before the crash, is silent during it, and resumes after heal.
        assert np.any(firings < 1.5 * s)
        assert not np.any((firings > 1.5 * s) & (firings < 3.5 * s))
        assert np.any(firings > 3.5 * s)

    def test_single_pulse_inject_before_wave_blocks_node(self):
        node = (4, 2)
        schedule = FaultSchedule(
            directives=(
                FaultDirective(kind="inject", time=0.0, node=node, fault_type="fail_silent"),
            )
        )
        spec = RunSpec(
            kind="single_pulse",
            layers=10,
            width=8,
            scenario="i",
            entropy=9,
            fault_schedule=schedule,
        )
        result = get_engine("des").run(spec)
        assert result.fault_model is not None
        assert result.fault_model.faulty_nodes() == [node]
        assert math.isnan(result.trigger_times[node])
        # Every *other* forwarding node still fires (HEX rides out one fault).
        assert result.all_correct_triggered()

    def test_flip_behavior_and_intermittent_links_run_deterministically(self):
        s = separation()
        schedule = FaultSchedule(
            directives=(
                FaultDirective(kind="inject", time=0.5 * s, fault_type="byzantine"),
                FaultDirective(kind="flip_behavior", time=1.5 * s),
                FaultDirective(
                    kind="intermittent_link",
                    time=0.0,
                    period=s,
                    duty=0.5,
                    until=3.0 * s,
                ),
            )
        )
        first = get_engine("des").run(self.run_spec(schedule))
        second = get_engine("des").run(self.run_spec(schedule))
        assert first.firing_times == second.firing_times

    def test_mobile_byzantine_run_completes(self):
        s = separation()
        schedule = FaultSchedule.mobile_byzantine(
            time=0.5 * s, interval=s, hops=3, until=4.5 * s
        )
        result = get_engine("des").run(self.run_spec(schedule))
        assert result.fault_model is None  # healed at `until`
        assert result.total_firings() > 0

    def test_solver_and_clocktree_reject_schedules(self):
        schedule = FaultSchedule.burst(time=1.0, count=1)
        spec = RunSpec(
            kind="single_pulse", layers=8, width=6, entropy=1, fault_schedule=schedule
        )
        for engine in ("solver", "clocktree"):
            with pytest.raises(ValueError, match="cannot execute dynamic fault schedules"):
                get_engine(engine).run(spec)

    def test_engine_capability_flags(self):
        assert get_engine("des").capabilities.supports_fault_schedules
        assert not get_engine("solver").capabilities.supports_fault_schedules
        assert not get_engine("clocktree").capabilities.supports_fault_schedules
        assert "fault-schedules" in get_engine("des").capabilities.summary()


# ----------------------------------------------------------------------
# delay adversaries & initial states
# ----------------------------------------------------------------------
class TestDelayAdversaries:
    def test_max_skew_is_deterministic_and_bounded(self, timing, grid):
        model = MaxSkewDelays(timing, grid.width)
        assert model.validate_against(timing, grid)
        assert model.delay((2, 0), (3, 0)) == timing.d_max  # left half slow
        assert model.delay((2, 7), (3, 7)) == timing.d_min  # right half fast

    def test_biased_delays_stable_bias_bounded_jitter(self, timing, grid):
        model = BiasedLinkDelays(timing, np.random.default_rng(3), jitter=0.5)
        bias = model.delay((1, 1), (2, 1))
        assert bias == model.delay((1, 1), (2, 1))  # cached
        for _ in range(50):
            value = model.sample((1, 1), (2, 1))
            assert timing.d_min <= value <= timing.d_max

    def test_delay_adversaries_run_on_both_engines(self):
        for delay_model in ("max_skew", "biased"):
            spec = RunSpec(
                kind="single_pulse",
                layers=8,
                width=6,
                scenario="iii",
                delay_model=delay_model,
                entropy=17,
            )
            des = get_engine("des").run(spec)
            assert des.all_correct_triggered()
            solver = get_engine("solver").run(spec)
            assert solver.all_correct_triggered()

    def test_max_skew_spec_is_reproducible(self):
        spec = RunSpec(
            kind="single_pulse", layers=8, width=6, delay_model="max_skew", entropy=5
        )
        a = get_engine("des").run(spec)
        b = get_engine("des").run(spec)
        np.testing.assert_array_equal(a.trigger_times, b.trigger_times)

    def test_unknown_delay_model_rejected(self):
        with pytest.raises(ValueError, match="delay_model"):
            RunSpec(delay_model="quantum")


class TestInitialStates:
    def test_adversarial_start_fires_spurious_wave(self):
        spec = RunSpec(
            kind="multi_pulse",
            layers=8,
            width=6,
            scenario="i",
            num_pulses=4,
            entropy=23,
            initial_states="adversarial",
        )
        result = get_engine("des").run(spec)
        firings = [
            t
            for node, times in result.firing_times.items()
            if node[0] > 0  # forwarding nodes (layer-0 sources fire pulse 0 at t=0 too)
            for t in times
        ]
        # All-flags-set start: every forwarding node fires spuriously at t=0.
        assert sum(1 for t in firings if t == 0.0) == 8 * 6
        # ... and the grid still serves the real pulses afterwards.
        from repro.analysis.stabilization import stabilization_time

        assert stabilization_time(result, lambda layer: 1e9) is not None

    def test_clean_matches_legacy_flag(self):
        base = dict(kind="multi_pulse", layers=8, width=6, num_pulses=3, entropy=31)
        via_policy = get_engine("des").run(RunSpec(**base, initial_states="clean"))
        via_flag = get_engine("des").run(RunSpec(**base, random_initial_states=False))
        assert via_policy.firing_times == via_flag.firing_times

    def test_initial_states_requires_multi_pulse(self):
        with pytest.raises(ValueError, match="multi-pulse"):
            RunSpec(kind="single_pulse", initial_states="adversarial")
        with pytest.raises(ValueError, match="initial_states"):
            RunSpec(kind="multi_pulse", initial_states="chaotic")


# ----------------------------------------------------------------------
# backwards compatibility of the static path
# ----------------------------------------------------------------------
class TestStaticPathUnchanged:
    #: The exact RunSpec payload keys of the pre-adversary serialization; a
    #: schedule-free spec must keep this set (content keys depend on it).
    LEGACY_RUNSPEC_KEYS = {
        "kind", "layers", "width", "d_min", "d_max", "theta", "scenario",
        "num_faults", "fault_type", "fixed_fault_positions", "delay_model",
        "timeouts", "timer_policy", "num_pulses", "random_initial_states",
        "run_slack", "entropy", "run_index",
    }

    def test_static_runspec_payload_has_legacy_keys_only(self):
        assert set(RunSpec(entropy=1).to_json_dict()) == self.LEGACY_RUNSPEC_KEYS

    def test_static_runtask_payload_and_key_unchanged(self):
        task_kwargs = dict(
            kind="single_pulse", layers=8, width=6, d_min=7.161, d_max=8.197,
            theta=1.05, scenario="zero", num_faults=1, fault_type="byzantine",
            engine="des", timer_policy="uniform", num_pulses=1, skew_choice=0,
            fixed_fault_positions=None, timeouts=None, keep_times=True,
            entropy=77, run_index=0, cell_index=0, point_index=0,
        )
        legacy = RunTask(**task_kwargs)
        assert "fault_schedule" not in legacy.to_json_dict()
        assert "delay_model" not in legacy.to_json_dict()
        assert "initial_states" not in legacy.to_json_dict()
        with_schedule = dataclasses.replace(
            legacy, fault_schedule=FaultSchedule.burst(time=1.0, count=1)
        )
        assert with_schedule.key() != legacy.key()

    def test_static_sweepspec_payload_has_no_adversary_keys(self):
        payload = SweepSpec(layers=(8,), width=(6,)).to_json_dict()
        assert "fault_schedule" not in payload
        assert "delay_model" not in payload
        assert "initial_states" not in payload

    def test_sweepspec_with_adversary_fields_round_trips(self):
        cell = SweepSpec(
            layers=(8,),
            width=(6,),
            engine=("des",),
            kind="multi_pulse",
            delay_model=("fresh", "biased"),
            fault_schedule=(None, FaultSchedule.burst(time=5.0, count=1)),
            initial_states="adversarial",
        )
        rebuilt = SweepSpec.from_json_dict(cell.to_json_dict())
        assert rebuilt == cell

    def test_schedule_axis_with_static_engine_rejected_at_build_time(self):
        with pytest.raises(ValueError, match="cannot execute dynamic fault schedules"):
            SweepSpec(
                layers=(8,),
                width=(6,),
                engine=("solver",),
                fault_schedule=(FaultSchedule.burst(time=5.0, count=1),),
            )


# ----------------------------------------------------------------------
# campaign integration (acceptance: serial == parallel == resumed)
# ----------------------------------------------------------------------
class TestCampaignScheduleAxis:
    def spec(self):
        s = separation(layers=8, width=6)
        schedule = FaultSchedule.burst(time=1.5 * s, count=2, duration=2.0 * s)
        cell = SweepSpec(
            layers=(8,),
            width=(6,),
            scenario=("i",),
            engine=("des",),
            kind="multi_pulse",
            num_pulses=5,
            runs=3,
            fault_schedule=(None, schedule),
        )
        return CampaignSpec(name="adversary-axis", cells=(cell,), seed=19)

    def test_serial_parallel_and_resume_bit_identity(self, tmp_path):
        spec = self.spec()
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(spec, workers=2).run()
        assert [r.canonical_json() for r in serial.records] == [
            r.canonical_json() for r in parallel.records
        ]

        store = CampaignStore(tmp_path)
        CampaignRunner(spec, store=store).run()
        resumed = CampaignRunner(spec, store=store, resume=True).run()
        assert resumed.executed == 0
        assert resumed.cached == spec.num_tasks
        assert [r.canonical_json() for r in resumed.records] == [
            r.canonical_json() for r in serial.records
        ]

    def test_schedule_rides_in_record_params(self):
        result = CampaignRunner(self.spec(), workers=1).run()
        scheduled = [r for r in result.records if "fault_schedule" in r.params]
        assert len(scheduled) == 3  # the schedule point's runs
        payload = scheduled[0].params["fault_schedule"]
        assert FaultSchedule.from_json_dict(payload).directives[0].kind == "burst"


# ----------------------------------------------------------------------
# NodeFault crash bugfix & heal interplay
# ----------------------------------------------------------------------
class TestCrashFaultValidation:
    def test_negative_crash_time_rejected_at_construction(self, grid):
        with pytest.raises(ValueError, match="non-negative"):
            NodeFault(node=(2, 1), fault_type=FaultType.CRASH, crash_time=-5.0)
        with pytest.raises(ValueError, match="non-negative"):
            NodeFault.crash(grid, (2, 1), crash_time=-1.0)

    def test_finite_crash_time_on_non_crash_fault_rejected(self):
        with pytest.raises(ValueError, match="only meaningful for CRASH"):
            NodeFault(node=(2, 1), fault_type=FaultType.BYZANTINE, crash_time=10.0)

    def test_healed_static_fault_regains_stuck_high_inputs(self, timing, grid):
        """Healing a *statically* faulty node rebuilds its stuck-at-1 in-links.

        A Byzantine neighbour with a constant-1 link towards the healed node
        must resume driving its memory flag -- the registry entry was never
        built at network construction (the node had no automaton then).
        """
        from repro.core.parameters import condition2_timeouts
        from repro.core.topology import Direction
        from repro.simulation.links import ConstantDelays
        from repro.simulation.network import HexNetwork

        byzantine, healed = (1, 1), (2, 1)
        direction = grid.direction_between(byzantine, healed)
        fault_model = FaultModel(
            grid,
            [
                NodeFault.byzantine(
                    grid,
                    byzantine,
                    behaviors={
                        dest: (
                            LinkBehavior.CONSTANT_ONE
                            if dest == healed
                            else LinkBehavior.CONSTANT_ZERO
                        )
                        for dest in grid.out_neighbors(byzantine).values()
                    },
                ),
                NodeFault.fail_silent(grid, healed),
            ],
        )
        timeouts = condition2_timeouts(
            timing, stable_skew=5.0, layers=grid.layers, num_faults=2
        )
        network = HexNetwork(
            grid=grid,
            timing=timing,
            timeouts=timeouts,
            delays=ConstantDelays(timing.d_max),
            fault_model=fault_model,
            rng=np.random.default_rng(0),
        )
        network.initialize()
        assert network.stuck_high_inputs(healed) == []  # not running yet
        network.heal_node(healed, time=5.0)
        assert network.stuck_high_inputs(healed) == [(direction, byzantine)]
        assert isinstance(direction, Direction)
        network.run(until=10.0)
        # The stuck-high link drove the healed node's memory flag.
        assert direction in network.memorized(healed)

    def test_heal_removes_crash_semantics(self, grid):
        model = FaultModel(grid, [NodeFault.crash(grid, (3, 2), crash_time=10.0)])
        link = ((3, 2), (4, 2))
        assert model.link_behavior(link, time=5.0) is LinkBehavior.CORRECT
        assert model.link_behavior(link, time=20.0) is LinkBehavior.CONSTANT_ZERO
        removed = model.remove_node_fault((3, 2))
        assert removed is not None and removed.fault_type is FaultType.CRASH
        assert model.link_behavior(link, time=20.0) is LinkBehavior.CORRECT
        assert model.num_faulty_nodes == 0
        assert model.remove_node_fault((3, 2)) is None  # idempotent


# ----------------------------------------------------------------------
# recovery experiment (acceptance: re-stabilization after the burst)
# ----------------------------------------------------------------------
class TestRecoveryExperiment:
    def test_skew_returns_to_fault_free_levels_within_bounded_pulses(self):
        from repro.experiments.config import ExperimentConfig

        experiment = recovery.run(
            config=ExperimentConfig(layers=12, width=8, runs=3, seed=5),
            burst_sizes=(1, 2),
            num_pulses=9,
            inject_pulse=2,
            heal_pulse=4,
        )
        for point in experiment.points:
            # Every run re-stabilizes, and within a tight bound (far below the
            # worst-case L + 1 pulses of Theorem 2).
            assert np.all(np.isfinite(point.recovery)), (
                f"f={point.num_faults}: some run never returned to fault-free "
                f"skew levels ({point.recovery})"
            )
            assert float(np.max(point.recovery)) <= 3.0
            # The burst was actually disruptive in at least one run, so the
            # recovery claim is not vacuous.
            assert np.any(point.violated_during)

    def test_render_mentions_grid_and_pulses(self):
        from repro.experiments.config import ExperimentConfig

        experiment = recovery.run(
            config=ExperimentConfig(layers=10, width=8, runs=2, seed=3),
            burst_sizes=(1,),
            num_pulses=8,
        )
        text = experiment.render()
        assert "Recovery from transient fault bursts" in text
        assert "10x8" in text

    def test_spec_validation(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(layers=10, width=8, runs=1)
        with pytest.raises(ValueError, match="inject_pulse"):
            recovery.burst_recovery_spec(config, 1, 5, inject_pulse=4, heal_pulse=3,
                                         run_index=0, seed_salt=0)
        with pytest.raises(ValueError, match="burst sizes"):
            recovery.run(config=config, burst_sizes=(0,), num_pulses=6)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestAdversaryCli:
    def test_engines_json_reports_schedule_capability(self, capsys):
        import json as json_module

        from repro.cli import main

        assert main(["engines", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert by_name["des"]["supports_fault_schedules"] is True
        assert by_name["solver"]["supports_fault_schedules"] is False

    def test_adversary_list_validate_preview(self, tmp_path, capsys):
        import json as json_module

        from repro.cli import main

        assert main(["adversary", "list"]) == 0
        assert "burst" in capsys.readouterr().out

        path = tmp_path / "schedule.json"
        path.write_text(
            json_module.dumps(
                FaultSchedule.burst(time=30.0, count=2, duration=60.0).to_json_dict()
            )
        )
        assert main(["adversary", "validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(
            ["adversary", "preview", str(path), "--layers", "8", "--width", "6", "--seed", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "inject byzantine fault" in out
        assert "heal node" in out

    def test_adversary_validate_rejects_bad_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text('{"schema": "hex-repro/fault-schedule/v1", "directives": [{"kind": "explode", "time": 1}]}')
        assert main(["adversary", "validate", str(path)]) == 2
        assert "unknown directive kind" in capsys.readouterr().err

    def test_adversary_actions_require_file(self, capsys):
        from repro.cli import main

        assert main(["adversary", "validate"]) == 2
        assert "requires a schedule FILE" in capsys.readouterr().err

    def test_sweep_fault_schedule_flag(self, tmp_path, capsys):
        import json as json_module

        from repro.cli import main

        path = tmp_path / "schedule.json"
        s = separation(layers=8, width=6)
        path.write_text(
            json_module.dumps(
                FaultSchedule.burst(time=1.5 * s, count=1, duration=s).to_json_dict()
            )
        )
        out_path = tmp_path / "records.jsonl"
        assert main(
            [
                "sweep", "--engine", "des", "--layers", "8", "--width", "6",
                "--runs", "2", "--fault-schedule", str(path),
                "--quiet", "--out", str(out_path),
            ]
        ) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "fault_schedule" in lines[0]
