"""Tests of the unified engine protocol, registry and RunSpec execution API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.runner import CampaignRunner, execute_task_batch
from repro.campaign.spec import CampaignSpec, SweepSpec
from repro.cli import main
from repro.clocksource.scenarios import scenario_layer0_times
from repro.core.parameters import TimingConfig
from repro.core.topology import HexGrid
from repro.engines import (
    EngineCapabilities,
    RunSpec,
    available_engines,
    generic_run_batch,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.engines.array import ArrayEngine, delay_envelope
from repro.engines.base import batch_key, require_exactness
from repro.engines.clocktree import ClockTreeEngine
from repro.engines.des import DesEngine
from repro.engines.solver import SolverEngine
from repro.faults.placement import build_fault_model
from repro.simulation.links import UniformRandomDelays


@pytest.fixture
def timing():
    return TimingConfig.paper_defaults()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = available_engines()
        assert "solver" in names
        assert "des" in names
        assert "clocktree" in names
        assert "array" in names

    def test_get_engine_returns_singletons(self):
        assert get_engine("solver") is get_engine("solver")
        assert isinstance(get_engine("solver"), SolverEngine)
        assert isinstance(get_engine("des"), DesEngine)
        assert isinstance(get_engine("clocktree"), ClockTreeEngine)
        assert isinstance(get_engine("array"), ArrayEngine)

    def test_unknown_engine_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            get_engine("vhdl")
        message = str(excinfo.value)
        assert "unknown engine 'vhdl'" in message
        for name in available_engines():
            assert name in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_engine(SolverEngine())
        register_engine(SolverEngine(), replace=True)  # idempotent override is fine

    def test_register_and_unregister_custom_engine(self):
        class NullEngine:
            name = "null"
            capabilities = EngineCapabilities(kinds=("single_pulse",))

            def run(self, spec, rng=None):  # pragma: no cover - never called
                raise NotImplementedError

        try:
            register_engine(NullEngine())
            assert "null" in available_engines()
            assert isinstance(get_engine("null"), NullEngine)
        finally:
            unregister_engine("null")
        assert "null" not in available_engines()

    def test_non_engine_rejected(self):
        with pytest.raises(TypeError):
            register_engine(object())

    def test_capabilities_reject_unknown_kind(self):
        with pytest.raises(ValueError):
            EngineCapabilities(kinds=("chaos",))


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
class TestRunSpec:
    def test_json_round_trip_is_identity(self):
        spec = RunSpec(
            kind="multi_pulse",
            layers=12,
            width=8,
            scenario="iii",
            num_faults=2,
            fault_type="byzantine",
            fixed_fault_positions=((3, 1), (7, 4)),
            timeouts=(10.0, 20.0, 30.0, 40.0, 500.0, 60.0),
            timer_policy="nominal",
            num_pulses=4,
            entropy=2013,
            run_index=3,
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.key() == spec.key()
        assert restored.to_json() == spec.to_json()

    def test_aliases_canonicalised(self):
        assert RunSpec(scenario="(iv)").scenario == "ramp"
        assert RunSpec(scenario="i") == RunSpec(scenario="zero")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            RunSpec.from_json_dict({"kind": "single_pulse", "warp_factor": 9})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec(kind="chaos")
        with pytest.raises(ValueError):
            RunSpec(delay_model="psychic")
        with pytest.raises(ValueError):
            RunSpec(num_faults=-1)
        with pytest.raises(ValueError):
            RunSpec(num_pulses=0)
        with pytest.raises(ValueError):
            RunSpec(timeouts=(1.0, 2.0))

    def test_rng_matches_campaign_task_stream(self):
        spec = RunSpec(entropy=77, run_index=5)
        expected = np.random.default_rng(
            np.random.SeedSequence(entropy=77, spawn_key=(5,))
        )
        assert spec.rng().uniform() == expected.uniform()

    def test_run_kind_mismatch_raises(self):
        spec = RunSpec(kind="multi_pulse", layers=4, width=4, entropy=1)
        with pytest.raises(ValueError, match="does not support kind"):
            get_engine("solver").run(spec)
        with pytest.raises(ValueError, match="does not support kind"):
            get_engine("clocktree").run(spec)


# ----------------------------------------------------------------------
# engine-vs-historical-body and task-vs-engine bit-identity
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["solver", "des"])
    def test_engine_run_matches_historical_body(self, timing, engine):
        """engine.run(spec) reproduces the historical draw order bit-for-bit."""
        spec = RunSpec(
            kind="single_pulse",
            layers=6,
            width=5,
            scenario="iii",
            num_faults=1,
            fault_type="byzantine",
            entropy=424242,
            run_index=2,
        )
        result = get_engine(engine).run(spec)

        # The historical per-run body: layer-0 draw, fault placement and
        # behaviour, then link delays inside the entry point -- all from one
        # generator rebuilt from (entropy, run_index).
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=424242, spawn_key=(2,))
        )
        grid = spec.make_grid()
        layer0 = scenario_layer0_times("iii", grid.width, timing, rng=rng)
        fault_model = build_fault_model(grid, 1, spec.make_fault_type(), rng)
        expected = get_engine(engine).single_pulse(
            grid, timing, layer0, rng=rng, fault_model=fault_model
        )
        np.testing.assert_array_equal(result.layer0_times, layer0)
        np.testing.assert_array_equal(result.trigger_times, expected.trigger_times)
        assert sorted(fault_model.faulty_nodes()) == sorted(
            result.fault_model.faulty_nodes()
        )


# ----------------------------------------------------------------------
# solver-vs-DES agreement (fault-free property test)
# ----------------------------------------------------------------------
class TestSolverDesAgreement:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        layers=st.integers(min_value=2, max_value=5),
        width=st.integers(min_value=3, max_value=6),
    )
    def test_shared_delays_agree_exactly(self, seed, layers, width):
        """With one shared per-link delay model the two semantics coincide."""
        timing = TimingConfig.paper_defaults()
        grid = HexGrid(layers=layers, width=width)
        rng = np.random.default_rng(seed)
        layer0 = rng.uniform(0.0, timing.d_max, size=width)
        delays = UniformRandomDelays(timing, rng)
        solver = get_engine("solver").single_pulse(
            grid, timing, layer0, rng=rng, delays=delays
        )
        des = get_engine("des").single_pulse(
            grid, timing, layer0, rng=np.random.default_rng(seed + 1), delays=delays
        )
        assert solver.all_correct_triggered() and des.all_correct_triggered()
        np.testing.assert_allclose(
            solver.trigger_times, des.trigger_times, rtol=0.0, atol=1e-9
        )

    @settings(max_examples=8, deadline=None)
    @given(
        entropy=st.integers(min_value=0, max_value=2**32 - 1),
        layers=st.integers(min_value=2, max_value=5),
        width=st.integers(min_value=3, max_value=6),
    )
    def test_independent_draws_agree_within_bounds(self, entropy, layers, width):
        """Fault-free runs of both engines stay inside the analytic envelope."""
        spec = RunSpec(
            kind="single_pulse",
            layers=layers,
            width=width,
            scenario="iii",
            entropy=entropy,
        )
        timing = spec.make_timing()
        for name in ("solver", "des"):
            result = get_engine(name).run(spec)
            assert result.all_correct_triggered()
            layer0 = result.layer0_times
            low = float(np.min(layer0))
            high = float(np.max(layer0))
            for layer in range(1, layers + 1):
                row = result.trigger_times[layer, :]
                assert np.all(row >= low + layer * timing.d_min - 1e-9)
                assert np.all(row <= high + layer * timing.d_max + 1e-9)


# ----------------------------------------------------------------------
# clock-tree engine & campaign integration
# ----------------------------------------------------------------------
class TestClockTreeEngine:
    def test_covers_grid_and_reports_metrics(self):
        spec = RunSpec(kind="single_pulse", layers=6, width=5, entropy=3)
        result = get_engine("clocktree").run(spec)
        side = int(2 ** result.metrics["tree_levels"])
        assert result.trigger_times.shape == (side, side)
        assert result.metrics["tree_num_sinks"] >= spec.make_grid().num_nodes
        assert np.all(np.isfinite(result.trigger_times))
        assert result.metrics["tree_global_skew"] > 0.0
        assert result.metrics["tree_max_neighbor_skew"] >= result.metrics[
            "tree_avg_neighbor_skew"
        ] >= 0.0

    def test_deterministic_given_spec(self):
        spec = RunSpec(kind="single_pulse", layers=6, width=5, entropy=3)
        first = get_engine("clocktree").run(spec)
        second = get_engine("clocktree").run(spec)
        np.testing.assert_array_equal(first.trigger_times, second.trigger_times)

    def test_rejects_faults(self):
        spec = RunSpec(kind="single_pulse", layers=6, width=5, num_faults=1,
                       fault_type="byzantine", entropy=3)
        with pytest.raises(ValueError, match="does not support fault injection"):
            get_engine("clocktree").run(spec)


class TestCampaignIntegration:
    def _three_engine_spec(self, runs=2):
        cell = SweepSpec(
            layers=6, width=5, scenario="i", engine=("solver", "des", "clocktree"),
            runs=runs, seed_salt=0,
        )
        return CampaignSpec(name="three-engines", seed=7, cells=(cell,))

    def test_sweep_covers_all_engines(self):
        result = CampaignRunner(self._three_engine_spec()).run()
        engines_seen = {record.params["engine"] for record in result.records}
        assert engines_seen == {"solver", "des", "clocktree"}
        for record in result.records:
            assert record.skew is not None
            assert np.isfinite(record.skew["intra_max"])

    def test_serial_parallel_bit_identity(self):
        spec = self._three_engine_spec()
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(spec, workers=2).run()
        assert [r.canonical_json() for r in serial.records] == [
            r.canonical_json() for r in parallel.records
        ]

    def test_faultless_engine_with_faults_axis_rejected_at_build_time(self):
        with pytest.raises(ValueError, match="does not support fault injection"):
            SweepSpec(engine=("solver", "clocktree"), num_faults=(0, 1))
        # Fault-free cells and multi-pulse cells (engine axis inert) stay valid.
        SweepSpec(engine=("solver", "clocktree"), num_faults=0)
        SweepSpec(engine="clocktree", num_faults=(0, 1), kind="multi_pulse")

    def test_single_pulse_task_timeout_override_stays_inert(self):
        """Campaign timeouts are a multi-pulse parameter; single-pulse DES
        records must not change when one is present (historical contract)."""
        override = (10.0, 400.0, 420.0, 800.0, 1000.0, 60.0)
        base = SweepSpec(layers=5, width=4, engine="des", runs=1)
        with_override = SweepSpec(layers=5, width=4, engine="des", runs=1,
                                  timeouts=override)
        (record_a,) = execute_task_batch(CampaignSpec(name="a", seed=11, cells=(base,)).tasks())
        (record_b,) = execute_task_batch(
            CampaignSpec(name="b", seed=11, cells=(with_override,)).tasks()
        )
        assert record_a.skew == record_b.skew
        np.testing.assert_array_equal(
            np.asarray(record_a.trigger_times), np.asarray(record_b.trigger_times)
        )
        # Direct RunSpec users *do* get the override honoured by the engine.
        import dataclasses

        task = CampaignSpec(name="b", seed=11, cells=(with_override,)).tasks()[0]
        honoured_spec = dataclasses.replace(task.to_run_spec(), timeouts=override)
        honoured = get_engine("des").run(honoured_spec)
        assert honoured.timeouts.t_sleep_max == 800.0

    def test_unknown_task_engine_fails_before_running(self):
        task = self._three_engine_spec().tasks()[0]
        import dataclasses

        broken = dataclasses.replace(task, engine="vhdl")
        with pytest.raises(ValueError, match="unknown engine"):
            execute_task_batch([broken])

    def test_build_time_and_run_time_capability_checks_agree(self):
        """``SweepSpec`` rejects a cell exactly when running its task fails,
        and both sides name the same capability."""
        import dataclasses

        from repro.adversary.schedule import FaultSchedule

        phrases = (
            "does not support kind",
            "does not support fault injection",
            "cannot execute dynamic fault schedules",
            "does not support topology",
        )

        def phrase_of(call):
            try:
                call()
            except ValueError as error:
                matched = [phrase for phrase in phrases if phrase in str(error)]
                assert len(matched) == 1, str(error)
                return matched[0]
            return None

        burst = FaultSchedule.burst(time=5.0, count=1)
        checked = 0
        for kind in ("single_pulse", "multi_pulse"):
            # A cell every axis value below can be swapped into: its task is
            # the run-time side once the swapped-in values are applied.
            base = CampaignSpec(
                name="agree", seed=3,
                cells=(SweepSpec(layers=6, width=5, engine="des", kind=kind,
                                 num_pulses=2, runs=1, scenario="i"),),
            ).tasks()[0]
            for engine in available_engines():
                for num_faults in (0, 1):
                    for schedule in (None, burst):
                        for topology in ("cylinder", "torus"):
                            axes = dict(
                                engine=engine, num_faults=num_faults,
                                fault_schedule=schedule, topology=topology,
                            )
                            build = phrase_of(lambda: SweepSpec(
                                layers=6, width=5, kind=kind, num_pulses=2, runs=1,
                                scenario="i", **axes,
                            ))
                            task = dataclasses.replace(
                                base,
                                fault_type="byzantine" if num_faults else None,
                                **axes,
                            )
                            run = phrase_of(lambda: execute_task_batch([task]))
                            assert build == run, (kind, axes, build, run)
                            checked += 1
        assert checked == 2 * len(available_engines()) * 8

    def test_array_engine_axis_serial_parallel_resumed_bit_identity(self, tmp_path):
        """Campaign determinism with the dense engine on the engine axis.

        Serial, parallel and store-resumed executions of a
        ``require_exactness="bit_identical"`` cell must produce byte-identical
        records, and the solver/array record pairs at each sweep point must
        carry identical trigger times (the contract, observed end to end).
        """
        cell = SweepSpec(
            layers=6,
            width=5,
            scenario="iii",
            engine=("solver", "array"),
            delay_model=("constant", "max_skew"),
            runs=2,
            seed_salt=0,
            require_exactness="bit_identical",
        )
        spec = CampaignSpec(name="dense-axis", seed=13, cells=(cell,))
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(spec, workers=2).run()
        CampaignRunner(spec, store=tmp_path).run()
        resumed = CampaignRunner(spec, store=tmp_path, resume=True).run()
        canonical = [r.canonical_json() for r in serial.records]
        assert canonical == [r.canonical_json() for r in parallel.records]
        assert canonical == [r.canonical_json() for r in resumed.records]

        # Each sweep point derives its own entropy, so engine-axis neighbours
        # are distinct runs; the bit-identity claim is checked by replaying
        # every array task's exact derived RunSpec on the reference solver.
        import dataclasses

        array_tasks = [task for task in spec.tasks() if task.engine == "array"]
        assert len(array_tasks) == len(serial.records) // 2
        for task in array_tasks:
            array_record = execute_task_batch([task])[0]
            solver_record = execute_task_batch([dataclasses.replace(task, engine="solver")])[0]
            np.testing.assert_array_equal(
                np.asarray(array_record.trigger_times),
                np.asarray(solver_record.trigger_times),
            )

    def test_multi_pulse_point_ignores_single_pulse_engine(self):
        """The engine axis stays inert for multi-pulse cells (documented)."""
        cells = tuple(
            SweepSpec(
                layers=4, width=4, kind="multi_pulse", num_pulses=2, runs=1,
                engine=engine, seed_salt=0,
            )
            for engine in ("solver", "des")
        )
        spec = CampaignSpec(name="mp", seed=3, cells=cells)
        records = CampaignRunner(spec).run().records
        assert records[0].total_firings == records[1].total_firings
        assert records[0].stabilization_time == records[1].stabilization_time


# ----------------------------------------------------------------------
# the exactness contract (EngineCapabilities.exactness / exact_when)
# ----------------------------------------------------------------------
class TestExactnessContract:
    def test_capabilities_validation(self):
        with pytest.raises(ValueError, match="unknown exactness"):
            EngineCapabilities(kinds=("single_pulse",), exactness="vibes")
        with pytest.raises(ValueError, match="unknown exact_when predicate"):
            EngineCapabilities(
                kinds=("single_pulse",),
                exactness="bit_identical",
                exact_when=("lucky",),
            )
        with pytest.raises(ValueError, match="only gate a 'bit_identical'"):
            EngineCapabilities(
                kinds=("single_pulse",),
                exactness="tolerance",
                exact_when=("fault_free",),
            )
        with pytest.raises(ValueError, match="tolerance must be positive"):
            EngineCapabilities(kinds=("single_pulse",), tolerance=0.0)

    def test_is_exact_for_consults_spec_regime(self):
        capabilities = get_engine("array").capabilities
        exact = RunSpec(layers=4, width=4, delay_model="constant", entropy=1)
        assert capabilities.is_exact_for(exact)
        assert capabilities.is_exact_for(
            RunSpec(layers=4, width=4, delay_model="max_skew", entropy=1)
        )
        # Random delays break the deterministic_delays predicate; so does the
        # per-kind "default" resolution (single-pulse default is uniform).
        assert not capabilities.is_exact_for(
            RunSpec(layers=4, width=4, delay_model="uniform", entropy=1)
        )
        assert not capabilities.is_exact_for(RunSpec(layers=4, width=4, entropy=1))
        # The solver's claim is unconditional.
        assert get_engine("solver").capabilities.is_exact_for(
            RunSpec(layers=4, width=4, entropy=1)
        )
        # Tolerance engines never claim bitwise agreement.
        assert not get_engine("des").capabilities.is_exact_for(exact)

    def test_require_exactness_names_unmet_predicates(self):
        spec = RunSpec(layers=4, width=4, delay_model="uniform", entropy=1)
        require_exactness(get_engine("solver"), spec, "bit_identical")
        require_exactness(get_engine("des"), spec, "tolerance")
        with pytest.raises(ValueError, match="deterministic_delays"):
            require_exactness(get_engine("array"), spec, "bit_identical")
        with pytest.raises(ValueError, match="cannot promise bit-identical"):
            require_exactness(get_engine("des"), spec, "bit_identical")
        with pytest.raises(ValueError, match="no quantitative agreement"):
            require_exactness(get_engine("clocktree"), spec, "tolerance")
        with pytest.raises(ValueError, match="unknown exactness requirement"):
            require_exactness(get_engine("solver"), spec, "vibes")

    def test_sweepspec_require_exactness_checked_at_build_time(self):
        SweepSpec(
            layers=6,
            width=5,
            engine=("solver", "array"),
            delay_model=("constant", "max_skew"),
            require_exactness="bit_identical",
        )
        with pytest.raises(ValueError, match="require_exactness"):
            SweepSpec(
                layers=6,
                width=5,
                engine=("array",),
                delay_model=("uniform",),
                require_exactness="bit_identical",
            )
        with pytest.raises(ValueError, match="require_exactness"):
            SweepSpec(layers=6, width=5, engine=("des",), require_exactness="bit_identical")
        with pytest.raises(ValueError, match="require_exactness"):
            SweepSpec(layers=6, width=5, engine=("clocktree",), require_exactness="tolerance")
        with pytest.raises(ValueError, match="unknown require_exactness"):
            SweepSpec(layers=6, width=5, require_exactness="psychic")

    def test_sweepspec_require_exactness_serialization(self):
        default = SweepSpec(layers=6, width=5)
        assert "require_exactness" not in default.to_json_dict()
        cell = SweepSpec(
            layers=6,
            width=5,
            engine=("solver", "array"),
            delay_model=("constant",),
            require_exactness="bit_identical",
        )
        document = cell.to_json_dict()
        assert document["require_exactness"] == "bit_identical"
        assert SweepSpec.from_json_dict(document) == cell


# ----------------------------------------------------------------------
# the dense numpy-frontier array engine
# ----------------------------------------------------------------------
ARRAY_TOPOLOGIES = (
    "cylinder",
    "torus",
    "patch",
    "degraded:nodes=2,links=3,seed=11",
)


class TestArrayEngine:
    @pytest.mark.parametrize("topology", ARRAY_TOPOLOGIES)
    @pytest.mark.parametrize("delay_model", ["constant", "max_skew"])
    def test_bit_identical_to_solver_in_contract_regime(self, topology, delay_model):
        spec = RunSpec(
            layers=9,
            width=7,
            topology=topology,
            delay_model=delay_model,
            scenario="iii",
            entropy=2013,
            run_index=4,
        )
        assert get_engine("array").capabilities.is_exact_for(spec)
        array = get_engine("array").run(spec)
        solver = get_engine("solver").run(spec)
        np.testing.assert_array_equal(array.trigger_times, solver.trigger_times)
        np.testing.assert_array_equal(array.correct_mask, solver.correct_mask)
        np.testing.assert_array_equal(array.layer0_times, solver.layer0_times)
        assert array.engine == "array" and array.spec == spec

    def test_run_batch_bit_identical_to_per_spec_loop(self):
        engine = get_engine("array")
        specs = [
            RunSpec(layers=5, width=6, delay_model="constant", entropy=8, run_index=i)
            for i in range(4)
        ] + [
            RunSpec(
                layers=4,
                width=5,
                topology="torus",
                delay_model="max_skew",
                entropy=8,
                run_index=i,
            )
            for i in range(3)
        ]
        batched = engine.run_batch(specs)
        looped = generic_run_batch(engine, specs)
        assert len(batched) == len(specs)
        assert len({batch_key(spec) for spec in specs}) == 2
        for via_batch, via_loop in zip(batched, looped):
            np.testing.assert_array_equal(
                via_batch.trigger_times, via_loop.trigger_times
            )
            assert via_batch.spec == via_loop.spec

    def test_random_delays_stay_inside_declared_envelope(self):
        spec = RunSpec(layers=10, width=8, delay_model="uniform", scenario="iii", entropy=77)
        result = get_engine("array").run(spec)
        assert result.all_correct_triggered()
        low, high = delay_envelope(spec)
        times = result.trigger_times
        assert np.all(times >= low - 1e-9)
        assert np.all(times <= high + 1e-9)

    def test_rejects_faults_schedules_and_multi_pulse(self):
        engine = get_engine("array")
        with pytest.raises(ValueError, match="does not support fault injection"):
            engine.run(
                RunSpec(layers=4, width=4, num_faults=1, fault_type="byzantine", entropy=1)
            )
        with pytest.raises(ValueError, match="does not support kind"):
            engine.run(RunSpec(kind="multi_pulse", layers=4, width=4, entropy=1))
        from repro.adversary.schedule import FaultSchedule

        with pytest.raises(ValueError, match="dynamic fault schedules"):
            engine.run(
                RunSpec(
                    layers=4,
                    width=4,
                    entropy=1,
                    fault_schedule=FaultSchedule.burst(time=5.0, count=1),
                )
            )

    def test_degraded_unreachable_nodes_match_solver(self):
        """Heavily damaged grids leave deadlocked nodes at +inf in both engines."""
        spec = RunSpec(
            layers=6,
            width=6,
            topology="degraded:links=9,seed=5",
            delay_model="constant",
            entropy=3,
        )
        array = get_engine("array").run(spec)
        solver = get_engine("solver").run(spec)
        np.testing.assert_array_equal(array.trigger_times, solver.trigger_times)

    def test_work_counters_are_batching_invariant(self):
        from repro import obs

        engine = get_engine("array")
        specs = [
            RunSpec(layers=5, width=6, delay_model="constant", entropy=21, run_index=i)
            for i in range(3)
        ]

        def counters(run):
            with obs.observed() as session:
                run()
                return (
                    session.registry.counter("array.rounds"),
                    session.registry.counter("array.cells_updated"),
                )

        serial = counters(lambda: [engine.run(spec) for spec in specs])
        batched = counters(lambda: engine.run_batch(specs))
        assert serial == batched
        assert serial[0] and serial[1]


# ----------------------------------------------------------------------
# contract-driven cross-engine agreement (no engine-name switches)
# ----------------------------------------------------------------------
class TestContractDrivenAgreement:
    @settings(max_examples=8, deadline=None)
    @given(
        entropy=st.integers(min_value=0, max_value=2**32 - 1),
        layers=st.integers(min_value=2, max_value=4),
        width=st.integers(min_value=4, max_value=6),
        topology=st.sampled_from(ARRAY_TOPOLOGIES),
        delay_model=st.sampled_from(["constant", "max_skew", "uniform"]),
    )
    def test_every_engine_honours_its_declared_contract(
        self, entropy, layers, width, topology, delay_model
    ):
        """Agreement expectations derive from capabilities, not engine names.

        The solver is the reference semantics.  For every registered
        single-pulse engine able to run the spec: a spec inside the engine's
        ``exact_when`` regime must match the solver bit for bit; an engine
        declaring a numeric ``tolerance`` must land inside the spec's delay
        envelope scaled by it; ``tolerance=None`` engines (the clock-tree
        baseline computes a different physical model) are exempt.
        """
        spec = RunSpec(
            kind="single_pulse",
            layers=layers,
            width=width,
            topology=topology,
            delay_model=delay_model,
            scenario="iii",
            entropy=entropy,
        )
        reference = get_engine("solver").run(spec)
        envelope = None
        for name in available_engines():
            engine = get_engine(name)
            capabilities = engine.capabilities
            if "single_pulse" not in capabilities.kinds:
                continue
            if not capabilities.supports_topology(spec.topology_family()):
                continue
            if name == "solver":
                continue
            if capabilities.is_exact_for(spec):
                result = engine.run(spec)
                np.testing.assert_array_equal(
                    result.trigger_times, reference.trigger_times
                )
            elif capabilities.tolerance is not None:
                result = engine.run(spec)
                if envelope is None:
                    envelope = delay_envelope(spec)
                low, high = envelope
                pad = (capabilities.tolerance - 1.0) / 2.0
                times = result.trigger_times
                finite = np.isfinite(low) & np.isfinite(high)
                span = np.subtract(high, low, out=np.zeros_like(high), where=finite)
                slack = pad * span + 1e-9
                inside = (times >= low - slack) & (times <= high + slack)
                same = (times == low) | (np.isnan(times) & np.isnan(low))
                assert np.all(np.where(finite, inside, same)), name


# ----------------------------------------------------------------------
# error messages & CLI
# ----------------------------------------------------------------------
class TestErrorsAndCli:
    def test_layer0_shape_error_is_actionable(self, timing):
        grid = HexGrid(layers=4, width=7)
        with pytest.raises(ValueError) as excinfo:
            get_engine("solver").single_pulse(
                grid, timing, np.zeros(3), rng=np.random.default_rng(0)
            )
        message = str(excinfo.value)
        assert "(7,)" in message
        assert "scenario_layer0_times" in message

    def test_cli_engines_lists_backends(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ("solver", "des", "clocktree", "array"):
            assert name in out
        assert "bit-identical when fault_free+deterministic_delays" in out

    def test_cli_engines_json_exposes_exactness(self, capsys):
        import json

        assert main(["engines", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert by_name["array"]["exactness"] == "bit_identical"
        assert by_name["array"]["exact_when"] == [
            "fault_free",
            "deterministic_delays",
        ]
        assert by_name["array"]["tolerance"] == 1.0
        assert by_name["solver"]["exactness"] == "bit_identical"
        assert by_name["solver"]["exact_when"] == []
        assert by_name["des"]["tolerance"] == 1.0
        assert by_name["clocktree"]["tolerance"] is None

    def test_cli_sweep_rejects_unknown_engine(self, capsys):
        assert main(["sweep", "--engine", "warp", "--runs", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown engine" in err
        assert "solver" in err
