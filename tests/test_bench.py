"""Tests for the benchmark harness (``repro.bench``) and batched execution.

Covers the acceptance surface of the bench subsystem: case/settings
round-trips and quick-mode shrink invariants, robust statistics, the
registry, the runner's schema-versioned per-suite artifacts and ``--out``
routing,
the baseline comparison exit codes (pass / regress / missing-baseline), the
``hex-repro bench`` CLI, and the engine/campaign batching contract --
``run_batch`` results bit-identical to per-spec execution.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.campaign.runner as campaign_runner
from repro.bench import (
    EXIT_MISSING_BASELINE,
    EXIT_OK,
    EXIT_REGRESSION,
    BenchCase,
    BenchSettings,
    available_suites,
    bench_output_dir,
    cases_in_suite,
    compare_payloads,
    get_case,
    load_baseline,
    load_builtin_suites,
    register_case,
    robust_stats,
    run_case,
    run_suites,
    suite_filename,
    unregister_case,
)
from repro.bench.runner import SCHEMA_VERSION, SUITE_SCHEMA
from repro.campaign import CampaignRunner, CampaignSpec, SweepSpec
from repro.cli import main
from repro.engines import RunSpec, generic_run_batch, get_engine


def _stub_case(name="stub", suite="stub-suite", **kwargs):
    calls = {"made": 0, "ran": 0, "checked": 0}

    def make(settings):
        calls["made"] += 1

        def workload():
            calls["ran"] += 1
            return {"value": 42}

        return workload

    def check(result, settings):
        calls["checked"] += 1
        assert result["value"] == 42

    defaults = dict(
        name=name,
        suite=suite,
        make=make,
        repeats=3,
        quick_repeats=1,
        check=check,
        quick_check=True,
        info=lambda result, settings: {"value": result["value"]},
    )
    defaults.update(kwargs)
    return BenchCase(**defaults), calls


class TestSettings:
    def test_mode_and_effective_runs(self):
        assert BenchSettings().mode == "full"
        assert BenchSettings(quick=True).mode == "quick"
        assert BenchSettings(paper=True).mode == "paper"
        assert BenchSettings(quick=True).effective_runs() < BenchSettings().effective_runs()
        assert BenchSettings(runs=77).effective_runs() == 77

    def test_quick_and_paper_are_exclusive(self):
        with pytest.raises(ValueError):
            BenchSettings(quick=True, paper=True)

    def test_configs_shrink_in_quick_mode(self):
        full, quick = BenchSettings(), BenchSettings(quick=True)
        assert quick.config().runs < full.config().runs
        assert quick.config().layers == full.config().layers == 50  # grid kept
        assert quick.stab_config().runs <= full.stab_config().runs


class TestCase:
    def test_validation(self):
        case, _ = _stub_case()
        assert case.effective_repeats(BenchSettings()) == 3
        assert case.effective_repeats(BenchSettings(quick=True)) == 1
        with pytest.raises(ValueError):
            _stub_case(repeats=0)
        with pytest.raises(ValueError):
            _stub_case(repeats=2, quick_repeats=3)  # quick only shrinks
        with pytest.raises(ValueError):
            _stub_case(name="")

    def test_checks_under_quick_mode(self):
        gated, _ = _stub_case(quick_check=False)
        always, _ = _stub_case(quick_check=True)
        assert gated.checks_under(BenchSettings()) is True
        assert gated.checks_under(BenchSettings(quick=True)) is False
        assert always.checks_under(BenchSettings(quick=True)) is True

    def test_builtin_cases_shrink_invariants(self):
        load_builtin_suites()
        quick = BenchSettings(quick=True)
        full = BenchSettings()
        suites = available_suites()
        assert {"solver", "des", "campaign", "topology", "clocktree", "batch"} <= set(
            suites
        )
        total = 0
        for suite in suites:
            for case in cases_in_suite(suite):
                total += 1
                assert case.effective_repeats(quick) <= case.effective_repeats(full)
        assert total >= 23  # the 22 ported historical cases plus the batch gate


class TestStats:
    def test_robust_stats_values(self):
        stats = robust_stats([3.0, 1.0, 2.0, 4.0])
        assert stats["min_s"] == 1.0
        assert stats["median_s"] == 2.5
        assert stats["max_s"] == 4.0
        assert stats["iqr_s"] == pytest.approx(1.5)
        assert stats["mean_s"] == pytest.approx(2.5)

    def test_robust_stats_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            robust_stats([])
        with pytest.raises(ValueError):
            robust_stats([1.0, float("nan")])
        with pytest.raises(ValueError):
            robust_stats([-0.1])


class TestRegistry:
    def test_register_get_unregister(self):
        case, _ = _stub_case(suite="reg-suite")
        register_case(case)
        try:
            assert get_case("reg-suite", "stub") is case
            assert "reg-suite" in available_suites()
            with pytest.raises(ValueError):
                register_case(case)  # duplicate without replace
            register_case(case, replace=True)
        finally:
            unregister_case("reg-suite", "stub")
        with pytest.raises(ValueError, match="unknown bench case"):
            get_case("reg-suite", "stub")


class TestRunner:
    def test_run_case_times_checks_and_info(self):
        case, calls = _stub_case()
        result = run_case(case, BenchSettings())
        assert calls == {"made": 1, "ran": 3, "checked": 1}
        assert len(result.times_s) == 3
        assert result.stats["median_s"] >= 0.0
        assert result.info == {"value": 42}

    def test_quick_mode_shrinks_repeats_and_skips_gated_checks(self):
        case, calls = _stub_case(quick_check=False)
        run_case(case, BenchSettings(quick=True))
        assert calls == {"made": 1, "ran": 1, "checked": 0}

    def test_run_suites_writes_schema_versioned_files(self, tmp_path):
        case, _ = _stub_case(suite="io-suite")
        register_case(case)
        try:
            payloads = run_suites(
                suites=["io-suite"], settings=BenchSettings(quick=True), out=str(tmp_path)
            )
        finally:
            unregister_case("io-suite", "stub")
        payload = json.loads((tmp_path / suite_filename("io-suite")).read_text())
        assert payload["schema"] == SUITE_SCHEMA
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["mode"] == "quick"
        assert payload["cases"]["stub"]["stats"]["median_s"] >= 0.0
        assert payload["provenance"]["python"]
        assert payloads == {"io-suite": payload}

    def test_run_suites_writes_one_file_per_suite_and_nothing_else(self, tmp_path):
        cases = [_stub_case(suite=suite)[0] for suite in ("one-suite", "two-suite")]
        for case in cases:
            register_case(case)
        try:
            run_suites(
                suites=["one-suite", "two-suite"],
                settings=BenchSettings(quick=True),
                out=str(tmp_path),
            )
        finally:
            for case in cases:
                unregister_case(case.suite, case.name)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "BENCH_one-suite.json",
            "BENCH_two-suite.json",
        ]

    def test_run_suites_rejects_unknown_suite(self, tmp_path):
        with pytest.raises(ValueError, match="unknown bench suite"):
            run_suites(suites=["no-such-suite"], out=str(tmp_path))

    def test_bench_output_dir_precedence(self, tmp_path, monkeypatch):
        assert bench_output_dir(str(tmp_path)) == tmp_path
        monkeypatch.chdir(tmp_path)
        assert bench_output_dir() == tmp_path  # default: the current directory


def _payload(suite, medians, mode="quick"):
    return {
        "schema": SUITE_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "mode": mode,
        "provenance": {},
        "cases": {
            name: {"repeats": 1, "times_s": [median], "stats": {"median_s": median}}
            for name, median in medians.items()
        },
    }


class TestCompare:
    def test_pass_within_tolerance(self):
        report = compare_payloads(
            {"s": _payload("s", {"c": 1.2})}, {"s": _payload("s", {"c": 1.0})},
            tolerance_pct=25.0,
        )
        assert not report.regressions
        assert report.exit_code() == EXIT_OK

    def test_regression_beyond_tolerance(self):
        report = compare_payloads(
            {"s": _payload("s", {"c": 1.3, "d": 0.9})},
            {"s": _payload("s", {"c": 1.0, "d": 1.0})},
            tolerance_pct=25.0,
        )
        assert [c.name for c in report.regressions] == ["c"]
        assert report.exit_code() == EXIT_REGRESSION
        assert "REGRESSED" in report.render()

    def test_missing_suite_case_and_mode_mismatch(self):
        fresh = {"s": _payload("s", {"c": 1.0}), "t": _payload("t", {"x": 1.0})}
        baseline = {"s": _payload("s", {"c": 1.0, "gone": 1.0})}
        report = compare_payloads(fresh, baseline)
        assert report.exit_code() == EXIT_MISSING_BASELINE
        assert any("suite 't'" in message for message in report.missing)
        assert any("gone" in message for message in report.missing)

    def test_baseline_only_suite_is_missing(self):
        # A suite that silently stopped running must not pass the gate.
        report = compare_payloads(
            {"s": _payload("s", {"c": 1.0})},
            {"s": _payload("s", {"c": 1.0}), "dropped": _payload("dropped", {"x": 1.0})},
        )
        assert report.exit_code() == EXIT_MISSING_BASELINE
        assert any("'dropped' was not run" in message for message in report.missing)
        mismatched = compare_payloads(
            {"s": _payload("s", {"c": 1.0}, mode="quick")},
            {"s": _payload("s", {"c": 1.0}, mode="full")},
        )
        assert mismatched.exit_code() == EXIT_MISSING_BASELINE

    def test_new_case_does_not_gate(self):
        report = compare_payloads(
            {"s": _payload("s", {"c": 1.0, "brand_new": 9.9})},
            {"s": _payload("s", {"c": 1.0})},
        )
        assert report.exit_code() == EXIT_OK
        assert report.new_cases == ["s/brand_new"]

    def test_regression_dominates_missing(self):
        report = compare_payloads(
            {"s": _payload("s", {"c": 2.0}), "t": _payload("t", {"x": 1.0})},
            {"s": _payload("s", {"c": 1.0})},
        )
        assert report.exit_code() == EXIT_REGRESSION

    def test_load_baseline_file_directory_and_missing(self, tmp_path):
        s_payload, t_payload = _payload("s", {"c": 1.0}), _payload("t", {"x": 2.0})
        (tmp_path / "BENCH_s.json").write_text(json.dumps(s_payload))
        (tmp_path / "BENCH_t.json").write_text(json.dumps(t_payload))
        assert load_baseline(str(tmp_path)) == {"s": s_payload, "t": t_payload}
        assert load_baseline(str(tmp_path / "BENCH_s.json")) == {"s": s_payload}
        assert load_baseline(str(tmp_path / "nope")) == {}
        with pytest.raises(ValueError, match="not a bench payload"):
            (tmp_path / "only.json").write_text("{}")
            load_baseline(str(tmp_path / "only.json"))
        # a document that is not a suite payload is rejected, not merged
        (tmp_path / "BENCH_other.json").write_text(json.dumps({"schema": "other"}))
        with pytest.raises(ValueError, match="not a bench payload"):
            load_baseline(str(tmp_path))


class TestBenchCli:
    @pytest.fixture()
    def stub_suite(self):
        case, calls = _stub_case(suite="cli-suite")
        register_case(case)
        yield calls
        unregister_case("cli-suite", "stub")

    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        output = capsys.readouterr().out
        assert "solver" in output and "batch" in output

    def test_list_runs_without_test_only_packages(self):
        """``bench`` loads every suite with the runtime dependencies alone."""
        script = (
            "import runpy, sys\n"
            "for name in ('pytest', 'hypothesis', 'networkx'):\n"
            "    sys.modules[name] = None\n"
            "sys.argv = ['repro', 'bench', '--list']\n"
            "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "solver" in proc.stdout

    def test_unknown_suite_is_a_cli_error(self, tmp_path):
        assert main(["bench", "--suite", "no-such", "--out", str(tmp_path)]) == 2

    def test_paper_flag_selects_paper_mode(self, stub_suite, tmp_path):
        argv = ["bench", "--paper", "--suite", "cli-suite", "--out", str(tmp_path)]
        assert main(argv) == 0
        payload = json.loads((tmp_path / suite_filename("cli-suite")).read_text())
        assert payload["mode"] == "paper"
        assert main(argv + ["--quick"]) == 2  # quick and paper are exclusive

    def test_compare_pass_regress_missing_exit_codes(self, stub_suite, tmp_path):
        fresh_dir = tmp_path / "fresh"
        base_dir = tmp_path / "base"
        argv = ["bench", "--quick", "--suite", "cli-suite", "--out", str(base_dir)]
        assert main(argv) == 0

        baseline_file = base_dir / suite_filename("cli-suite")
        compare = [
            "bench", "--quick", "--suite", "cli-suite", "--out", str(fresh_dir),
            "--compare", str(base_dir), "--tolerance", "25",
        ]
        # missing baseline: point at an empty directory
        missing_dir = tmp_path / "empty"
        missing_dir.mkdir()
        assert (
            main(compare[:-4] + ["--compare", str(missing_dir), "--tolerance", "25"])
            == EXIT_MISSING_BASELINE
        )
        # pass: the stub workload is effectively instant in both runs ... but
        # guard against timer jitter by inflating the baseline median first.
        payload = json.loads(baseline_file.read_text())
        payload["cases"]["stub"]["stats"]["median_s"] = 10.0
        baseline_file.write_text(json.dumps(payload))
        assert main(compare) == EXIT_OK
        # regression: force an absurdly fast baseline median
        payload["cases"]["stub"]["stats"]["median_s"] = 0.0
        baseline_file.write_text(json.dumps(payload))
        assert main(compare) == EXIT_REGRESSION

    def test_failed_check_is_recorded_and_later_suites_still_run(self, tmp_path, capsys):
        def failing_check(result, settings):
            assert result["value"] == 0, "stub value is not 0"

        failing, _ = _stub_case(suite="a-failing", check=failing_check)
        passing, passing_calls = _stub_case(suite="b-passing")
        register_case(failing)
        register_case(passing)
        selection = ["--suite", "a-failing", "--suite", "b-passing"]
        try:
            base_dir, fresh_dir = tmp_path / "base", tmp_path / "fresh"
            assert main(["bench", "--quick", *selection, "--out", str(base_dir), "--no-check"]) == 0
            for path in base_dir.glob("BENCH_*.json"):
                payload = json.loads(path.read_text())
                for case in payload["cases"].values():
                    case["stats"]["median_s"] = 10.0  # no timing regression
                path.write_text(json.dumps(payload))
            capsys.readouterr()
            argv = ["bench", "--quick", *selection, "--out", str(fresh_dir)]
            code = main(argv + ["--compare", str(base_dir)])
        finally:
            unregister_case("a-failing", "stub")
            unregister_case("b-passing", "stub")
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.out + captured.err
        failed = json.loads((fresh_dir / suite_filename("a-failing")).read_text())
        assert failed["cases"]["stub"]["check_failed"].startswith("stub value is not 0")
        passed = json.loads((fresh_dir / suite_filename("b-passing")).read_text())
        assert "check_failed" not in passed["cases"]["stub"]
        assert passing_calls["checked"] == 1
        assert "PASS" in captured.out  # the comparison still ran
        assert "1 case check(s) failed: a-failing/stub" in captured.out


class TestRunBatch:
    def _specs(self):
        specs = []
        for index, topology in enumerate(
            ("cylinder", "torus", "patch", "degraded:nodes=2,links=1,seed=3")
        ):
            for scenario in ("i", "iii"):
                for num_faults, fault_type in (
                    (0, None),
                    (2, "byzantine"),
                    (1, "fail_silent"),
                ):
                    specs.append(
                        RunSpec(
                            kind="single_pulse",
                            layers=8,
                            width=5,
                            scenario=scenario,
                            topology=topology,
                            num_faults=num_faults,
                            fault_type=fault_type,
                            entropy=777 + index,
                            run_index=len(specs),
                        )
                    )
        return specs

    @staticmethod
    def _assert_results_identical(per_spec, batched):
        for field in ("trigger_times", "correct_mask", "layer0_times"):
            assert np.array_equal(
                getattr(per_spec, field), getattr(batched, field), equal_nan=True
            ), field
        if per_spec.solution is not None:
            assert np.array_equal(per_spec.solution.guards, batched.solution.guards)
        assert (per_spec.fault_model is None) == (batched.fault_model is None)
        if per_spec.fault_model is not None:
            assert tuple(per_spec.fault_model.faulty_nodes()) == tuple(
                batched.fault_model.faulty_nodes()
            )

    def test_solver_run_batch_bit_identical_to_per_spec_runs(self):
        engine = get_engine("solver")
        specs = self._specs()
        batched = engine.run_batch(specs)
        assert len(batched) == len(specs)
        for spec, batch_result in zip(specs, batched):
            self._assert_results_identical(engine.run(spec), batch_result)
        # grids are shared per (topology, layers, width) within the batch
        fault_free = [r for r in batched if r.spec.num_faults == 0]
        by_topology = {}
        for result in batched:
            by_topology.setdefault(result.spec.topology, []).append(result)
        for results in by_topology.values():
            assert all(r.grid is results[0].grid for r in results)
        assert fault_free  # the fast path was actually exercised

    def test_solver_run_batch_rejects_unsupported_specs_like_run(self):
        engine = get_engine("solver")
        with pytest.raises(ValueError, match="does not support kind"):
            engine.run_batch([RunSpec(kind="multi_pulse", layers=4, width=4)])

    def test_generic_run_batch_matches_loop(self):
        engine = get_engine("des")
        specs = [
            RunSpec(
                kind="single_pulse", layers=4, width=4, scenario="i",
                entropy=5, run_index=index,
            )
            for index in range(3)
        ]
        for per_spec, batched in zip(
            [engine.run(spec) for spec in specs], generic_run_batch(engine, specs)
        ):
            assert np.array_equal(
                per_spec.trigger_times, batched.trigger_times, equal_nan=True
            )

    def test_planned_solver_used_only_when_fault_free(self):
        engine = get_engine("solver")
        faulty = RunSpec(
            kind="single_pulse", layers=6, width=5, num_faults=2,
            fault_type="byzantine", entropy=1, run_index=0,
        )
        (result,) = engine.run_batch([faulty])
        assert result.fault_model is not None
        assert result.solution is not None


class TestCampaignBatching:
    def _spec(self, **kwargs):
        defaults = dict(
            layers=(8, 10), width=5, scenario=("i", "iii"), num_faults=(0, 1),
            runs=2, seed_salt=4,
        )
        defaults.update(kwargs)
        return CampaignSpec(name="batching", seed=31, cells=(SweepSpec(**defaults),))

    def _per_task_records(self, spec, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(campaign_runner, "BATCH_SIZE", 1)
            return CampaignRunner(spec).run().records

    def test_batched_serial_records_match_per_task_execution(self, monkeypatch):
        spec = self._spec()
        batched = CampaignRunner(spec).run()
        assert [r.canonical_json() for r in batched.records] == [
            r.canonical_json() for r in self._per_task_records(spec, monkeypatch)
        ]

    def test_mixed_engine_cells_split_into_groups(self, monkeypatch):
        spec = self._spec(engine=("solver", "clocktree"), num_faults=0, layers=8)
        batched = CampaignRunner(spec).run()
        assert [r.canonical_json() for r in batched.records] == [
            r.canonical_json() for r in self._per_task_records(spec, monkeypatch)
        ]

    def test_execute_task_batch_matches_execute_task(self):
        tasks = self._spec().tasks()
        batched = campaign_runner.execute_task_batch(tasks)
        for task, record in zip(tasks, batched):
            single = campaign_runner.execute_task_batch([task])[0]
            assert record.canonical_json() == single.canonical_json()

    def test_execute_task_batch_rejects_mixed_groups(self):
        tasks = self._spec().tasks()
        multi = self._spec(kind="multi_pulse", num_faults=0, scenario="i", layers=8)
        with pytest.raises(ValueError, match="one kind and engine"):
            campaign_runner.execute_task_batch([tasks[0], multi.tasks()[0]])

    def test_chunks_keep_one_kind_and_engine_and_cap_their_length(self):
        cells = (
            SweepSpec(layers=6, width=4, engine=("solver", "clocktree"), runs=20),
            SweepSpec(
                layers=6, width=4, engine="des", kind="multi_pulse", num_pulses=2, runs=3,
            ),
            SweepSpec(layers=6, width=4, runs=40),
        )
        pending = list(enumerate(CampaignSpec(name="chunks", seed=1, cells=cells).tasks()))
        for size in (campaign_runner.BATCH_SIZE, 5):
            tail = [size] * (40 // size) + [40 % size] * (40 % size > 0)
            chunks = list(campaign_runner._chunks(pending, size))
            assert [index for chunk in chunks for index, _ in chunk] == list(
                range(len(pending))
            )
            shapes = []
            for chunk in chunks:
                ((kind, _),) = {(task.kind, task.engine) for _, task in chunk}
                shapes.append((kind, len(chunk)))
            single = [n for kind, n in shapes if kind == "single_pulse"]
            assert max(single) == size
            assert sum(single) == 20 + 20 + 40
            assert [n for kind, n in shapes if kind == "multi_pulse"] == [1, 1, 1]
            assert [n for _, n in shapes[-len(tail) :]] == tail
