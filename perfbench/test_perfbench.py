"""Tests of the benchmark itself: its metric table, trace determinism and
coverage, and its refusal to run without the program's sources.

Run from the repository root: ``python3 -m pytest perfbench -q``.  Each test
runs the real CLI, so the module takes about a minute.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from layers import DETERMINISTIC, PER_LAYER, layer_metrics
from workloads import DEFAULT_SEED, SWEEP_FAULTY_TASKS, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_metric_with_its_unit():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END.items()
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def _traced(bench, workers=0):
    invocation = bench.invoke(traced=True, workers=workers)
    assert invocation.ok, bench.problems
    return layer_metrics(
        invocation.trace, invocation.process.wall_s, workers or 1, invocation.worker_busy_s
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_and_cover_the_run(workload, tmp_path):
    bench = run.Bench(WORKLOADS[workload], DEFAULT_SEED, tmp_path)
    bench.prepare()
    first, second = _traced(bench), _traced(bench)
    assert {name: first[name] for name in DETERMINISTIC} == {
        name: second[name] for name in DETERMINISTIC
    }
    assert set(first) | {"trace.overhead_frac"} == {name for name, _, _ in PER_LAYER}
    assert first["trace.coverage"] >= 0.95
    if workload == "sweep-serial":
        assert first["core.pulse_solver.reference_calls"] == SWEEP_FAULTY_TASKS
        assert first["campaign.store.appends"] == WORKLOADS[workload].units
    if workload == "sweep-parallel":
        assert first["campaign.runner.batches"] == 0
        assert first["campaign.runner.worker_busy_s"] > 0
    if workload == "soak":
        assert first["simulation.network.events_processed"] > 0
    if workload == "resume":
        assert first["campaign.store.records_loaded"] == WORKLOADS[workload].units
        assert first["core.pulse_solver.messages_delivered"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_report_carries_every_metric(trace, capsys):
    assert run.main(["--workload", "soak", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    section = "per_layer" if trace else "end_to_end"
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in BENCHMARK[section]
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "perfbench/run.py", "--workload", "soak", "--seed", "1"]
    finished = subprocess.run(
        command + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert finished.returncode != 0
    assert finished.stdout == ""
    assert not list(tmp_path.glob(".perfbench-*"))
