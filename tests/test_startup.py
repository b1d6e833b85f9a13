"""Start-up: a ``hex-repro`` process loads only the modules its verb runs.

Each module check runs in a fresh interpreter, because this test session has
long since imported every subsystem.  The rule (see DESIGN.md "Start-up"):
``import repro.cli`` loads the campaign layer that ``sweep``, ``simulate``
and ``run`` share; everything else loads in the handler of the verb that
runs it, and a sweep has loaded every module it runs once its spec is built.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engines import available_engines, get_engine, register_engine, unregister_engine
from repro.engines.registry import BUILTIN_ENGINES
from repro.experiments import EXPERIMENTS

SRC = Path(repro.__file__).resolve().parents[1]

#: At most this many ``repro.*`` modules after ``import repro.cli``.
MAX_CLI_MODULES = 40


def _run(code: str) -> list:
    """Run ``code`` in a fresh interpreter; it prints one JSON document."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "sorted(name for name in sys.modules if name.startswith('repro'))"


def test_importing_the_cli_loads_no_verb_subsystem():
    loaded = _run(f"import json, sys\nimport repro.cli\nprint(json.dumps({LOADED}))")
    assert len(loaded) <= MAX_CLI_MODULES, loaded
    forbidden = {
        "repro.simulation.network",
        "repro.engines.des",
        "repro.engines.array",
        "repro.engines.clocktree",
        "repro.analysis.histograms",
        "repro.adversary.runtime",
        "repro.obs.capture",
        *EXPERIMENTS.values(),
    }
    assert sorted(forbidden & set(loaded)) == []
    assert [name for name in loaded if name.startswith(("repro.clocktree", "repro.bench"))] == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_loads_every_module_it_runs_while_its_spec_is_built(tmp_path, workers):
    """Neither the sweep process nor its (forked) pool workers import a
    ``repro`` module once the campaign starts."""
    argv = [
        "sweep", "--engine", "solver", "--layers", "8", "--width", "5",
        "--scenarios", "i,iii", "--faults", "0,1", "--runs", "2", "--quiet",
        "--workers", str(workers), "--store", str(tmp_path / "store"),
        "--out", str(tmp_path / "out.jsonl"),
    ]
    worker_log = tmp_path / "worker-modules.jsonl"
    code = f"""
import json, sys
import repro.cli
import repro.campaign.runner as runner

seen = {{}}
run = runner.CampaignRunner.run
chunk = runner._execute_chunk_in_worker

def run_spy(self):
    seen["at_run"] = {LOADED}
    return run(self)

def chunk_spy(*args, **kwargs):
    before = {LOADED}
    try:
        return chunk(*args, **kwargs)
    finally:
        with open({str(worker_log)!r}, "a") as handle:
            handle.write(json.dumps(sorted(set({LOADED}) - set(before))) + "\\n")

runner.CampaignRunner.run = run_spy
runner._execute_chunk_in_worker = chunk_spy
assert repro.cli.main({argv!r}) == 0
print(json.dumps(sorted(set({LOADED}) - set(seen["at_run"]))))
"""
    assert _run(code) == []
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 8
    if workers > 1:
        loaded = [json.loads(line) for line in worker_log.read_text().splitlines()]
        assert loaded and all(modules == [] for modules in loaded)


@pytest.mark.parametrize(
    "argv",
    [
        [
            "sweep", "--engine", "solver", "--layers", "8", "--width", "5",
            "--scenarios", "i,iii", "--faults", "0,1", "--runs", "2", "--quiet",
            "--workers", "1", "--store", "{tmp}/store", "--out", "{tmp}/out.jsonl",
        ],
        [
            "soak", "--layers", "5", "--width", "4", "--faults", "1",
            "--pulses-per-epoch", "50", "--pulses", "100", "--quiet",
            "--store", "{tmp}/soak",
        ],
    ],
    ids=["faulty-sweep", "soak"],
)
def test_a_sweep_or_soak_never_imports_numpy_ma(tmp_path, argv):
    """Skew quantiles and soak medians come from ``repro.stream.exact``, not
    from ``np.quantile``/``np.median``, whose first calls import
    ``numpy.ma`` (about 10 ms and 1.9 MB in a fresh process)."""
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = f"""
import json, sys
import repro.cli
assert repro.cli.main({argv!r}) == 0
print(json.dumps("numpy.ma" in sys.modules))
"""
    assert _run(code) is False


def test_listing_engines_imports_no_engine_module():
    code = f"""
import json, sys
from repro.engines import available_engines
names = available_engines()
print(json.dumps([list(names), {LOADED}]))
"""
    names, loaded = _run(code)
    assert names == ["array", "clocktree", "des", "solver"]
    assert [module for module, _ in BUILTIN_ENGINES.values() if module in loaded] == []


@pytest.mark.parametrize("name", sorted(BUILTIN_ENGINES))
def test_each_builtin_entry_resolves_to_the_engine_of_its_name(name):
    module, attribute = BUILTIN_ENGINES[name]
    assert getattr(importlib.import_module(module), attribute)().name == name
    assert get_engine(name).name == name


def test_unregister_and_replace_keep_their_behaviour():
    des = get_engine("des")
    try:
        unregister_engine("des")
        assert "des" not in available_engines()
        with pytest.raises(ValueError, match="unknown engine 'des'"):
            get_engine("des")
    finally:
        register_engine(des)
    assert get_engine("des") is des
    replacement = type(des)()
    with pytest.raises(ValueError, match="already registered"):
        register_engine(replacement)
    try:
        assert register_engine(replacement, replace=True) is replacement
        assert get_engine("des") is replacement
    finally:
        register_engine(des, replace=True)


def test_a_builtin_unregistered_before_its_first_lookup_stays_gone():
    code = """
import json
from repro.engines import available_engines, get_engine, unregister_engine
unregister_engine("array")
try:
    get_engine("array")
    outcome = "found"
except ValueError as error:
    outcome = str(error)
print(json.dumps([list(available_engines()), outcome]))
"""
    names, outcome = _run(code)
    assert names == ["clocktree", "des", "solver"]
    assert outcome.startswith("unknown engine 'array'")
