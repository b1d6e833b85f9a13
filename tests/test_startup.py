"""Start-up: a ``hex-repro`` process loads only the modules its verb runs.

Each module check runs in a fresh interpreter, because this test session has
long since imported every subsystem.  The rule (see DESIGN.md "Start-up"):
``import repro.cli`` and ``build_parser()`` load only what the parser needs;
each verb's handler lives next to its subsystem and loads when that verb is
dispatched.  A sweep has loaded every module it runs once its campaign spec
is built, and a soak once its ``SoakSpec`` is built, so a set-up probe that
builds the spec pays the whole import cost.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.engines import available_engines, get_engine, register_engine, unregister_engine
from repro.engines.registry import BUILTIN_ENGINES
from repro.experiments import EXPERIMENTS

SRC = Path(repro.__file__).resolve().parents[1]

#: At most this many ``repro.*`` modules after ``import repro.cli``.
MAX_CLI_MODULES = 20


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
    loaded = _run(
        f"import json, sys\nimport repro.cli\nrepro.cli.build_parser()\nprint(json.dumps({LOADED}))"
    )
    assert len(loaded) <= MAX_CLI_MODULES, loaded
    forbidden = {
        "repro.analysis.skew",
        "repro.core.pulse_solver",
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
    assert [
        name
        for name in loaded
        if name.startswith(("repro.campaign", "repro.clocktree", "repro.bench"))
    ] == []
    assert sorted({module for module, _ in cli._HANDLERS.values()} & set(loaded)) == []


def test_main_dispatches_every_verb_to_its_handler(monkeypatch):
    """Every sub-parser of ``build_parser`` has a handler, and ``main``
    calls it with the parsed arguments."""
    parser = cli.build_parser()
    (verbs,) = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(verbs.choices) == sorted(cli._HANDLERS)
    dispatched = []
    for verb, subparser in verbs.choices.items():
        module_name, name = cli._HANDLERS[verb]
        module = importlib.import_module(module_name)
        assert callable(getattr(module, name))
        monkeypatch.setattr(module, name, lambda args: dispatched.append(args.command) or 0)
        positionals = [
            list(action.choices)[0] if action.choices else "FILE"
            for action in subparser._actions
            if not action.option_strings and action.nargs != "?"
        ]
        assert cli.main([verb, *positionals]) == 0
        assert dispatched[-1] == verb
    assert len(dispatched) == len(cli._HANDLERS)


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


def test_a_soak_loads_every_module_it_runs_while_its_spec_is_built(tmp_path):
    """Once ``build_parser`` has parsed a soak's flags and its ``SoakSpec`` is
    built, as perfbench's set-up probe does, the soak run imports no further
    ``repro`` module.  A soak never loads the campaign layer, the
    single-pulse sweep or the typed DES event views."""
    argv = [
        "soak", "--layers", "5", "--width", "4", "--faults", "1",
        "--pulses-per-epoch", "50", "--pulses", "100", "--json", "--quiet",
        "--store", str(tmp_path / "soak"),
    ]
    code = f"""
import json, sys
import repro.cli
from repro.experiments.soak import SoakSpec

args = repro.cli.build_parser().parse_args({argv!r})
SoakSpec(
    layers=args.layers,
    width=args.width,
    num_pulses=args.pulses,
    pulses_per_epoch=args.pulses_per_epoch,
    faults=args.faults,
    fault_type=args.fault_type,
    heal_fraction=args.heal_fraction,
    epsilon=args.epsilon,
    seed=args.seed,
)
built = {LOADED}
assert repro.cli.main({argv!r}) == 0
print(json.dumps([built, sorted(set({LOADED}) - set(built))]))
"""
    built, loaded_by_run = _run(code)
    assert loaded_by_run == []
    unused = (
        "repro.campaign",
        "repro.core.bounds",
        "repro.core.pulse_solver",
        "repro.simulation.events",
    )
    assert [name for name in built if name.startswith(unused)] == []


@pytest.mark.parametrize("kind", ["single_pulse", "multi_pulse"])
def test_a_des_sweep_loads_the_lemma5_bound_while_its_spec_is_built(tmp_path, kind):
    """The DES engine loads :mod:`repro.core.bounds` on first use, and the
    registry's ``des`` engine loads it, so a DES sweep (the soak test above
    shows a soak never loads it) has it once its spec is validated.  A
    multi-pulse cell loads the stabilization analysis of its records then
    too: the campaign run imports no further ``repro`` module."""
    spec = tmp_path / "spec.json"
    cell = {"layers": 5, "width": 4, "num_faults": 1, "engine": "des", "kind": kind, "runs": 2}
    if kind == "multi_pulse":
        cell["num_pulses"] = 3
    spec.write_text(json.dumps({"name": "des", "seed": 7, "cells": [cell]}))
    argv = ["sweep", "--spec", str(spec), "--quiet", "--store", str(tmp_path / "store")]
    code = f"""
import json, sys
import repro.cli
import repro.campaign.runner as runner

seen = {{}}
run = runner.CampaignRunner.run

def run_spy(self):
    seen["at_run"] = {LOADED}
    return run(self)

runner.CampaignRunner.run = run_spy
assert repro.cli.main({argv!r}) == 0
print(json.dumps([seen["at_run"], sorted(set({LOADED}) - set(seen["at_run"]))]))
"""
    at_run, loaded_by_run = _run(code)
    assert {"repro.core.bounds", "repro.faults.placement"} <= set(at_run)
    assert loaded_by_run == []
    if kind == "multi_pulse":
        assert "repro.analysis.stabilization" in at_run


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
