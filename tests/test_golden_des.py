"""Golden output corpus of the discrete-event simulator.

The relative identities elsewhere in the suite (DES == solver on shared
delays, resumed soak == straight soak, serial == parallel) compare the
simulator with itself or with another engine, so a change that shifts a
draw or an event the same way on every path passes them all.  This corpus
pins what the DES *produces*:

* multi-pulse cells: initial states {clean, random, adversarial} x delay
  model {fresh, uniform-cached, constant, table} x timer policy {uniform,
  nominal} x static faults {none, Byzantine, fail-silent, crash};
* single-pulse cells on the cylinder and on one degraded topology;
* ``FaultSchedule`` runs whose materialized adversary uses all four
  actions (inject, heal, flip, set-link), single- and multi-pulse;
* the adversarial delay models (biased, max-skew) under a Byzantine fault,
  single- and multi-pulse;
* the soak ``state_key`` of the end-to-end benchmark's soak invocation and
  of ``hex-repro soak --quick``.

Each run cell is pinned by sha256 digests of its firing times, the next
``random()`` of the run's generator after the run (which pins the number
and order of every draw), and the DES event counters observed under
``repro.obs`` metrics.  An intended output change shows up as an edit of
``data/golden_des.json``; regenerate it with::

    PYTHONPATH=src python tests/test_golden_des.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro import obs
from repro.adversary.schedule import FaultDirective, FaultSchedule
from repro.checks.schemas import schema
from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.clocksource.scenarios import Scenario
from repro.core.parameters import TimerPolicy, TimingConfig
from repro.core.topology import HexGrid
from repro.engines import RunSpec
from repro.engines.des import DesEngine, scenario_stabilization_timeouts
from repro.experiments.soak import SoakSpec, run_soak
from repro.faults.models import FaultModel, NodeFault
from repro.simulation.links import (
    ConstantDelays,
    FreshUniformDelays,
    TableDelays,
    UniformRandomDelays,
)

MANIFEST = Path(__file__).resolve().parent / "data" / "golden_des.json"
SCHEMA = schema("golden-des")

INITIAL_STATES = ("clean", "random", "adversarial")
DELAY_MODELS = ("fresh", "uniform", "constant", "table")
TIMER_POLICIES = ("uniform", "nominal")
STATIC_FAULTS = ("none", "byzantine", "fail_silent", "crash")
MULTI_LAYERS, MULTI_WIDTH, MULTI_PULSES, ENTROPY = 5, 4, 3, 2013
FAULT_NODE = (2, 1)

#: Soak cells: the benchmark's soak invocation and the ``soak --quick`` preset.
SOAK_SPECS = {
    "soak/bench": SoakSpec(layers=5, width=4, num_pulses=1000, pulses_per_epoch=500, faults=1),
    "soak/quick": SoakSpec(layers=5, width=4, num_pulses=10_000, pulses_per_epoch=500, faults=1),
}

#: A schedule whose materialized adversary uses every action type: a
#: Byzantine injection healed after its duration, a behaviour flip of it, a
#: crash, and a stuck-at-1 plus a stuck-at-0 intermittent link.
ALL_ACTIONS_SCHEDULE = FaultSchedule(
    directives=(
        FaultDirective(kind="inject", time=20.0, fault_type="byzantine", duration=150.0),
        FaultDirective(kind="flip_behavior", time=60.0),
        FaultDirective(kind="crash", time=90.0, duration=80.0),
        FaultDirective(
            kind="intermittent_link", time=10.0, period=70.0, duty=0.5, until=300.0,
            behavior="constant_one",
        ),
        FaultDirective(
            kind="intermittent_link", time=30.0, period=50.0, duty=0.4, until=250.0,
            behavior="constant_zero",
        ),
    ),
    label="golden-all-actions",
)


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def _array_digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    return _digest(f"{array.dtype.str}{array.shape}".encode() + array.tobytes())


def _firings_digest(firing_times: Dict) -> str:
    lines = [
        f"{node[0]},{node[1]}:" + ",".join(float(t).hex() for t in times)
        for node, times in sorted(firing_times.items())
    ]
    return _digest("\n".join(lines).encode())


#: The ``des.*`` counters pinned per cell: the queue totals, the per-kind
#: event and firing counts and the applied adversary actions.
PINNED_COUNTERS = (
    "events_processed", "events_scheduled", "source_pulse", "arrival", "flag_expiry",
    "wake_up", "adversary", "firing", "faults_injected", "faults_healed",
    "behavior_flips", "link_overrides",
)


def _des_counters(session: obs.ObsSession) -> Dict[str, int]:
    counters = session.registry.counters() if session.registry is not None else {}
    return {
        name: int(counters[f"des.{name}"])
        for name in PINNED_COUNTERS
        if f"des.{name}" in counters
    }


def _fingerprint(firings: str, generator: np.random.Generator, session) -> Dict:
    """Firings digest, the generator's next draw and (when observed) counters."""
    out: Dict[str, object] = {"firings": firings, "next_draw": float(generator.random()).hex()}
    if session is not None:
        out["counters"] = _des_counters(session)
    return out


@dataclass(frozen=True)
class MultiCell:
    initial_states: str
    delay_model: str
    timer_policy: str
    static_fault: str

    @property
    def name(self) -> str:
        return (
            f"multi/{self.initial_states}/{self.delay_model}/"
            f"{self.timer_policy}/{self.static_fault}"
        )


def _table_delays(grid: HexGrid, timing: TimingConfig) -> TableDelays:
    """A fixed, draw-free per-link table spread over ``[d-, d+]``."""
    table = {
        link: timing.d_min + timing.epsilon * ((index * 7) % 11) / 10.0
        for index, link in enumerate(grid.links())
        if index % 3
    }
    return TableDelays(table, default=timing.d_max)


def _static_faults(name: str, grid: HexGrid, rng: np.random.Generator) -> Optional[FaultModel]:
    if name == "none":
        return None
    if name == "byzantine":
        fault = NodeFault.byzantine(grid, FAULT_NODE, rng=rng)
    elif name == "fail_silent":
        fault = NodeFault.fail_silent(grid, FAULT_NODE)
    else:
        fault = NodeFault.crash(grid, FAULT_NODE, crash_time=150.0)
    return FaultModel(grid, [fault])


def run_multi_cell(cell: MultiCell, observed: bool = True) -> Dict:
    """One multi-pulse run in the engine's draw order; returns its fingerprint.

    ``observed`` runs it under ``repro.obs`` metrics (the default observer
    is installed and the counters join the fingerprint); without it the
    network runs bare.
    """
    index = [c.name for c in MULTI_CELLS].index(cell.name)
    generator = np.random.default_rng([ENTROPY, index])
    grid = HexGrid(layers=MULTI_LAYERS, width=MULTI_WIDTH)
    timing = TimingConfig.paper_defaults()
    fault_model = _static_faults(cell.static_fault, grid, generator)
    timeouts = scenario_stabilization_timeouts(
        Scenario.ZERO, grid.width, grid.layers, 1, timing
    )
    schedule = generate_pulse_schedule(
        PulseScheduleConfig(
            scenario=Scenario.UNIFORM_DMAX,
            num_pulses=MULTI_PULSES,
            separation=timeouts.pulse_separation,
        ),
        grid.width,
        timing,
        rng=generator,
    )
    delays = {
        "fresh": lambda: FreshUniformDelays(timing, generator),
        "uniform": lambda: UniformRandomDelays(timing, generator),
        "constant": lambda: ConstantDelays(timing.d_max),
        "table": lambda: _table_delays(grid, timing),
    }[cell.delay_model]()
    with obs.observed(metrics=observed) as session:
        result = DesEngine().multi_pulse(
            grid,
            timing,
            timeouts,
            schedule,
            rng=generator,
            fault_model=fault_model,
            delays=delays,
            timer_policy=TimerPolicy(cell.timer_policy),
            initial_states=cell.initial_states,
        )
    return _fingerprint(
        _firings_digest(result.firing_times), generator, session if observed else None
    )


def spec_cells() -> Dict[str, RunSpec]:
    """The ``RunSpec`` cells: single pulses, fault schedules, adversarial delays."""
    specs: Dict[str, RunSpec] = {}
    for topology in ("cylinder", "degraded:nodes=2,links=3,seed=11"):
        for faults, fault_type in ((0, None), (2, "byzantine"), (2, "fail_silent")):
            for delay_model in ("uniform", "constant"):
                name = (
                    f"single/{topology.split(':')[0]}/{fault_type or 'none'}/{delay_model}"
                )
                specs[name] = RunSpec(
                    kind="single_pulse", layers=8, width=6, scenario="iii",
                    num_faults=faults, fault_type=fault_type, delay_model=delay_model,
                    topology=topology, entropy=ENTROPY, run_index=len(specs),
                )
    for kind in ("single_pulse", "multi_pulse"):
        for delay_model in ("default", "uniform"):
            name = f"schedule/{kind}/{delay_model}"
            specs[name] = RunSpec(
                kind=kind, layers=6, width=4, scenario="i", delay_model=delay_model,
                num_pulses=4 if kind == "multi_pulse" else 1,
                fault_schedule=ALL_ACTIONS_SCHEDULE, entropy=ENTROPY,
                run_index=len(specs),
            )
    for kind in ("single_pulse", "multi_pulse"):
        for delay_model in ("biased", "max_skew"):
            name = f"adversarial_delays/{kind}/{delay_model}"
            specs[name] = RunSpec(
                kind=kind, layers=6, width=4, scenario="iii", num_faults=1,
                fault_type="byzantine", delay_model=delay_model,
                num_pulses=3 if kind == "multi_pulse" else 1, entropy=ENTROPY,
                run_index=len(specs),
            )
    return specs


def run_spec_cell(spec: RunSpec) -> Dict:
    generator = spec.rng()
    with obs.observed(metrics=True) as session:
        result = DesEngine().run(spec, rng=generator)
    if spec.kind == "single_pulse":
        firings = _array_digest(result.trigger_times)
    else:
        firings = _firings_digest(result.firing_times)
    return _fingerprint(firings, generator, session)


def soak_state_key(name: str) -> str:
    return run_soak(SOAK_SPECS[name]).final_checkpoint().state_key()


MULTI_CELLS = [
    MultiCell(initial, delay, timer, fault)
    for initial in INITIAL_STATES
    for delay in DELAY_MODELS
    for timer in TIMER_POLICIES
    for fault in STATIC_FAULTS
]
SPEC_CELLS = spec_cells()


def compute_all() -> Dict[str, object]:
    out: Dict[str, object] = {cell.name: run_multi_cell(cell) for cell in MULTI_CELLS}
    out.update({name: run_spec_cell(spec) for name, spec in SPEC_CELLS.items()})
    out.update({name: soak_state_key(name) for name in SOAK_SPECS})
    return out


def load_manifest() -> Dict[str, object]:
    payload = json.loads(MANIFEST.read_text())
    assert payload["schema"] == SCHEMA
    return payload["cells"]


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return load_manifest()


def test_manifest_covers_every_cell(golden):
    expected = [c.name for c in MULTI_CELLS] + list(SPEC_CELLS) + list(SOAK_SPECS)
    assert sorted(golden) == sorted(expected)
    assert len(MULTI_CELLS) == 3 * 4 * 2 * 4


@pytest.mark.parametrize("cell", MULTI_CELLS, ids=[c.name for c in MULTI_CELLS])
def test_multi_pulse_matches_golden(cell, golden):
    assert run_multi_cell(cell) == golden[cell.name]


@pytest.mark.parametrize("cell", MULTI_CELLS, ids=[c.name for c in MULTI_CELLS])
def test_bare_multi_pulse_matches_golden(cell, golden):
    """Without obs no observer is installed; outputs and draws are the same."""
    expected = {k: v for k, v in golden[cell.name].items() if k != "counters"}
    assert run_multi_cell(cell, observed=False) == expected


@pytest.mark.parametrize("name", list(SPEC_CELLS))
def test_spec_cell_matches_golden(name, golden):
    assert run_spec_cell(SPEC_CELLS[name]) == golden[name]


def test_schedule_cells_use_every_adversary_action():
    grid = HexGrid(layers=6, width=4)
    adversary = ALL_ACTIONS_SCHEDULE.materialize(grid, np.random.default_rng(0))
    kinds = {type(action).__name__ for _time, action in adversary.actions}
    assert kinds == {"InjectFault", "HealNode", "FlipBehavior", "SetLinkBehavior"}


@pytest.mark.parametrize("name", list(SOAK_SPECS))
def test_soak_state_key_matches_golden(name, golden):
    assert soak_state_key(name) == golden[name]


def test_bench_soak_key_is_the_benchmark_pin(golden):
    """The benchmark's soak digest and this corpus pin the same run."""
    assert golden["soak/bench"] == "5afa9d1d62fbac77335d07f3a30f35bd"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite the manifest from the current simulator"
    )
    args = parser.parse_args(argv)
    computed = compute_all()
    if args.write:
        MANIFEST.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": SCHEMA, "cells": computed}
        MANIFEST.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(computed)} cells to {MANIFEST}")
        return 0
    manifest = load_manifest()
    stale = [name for name, value in computed.items() if manifest.get(name) != value]
    print(f"{len(computed) - len(stale)}/{len(computed)} cells match; stale: {stale}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
