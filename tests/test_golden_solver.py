"""Golden output corpus of the single-pulse solver.

The relative identities elsewhere in the suite (``run == run_batch``,
serial == parallel, solver == array) compare one implementation with
itself, so a change that shifts a draw or a float operation the same way on
every path passes them all.  This corpus pins what the solver *produces*:
one cell per topology family x fault setup x delay model, each replayed
through :func:`~repro.core.pulse_solver.solve_single_pulse`,
``SolverEngine.run`` / ``run_batch`` and ``SolverEngine.single_pulse`` and
compared against the digests committed in ``data/golden_solver.json``.

The digests cover the trigger-time, guard, correctness and layer-0 arrays
(dtype, shape and raw bytes), the deterministic work counters and the next
draw of the run's generator after the solve (which pins the number and
order of delay draws).  An intended output change shows up as an edit of
the manifest; regenerate it with::

    PYTHONPATH=src python tests/test_golden_solver.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np
import pytest

from repro.checks.schemas import schema
from repro.clocksource.scenarios import scenario_layer0_times
from repro.core.pulse_solver import PulseSolution, solve_single_pulse
from repro.core.topology import HexGrid, NodeId
from repro.engines import RunSpec
from repro.engines.solver import SolverEngine
from repro.faults.models import FaultModel, LinkBehavior, NodeFault
from repro.faults.placement import build_fault_model

MANIFEST = Path(__file__).resolve().parent / "data" / "golden_solver.json"
SCHEMA = schema("golden-solver")

TOPOLOGIES = ("cylinder", "torus", "patch", "degraded:nodes=2,links=3,seed=11")
DELAY_MODELS = ("uniform", "constant")
LAYERS, WIDTH, ENTROPY = 10, 8, 2013


def _present_node(grid: HexGrid, layer: int, column: int) -> NodeId:
    """The first structurally present node of ``layer`` at or after ``column``."""
    presence = grid.presence_mask()
    for offset in range(grid.width):
        candidate = (column + offset) % grid.width
        if presence[layer, candidate]:
            return (layer, candidate)
    raise AssertionError(f"layer {layer} of {grid!r} has no present node")


def _present_link(grid: HexGrid, layer: int, column: int):
    source = _present_node(grid, layer, column)
    presence = grid.presence_mask()
    for destination in grid.out_neighbors(source).values():
        if destination[0] > 0 and presence[destination]:
            return (source, destination)
    raise AssertionError(f"{source} has no present out-neighbour")


def _link_faults(grid: HexGrid) -> FaultModel:
    """One stuck-at-1 and one stuck-at-0 link fault between correct nodes."""
    return FaultModel(
        grid,
        link_faults={
            _present_link(grid, 3, 2): LinkBehavior.CONSTANT_ONE,
            _present_link(grid, 5, 5): LinkBehavior.CONSTANT_ZERO,
        },
    )


def _crash_fault(grid: HexGrid) -> FaultModel:
    """One crash node (crashed mid-run; in a single pulse it never fires)."""
    return FaultModel(grid, [NodeFault.crash(grid, _present_node(grid, 4, 3), 5.0)])


#: Fault setups: ``(num_faults, fault_type)`` drawn through the spec, or an
#: explicit fault-model factory for faults a :class:`RunSpec` cannot express.
FAULT_SETUPS: Dict[str, tuple] = {
    "none": (0, None, None),
    "byzantine": (2, "byzantine", None),
    "fail_silent": (2, "fail_silent", None),
    "links": (0, None, _link_faults),
    "crash": (0, None, _crash_fault),
}


@dataclass(frozen=True)
class Cell:
    name: str
    spec: RunSpec
    explicit_faults: Optional[Callable[[HexGrid], FaultModel]]


def cells() -> List[Cell]:
    out: List[Cell] = []
    for topology in TOPOLOGIES:
        for fault_name, (num_faults, fault_type, explicit) in FAULT_SETUPS.items():
            for delay_model in DELAY_MODELS:
                spec = RunSpec(
                    layers=LAYERS,
                    width=WIDTH,
                    scenario="iii",
                    num_faults=num_faults,
                    fault_type=fault_type,
                    delay_model=delay_model,
                    topology=topology,
                    entropy=ENTROPY,
                    run_index=len(out),
                )
                name = f"{topology.split(':')[0]}/{fault_name}/{delay_model}"
                out.append(Cell(name=name, spec=spec, explicit_faults=explicit))
    return out


def _array_digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def digests(solution: PulseSolution, generator: Optional[np.random.Generator]) -> Dict:
    """The pinned fingerprint of one solve (``next_draw`` only with a generator)."""
    out = {
        "trigger_times": _array_digest(solution.trigger_times),
        "guards": _array_digest(solution.guards),
        "correct_mask": _array_digest(solution.correct_mask),
        "layer0_times": _array_digest(solution.layer0_times),
        "work": dict(sorted(solution.work.items())),
    }
    if generator is not None:
        out["next_draw"] = float(generator.random()).hex()
    return out


def _inputs(cell: Cell):
    """Grid, timing, layer-0 times, fault model, delays and generator of a cell.

    Draws in the engine's order: layer-0 times, fault placement/behaviour,
    then the (lazily drawing) delay model.
    """
    spec = cell.spec
    generator = spec.rng()
    grid = spec.make_grid()
    timing = spec.make_timing()
    layer0 = scenario_layer0_times(spec.scenario, grid.width, timing, rng=generator)
    if cell.explicit_faults is not None:
        fault_model = cell.explicit_faults(grid)
    else:
        fault_model = build_fault_model(
            grid, spec.num_faults, spec.make_fault_type(), generator
        )
    delays = spec.make_delays(timing, generator, kind_default="uniform")
    return grid, timing, layer0, fault_model, delays, generator


def solve_cell(cell: Cell) -> Dict:
    grid, _timing, layer0, fault_model, delays, generator = _inputs(cell)
    solution = solve_single_pulse(grid, layer0, delays, fault_model=fault_model)
    return digests(solution, generator)


def _load_manifest() -> Dict[str, Dict]:
    payload = json.loads(MANIFEST.read_text())
    assert payload["schema"] == SCHEMA
    return payload["cells"]


CELLS = cells()
SPEC_CELLS = [cell for cell in CELLS if cell.explicit_faults is None]
EXPLICIT_CELLS = [cell for cell in CELLS if cell.explicit_faults is not None]


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict]:
    return _load_manifest()


def _ids(cell_list: List[Cell]) -> List[str]:
    return [cell.name for cell in cell_list]


def test_manifest_covers_every_cell(golden):
    assert sorted(golden) == sorted(cell.name for cell in CELLS)
    assert len(CELLS) == len(TOPOLOGIES) * len(FAULT_SETUPS) * len(DELAY_MODELS)


@pytest.mark.parametrize("cell", CELLS, ids=_ids(CELLS))
def test_solve_single_pulse_matches_golden(cell, golden):
    assert solve_cell(cell) == golden[cell.name]


@pytest.mark.parametrize("cell", SPEC_CELLS, ids=_ids(SPEC_CELLS))
def test_engine_run_matches_golden(cell, golden):
    generator = cell.spec.rng()
    result = SolverEngine().run(cell.spec, rng=generator)
    assert digests(result.solution, generator) == golden[cell.name]


def test_engine_run_batch_matches_golden(golden):
    results = SolverEngine().run_batch([cell.spec for cell in SPEC_CELLS])
    for cell, result in zip(SPEC_CELLS, results):
        expected = {k: v for k, v in golden[cell.name].items() if k != "next_draw"}
        assert digests(result.solution, None) == expected, cell.name


@pytest.mark.parametrize("cell", EXPLICIT_CELLS, ids=_ids(EXPLICIT_CELLS))
def test_engine_single_pulse_matches_golden(cell, golden):
    grid, timing, layer0, fault_model, delays, generator = _inputs(cell)
    result = SolverEngine().single_pulse(
        grid, timing, layer0, rng=generator, fault_model=fault_model, delays=delays
    )
    assert digests(result.solution, generator) == golden[cell.name]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite the manifest from the current solver"
    )
    args = parser.parse_args(argv)
    computed = {cell.name: solve_cell(cell) for cell in CELLS}
    if args.write:
        MANIFEST.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": SCHEMA, "cells": computed}
        MANIFEST.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(computed)} cells to {MANIFEST}")
        return 0
    stale = [name for name, value in computed.items() if _load_manifest().get(name) != value]
    print(f"{len(computed) - len(stale)}/{len(computed)} cells match; stale: {stale}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
