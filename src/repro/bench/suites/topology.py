"""Topology suite: neighbour-table cache and per-topology solver runs.

Two cases: the neighbour-lookup sweep and one seeded solver run per
registered topology family on the paper's 50x20 grid.  A grid builds each
node's tables at that node's first query; the lookup case warms every node
with its agreement check, then times warm lookups against the per-call
reconstruction from the neighbour rule.  Each solver run compiles its plan
from the family's stencil, which only the degraded grid derives from its
tables.  The emitted ``BENCH_topology.json`` is the perf trajectory of the
topology layer.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.bench.case import BenchCase, BenchSettings
from repro.bench.registry import register_case
from repro.core.topology import _IN_DIRECTION_ORDER, _OUT_DIRECTION_ORDER, HexGrid
from repro.engines import RunSpec, get_engine
from repro.topologies import build_topology

SUITE = "topology"

#: Lookup-sweep repetitions (the whole grid's tables per repetition).
LOOKUP_SWEEPS = 30

#: Topologies benchmarked through the solver engine.
SOLVER_TOPOLOGIES = ("cylinder", "torus", "patch", "degraded:nodes=5,links=5,seed=1")


def _uncached_lookup_sweep(grid: HexGrid) -> int:
    """The historical per-call behaviour: rebuild both dicts from the rule."""
    total = 0
    for node in grid.nodes():
        layer, column = node
        ins = {}
        for direction in _IN_DIRECTION_ORDER:
            neighbor = grid._raw_neighbor(layer, column, direction)
            if neighbor is not None:
                ins[direction] = neighbor
        outs = {}
        for direction in _OUT_DIRECTION_ORDER:
            neighbor = grid._raw_neighbor(layer, column, direction)
            if neighbor is not None:
                outs[direction] = neighbor
        total += len(ins) + len(outs)
    return total


def _cached_lookup_sweep(grid: HexGrid) -> int:
    """The table-backed path every hot loop now takes."""
    total = 0
    for node in grid.nodes():
        total += len(grid.in_neighbors(node)) + len(grid.out_neighbors(node))
    return total


def _best_of(function, *args, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        function(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _make_lookup(settings: BenchSettings):
    grid = HexGrid(layers=50, width=20)
    sweeps = LOOKUP_SWEEPS // 3 if settings.quick else LOOKUP_SWEEPS

    def workload() -> Dict[str, float]:
        expected = _uncached_lookup_sweep(grid)
        assert _cached_lookup_sweep(grid) == expected  # same answers, just cached
        uncached_s = _best_of(_uncached_lookup_sweep, grid, repeat=sweeps)
        cached_s = _best_of(_cached_lookup_sweep, grid, repeat=sweeps)
        return {
            "grid": "50x20",
            "uncached_sweep_s": uncached_s,
            "cached_sweep_s": cached_s,
            "speedup": uncached_s / cached_s if cached_s > 0 else float("inf"),
        }

    return workload


def _check_lookup(result: Dict[str, float], settings: BenchSettings) -> None:
    # The margin is wide in practice (~4-10x); assert a conservative floor so
    # a regression back to per-call reconstruction fails loudly.
    assert result["speedup"] > 1.5, (
        f"neighbour-table cache buys only {result['speedup']:.2f}x"
    )


register_case(
    BenchCase(
        name="neighbor_lookup",
        suite=SUITE,
        make=_make_lookup,
        repeats=3,
        quick_repeats=3,
        check=_check_lookup,
        quick_check=True,
        info=lambda result, settings: dict(result),
    ),
    replace=True,
)


def _make_solver_runs(settings: BenchSettings):
    def workload() -> Dict[str, Dict[str, float]]:
        per_topology: Dict[str, Dict[str, float]] = {}
        for topology in SOLVER_TOPOLOGIES:
            spec = RunSpec(
                kind="single_pulse",
                layers=50,
                width=20,
                scenario="iii",
                topology=topology,
                entropy=2013,
            )
            start = time.perf_counter()
            result = get_engine("solver").run(spec)
            elapsed = time.perf_counter() - start
            grid = build_topology(topology, 50, 20)
            per_topology[topology] = {
                "solver_run_s": elapsed,
                "num_nodes": float(getattr(grid, "num_present_nodes", grid.num_nodes)),
                "num_links": float(grid.num_links()),
                "all_correct_triggered": float(result.all_correct_triggered()),
            }
        return per_topology

    return workload


def _check_solver_runs(result: Dict[str, Dict[str, float]], settings: BenchSettings) -> None:
    assert set(result) == set(SOLVER_TOPOLOGIES)
    # The intact families must deliver the pulse everywhere; the damaged grid
    # legitimately starves hole-adjacent nodes, so only record its value.
    assert result["cylinder"]["all_correct_triggered"] == 1.0
    assert result["torus"]["all_correct_triggered"] == 1.0


def _info_solver_runs(result: Any, settings: BenchSettings) -> Dict[str, Any]:
    return {name: dict(data) for name, data in result.items()}


register_case(
    BenchCase(
        name="solver_per_topology",
        suite=SUITE,
        make=_make_solver_runs,
        repeats=3,
        quick_repeats=3,
        check=_check_solver_runs,
        quick_check=True,
        info=_info_solver_runs,
    ),
    replace=True,
)
