"""Per-node neighbour tables, the in-link stencil and the plans built from it.

A grid builds one node's tables at that node's first query; the stencil
compile of ``SolverPlan`` and ``ArrayPlan`` never queries them on the
intact families.  Both must equal the eager constructions they replaced:
the all-node table build (``_eager_tables`` below) and the per-node plan
compile (``_plan_reference.per_node_plan``).
"""

from __future__ import annotations

import numpy as np
import pytest
from _plan_reference import per_node_plan

from repro.core.pulse_solver import SolverPlan
from repro.core.topology import NEIGHBOR_OFFSET, Direction, HexGrid
from repro.engines import RunSpec, get_engine
from repro.engines.array import array_plan
from repro.topologies import build_topology

#: ``(spec, layers, width)``: every family at its narrowest width, and
#: damaged grids over each base with several damage seeds.
GRIDS = [
    ("cylinder", 4, 3),
    ("cylinder", 6, 7),
    ("torus", 2, 3),
    ("torus", 5, 6),
    ("patch", 3, 4),
    ("patch", 6, 7),
    *(("degraded:nodes=2,links=3,seed=%d" % seed, 6, 5) for seed in range(4)),
    *(("degraded:links=8,seed=%d" % seed, 5, 3) for seed in range(3)),
    ("degraded:base=torus,nodes=3,links=4,seed=5", 6, 5),
    ("degraded:base=patch,nodes=2,links=5,seed=6", 6, 5),
]


def _eager_tables(grid: HexGrid):
    """``(all, in, out)`` of every slot, built up front from the rule."""
    base = getattr(grid, "base", grid)
    punctured = set(getattr(grid, "punctured_nodes", list)())
    severed = set(getattr(grid, "severed_links", list)())
    tables = {}
    for layer in range(grid.layers + 1):
        for column in range(grid.width):
            node = (layer, column)
            raw = {}
            for direction in Direction:
                neighbor = base._raw_neighbor(layer, column, direction)
                if neighbor is not None:
                    raw[direction] = neighbor
            if node in punctured:
                tables[node] = ({}, {}, {})
                continue
            ins = {
                direction: raw[direction]
                for direction in (Direction.LEFT, Direction.RIGHT,
                                  Direction.LOWER_LEFT, Direction.LOWER_RIGHT)
                if direction in raw
                and raw[direction] not in punctured
                and (raw[direction], node) not in severed
            }
            outs = {
                direction: raw[direction]
                for direction in (Direction.LEFT, Direction.RIGHT,
                                  Direction.UPPER_LEFT, Direction.UPPER_RIGHT)
                if direction in raw
                and raw[direction] not in punctured
                and (node, raw[direction]) not in severed
            }
            everything = {
                direction: neighbor
                for direction, neighbor in raw.items()
                if direction in ins or direction in outs
            }
            tables[node] = (everything, ins, outs)
    return tables


@pytest.mark.parametrize("spec,layers,width", GRIDS)
def test_per_node_tables_equal_the_eager_build(spec, layers, width):
    grid = build_topology(spec, layers, width)
    for node, (everything, ins, outs) in _eager_tables(grid).items():
        # Dict equality plus key order: iteration order is part of the
        # reproducibility contract.
        assert list(grid.all_neighbors(node).items()) == list(everything.items())
        assert list(grid.in_neighbors(node).items()) == list(ins.items())
        assert list(grid.out_neighbors(node).items()) == list(outs.items())
        for direction in Direction:
            assert grid.neighbor(node, direction) == everything.get(direction)
        for direction, source in ins.items():
            assert grid.direction_between(source, node) is direction


@pytest.mark.parametrize("spec", ["cylinder", "torus", "patch", "degraded:links=6,seed=1"])
def test_direction_between_raises_on_a_non_link(spec):
    grid = build_topology(spec, 5, 6)
    with pytest.raises(ValueError, match="no link"):
        grid.direction_between((1, 1), (4, 4))
    with pytest.raises(ValueError, match="no link"):
        # The reverse of a lower-left in-link runs downwards: not a link.
        grid.direction_between((3, 2), (2, 2))
    if grid.family == "degraded":
        source, destination = grid.severed_links()[0]
        with pytest.raises(ValueError, match="no link"):
            grid.direction_between(source, destination)


@pytest.mark.parametrize("spec,layers,width", GRIDS)
def test_stencil_compiled_plan_equals_the_per_node_compile(spec, layers, width):
    plan = SolverPlan.compile(build_topology(spec, layers, width))
    oracle = per_node_plan(build_topology(spec, layers, width))
    assert plan.out_slots.dtype == oracle.out_slots.dtype
    assert np.array_equal(plan.out_slots, oracle.out_slots)
    assert plan.present_sources == oracle.present_sources
    assert plan.distinct_links == oracle.distinct_links
    assert (plan.num_nodes, plan.width, plan.layers) == (
        oracle.num_nodes,
        oracle.width,
        oracle.layers,
    )


@pytest.mark.parametrize("spec,layers,width", GRIDS)
def test_stencil_lists_exactly_the_in_links(spec, layers, width):
    grid = build_topology(spec, layers, width)
    stencil = grid.stencil
    for layer in range(1, layers + 1):
        for column in range(width):
            ins = grid.in_neighbors((layer, column))
            for direction, absent in stencil.absent.items():
                expected = (
                    layer + NEIGHBOR_OFFSET[direction][0],
                    int(stencil.src_col[direction][column]),
                )
                assert ins.get(direction) == (None if absent[layer, column] else expected)
    assert all(absent[0].all() for absent in stencil.absent.values())
    assert not stencil.absent[Direction.LEFT].flags.writeable


@pytest.mark.parametrize("spec", ["cylinder", "torus", "patch"])
def test_intact_plans_build_no_tables(spec):
    grid = build_topology(spec, 6, 5)
    SolverPlan.compile(grid)
    array_plan(grid)
    assert grid._tables == {}


def test_a_fault_free_cylinder_sweep_builds_no_tables():
    specs = [
        RunSpec(kind="single_pulse", layers=7, width=6, scenario=scenario, entropy=entropy)
        for scenario in ("i", "iii")
        for entropy in (1, 2)
    ]
    results = get_engine("solver").run_batch(specs)
    assert results[0].grid is results[-1].grid
    assert results[0].grid._tables == {}
