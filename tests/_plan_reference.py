"""The per-node ``SolverPlan`` compile the stencil compile replaced, kept as
a test oracle.

This is ``SolverPlan.compile`` as ``repro.core.pulse_solver`` shipped it
before plans were built from the grid's in-link stencil: one pass over the
row-major node slots, reading each node's out-links from the neighbour
tables and each link's in-direction from ``direction_between``.  The tests
compare the two compiles field by field on every topology family.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.solver_plan import _IN_INDEX, SolverPlan
from repro.core.topology import HexGrid

__all__ = ["per_node_plan"]


def per_node_plan(grid: HexGrid) -> SolverPlan:
    """Compile ``grid``'s plan node by node from its neighbour tables."""
    width = grid.width
    presence = grid.presence_mask()
    num_slots = (grid.layers + 1) * width
    out_slots = np.full((num_slots, 4), -1, dtype=np.intp)
    distinct_links = True
    for index in range(num_slots):
        node = divmod(index, width)
        if not presence[node]:
            continue
        destinations: List[int] = []
        for destination in grid.out_neighbors(node).values():
            if destination[0] == 0 or not presence[destination]:
                continue
            direction = _IN_INDEX[grid.direction_between(node, destination)]
            dest_index = destination[0] * width + destination[1]
            out_slots[index, len(destinations)] = dest_index * 4 + direction
            distinct_links = distinct_links and dest_index not in destinations
            destinations.append(dest_index)
    return SolverPlan(
        num_nodes=grid.num_nodes,
        width=width,
        layers=grid.layers,
        out_slots=out_slots,
        present_sources=tuple(column for column in range(width) if presence[0, column]),
        distinct_links=distinct_links,
    )
