"""The compiled single-pulse plan of a grid: RNG-free link tables shared per grid.

A :class:`SolverPlan` holds only topology-derived data, so one plan serves
every run on an equal grid.  The single-pulse window sweep
(:mod:`repro.core.pulse_solver`) fires over its padded link table; the
discrete-event simulator (:mod:`repro.simulation.network`) reads its
out-links and needs nothing else of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Tuple

import numpy as np

from repro.core.topology import NEIGHBOR_OFFSET, Direction, HexGrid, NodeId

__all__ = ["OutLink", "SolverPlan", "solver_plan"]

#: Flat indices of the four incoming directions, chosen so that the three
#: guards of :data:`~repro.core.topology.TRIGGER_GUARDS` become the consecutive pairs
#: ``(0, 1), (1, 2), (2, 3)``.
_IN_INDEX = {
    Direction.LEFT: 0,
    Direction.LOWER_LEFT: 1,
    Direction.LOWER_RIGHT: 2,
    Direction.RIGHT: 3,
}

#: A node's out-links in ``grid.out_neighbors`` order (LEFT, RIGHT,
#: UPPER_LEFT, UPPER_RIGHT), as the in-direction each destination files it under.
_OUT_SLOT_ORDER = (Direction.RIGHT, Direction.LEFT, Direction.LOWER_RIGHT, Direction.LOWER_LEFT)

#: One entry of :attr:`SolverPlan.out_links`.
OutLink = Tuple[int, int, int, int]


@dataclass(frozen=True, eq=False)
class SolverPlan:
    """RNG-free scaffolding of the sweep.

    A plan compiles a grid's in-link stencil into flat tables indexed by the
    row-major node index, so the sweep touches no dicts, no ``(layer,
    column)`` tuples and no :class:`Direction` enums.  Plans contain only
    topology-derived data (no randomness, no per-run state), so one plan
    serves every run on an equal grid; :func:`solver_plan` caches them by
    grid identity.  Faulty runs mask some of its links (see
    :func:`repro.core.pulse_solver._fault_overlay`) and never modify it.

    Attributes
    ----------
    out_slots:
        ``(num_nodes, 4)`` link table: ``dest_index * 4 + in_direction_index``
        of each out-link, in the exact iteration order of
        ``grid.out_neighbors(node).values()`` (the order in which the sweep
        queries the delay model), padded with -1 (a HEX node has at most four
        out-links).  Destinations on layer 0 or structurally absent are
        excluded.
    present_sources:
        The layer-0 columns whose source node is structurally present.
    distinct_links:
        Whether no node has two out-links to one destination.  Only then is
        every delay query of a sweep a first query, which block draws need.
    """

    num_nodes: int
    width: int
    layers: int
    out_slots: np.ndarray
    present_sources: Tuple[int, ...]
    distinct_links: bool

    @classmethod
    def compile(cls, grid: HexGrid) -> "SolverPlan":
        """Compile a grid's plan from its :class:`~repro.core.topology.Stencil`.

        The in-link of direction ``d = _OUT_SLOT_ORDER[k]`` into ``(l, i)``
        is slot ``k`` of its source ``(l - up, src_col[d][i])``; each row's
        present slots are then packed to the front.  Absent links and links
        into layer 0 get no entry.
        """
        stencil = grid.stencil
        rows, width = grid.layers + 1, grid.width
        destinations = np.arange(rows * width).reshape(rows, width)
        slots = np.full((rows, width, 4), -1, dtype=np.intp)
        for position, direction in enumerate(_OUT_SLOT_ORDER):
            up = -NEIGHBOR_OFFSET[direction][0]
            present = ~stencil.absent[direction][up:]
            slots[: rows - up, stencil.src_col[direction], position] = np.where(
                present, destinations[up:] * 4 + _IN_INDEX[direction], -1
            )
        slots = slots.reshape(rows * width, 4)
        out_slots = np.take_along_axis(slots, np.argsort(slots < 0, axis=1, kind="stable"), 1)
        # A missing slot gets a destination no other slot of its row has.
        targets = np.sort(np.where(out_slots >= 0, out_slots >> 2, -1 - np.arange(4)), axis=1)
        out_slots.flags.writeable = False
        presence = grid.presence_mask()
        return cls(
            num_nodes=grid.num_nodes,
            width=width,
            layers=grid.layers,
            out_slots=out_slots,
            present_sources=tuple(
                column for column in range(width) if presence[0, column]
            ),
            distinct_links=not (targets[:, 1:] == targets[:, :-1]).any(),
        )

    @cached_property
    def nodes(self) -> Tuple[NodeId, ...]:
        """Node index -> ``(layer, column)`` tuple (the form delay models take)."""
        return tuple(divmod(index, self.width) for index in range(len(self.out_slots)))

    @cached_property
    def out_links(self) -> Tuple[Tuple[OutLink, ...], ...]:
        """Node index -> its ``(dest_index, in_direction_index, dest_layer,
        dest_column)`` out-links, in ``out_slots`` order (for the
        discrete-event simulator; built on first use)."""
        width = self.width
        return tuple(
            tuple((slot >> 2, slot & 3, *divmod(slot >> 2, width)) for slot in slots if slot >= 0)
            for slots in self.out_slots.tolist()
        )


@lru_cache(maxsize=16)
def solver_plan(grid: HexGrid) -> SolverPlan:
    """The (cached) :class:`SolverPlan` of a grid.

    Grids are immutable and equality-keyed by their identity (family,
    dimensions, damage spec), so equal grids share one compiled plan.
    """
    return SolverPlan.compile(grid)
