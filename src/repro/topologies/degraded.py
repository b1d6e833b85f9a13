"""Degraded grids: seeded structural damage on any base topology.

A degraded grid is a base topology (cylinder, torus or patch) with

* ``nodes`` *punctured* forwarding nodes -- the node slot exists (dense
  arrays keep their ``(L + 1, W)`` shape) but the node is physically absent:
  it never executes, never fires, and all its incident links are gone.  Its
  matrix entries carry ``nan`` via :meth:`DegradedGrid.presence_mask`.
* ``links`` *severed* directed links between otherwise-present nodes -- the
  wire is cut, only that one direction of the connection disappears.

Damage is **structural, not behavioural**: unlike a fail-silent fault, a
punctured node is excluded from placements, statistics and Condition 1 alike
-- it is simply not part of the graph.  The damage set is drawn once at
construction from ``numpy.random.default_rng(seed)`` (the *damage seed*,
independent of any run's seed stream), so a degraded topology's spec string
``degraded:base=...,nodes=...,links=...,seed=...`` fully determines the
graph and two builds of the same spec compare equal.
"""

from __future__ import annotations

from typing import Iterator, List, Set, Tuple

import numpy as np

from repro.core.topology import (
    NEIGHBOR_OFFSET,
    HexGrid,
    LinkId,
    NodeId,
    NodeTables,
    Stencil,
)
from repro.topologies.base import TopologySpec, build_topology, canonical_topology

__all__ = ["DegradedGrid"]

#: Largest tolerated damage fractions; beyond these the grid is more hole
#: than fabric and placements/statistics become degenerate.
_MAX_NODE_DAMAGE = 0.25
_MAX_LINK_DAMAGE = 0.25


class DegradedGrid(HexGrid):
    """A base topology with seeded punctured nodes and severed links.

    Parameters
    ----------
    layers, width:
        Dimensions of the base grid.
    base:
        Spec string of the base family (``"cylinder"``, ``"torus"`` or
        ``"patch"``; degrading a degraded grid is rejected -- increase the
        damage counts instead).
    nodes:
        Number of forwarding nodes to puncture (layer-0 sources are never
        punctured; a sourceless column would trivialise every experiment).
    links:
        Number of additional directed links to sever between present nodes.
    seed:
        The damage seed; part of the topology's identity.
    """

    family = "degraded"

    def __init__(
        self,
        layers: int,
        width: int,
        base: str = "cylinder",
        nodes: int = 0,
        links: int = 0,
        seed: int = 0,
    ) -> None:
        base_spec = canonical_topology(base)
        if TopologySpec.parse(base_spec).family == "degraded":
            raise ValueError(
                "cannot degrade a degraded topology; raise the nodes=/links= "
                "damage counts of a single degraded spec instead"
            )
        nodes, links, seed = int(nodes), int(links), int(seed)
        if nodes < 0 or links < 0:
            raise ValueError(
                f"damage counts must be non-negative, got nodes={nodes}, links={links}"
            )
        base_grid = build_topology(base_spec, layers, width)
        self._base: HexGrid = base_grid  # type: ignore[assignment]
        self._dims = base_grid.dimensions
        self._damage: Tuple[str, int, int, int] = (base_spec, nodes, links, seed)
        self.column_wrap = base_grid.column_wrap

        num_forwarding = self._dims.num_forwarding_nodes
        max_nodes = int(num_forwarding * _MAX_NODE_DAMAGE)
        if nodes > max_nodes:
            raise ValueError(
                f"cannot puncture {nodes} of {num_forwarding} forwarding nodes: "
                f"damage beyond {_MAX_NODE_DAMAGE:.0%} (here {max_nodes}) leaves "
                "more hole than fabric and makes Condition 1 placements and "
                "skew statistics degenerate -- use a larger grid or fewer holes"
            )

        damage_rng = np.random.default_rng(seed)
        forwarding = sorted(base_grid.forwarding_nodes())
        picked = (
            damage_rng.choice(len(forwarding), size=nodes, replace=False)
            if nodes
            else np.empty(0, dtype=int)
        )
        self._punctured: Set[NodeId] = {forwarding[int(index)] for index in picked}

        link_pool: List[LinkId] = sorted(
            (source, destination)
            for source, destination in base_grid.links()
            if source not in self._punctured and destination not in self._punctured
        )
        max_links = int(len(link_pool) * _MAX_LINK_DAMAGE)
        if links > max_links:
            raise ValueError(
                f"cannot sever {links} of {len(link_pool)} remaining links: "
                f"damage beyond {_MAX_LINK_DAMAGE:.0%} (here {max_links}) "
                "disconnects the fabric -- use a larger grid or fewer cuts"
            )
        picked_links = (
            damage_rng.choice(len(link_pool), size=links, replace=False)
            if links
            else np.empty(0, dtype=int)
        )
        self._severed: Set[LinkId] = {link_pool[int(index)] for index in picked_links}

        self._tables = {}

    # ------------------------------------------------------------------
    # neighbour tables and stencil (filtered from the base)
    # ------------------------------------------------------------------
    def _build_node_tables(self, node: NodeId) -> NodeTables:
        """The base node's tables without punctured endpoints and severed links."""
        punctured, severed = self._punctured, self._severed
        if node in punctured:
            return {}, {}, {}
        ins = {
            direction: source
            for direction, source in self._base.in_neighbors(node).items()
            if source not in punctured and (source, node) not in severed
        }
        outs = {
            direction: destination
            for direction, destination in self._base.out_neighbors(node).items()
            if destination not in punctured and (node, destination) not in severed
        }
        # A direction remains "occupied" while either orientation of the
        # connection survives (neighbor()/all_neighbors() report structure,
        # not per-orientation wiring).
        all_neighbors = {
            direction: neighbor
            for direction, neighbor in self._base.all_neighbors(node).items()
            if direction in ins or direction in outs
        }
        return all_neighbors, ins, outs

    def _build_stencil(self) -> Stencil:
        """The base's column patterns, absence read off (and every in-link
        checked against) the filtered tables."""
        src_col = self._base.stencil.src_col
        absent = {direction: np.ones(self.shape, dtype=bool) for direction in src_col}
        for node in self.forwarding_nodes():
            layer, column = node
            for direction, source in self.in_neighbors(node).items():
                step = NEIGHBOR_OFFSET[direction][0]
                expected = (layer + step, int(src_col[direction][column]))
                if source != expected:
                    raise ValueError(
                        f"{self!r} has no regular in-link stencil: in-link "
                        f"{direction.name} of node {node} comes from {source}, "
                        f"not {expected}"
                    )
                absent[direction][node] = False
        return Stencil(src_col, absent)

    # ------------------------------------------------------------------
    # damage introspection
    # ------------------------------------------------------------------
    @property
    def base(self) -> HexGrid:
        """The intact base topology the damage was applied to."""
        return self._base

    def punctured_nodes(self) -> List[NodeId]:
        """The punctured (absent) nodes, sorted."""
        return sorted(self._punctured)

    def severed_links(self) -> List[LinkId]:
        """The severed directed links (between present nodes), sorted."""
        return sorted(self._severed)

    @property
    def num_present_nodes(self) -> int:
        """Number of physically present nodes."""
        return self._dims.num_nodes - len(self._punctured)

    def presence_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        for layer, column in self._punctured:
            mask[layer, column] = False
        return mask

    # ------------------------------------------------------------------
    # node enumeration (punctured slots skipped)
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[NodeId]:
        for node in self._base.nodes():
            if node not in self._punctured:
                yield node

    def forwarding_nodes(self) -> Iterator[NodeId]:
        for node in self._base.forwarding_nodes():
            if node not in self._punctured:
                yield node

    def layer_nodes(self, layer: int) -> List[NodeId]:
        return [
            node for node in self._base.layer_nodes(layer) if node not in self._punctured
        ]

    # ------------------------------------------------------------------
    # coordinate semantics delegate to the base (boundary conditions)
    # ------------------------------------------------------------------
    def wrap_column(self, column: int) -> int:
        return self._base.wrap_column(column)

    def validate_node(self, node: NodeId) -> NodeId:
        return self._base.validate_node(node)

    def contains(self, node: NodeId) -> bool:
        return self._base.contains(node)

    def cyclic_column_distance(self, i: int, j: int) -> int:
        return self._base.cyclic_column_distance(i, j)

    def node_distance(self, a: NodeId, b: NodeId) -> int:
        return self._base.node_distance(a, b)

    def hop_distance(self, a: NodeId, b: NodeId) -> int:
        """Structural distance of the *intact* base (damage ignored)."""
        return self._base.hop_distance(a, b)

    def condition2_extra_hops(self) -> int:
        """Each damage element can force one lateral-trigger detour.

        Conservative: a staircase of holes/cuts makes downstream nodes fire
        via lateral guards, lagging up to one ``d+`` per obstacle on the
        dependency chain.  Larger timeouts are always safe (they only
        lengthen sleeps and separations), so the margin charges every damage
        element on top of the base topology's own margin.
        """
        return (
            self._base.condition2_extra_hops() + len(self._punctured) + len(self._severed)
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def _extra_identity(self) -> Tuple:
        return self._damage

    def __repr__(self) -> str:  # pragma: no cover - trivial
        base_spec, nodes, links, seed = self._damage
        return (
            f"DegradedGrid(layers={self.layers}, width={self.width}, "
            f"base={base_spec!r}, nodes={nodes}, links={links}, seed={seed})"
        )
