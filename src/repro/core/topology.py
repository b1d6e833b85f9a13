"""The cylindric hexagonal grid topology of the HEX clock-distribution fabric.

The HEX grid (Section 2, Fig. 1 of the paper) is a directed communication graph
``(V, E)`` parameterised by its *length* ``L`` (number of forwarding layers) and
its *width* ``W`` (number of columns).  The node set is

    ``V = { (layer, column) : layer in {0, ..., L}, column in {0, ..., W-1} }``

with column arithmetic taken modulo ``W`` (the grid is a cylinder).  Layer 0
nodes are the synchronized clock sources; nodes in layers 1..L run the HEX
pulse-forwarding algorithm.

For a node ``(l, i)`` with ``l > 0`` the *incoming* links originate at

* its **left** neighbour  ``(l, i-1 mod W)``,
* its **right** neighbour ``(l, i+1 mod W)``,
* its **lower-left** neighbour  ``(l-1, i)``,
* its **lower-right** neighbour ``(l-1, i+1 mod W)``,

and for ``l < L`` the *outgoing* links (besides the intra-layer ones) lead to

* its **upper-left** neighbour  ``(l+1, i-1 mod W)``,
* its **upper-right** neighbour ``(l+1, i)``.

The six neighbours of an interior node form a hexagon, hence the name.

The module exposes :class:`HexGrid`, the single source of truth for neighbour
relations used by the analytic solver, the discrete-event simulator and the
fault placement logic (Condition 1).  Node identities are plain
``(layer, column)`` tuples so they can be used as numpy indices directly: the
hot data lives in dense arrays indexed by ``(layer, column)`` rather than in
per-node Python objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

#: A node identity: ``(layer, column)`` with ``0 <= layer <= L`` and
#: ``0 <= column < W``.
NodeId = Tuple[int, int]

#: A directed link identity: ``(source, destination)`` node pair.
LinkId = Tuple[NodeId, NodeId]


class Direction(enum.Enum):
    """Relative direction of an in- or out-neighbour of a HEX node.

    The names follow the paper's terminology (Fig. 1).  ``LEFT``/``RIGHT`` are
    intra-layer neighbours, ``LOWER_LEFT``/``LOWER_RIGHT`` are the in-neighbours
    on the layer below, and ``UPPER_LEFT``/``UPPER_RIGHT`` are the out-neighbours
    on the layer above.
    """

    LEFT = "left"
    RIGHT = "right"
    LOWER_LEFT = "lower_left"
    LOWER_RIGHT = "lower_right"
    UPPER_LEFT = "upper_left"
    UPPER_RIGHT = "upper_right"

    @property
    def is_incoming(self) -> bool:
        """Whether a neighbour in this direction sends trigger messages to us."""
        return self in (
            Direction.LEFT,
            Direction.RIGHT,
            Direction.LOWER_LEFT,
            Direction.LOWER_RIGHT,
        )

    @property
    def is_outgoing(self) -> bool:
        """Whether we send trigger messages to a neighbour in this direction."""
        return self in (
            Direction.LEFT,
            Direction.RIGHT,
            Direction.UPPER_LEFT,
            Direction.UPPER_RIGHT,
        )

    @property
    def opposite(self) -> "Direction":
        """The direction from the neighbour's point of view.

        If node ``b`` lies in direction ``d`` of node ``a``, then node ``a``
        lies in direction ``d.opposite`` of node ``b``.
        """
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.LEFT: Direction.RIGHT,
    Direction.RIGHT: Direction.LEFT,
    Direction.LOWER_LEFT: Direction.UPPER_RIGHT,
    Direction.LOWER_RIGHT: Direction.UPPER_LEFT,
    Direction.UPPER_LEFT: Direction.LOWER_RIGHT,
    Direction.UPPER_RIGHT: Direction.LOWER_LEFT,
}

#: The three firing guards of Algorithm 1, expressed as pairs of incoming
#: directions.  A node fires as soon as it has memorized trigger messages from
#: both neighbours of at least one of these pairs (Definition 1: the node is
#: then called *left-*, *centrally-* or *right-triggered* respectively).
TRIGGER_GUARDS: Tuple[Tuple[Direction, Direction], ...] = (
    (Direction.LEFT, Direction.LOWER_LEFT),
    (Direction.LOWER_LEFT, Direction.LOWER_RIGHT),
    (Direction.LOWER_RIGHT, Direction.RIGHT),
)

#: Human-readable names of the guards, indexed in the same order as
#: :data:`TRIGGER_GUARDS`.
GUARD_NAMES: Tuple[str, str, str] = ("left", "central", "right")

#: Iteration order of the in-neighbour tables (the historical dict order of
#: the on-the-fly ``in_neighbors`` construction -- part of the
#: reproducibility contract).
_IN_DIRECTION_ORDER: Tuple[Direction, ...] = (
    Direction.LEFT,
    Direction.RIGHT,
    Direction.LOWER_LEFT,
    Direction.LOWER_RIGHT,
)

#: Iteration order of the out-neighbour tables (directions absent at a node
#: are simply skipped, so layer-0 sources list only their upper neighbours).
_OUT_DIRECTION_ORDER: Tuple[Direction, ...] = (
    Direction.LEFT,
    Direction.RIGHT,
    Direction.UPPER_LEFT,
    Direction.UPPER_RIGHT,
)


@dataclass(frozen=True)
class GridDimensions:
    """Dimensions of a HEX grid.

    Attributes
    ----------
    layers:
        The grid length ``L``: layer indices run from 0 (clock sources) to
        ``L`` inclusive, so the grid has ``L + 1`` rows of nodes.
    width:
        The grid width ``W``: number of columns (cyclic).
    """

    layers: int
    width: int

    @property
    def num_nodes(self) -> int:
        """Total number of nodes ``(L + 1) * W``."""
        return (self.layers + 1) * self.width

    @property
    def num_forwarding_nodes(self) -> int:
        """Number of nodes running Algorithm 1 (layers 1..L)."""
        return self.layers * self.width


class HexGrid:
    """The cylindric hexagonal grid of Fig. 1.

    Parameters
    ----------
    layers:
        The grid length ``L`` (number of forwarding layers).  Must be >= 1.
    width:
        The grid width ``W`` (number of columns).  Must be >= 3 so that every
        node has four distinct in-neighbours; the paper additionally assumes
        ``W > 2`` for Lemma 3.

    Examples
    --------
    >>> grid = HexGrid(layers=3, width=4)
    >>> grid.num_nodes
    16
    >>> grid.in_neighbors((2, 0))[Direction.LOWER_RIGHT]
    (1, 1)
    >>> grid.out_neighbors((2, 0))[Direction.UPPER_LEFT]
    (3, 3)
    """

    #: Topology family name; the registry key of :mod:`repro.topologies`.
    #: Subclasses (torus, patch, degraded) override this.
    family: str = "cylinder"

    #: Whether the column axis wraps (``False`` for the bounded planar patch).
    #: The analysis layer consults this to drop the non-adjacent wrap-around
    #: skew pair on open-boundary topologies.
    column_wrap: bool = True

    def __init__(self, layers: int, width: int) -> None:
        if layers < 1:
            raise ValueError(f"HEX grid needs at least one forwarding layer, got L={layers}")
        if width < 3:
            raise ValueError(f"HEX grid needs width of at least 3 columns, got W={width}")
        self._dims = GridDimensions(layers=layers, width=width)
        self._all_tables: Optional[Dict[NodeId, Dict[Direction, NodeId]]] = None
        self._in_tables: Optional[Dict[NodeId, Dict[Direction, NodeId]]] = None
        self._out_tables: Optional[Dict[NodeId, Dict[Direction, NodeId]]] = None
        self._link_directions: Optional[Dict[LinkId, Direction]] = None

    # ------------------------------------------------------------------
    # neighbour-table construction (the perf-critical cache)
    # ------------------------------------------------------------------
    def _ensure_tables(self) -> None:
        """Build the neighbour tables on first use.

        Table construction is O(nodes) Python-dict work -- tens of seconds on
        a million-node grid -- while the dense array engine never consults the
        tables at all (its plans are built from vectorized boundary rules).
        Deferring construction to the first accessor call keeps huge grids
        usable for the array paths without slowing the solver/DES paths,
        which build the tables exactly once on their first neighbour query.
        """
        if self._all_tables is None:
            self._build_neighbor_tables()

    def _build_neighbor_tables(self) -> None:
        """Precompute per-node neighbour tables and the link-direction index.

        The DES broadcast loop and the solver's Dijkstra sweep query
        ``in_neighbors`` / ``out_neighbors`` / ``direction_between`` once per
        message; recomputing the wrap arithmetic there dominated the hot
        loops.  The tables are built once (lazily, at the first accessor
        call) from the subclass's :meth:`_raw_neighbor` rule and returned *by
        reference* -- callers must treat the dicts as immutable.  Insertion
        orders are part of the reproducibility contract: in-neighbours
        iterate LEFT, RIGHT, LOWER_LEFT, LOWER_RIGHT and out-neighbours LEFT,
        RIGHT, UPPER_LEFT, UPPER_RIGHT (exactly the historical on-the-fly
        dict orders).
        """
        self._all_tables: Dict[NodeId, Dict[Direction, NodeId]] = {}
        self._in_tables: Dict[NodeId, Dict[Direction, NodeId]] = {}
        self._out_tables: Dict[NodeId, Dict[Direction, NodeId]] = {}
        self._link_directions: Dict[LinkId, Direction] = {}
        for layer in range(self.layers + 1):
            for column in range(self.width):
                node = (layer, column)
                all_neighbors: Dict[Direction, NodeId] = {}
                for direction in Direction:
                    neighbor = self._raw_neighbor(layer, column, direction)
                    if neighbor is not None:
                        all_neighbors[direction] = neighbor
                self._all_tables[node] = all_neighbors
                self._in_tables[node] = {
                    direction: all_neighbors[direction]
                    for direction in _IN_DIRECTION_ORDER
                    if direction in all_neighbors
                }
                self._out_tables[node] = {
                    direction: all_neighbors[direction]
                    for direction in _OUT_DIRECTION_ORDER
                    if direction in all_neighbors
                }
        for node, ins in self._in_tables.items():
            for direction, source in ins.items():
                self._link_directions[(source, node)] = direction

    def _raw_neighbor(self, layer: int, column: int, direction: Direction) -> Optional[NodeId]:
        """The neighbour rule the tables are built from (cylinder semantics).

        Subclasses override this single method to define a different boundary
        condition; ``(layer, column)`` is already canonical.
        """
        if direction is Direction.LEFT:
            if layer == 0:
                return None
            return (layer, self.wrap_column(column - 1))
        if direction is Direction.RIGHT:
            if layer == 0:
                return None
            return (layer, self.wrap_column(column + 1))
        if direction is Direction.LOWER_LEFT:
            if layer == 0:
                return None
            return (layer - 1, column)
        if direction is Direction.LOWER_RIGHT:
            if layer == 0:
                return None
            return (layer - 1, self.wrap_column(column + 1))
        if direction is Direction.UPPER_LEFT:
            if layer == self.layers:
                return None
            return (layer + 1, self.wrap_column(column - 1))
        if direction is Direction.UPPER_RIGHT:
            if layer == self.layers:
                return None
            return (layer + 1, column)
        raise ValueError(f"unknown direction {direction!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def _identity(self) -> Tuple:
        """Equality/hash key: family, dimensions and family-specific extras."""
        return (self.family, self._dims, self._extra_identity())

    def _extra_identity(self) -> Tuple:
        """Family-specific identity extras (e.g. the degraded damage spec)."""
        return ()

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> GridDimensions:
        """The grid dimensions as a :class:`GridDimensions` value."""
        return self._dims

    @property
    def layers(self) -> int:
        """The grid length ``L`` (index of the topmost layer)."""
        return self._dims.layers

    @property
    def width(self) -> int:
        """The grid width ``W`` (number of columns)."""
        return self._dims.width

    @property
    def num_nodes(self) -> int:
        """Total number of nodes, ``(L + 1) * W``."""
        return self._dims.num_nodes

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of a dense per-node array: ``(L + 1, W)``."""
        return (self.layers + 1, self.width)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"HexGrid(layers={self.layers}, width={self.width})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HexGrid):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    # ------------------------------------------------------------------
    # node helpers
    # ------------------------------------------------------------------
    def wrap_column(self, column: int) -> int:
        """Reduce a column index modulo the grid width."""
        return column % self.width

    def contains(self, node: NodeId) -> bool:
        """Whether ``node`` denotes a valid grid node (after column wrapping)."""
        layer, column = node
        return 0 <= layer <= self.layers and 0 <= self.wrap_column(column) < self.width

    def validate_node(self, node: NodeId) -> NodeId:
        """Return the canonical (column-wrapped) form of ``node``.

        Raises
        ------
        ValueError
            If the layer index is out of range.
        """
        layer, column = node
        if not 0 <= layer <= self.layers:
            raise ValueError(
                f"layer index {layer} out of range [0, {self.layers}] for {self!r}"
            )
        return (layer, self.wrap_column(column))

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over all nodes in (layer, column) lexicographic order."""
        for layer in range(self.layers + 1):
            for column in range(self.width):
                yield (layer, column)

    def layer_nodes(self, layer: int) -> List[NodeId]:
        """All nodes of a given layer, in column order."""
        if not 0 <= layer <= self.layers:
            raise ValueError(f"layer index {layer} out of range [0, {self.layers}]")
        return [(layer, column) for column in range(self.width)]

    def source_nodes(self) -> List[NodeId]:
        """The layer-0 clock-source nodes."""
        return self.layer_nodes(0)

    def forwarding_nodes(self) -> Iterator[NodeId]:
        """Iterate over all nodes running Algorithm 1 (layers 1..L)."""
        for layer in range(1, self.layers + 1):
            for column in range(self.width):
                yield (layer, column)

    def node_index(self, node: NodeId) -> int:
        """Flat index of a node in row-major ``(L + 1, W)`` ordering."""
        layer, column = self.validate_node(node)
        return layer * self.width + column

    def node_from_index(self, index: int) -> NodeId:
        """Inverse of :meth:`node_index`."""
        if not 0 <= index < self.num_nodes:
            raise ValueError(f"flat node index {index} out of range [0, {self.num_nodes})")
        return divmod(index, self.width)

    # ------------------------------------------------------------------
    # neighbour relations
    # ------------------------------------------------------------------
    def neighbor(self, node: NodeId, direction: Direction) -> Optional[NodeId]:
        """The neighbour of ``node`` in a given direction, or ``None`` if absent.

        Layer-0 nodes have no intra-layer or lower neighbours (the paper's graph
        only defines links for nodes with ``layer > 0``); layer-L nodes have no
        upper neighbours (unless the topology wraps the layer axis).
        """
        self._ensure_tables()
        return self._all_tables[self.validate_node(node)].get(direction)

    def in_neighbors(self, node: NodeId) -> Dict[Direction, NodeId]:
        """All in-neighbours of ``node`` keyed by direction.

        For a forwarding node these are exactly the four neighbours whose
        trigger messages Algorithm 1 listens to.  Layer-0 nodes have no
        in-neighbours (they are driven by the clock-source substrate).

        The returned dict is the topology's precomputed table -- treat it as
        immutable.
        """
        self._ensure_tables()
        return self._in_tables[self.validate_node(node)]

    def out_neighbors(self, node: NodeId) -> Dict[Direction, NodeId]:
        """All out-neighbours of ``node`` keyed by direction.

        A forwarding node broadcasts its trigger message to its left, right,
        upper-left and upper-right neighbours.  A layer-0 clock source only
        drives its two upper neighbours.

        The returned dict is the topology's precomputed table -- treat it as
        immutable.
        """
        self._ensure_tables()
        return self._out_tables[self.validate_node(node)]

    def all_neighbors(self, node: NodeId) -> Dict[Direction, NodeId]:
        """All (in- or out-) neighbours of ``node`` keyed by direction.

        The returned dict is the topology's precomputed table -- treat it as
        immutable.
        """
        self._ensure_tables()
        return self._all_tables[self.validate_node(node)]

    def direction_between(self, source: NodeId, destination: NodeId) -> Direction:
        """The direction of ``source`` as seen from ``destination``.

        This is the direction under which ``destination`` files a trigger
        message received from ``source`` (i.e. the memory flag index).

        Raises
        ------
        ValueError
            If there is no link from ``source`` to ``destination``.
        """
        self._ensure_tables()
        destination = self.validate_node(destination)
        source = self.validate_node(source)
        direction = self._link_directions.get((source, destination))
        if direction is None:
            raise ValueError(f"no link from {source} to {destination} in {self!r}")
        return direction

    def links(self) -> Iterator[LinkId]:
        """Iterate over all directed links ``(source, destination)`` of the grid."""
        for node in self.nodes():
            for neighbor in self.out_neighbors(node).values():
                yield (node, neighbor)

    def num_links(self) -> int:
        """Total number of directed links."""
        return sum(1 for _ in self.links())

    def incoming_links(self, node: NodeId) -> List[LinkId]:
        """All directed links ending at ``node``."""
        return [(neighbor, node) for neighbor in self.in_neighbors(node).values()]

    def outgoing_links(self, node: NodeId) -> List[LinkId]:
        """All directed links starting at ``node``."""
        return [(node, neighbor) for neighbor in self.out_neighbors(node).values()]

    # ------------------------------------------------------------------
    # timing margins
    # ------------------------------------------------------------------
    def condition2_extra_hops(self) -> int:
        """Extra ``d+`` hops the Condition 2 timeouts must budget for.

        On the cylinder every node is centrally triggerable, so its two guard
        messages come from the layer below and Lemma 5's skew bound applies
        verbatim (0 extra hops).  Topologies with reduced-degree nodes (the
        patch rim, holes in a degraded grid) force *lateral* triggering,
        where one guard message originates on the node's own layer and
        therefore arrives about one link delay later per structural obstacle
        -- the timeouts (and the simulation horizon) must stretch
        accordingly or correct nodes forget their flags before the partner
        message lands.
        """
        return 0

    # ------------------------------------------------------------------
    # presence
    # ------------------------------------------------------------------
    def presence_mask(self) -> np.ndarray:
        """Boolean array of shape ``(L + 1, W)``: ``True`` where a node exists.

        All-true for the intact topologies; degraded grids mark punctured
        nodes ``False`` so dense matrices can carry ``nan`` at their slots.
        """
        return np.ones(self.shape, dtype=bool)

    def pulse_reachable_mask(self) -> np.ndarray:
        """Nodes a layer-0 pulse wave can structurally trigger.

        Least fixed point of "some firing guard has both in-neighbours
        present, connected and themselves reachable".  On the intact
        topologies this equals the presence mask; on degraded grids, holes
        can *deadlock* nodes above them -- e.g. two punctured nodes one
        column apart leave the pair between them only guards that reference
        each other, so neither can ever bootstrap from the wave.  Such nodes
        are structurally silent (not merely slow), and the stabilization
        criterion excludes them like punctured slots.  Computed once and
        cached; a fresh copy is returned per call.
        """
        cached = getattr(self, "_pulse_reachable_cache", None)
        if cached is None:
            reachable = np.zeros(self.shape, dtype=bool)
            for layer, column in self.source_nodes():
                reachable[layer, column] = True
            forwarding = list(self.forwarding_nodes())
            changed = True
            while changed:
                changed = False
                for node in forwarding:
                    if reachable[node]:
                        continue
                    ins = self.in_neighbors(node)
                    for direction_a, direction_b in TRIGGER_GUARDS:
                        partner_a = ins.get(direction_a)
                        partner_b = ins.get(direction_b)
                        if (
                            partner_a is not None
                            and partner_b is not None
                            and reachable[partner_a]
                            and reachable[partner_b]
                        ):
                            reachable[node] = True
                            changed = True
                            break
            cached = reachable
            self._pulse_reachable_cache = cached
        return cached.copy()

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def cyclic_column_distance(self, i: int, j: int) -> int:
        """The cyclic distance ``|i - j|_W`` of Definition 3."""
        d = (i - j) % self.width
        return min(d, self.width - d)

    def node_distance(self, a: NodeId, b: NodeId) -> int:
        """Cheap structural distance: layer difference plus column distance.

        This is the metric the adversary layer's *cluster* generator uses to
        bound spatial fault correlation; subclasses adapt it to their boundary
        conditions (the torus also wraps the layer axis, the patch drops the
        column wrap via :meth:`cyclic_column_distance`).
        """
        (la, ca) = self.validate_node(a)
        (lb, cb) = self.validate_node(b)
        return abs(la - lb) + self.cyclic_column_distance(ca, cb)

    def hop_distance(self, a: NodeId, b: NodeId) -> int:
        """Undirected hop distance between two nodes in the grid.

        Uses the undirected version of the communication graph, i.e. the
        hexagonal adjacency (intra-layer plus diagonal links), ignoring link
        direction.  Mainly used by the fault-locality analysis and for sanity
        checks; it is computed combinatorially (no graph search needed).
        """
        (la, ca) = self.validate_node(a)
        (lb, cb) = self.validate_node(b)
        if la == lb == 0 and ca != cb:
            # Layer 0 has no intra-layer links: one lateral move must be
            # replaced by an up+down detour through layer 1 (exactly +1).
            return self.cyclic_column_distance(ca, cb) + 1
        dl = lb - la
        if dl < 0:
            # symmetric: swap so that we always walk upwards
            return self.hop_distance(b, a)
        # Moving up one layer changes the column by 0 (upper-right) or -1
        # (upper-left).  After dl upward moves the column can shift by any
        # amount in [-dl, 0]; remaining column distance is covered by
        # intra-layer moves.  Column arithmetic is cyclic.
        best = None
        for shift in range(-dl, 1):
            target = (ca + shift) % self.width
            lateral = self.cyclic_column_distance(target, cb)
            total = dl + lateral
            if best is None or total < best:
                best = total
        assert best is not None
        return best
