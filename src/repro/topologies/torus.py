"""The hex torus: both grid axes wrap.

The cylinder of the paper wraps only the column axis; the torus additionally
wraps the layer axis modulo ``L + 1``.  Layer 0 remains the externally driven
clock-source layer (its nodes never execute Algorithm 1), but the wrap links
exist physically:

* layer-0 nodes gain *in*-neighbours on layer ``L`` (``LOWER_LEFT`` /
  ``LOWER_RIGHT``) -- they never listen, but Condition 1 now couples faults
  on layer ``L`` to the sources' neighbourhoods, exactly as a closed fabric
  would;
* layer-``L`` nodes gain *out*-neighbours on layer 0 (``UPPER_LEFT`` /
  ``UPPER_RIGHT``) -- their broadcasts onto the source layer are absorbed
  (sources have no automaton), but a Byzantine layer-``L`` node now draws
  per-link behaviour for four outgoing links instead of two.

The net effect is a boundary-free fabric: no rim layer with reduced degree,
uniform Condition-1 forbidden regions everywhere, and fault-capacity numbers
that differ measurably from the cylinder's at equal size.
"""

from __future__ import annotations

from typing import Optional

from repro.core.topology import NEIGHBOR_OFFSET, Direction, HexGrid, NodeId

__all__ = ["HexTorus"]


class HexTorus(HexGrid):
    """Hexagonal grid with both axes cyclic (layers mod ``L + 1``).

    Requires ``layers >= 2``: with a single forwarding layer the wrapped
    lower and upper neighbours of a node would coincide, making the
    direction role of a link ambiguous.
    """

    family = "torus"

    def __init__(self, layers: int, width: int) -> None:
        if layers < 2:
            raise ValueError(
                f"hex torus needs at least two forwarding layers, got L={layers}: "
                "with L=1 the layer wrap makes a node's lower and upper "
                "neighbours coincide, so link direction roles would be "
                "ambiguous -- use the cylinder for single-layer grids"
            )
        super().__init__(layers=layers, width=width)

    def wrap_layer(self, layer: int) -> int:
        """Reduce a layer index modulo ``L + 1``."""
        return layer % (self.layers + 1)

    def _raw_neighbor(self, layer: int, column: int, direction: Direction) -> Optional[NodeId]:
        """Both axes wrap; the source layer keeps no intra-layer links."""
        layer_step, column_step = NEIGHBOR_OFFSET[direction]
        if layer == 0 and layer_step == 0:
            return None
        return (self.wrap_layer(layer + layer_step), self.wrap_column(column + column_step))

    def node_distance(self, a: NodeId, b: NodeId) -> int:
        """Layer distance also wraps on the torus."""
        (la, ca) = self.validate_node(a)
        (lb, cb) = self.validate_node(b)
        rows = self.layers + 1
        layer_gap = abs(la - lb)
        return min(layer_gap, rows - layer_gap) + self.cyclic_column_distance(ca, cb)

    def hop_distance(self, a: NodeId, b: NodeId) -> int:
        """Undirected hop distance with both axes wrapping.

        One undirected hex step changes ``(layer, column)`` by ``(0, +-1)``,
        ``(+1, 0 or -1)`` or ``(-1, 0 or +1)`` (all modulo).  Moving up ``k``
        layers can shift the column by any amount in ``[-k, 0]``; moving down
        ``k`` layers by any amount in ``[0, k]``.  The minimum over the three
        layer-displacement interpretations (direct, wrap up, wrap down) is
        exact.
        """
        (la, ca) = self.validate_node(a)
        (lb, cb) = self.validate_node(b)
        rows = self.layers + 1
        best: int | None = None
        for dl in (lb - la, lb - la - rows, lb - la + rows):
            steps = abs(dl)
            shifts = range(-steps, 1) if dl >= 0 else range(0, steps + 1)
            for shift in shifts:
                lateral = self.cyclic_column_distance((ca + shift) % self.width, cb)
                total = steps + lateral
                if steps == 0 and la == 0 and lateral > 0:
                    # No intra-layer links on the source layer: a purely
                    # lateral path must detour through a neighbouring layer.
                    total += 1
                if best is None or total < best:
                    best = total
        assert best is not None
        return best

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"HexTorus(layers={self.layers}, width={self.width})"
