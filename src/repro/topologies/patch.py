"""The bounded planar patch: an open column boundary.

Physically a HEX fabric need not close into a cylinder -- a rectangular die
region is a *patch* whose leftmost and rightmost columns form a rim with
reduced degree:

* column ``0`` loses its ``LEFT`` in-link and ``UPPER_LEFT`` out-link,
* column ``W - 1`` loses ``RIGHT``, ``LOWER_RIGHT`` and the corresponding
  outgoing wrap links.

Rim nodes therefore satisfy fewer of Algorithm 1's three firing guards
(column ``W - 1`` only the *left* guard, column ``0`` only the *central* and
*right* guards), which is exactly the degradation the topology sweep is
meant to measure: skew grows toward the rim and single faults can silence a
rim node outright.

Column indices are *not* wrapped: :meth:`HexPatch.wrap_column` is the
identity and :meth:`validate_node` rejects out-of-range columns instead of
reducing them.
"""

from __future__ import annotations

from typing import Optional

from repro.core.topology import Direction, HexGrid, NodeId, Stencil

__all__ = ["HexPatch"]


class HexPatch(HexGrid):
    """Hexagonal grid with an open (non-wrapping) column boundary.

    Requires ``width >= 4``: with 3 columns both rim columns touch the single
    interior column, every node sits on the rim, and a single fault can
    disconnect the patch -- placements would be silently degenerate rather
    than merely rim-affected.
    """

    family = "patch"
    column_wrap = False

    def __init__(self, layers: int, width: int) -> None:
        if width < 4:
            raise ValueError(
                f"hex patch needs at least 4 columns, got W={width}: with only "
                "3 columns every node is a reduced-degree rim node and a "
                "single fault can cut the patch -- Condition 1 placements "
                "would be degenerate; use width >= 4 (or the cylinder)"
            )
        super().__init__(layers=layers, width=width)

    def wrap_column(self, column: int) -> int:
        """Identity: the patch's column axis does not wrap."""
        return column

    def validate_node(self, node: NodeId) -> NodeId:
        """Range-check both coordinates (no column reduction on the patch)."""
        layer, column = node
        if not 0 <= layer <= self.layers:
            raise ValueError(
                f"layer index {layer} out of range [0, {self.layers}] for {self!r}"
            )
        if not 0 <= column < self.width:
            raise ValueError(
                f"column index {column} out of range [0, {self.width}) for "
                f"{self!r} (the patch has an open boundary; columns do not wrap)"
            )
        return (layer, column)

    def _raw_neighbor(self, layer: int, column: int, direction: Direction) -> Optional[NodeId]:
        """The cylinder's rule without the wrap: off-grid columns are absent."""
        neighbor = super()._raw_neighbor(layer, column, direction)
        if neighbor is None or not 0 <= neighbor[1] < self.width:
            return None
        return neighbor

    def _build_stencil(self) -> Stencil:
        """The cylinder's stencil with the wrap-around rim links masked."""
        stencil = super()._build_stencil()
        stencil.absent[Direction.LEFT][:, 0] = True
        stencil.absent[Direction.RIGHT][:, -1] = True
        stencil.absent[Direction.LOWER_RIGHT][:, -1] = True
        return stencil

    def condition2_extra_hops(self) -> int:
        """Rim nodes are laterally triggered: one extra ``d+`` of guard skew."""
        return 1

    def cyclic_column_distance(self, i: int, j: int) -> int:
        """Plain column distance (the open boundary has no wrap shortcut)."""
        return abs(i - j)

    def hop_distance(self, a: NodeId, b: NodeId) -> int:
        """Undirected hop distance on the open-boundary patch."""
        (la, ca) = self.validate_node(a)
        (lb, cb) = self.validate_node(b)
        if la == lb == 0 and ca != cb:
            # No intra-layer links on the source layer: detour through layer 1.
            return abs(ca - cb) + 1
        if lb < la:
            (la, ca), (lb, cb) = (lb, cb), (la, ca)
        dl = lb - la
        best: Optional[int] = None
        for shift in range(-dl, 1):
            target = ca + shift
            if not 0 <= target < self.width:
                continue
            total = dl + abs(target - cb)
            if best is None or total < best:
                best = total
        assert best is not None
        return best

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"HexPatch(layers={self.layers}, width={self.width})"
