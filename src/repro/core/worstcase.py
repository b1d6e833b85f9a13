"""Deterministic worst-case delay constructions (Figs. 5 and 17).

The paper remarks that the worst-case bounds of Lemma 4 / Theorem 1 can be
almost matched by adversarially chosen (but legal) link delays.  Two concrete
constructions are visualised in the paper:

* **Fig. 5** -- a pulse wave that maximises the skew between two adjacent
  columns of the top layer: everything in and left of a "fast" column runs at
  ``d-``, everything right of it runs at ``d+`` and additionally suffers from a
  large initial layer-0 skew, and a barrier of dead (fail-silent) nodes keeps
  the fast and slow halves from short-circuiting around the cylinder.

* **Fig. 17** -- a single Byzantine (here: silent) node under the ramped
  layer-0 scenario (iv) with all delays ``d+``.  Without the fault every
  left-up diagonal would fire simultaneously; the silent node forces its upper
  neighbourhood to be triggered via a detour, generating an intra-layer skew of
  about ``5 d+`` (and an inter-layer skew smaller by ``d+``).

Each construction returns a :class:`WorstCaseConstruction` bundling the grid,
layer-0 times, per-link delay table and fault model, so experiments can run it
through either execution engine and compare the achieved skew against the
analytic bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.core.parameters import TimingConfig
from repro.core.topology import Direction, HexGrid, NodeId
from repro.faults.models import FaultModel, LinkBehavior, NodeFault
# repro: allow-import[worst-case constructions emit per-link delay tables; TableDelays predates the layering split]
from repro.simulation.links import TableDelays

__all__ = [
    "WorstCaseConstruction",
    "fig5_worst_case_wave",
    "fig17_single_byzantine_worst_case",
]


@dataclass
class WorstCaseConstruction:
    """A fully specified deterministic execution scenario.

    Attributes
    ----------
    name:
        Short identifier (``"fig5"`` / ``"fig17"``).
    grid:
        The HEX grid.
    timing:
        The delay bounds the construction was built for.
    layer0_times:
        Layer-0 firing times (length ``W``).
    delays:
        Per-link delay table.
    fault_model:
        Faults of the construction (dead barrier nodes / the Byzantine node).
    focus_columns:
        The pair of adjacent columns whose top-layer skew the construction
        maximises (``None`` when not applicable).
    focus_node:
        The faulty node of interest (Fig. 17), if any.
    """

    name: str
    grid: HexGrid
    timing: TimingConfig
    layer0_times: np.ndarray
    delays: TableDelays
    fault_model: FaultModel
    focus_columns: Optional[Tuple[int, int]] = None
    focus_node: Optional[NodeId] = None
    #: A fault model containing only the construction's structural elements
    #: (dead barrier columns) but not the adversarial fault itself; used as the
    #: fault-free reference when quantifying the fault's impact (Fig. 17).
    reference_fault_model: Optional[FaultModel] = None


@lru_cache(maxsize=8)
def _grid(layers: int, width: int) -> HexGrid:
    """The construction's grid, built once per size: grids are immutable,
    and building one's neighbour tables costs more than solving it."""
    return HexGrid(layers=layers, width=width)


def fig5_worst_case_wave(
    timing: TimingConfig,
    layers: int = 16,
    width: int = 17,
    fast_column: int = 8,
    barrier_column: int = 16,
) -> WorstCaseConstruction:
    """The Fig. 5 construction: maximise the top-layer skew across one column pair.

    Parameters
    ----------
    timing:
        Delay bounds (``d-`` is used left of the split, ``d+`` right of it).
    layers, width:
        Grid dimensions.  The defaults reflect the figure (columns 0..16 with
        the dead barrier in column 16 and the focus on columns 8 and 9).
    fast_column:
        The last "fast" column; the skew of interest is between
        ``fast_column`` and ``fast_column + 1`` at the top layer.
    barrier_column:
        The column whose nodes are declared dead (fail-silent) in every
        forwarding layer, preventing wrap-around short-cuts.

    Notes
    -----
    The construction realises the "torn apart" regime of Lemma 4 (Case 2),
    following the paper's caption: "Nodes in and left of column 8 are
    left-triggered ... with minimal delays of d-.  Nodes in and right of
    column 9 are slow due to large delays of d+ and large initial skews in
    parts of layer 0."

    * Layer-0 nodes in and left of ``fast_column`` fire at time 0; all links
      whose destination lies in or left of ``fast_column`` are fast (``d-``).
      The fast column then fires at the end of a left zig-zag causal path of
      length ``2 l`` (it is left-triggered on every layer), i.e. at about
      ``2 l d-`` on layer ``l``.
    * Layer-0 nodes right of ``fast_column`` (up to the barrier) fire late, at
      ``T0 = L d- + d+``, and all links towards their columns are slow
      (``d+``), so the slow column reaches layer ``l`` only at ``T0 + l d+``.
    * The barrier column is fail-silent in every forwarding layer, preventing
      the fast wave from wrapping around the cylinder and reaching the slow
      side from the right.

    The resulting top-layer skew between the focus columns is about
    ``d+ + L epsilon`` -- an order of magnitude above anything observed under
    random delays (Table 1) -- while staying below the Lemma 4 bound evaluated
    with the construction's layer-0 skew potential.
    """
    if not 0 < fast_column < barrier_column:
        raise ValueError("need 0 < fast_column < barrier_column")
    if barrier_column >= width:
        raise ValueError("barrier_column must lie inside the grid")
    grid = _grid(layers, width)

    late_start = layers * timing.d_min + timing.d_max
    layer0_times = np.zeros(width, dtype=float)
    for column in range(fast_column + 1, barrier_column + 1):
        layer0_times[column] = late_start

    delays = TableDelays({}, default=timing.d_max)
    for source, destination in grid.links():
        if destination[1] <= fast_column and source[1] <= fast_column + 1:
            delays.set(source, destination, timing.d_min)

    fault_model = FaultModel(grid)
    for layer in range(1, layers + 1):
        fault_model.add_node_fault(NodeFault.fail_silent(grid, (layer, barrier_column)))

    return WorstCaseConstruction(
        name="fig5",
        grid=grid,
        timing=timing,
        layer0_times=layer0_times,
        delays=delays,
        fault_model=fault_model,
        focus_columns=(fast_column, fast_column + 1),
    )


def fig17_single_byzantine_worst_case(
    timing: TimingConfig,
    layers: int = 12,
    width: int = 20,
    fault_layer: int = 6,
    fault_column: Optional[int] = None,
    barrier_column: Optional[int] = None,
) -> WorstCaseConstruction:
    """The Fig. 17 construction: one silent node under ramped layer-0 times.

    All link delays are ``d+`` and layer-0 firing times increase from left to
    right by ``d+`` per hop (the rising half of scenario (iv)); in the absence
    of faults every left-up diagonal fires simultaneously.  A single silent
    node then forces its upper-left neighbourhood onto a detour, producing an
    intra-layer skew of roughly ``5 d+`` between nodes above the fault and an
    inter-layer skew smaller by ``d+``.

    Parameters
    ----------
    fault_layer, fault_column:
        Position of the faulty node.  It must sit far enough from the grid
        boundaries for the detour to unfold; the default places it mid-grid.
    barrier_column:
        A column made fail-silent in every forwarding layer to stop the
        "early" wave that the monotone layer-0 ramp creates at the cylinder's
        wrap-around (between the latest and the earliest source) from reaching
        the fault's neighbourhood.  Defaults to the column diametrically
        opposite the fault.
    """
    grid = _grid(layers, width)
    if fault_column is None:
        fault_column = width // 2
    if barrier_column is None:
        barrier_column = (fault_column + width // 2) % width
    if not 1 <= fault_layer < layers - 1:
        raise ValueError("fault_layer must leave at least one layer above and below")
    if abs(barrier_column - fault_column) < 3:
        raise ValueError("barrier_column must be well separated from the fault column")

    # Rising ramp: the left-most column fires first.  (Only the rising half of
    # scenario (iv) matters for the construction; using a monotone ramp keeps
    # the wrap-around column out of the picture.)
    layer0_times = np.arange(width, dtype=float) * timing.d_max

    delays = TableDelays({}, default=timing.d_max)

    # Barrier-only reference model (the construction's "fault-free" baseline).
    reference = FaultModel(grid)
    for layer in range(1, layers + 1):
        reference.add_node_fault(NodeFault.fail_silent(grid, (layer, barrier_column)))

    fault_model = FaultModel(grid)
    for layer in range(1, layers + 1):
        fault_model.add_node_fault(NodeFault.fail_silent(grid, (layer, barrier_column)))
    # The adversarial behaviour that tears the fault's upper neighbours apart:
    # trigger the "early" side (left / upper-left) immediately via stuck-at-1
    # outputs, stay silent towards the "late" side (right / upper-right), so
    # the upper-right neighbour has to wait for a detour via its right
    # neighbour while the upper-left neighbour is centrally triggered early.
    fault_node = (fault_layer, fault_column)
    behaviors = {}
    for direction, destination in grid.out_neighbors(fault_node).items():
        if direction in (Direction.LEFT, Direction.UPPER_LEFT):
            behaviors[destination] = LinkBehavior.CONSTANT_ONE
        else:
            behaviors[destination] = LinkBehavior.CONSTANT_ZERO
    fault_model.add_node_fault(NodeFault.byzantine(grid, fault_node, behaviors=behaviors))

    return WorstCaseConstruction(
        name="fig17",
        grid=grid,
        timing=timing,
        layer0_times=layer0_times,
        delays=delays,
        fault_model=fault_model,
        focus_node=(fault_layer, fault_column),
        reference_fault_model=reference,
    )
