"""Dense numpy-frontier single-pulse engine for very large grids.

The HEX grid is bounded-degree and *regular*: every forwarding node ``(l, i)``
listens to the same four in-directions (``LEFT``, ``RIGHT``, ``LOWER_LEFT``,
``LOWER_RIGHT``) whose source columns follow one fixed column pattern per
direction.  Pulse propagation is therefore a stencil, not a graph problem, and
this engine computes the analytic fixed point

    ``t_v = min over guards {(left, lower-left), (lower-left, lower-right),
    (lower-right, right)} of max(arrival_a, arrival_b)``

with whole-row vectorized relaxation instead of the window sweep of
:mod:`repro.core.pulse_solver`:

* trigger times live in a dense ``(layers + 1, width)`` float array (``+inf``
  = never fired, ``nan`` = absent node, written only at the end);
* per in-direction, the source values are gathered with one fancy-indexing
  shift (``np.roll``-style modular column patterns on wrapping families,
  masked shifts on open boundaries) and the per-link delays live in a dense
  *delay plane* of the same shape, with **absent links folded in as ``+inf``**
  -- ``finite + inf = inf`` makes a missing link an arrival that never comes,
  so the inner loop needs no boolean masking at all;
* because in-links only ever come from layers ``l`` and ``l - 1`` (all four
  topology families preserve this), the sweep runs bottom-up one layer at a
  time: the lower arrivals are computed once per layer, then the lateral
  guards iterate to their per-layer fixed point (a handful of rounds in
  practice, capped at ``width + 3`` -- lateral chains longer than the ring
  strictly increase with positive delays, so they can never win).

Exactness contract
------------------
Starting from ``+inf`` the relaxation is monotone non-increasing, so it
converges to the *greatest* fixed point -- which, with strictly positive
delays, is the unique fixed point the solver's window sweep fires.  At
the fixed point every value is produced by the same IEEE ``min`` / ``max`` /
``add`` operations on the same operands as the solver's winning guard, so
whenever both engines see the same per-link delay *values* the results are
**bit-identical** -- which is exactly the fault-free x deterministic-delays
regime declared in the capabilities (``exact_when = ("fault_free",
"deterministic_delays")``; see :data:`~repro.engines.base.
DETERMINISTIC_DELAY_MODELS`).  Random delay models draw lazily *in traversal
order*, so two engines observe different per-link values; there the engine
falls back to the ``tolerance=1.0`` claim: every result lies pointwise inside
the per-spec delay envelope ``[T_lo, T_hi]`` of :func:`delay_envelope`.

Randomness contract (same as the solver): draws come only from the run's
generator, layer-0 scenario first, then the delay model.  Fault injection is
not supported (the dense frontier has no per-link behaviour machinery yet),
so the fault-placement stage -- which draws nothing for fault-free specs --
is skipped without perturbing the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.adversary.delays import MaxSkewDelays
from repro.clocksource.scenarios import scenario_layer0_times
from repro.core.topology import NEIGHBOR_OFFSET, Direction, HexGrid
from repro.engines.base import (
    EngineCapabilities,
    RunResult,
    RunSpec,
    batch_key,
    require_support,
    validate_layer0,
)
from repro.simulation.links import ConstantDelays, DelayModel

__all__ = ["ArrayEngine", "ArrayPlan", "array_plan", "delay_envelope"]

#: Cap on batched cells (``batch x rows x width``) processed per relaxation
#: call; larger grid-sharing groups are chunked to bound peak memory.  The
#: chunking is purely elementwise, so it cannot perturb results.
_MAX_BATCH_CELLS = 16_000_000


@dataclass(frozen=True)
class ArrayPlan:
    """The grid's stencil, compiled once and reused across runs.

    Attributes
    ----------
    layers, width:
        Grid dimensions (``layers`` forwarding layers, so ``layers + 1`` rows).
    src_col:
        Per in-direction ``(width,)`` int array: source column of the in-link
        into each destination column.  The same pattern applies on every
        forwarding layer (the regularity all four families preserve).
    absent:
        Per in-direction ``(layers + 1, width)`` bool array: ``True`` where
        the in-link does not exist (open boundary, severed link, punctured
        endpoint, or the never-listening source layer 0).
    presence:
        ``(layers + 1, width)`` bool node-presence mask of the topology.
    round_cap:
        Upper bound on lateral relaxation rounds per layer before the engine
        declares divergence (impossible for positive delays; defensive).
    """

    layers: int
    width: int
    src_col: Dict[Direction, np.ndarray]
    absent: Dict[Direction, np.ndarray]
    presence: np.ndarray
    round_cap: int


@lru_cache(maxsize=16)
def array_plan(grid: HexGrid) -> ArrayPlan:
    """Compile the dense-frontier stencil of ``grid`` (cached per grid).

    The column patterns and absent-link masks are the grid's own
    :class:`~repro.core.topology.Stencil`: the intact families define it by
    rule, without touching the per-node neighbour tables, and a damaged
    grid derives it from its filtered tables.
    """
    stencil = grid.stencil
    return ArrayPlan(
        layers=grid.layers,
        width=grid.width,
        src_col=stencil.src_col,
        absent=stencil.absent,
        presence=grid.presence_mask().astype(bool),
        round_cap=grid.width + 3,
    )


def _delay_planes(
    plan: ArrayPlan, delays: DelayModel
) -> Dict[Direction, np.ndarray]:
    """Dense per-direction delay planes, with absent links folded in as ``+inf``.

    ``planes[direction][l, i]`` is the delay of the in-link into node
    ``(l, i)`` from ``direction``.  The two deterministic models are
    vectorized; any other model is consulted link by link in a fixed,
    documented order (layer-major, then the canonical in-direction order,
    then column-major) -- deterministic *per engine*, but different from the
    solver's traversal order, which is exactly why random models sit outside
    the bit-identical regime.
    """
    rows, width = plan.layers + 1, plan.width
    planes: Dict[Direction, np.ndarray]
    if isinstance(delays, ConstantDelays):
        planes = {
            direction: np.full((rows, width), delays.value)
            for direction in plan.absent
        }
    elif isinstance(delays, MaxSkewDelays):
        timing = delays.timing
        row = np.where(np.arange(width) < width // 2, timing.d_max, timing.d_min)
        planes = {
            direction: np.broadcast_to(row, (rows, width)).copy()
            for direction in plan.absent
        }
    else:
        planes = {
            direction: np.full((rows, width), math.inf)
            for direction in plan.absent
        }
        for layer in range(1, rows):
            for direction in plan.absent:
                plane = planes[direction]
                missing = plan.absent[direction]
                source_layer = layer + NEIGHBOR_OFFSET[direction][0]
                source_cols = plan.src_col[direction]
                for column in range(width):
                    if missing[layer, column]:
                        continue
                    plane[layer, column] = delays.delay(
                        (source_layer, int(source_cols[column])), (layer, column)
                    )
    for direction, missing in plan.absent.items():
        planes[direction][missing] = math.inf
    return planes


def _relax(
    plan: ArrayPlan,
    layer0: np.ndarray,
    planes: Dict[Direction, np.ndarray],
) -> Tuple[np.ndarray, int, int]:
    """Run the batched relaxation to its fixed point.

    ``layer0`` is ``(batch, width)`` and each plane ``(batch, rows, width)``.
    Returns ``(trigger_times, rounds, cells_updated)`` with trigger times
    ``(batch, rows, width)`` (``+inf`` = never fires; absent nodes are *not*
    yet ``nan``-masked).  All operations are elementwise per batch member, so
    the result of each member is independent of who shares the batch -- the
    bit-identity half of the ``run_batch`` contract.  The work counters are
    likewise batching-invariant: a member stops accruing rounds after its own
    confirming (no-change) round, and converged members contribute no updated
    cells.
    """
    batch = layer0.shape[0]
    rows, width = plan.layers + 1, plan.width
    src_left = plan.src_col[Direction.LEFT]
    src_right = plan.src_col[Direction.RIGHT]
    src_ll = plan.src_col[Direction.LOWER_LEFT]
    src_lr = plan.src_col[Direction.LOWER_RIGHT]
    plane_left = planes[Direction.LEFT]
    plane_right = planes[Direction.RIGHT]
    plane_ll = planes[Direction.LOWER_LEFT]
    plane_lr = planes[Direction.LOWER_RIGHT]
    trigger = np.full((batch, rows, width), math.inf)
    trigger[:, 0, :] = layer0
    rounds = 0
    cells = 0
    for layer in range(1, rows):
        below = trigger[:, layer - 1, :]
        lower_left = below[:, src_ll] + plane_ll[:, layer, :]
        lower_right = below[:, src_lr] + plane_lr[:, layer, :]
        central = np.maximum(lower_left, lower_right)
        row = np.full((batch, width), math.inf)
        active = np.ones(batch, dtype=bool)
        for _ in range(plan.round_cap):
            left = row[:, src_left] + plane_left[:, layer, :]
            right = row[:, src_right] + plane_right[:, layer, :]
            new = np.minimum(
                np.minimum(np.maximum(left, lower_left), central),
                np.maximum(lower_right, right),
            )
            changed = new != row
            rounds += int(np.count_nonzero(active))
            cells += int(np.count_nonzero(changed))
            changed_rows = changed.any(axis=1)
            active &= changed_rows
            row = new
            if not changed_rows.any():
                break
        else:  # pragma: no cover - impossible for positive delays
            raise RuntimeError(
                f"lateral relaxation of layer {layer} did not reach a fixed "
                f"point within {plan.round_cap} rounds (width {width}); this "
                "indicates non-positive link delays, which the timing "
                "configuration forbids"
            )
        trigger[:, layer, :] = row
    return trigger, rounds, cells


def _stack_planes(
    per_spec: Sequence[Dict[Direction, np.ndarray]]
) -> Dict[Direction, np.ndarray]:
    """Stack per-spec delay planes into ``(batch, rows, width)`` tensors."""
    return {
        direction: np.stack([planes[direction] for planes in per_spec])
        for direction in per_spec[0]
    }


def delay_envelope(spec: RunSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The per-node trigger-time envelope ``[T_lo, T_hi]`` of a spec.

    ``T_lo`` / ``T_hi`` are the fixed points under all-``d-`` / all-``d+``
    constant link delays.  Trigger times are monotone increasing in every
    link delay (they are min/max/plus expressions of them), so *any*
    fault-free execution whose delays respect the ``[d-, d+]`` bounds lands
    pointwise inside the envelope -- this is the yardstick the ``tolerance``
    exactness contract is expressed in (``tolerance=1.0`` means "inside the
    envelope"; see :class:`~repro.engines.base.EngineCapabilities`).

    The layer-0 rows of both bounds equal the spec's scenario firing times
    (drawn from the spec's own generator, i.e. exactly the values every
    engine observes); absent nodes are ``nan`` in both bounds.
    """
    grid = spec.make_grid()
    plan = array_plan(grid)
    timing = spec.make_timing()
    layer0 = scenario_layer0_times(spec.scenario, grid.width, timing, rng=spec.rng())
    layer0 = validate_layer0(grid, layer0)
    bounds: List[np.ndarray] = []
    for delay in (timing.d_min, timing.d_max):
        planes = _delay_planes(plan, ConstantDelays(delay))
        stacked = {
            direction: plane[np.newaxis] for direction, plane in planes.items()
        }
        trigger, _, _ = _relax(plan, layer0[np.newaxis, :], stacked)
        bound = trigger[0]
        bound[~plan.presence] = math.nan
        bounds.append(bound)
    return bounds[0], bounds[1]


class ArrayEngine:
    """Dense vectorized single-pulse engine (the large-grid fast path).

    Same fixed point as the analytic solver, computed as whole-row numpy
    relaxation -- the ``shift_array`` idiom on a ``(layers + 1, width)``
    frontier.  Orders of magnitude faster than the window sweep on big
    fault-free grids (million-node grids complete in seconds) and the
    stepping stone towards numba/GPU backends.
    """

    name = "array"
    capabilities = EngineCapabilities(
        kinds=("single_pulse",),
        supports_faults=False,
        supported_topologies=("cylinder", "torus", "patch", "degraded"),
        exactness="bit_identical",
        tolerance=1.0,
        exact_when=("fault_free", "deterministic_delays"),
        description="dense numpy-frontier single-pulse relaxation (large grids)",
    )

    # ------------------------------------------------------------------
    # spec execution
    # ------------------------------------------------------------------
    def run(self, spec: RunSpec, rng: Optional[np.random.Generator] = None) -> RunResult:
        """Execute a declarative single-pulse run (scenario-driven draws)."""
        with obs.span("engine.run", engine=self.name, kind=spec.kind):
            obs.inc("engine.array.runs")
            require_support(self, spec)
            grid = spec.make_grid()
            return self._execute([spec], grid, array_plan(grid), rng=rng)[0]

    def run_batch(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute several runs, stacking same-grid specs into one tensor.

        Specs sharing a :func:`~repro.engines.base.batch_key` build their
        grid and :class:`ArrayPlan` once and relax together as a
        ``(batch, layers + 1, width)`` tensor (chunked to bound memory).
        Every operation is elementwise per batch member, so the results are
        bit-identical to ``[run(spec) for spec in specs]`` -- pinned by the
        test suite -- and the work counters are batching-invariant.
        """
        with obs.span("engine.run_batch", engine=self.name, size=len(specs)):
            obs.inc("engine.array.runs", len(specs))
            return self._run_batch(specs)

    def _run_batch(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        for spec in specs:
            require_support(self, spec)
        grids: Dict[Tuple[str, int, int], HexGrid] = {}
        grouped: Dict[Tuple[str, int, int], List[int]] = {}
        for position, spec in enumerate(specs):
            key = batch_key(spec)
            if key not in grids:
                grids[key] = spec.make_grid()
            grouped.setdefault(key, []).append(position)
        results: List[Optional[RunResult]] = [None] * len(specs)
        for key, positions in grouped.items():
            grid = grids[key]
            plan = array_plan(grid)
            cells = (grid.layers + 1) * grid.width
            chunk = max(1, _MAX_BATCH_CELLS // max(cells, 1))
            for start in range(0, len(positions), chunk):
                block = positions[start : start + chunk]
                block_results = self._execute(
                    [specs[position] for position in block], grid, plan
                )
                for position, result in zip(block, block_results):
                    results[position] = result
        return [result for result in results if result is not None]

    def _execute(
        self,
        specs: Sequence[RunSpec],
        grid: HexGrid,
        plan: ArrayPlan,
        rng: Optional[np.random.Generator] = None,
    ) -> List[RunResult]:
        """Relax a same-grid block of specs as one stacked tensor.

        Draw order per spec (from its own generator unless an explicit one is
        supplied for a single run): layer-0 scenario times, then the delay
        model.  Fault placement is skipped -- it draws nothing for the
        fault-free specs this engine accepts.
        """
        timings = []
        layer0_rows = []
        per_spec_planes = []
        for spec in specs:
            generator = rng if rng is not None else spec.rng()
            timing = spec.make_timing()
            layer0 = scenario_layer0_times(
                spec.scenario, grid.width, timing, rng=generator
            )
            layer0 = validate_layer0(grid, layer0)
            delays = spec.make_delays(timing, generator, kind_default="uniform")
            timings.append(timing)
            layer0_rows.append(layer0)
            per_spec_planes.append(_delay_planes(plan, delays))
        trigger, rounds, cells = _relax(
            plan, np.stack(layer0_rows), _stack_planes(per_spec_planes)
        )
        if obs.metrics_enabled():
            obs.inc("array.rounds", rounds)
            obs.inc("array.cells_updated", cells)
        results: List[RunResult] = []
        for index, spec in enumerate(specs):
            trigger_times = trigger[index]
            trigger_times[~plan.presence] = math.nan
            results.append(
                RunResult(
                    engine=self.name,
                    kind="single_pulse",
                    grid=grid,
                    timing=timings[index],
                    trigger_times=trigger_times,
                    correct_mask=plan.presence.copy(),
                    layer0_times=trigger_times[0, :].copy(),
                    fault_model=None,
                    spec=spec,
                )
            )
        return results
