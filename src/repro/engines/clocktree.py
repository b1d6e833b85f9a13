"""The H-tree clock-tree baseline as an execution engine.

Lets ``hex-repro sweep --engine solver,des,clocktree`` run the paper's title
comparison inside one campaign: for a spec describing an ``L x W`` HEX grid,
the engine builds an H-tree serving at least as many sinks as the grid has
nodes (same die, same technology -- the per-unit wire delay is ``d+`` for a
wire of HEX-link length and the relative delay variation is ``epsilon / d+``,
as in :func:`repro.clocktree.comparison.compare_scaling`), samples one set of
element delays from the run's generator and reports the sink arrival times as
the run's trigger matrix.

The trigger matrix is laid out on the tree's ``2^k x 2^k`` physical sink
array (rows play the role of layers), so the campaign's pooled skew
statistics measure *physically adjacent* sink skews -- the quantity the
paper's introduction compares against HEX's neighbour skew.  Tree-specific
scalars (global skew, neighbour skews, depth) are reported in
:attr:`~repro.engines.base.RunResult.metrics`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.clocktree.delays import TreeDelayConfig, sample_element_delays
from repro.clocktree.htree import build_htree
from repro.clocktree.simulation import sink_arrival_times, tree_skew_report
from repro.engines.base import (
    EngineCapabilities,
    RunResult,
    RunSpec,
    generic_run_batch,
    require_support,
)

__all__ = ["ClockTreeEngine"]


class ClockTreeEngine:
    """Clock-tree baseline: one delay sample of an H-tree covering the grid."""

    name = "clocktree"
    capabilities = EngineCapabilities(
        kinds=("single_pulse",),
        supports_faults=False,
        supported_topologies=("cylinder",),
        exactness="tolerance",
        tolerance=None,
        description="H-tree clock-tree baseline (sink arrival times on the same die)",
    )

    def run_batch(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Per-spec loop; one tree delay sample dominates each run anyway."""
        with obs.span("engine.run_batch", engine=self.name, size=len(specs)):
            return generic_run_batch(self, specs)

    @staticmethod
    def tree_levels(num_endpoints: int) -> int:
        """Smallest H-tree recursion depth with at least ``num_endpoints`` sinks."""
        return max(1, math.ceil(math.log(max(1, num_endpoints), 4)))

    def run(self, spec: RunSpec, rng: Optional[np.random.Generator] = None) -> RunResult:
        with obs.span("engine.run", engine=self.name, kind=spec.kind):
            obs.inc("engine.clocktree.runs")
            return self._run(spec, rng)

    def _run(self, spec: RunSpec, rng: Optional[np.random.Generator] = None) -> RunResult:
        require_support(self, spec)
        generator = rng if rng is not None else spec.rng()
        grid = spec.make_grid()
        timing = spec.make_timing()

        levels = self.tree_levels(grid.num_nodes)
        tree = build_htree(levels, span=float(2**levels))
        config = TreeDelayConfig(
            wire_delay_per_unit=timing.d_max,
            buffer_delay=0.2 * timing.d_max,
            relative_variation=timing.epsilon / timing.d_max,
        )
        element_delays = sample_element_delays(tree, config, rng=generator)
        arrivals = sink_arrival_times(tree, element_delays)
        if obs.metrics_enabled():
            # Deterministic work counters: pure functions of the tree topology,
            # comparable across serial and parallel campaigns.
            obs.inc("clocktree.elements_sampled", len(element_delays))
            obs.inc("clocktree.sinks_evaluated", tree.num_sinks)

        sink_grid = tree.sink_grid()
        side = 2**levels
        trigger_times = np.full((side, side), np.inf, dtype=float)
        for (row, column), index in sink_grid.items():
            trigger_times[row, column] = arrivals[index]
        report = tree_skew_report(tree, config, element_delays=element_delays)

        return RunResult(
            engine=self.name,
            kind="single_pulse",
            grid=grid,
            timing=timing,
            trigger_times=trigger_times,
            correct_mask=np.ones_like(trigger_times, dtype=bool),
            layer0_times=None,
            fault_model=None,
            spec=spec,
            metrics={
                "tree_levels": float(levels),
                "tree_num_sinks": float(tree.num_sinks),
                "tree_depth": float(report.nominal_depth),
                "tree_global_skew": report.global_skew,
                "tree_max_neighbor_skew": report.max_neighbor_skew,
                "tree_avg_neighbor_skew": report.avg_neighbor_skew,
                "tree_max_neighbor_disjoint_path": report.max_neighbor_disjoint_path,
            },
        )
