"""Shared machinery for the single-pulse experiments (Tables 1-2, Figs. 8-16).

A *run set* (the paper's set ``R`` of executions) is a collection of
independent single-pulse simulations sharing the same scenario, fault count and
fault type, each with its own child RNG stream (delays, layer-0 offsets, fault
placement and fault behaviour).  Execution is delegated to the campaign
subsystem (:mod:`repro.campaign`): a run set is a one-point campaign cell, so
every experiment transparently gains multiprocessing fan-out (``workers``),
the resumable on-disk cache and the choice of execution backend -- any
registered engine of :mod:`repro.engines` (task execution dispatches through
``get_engine``) -- while producing bit-identical results to the historical
serial loops (the campaign's seed derivation reproduces
``ExperimentConfig.spawn_rngs`` exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.analysis.locality import inclusion_mask
from repro.analysis.skew import SkewStatistics
from repro.campaign.records import RunRecord, stand_in_fault_model
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, SweepSpec
from repro.clocksource.scenarios import Scenario, parse_scenario
from repro.core.parameters import TimerPolicy
from repro.core.topology import HexGrid, NodeId
from repro.experiments.config import ExperimentConfig
from repro.faults.models import FaultModel, FaultType
from repro.topologies import build_topology, topology_column_wrap

__all__ = [
    "RunSetResult",
    "scenario_set_spec",
    "run_set_from_records",
    "run_scenario_set",
]


@dataclass
class RunSetResult:
    """The raw outcome of a set of single-pulse runs.

    Attributes
    ----------
    config:
        The experiment configuration used.
    scenario:
        The layer-0 scenario.
    num_faults, fault_type:
        Fault injection parameters (``fault_type`` is ``None`` when fault-free).
    trigger_times:
        One ``(L + 1, W)`` matrix per run.
    fault_models:
        One fault model per run (``None`` entries when fault-free).  These are
        placement stand-ins rebuilt from the run records -- they carry the
        faulty positions (all the analysis needs), not the per-link behaviour
        drawn during simulation.
    layer0_times:
        The layer-0 firing times of each run.
    """

    config: ExperimentConfig
    scenario: Scenario
    num_faults: int
    fault_type: Optional[FaultType]
    trigger_times: List[np.ndarray] = field(default_factory=list)
    fault_models: List[Optional[FaultModel]] = field(default_factory=list)
    layer0_times: List[np.ndarray] = field(default_factory=list)
    topology: str = "cylinder"

    @property
    def num_runs(self) -> int:
        """Number of runs in the set."""
        return len(self.trigger_times)

    def make_grid(self) -> HexGrid:
        """The run set's grid (config dimensions on the run set's topology)."""
        return build_topology(self.topology, self.config.layers, self.config.width)

    def masks(self, hops: int = 0) -> List[Optional[np.ndarray]]:
        """Inclusion masks per run for a given fault-exclusion radius ``hops``."""
        grid = self.make_grid()
        result: List[Optional[np.ndarray]] = []
        for fault_model in self.fault_models:
            if fault_model is None:
                result.append(None)
            else:
                result.append(inclusion_mask(grid, fault_model, hops=hops))
        return result

    def statistics(self, hops: int = 0) -> SkewStatistics:
        """Pooled skew statistics of the run set (Table 1 / Table 2 row)."""
        return SkewStatistics.from_runs(
            self.trigger_times, self.masks(hops), wrap=topology_column_wrap(self.topology)
        )


def scenario_set_spec(
    config: ExperimentConfig,
    scenario: Union[Scenario, str],
    num_faults: int = 0,
    fault_type: Optional[FaultType] = FaultType.BYZANTINE,
    runs: Optional[int] = None,
    seed_salt: int = 0,
    fixed_fault_positions: Optional[Sequence[NodeId]] = None,
    engine: str = "solver",
    timer_policy: TimerPolicy = TimerPolicy.UNIFORM,
    topology: str = "cylinder",
    name: str = "scenario-set",
) -> CampaignSpec:
    """The one-cell campaign spec equivalent of a :func:`run_scenario_set` call."""
    scenario_value = parse_scenario(scenario)
    # fault_type=None means "inject nothing" regardless of num_faults (the
    # build_fault_model contract), so the cell must be fault-free.
    cell = SweepSpec(
        layers=config.layers,
        width=config.width,
        scenario=scenario_value.value,
        num_faults=num_faults if fault_type is not None else 0,
        fault_type=(fault_type or FaultType.BYZANTINE).value,
        engine=engine,
        timer_policy=timer_policy,
        topology=topology,
        runs=runs if runs is not None else config.runs,
        seed_salt=seed_salt,
        fixed_fault_positions=fixed_fault_positions,
    )
    return CampaignSpec(name=name, seed=config.seed, timing=config.timing, cells=(cell,))


def run_set_from_records(
    config: ExperimentConfig,
    records: Sequence[RunRecord],
    scenario: Union[Scenario, str],
    num_faults: int,
    fault_type: Optional[FaultType],
    topology: str = "cylinder",
) -> RunSetResult:
    """Assemble a :class:`RunSetResult` from campaign records (task order)."""
    result = RunSetResult(
        config=config,
        scenario=parse_scenario(scenario),
        num_faults=num_faults,
        fault_type=fault_type if num_faults > 0 else None,
        topology=topology,
    )
    grid = result.make_grid()
    for record in records:
        result.trigger_times.append(record.trigger_matrix())
        result.fault_models.append(stand_in_fault_model(grid, record.faulty_nodes))
        layer0 = record.layer0_times if record.layer0_times is not None else []
        result.layer0_times.append(np.asarray(layer0, dtype=float))
    return result


def run_scenario_set(
    config: ExperimentConfig,
    scenario: Union[Scenario, str],
    num_faults: int = 0,
    fault_type: Optional[FaultType] = FaultType.BYZANTINE,
    runs: Optional[int] = None,
    seed_salt: int = 0,
    fixed_fault_positions: Optional[Sequence[NodeId]] = None,
    engine: str = "solver",
    timer_policy: TimerPolicy = TimerPolicy.UNIFORM,
    topology: str = "cylinder",
    workers: int = 1,
) -> RunSetResult:
    """Execute a set of independent single-pulse runs.

    Parameters
    ----------
    config:
        Grid, timing and run-count parameters.
    scenario:
        The layer-0 scenario (``"(i)"`` ... ``"(iv)"`` or a :class:`Scenario`).
    num_faults:
        Number of faulty nodes per run (placed uniformly at random under
        Condition 1, freshly per run).
    fault_type:
        :class:`FaultType.BYZANTINE` (per-link random constant-0/1 behaviour)
        or :class:`FaultType.FAIL_SILENT`; ignored when ``num_faults == 0``.
    runs:
        Override of ``config.runs``.
    seed_salt:
        Extra salt mixed into the seed so different experiments using the same
        configuration get independent streams.
    fixed_fault_positions:
        Deterministic fault positions (e.g. Fig. 13's node ``(1, 19)``);
        behaviour is still drawn per run for Byzantine faults.
    engine:
        A registered engine name (:func:`repro.engines.available_engines`):
        ``"solver"`` (analytic, the paper's single-pulse semantics), ``"des"``
        (full discrete-event simulation) or ``"clocktree"`` (H-tree baseline,
        fault-free sets only).  Unknown names are rejected with the list of
        registered engines when the spec is built.
    timer_policy:
        Timer-draw policy for the DES engine.
    topology:
        Topology spec string (:mod:`repro.topologies`); the cylinder default
        keeps historical results byte-identical.
    workers:
        Worker processes for the underlying campaign runner; results are
        identical for any worker count.
    """
    spec = scenario_set_spec(
        config,
        scenario,
        num_faults=num_faults,
        fault_type=fault_type,
        runs=runs,
        seed_salt=seed_salt,
        fixed_fault_positions=fixed_fault_positions,
        engine=engine,
        timer_policy=timer_policy,
        topology=topology,
    )
    campaign = CampaignRunner(spec, workers=workers).run()
    return run_set_from_records(
        config, campaign.records, scenario, num_faults, fault_type, topology=topology
    )

