"""Shared machinery for the single-pulse experiments (Tables 1-3, Figs. 8-12, Theorem 1).

A *run set* (the paper's set ``R`` of executions) is a collection of
independent single-pulse simulations sharing the same scenario, fault count and
fault type, each with its own child RNG stream (delays, layer-0 offsets, fault
placement and fault behaviour).  Every experiment runs its run sets as one
campaign (:mod:`repro.campaign`): a run set is one point of a campaign cell,
and an experiment that needs several scenarios sweeps them as one cell's
scenario axis, so point ``i`` draws the streams of seed salt
``seed_salt + i``.  Every experiment thereby gains multiprocessing fan-out
(``workers``), the resumable on-disk cache and the choice of execution backend
-- any registered engine of :mod:`repro.engines` -- with results identical for
any worker count.

The experiments read the records of a point with
:meth:`~repro.campaign.runner.CampaignResult.records_for` and pool them with
:func:`~repro.campaign.records.pooled_statistics` (the paper's set-level
``sigma^op`` operators); a record's trigger times are
:meth:`~repro.campaign.records.RunRecord.trigger_matrix`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.campaign.records import RunRecord
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, SweepSpec
from repro.clocksource.scenarios import Scenario, parse_scenario
from repro.core.parameters import TimerPolicy
from repro.core.topology import NodeId
from repro.experiments.config import ExperimentConfig
from repro.faults.models import FaultType

__all__ = ["scenario_set_spec", "run_scenario_set"]


def scenario_set_spec(
    config: ExperimentConfig,
    scenario: Union[Scenario, str, Sequence[Union[Scenario, str]]],
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
    """The one-cell campaign of one run set per scenario.

    ``scenario`` is one scenario or a sequence of them; the cell has one
    point per scenario, in order, and point ``i`` draws seed salt
    ``seed_salt + i``.  The other parameters are those of
    :func:`run_scenario_set`.
    """
    scenarios = [scenario] if isinstance(scenario, (Scenario, str)) else scenario
    # fault_type=None means "inject nothing" regardless of num_faults (the
    # build_fault_model contract), so the cell must be fault-free.
    cell = SweepSpec(
        layers=config.layers,
        width=config.width,
        scenario=tuple(parse_scenario(value).value for value in scenarios),
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
) -> List[RunRecord]:
    """Execute a set of independent single-pulse runs; returns their records.

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
        or :class:`FaultType.FAIL_SILENT`; ``None`` injects no faults.
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

    Returns
    -------
    list of RunRecord
        One record per run, in run order.
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
    return CampaignRunner(spec, workers=workers).run().records
