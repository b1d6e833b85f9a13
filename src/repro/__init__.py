"""HEX: Byzantine fault-tolerant, self-stabilizing clock distribution on hexagonal grids.

This package is a faithful, laptop-scale reproduction of

    Dolev, Fuegger, Lenzen, Perner, Schmid:
    "HEX: Scaling honeycombs is easier than scaling clock trees",
    SPAA 2013 / Journal of Computer and System Sciences 82 (2016) 929-956.

The package is organised as a set of subsystems (see ``DESIGN.md`` at the
repository root for the full inventory):

``repro.core``
    The paper's contribution: the cylindric hexagonal grid topology, the HEX
    pulse-forwarding algorithm (Algorithm 1 / Fig. 7 state machines), the
    analytic single-pulse solver, causal/zig-zag path machinery
    (Definitions 1-2), the worst-case skew bounds (Lemmas 3-5, Corollary 1,
    Theorems 1-2) and deterministic worst-case constructions (Figs. 5 and 17).

``repro.topologies``
    Pluggable grid shapes behind one protocol, spec grammar and registry:
    the paper's ``cylinder``, a boundary-free ``torus``, an open-boundary
    ``patch`` and ``degraded`` grids with seeded punctured nodes / severed
    links -- all sweepable through ``RunSpec.topology`` and the campaign
    ``topology`` axis.

``repro.simulation``
    A discrete-event simulator replacing the paper's ModelSim/VHDL testbed.

``repro.engines``
    The unified execution API: the ``Engine`` protocol, the JSON-serializable
    ``RunSpec`` run description, the unified ``RunResult`` and the registry of
    backends (``solver``, ``des``, ``clocktree``).

``repro.clocksource``
    Layer-0 pulse generation: the four skew scenarios of Table 1 and a
    multi-pulse synchronized source with pulse separation ``S`` and drift.

``repro.faults``
    Fault injection: Byzantine (per-link constant-0/constant-1), fail-silent
    and crash faults, plus Condition 1 (fault separation) placement.

``repro.adversary``
    Dynamic adversaries: declarative, JSON-round-trippable fault schedules
    (timed inject/heal/crash/flip events; burst, cluster, intermittent-link
    and mobile-fault generators), delay adversaries within ``[d-, d+]``, and
    the materialized runtime actions the DES engine executes -- the workload
    layer behind the paper's self-stabilization claims.

``repro.analysis``
    Skew statistics, histograms, stabilization-time estimation and
    fault-locality analysis (the paper's Haskell post-processing).

``repro.clocktree``
    The baseline of the title: an H-tree clock distribution model used for the
    HEX-vs-clock-tree scaling comparison.

``repro.multiplication``
    The Section 5 extension: frequency multiplication of the HEX pulses by
    start/stoppable local oscillators.

``repro.campaign``
    Parallel sweep and Monte Carlo campaign orchestration: declarative
    :class:`~repro.campaign.spec.CampaignSpec` grids, deterministic per-run
    seed derivation, a ``multiprocessing`` runner, flat JSON run records and
    a resumable content-addressed on-disk cache.

``repro.experiments``
    One module per table/figure of the evaluation section, each of which
    regenerates the corresponding rows/series on top of ``repro.campaign``.

Quickstart
----------
The one entry point for execution is the engine registry: describe the run as
a :class:`~repro.engines.base.RunSpec` and hand it to a registered engine
(``solver`` / ``des`` / ``clocktree`` / ``array``):

>>> from repro.engines import RunSpec, get_engine
>>> spec = RunSpec(layers=10, width=8, scenario="zero", entropy=1)
>>> result = get_engine("solver").run(spec)
>>> result.trigger_times.shape
(11, 8)
"""

from __future__ import annotations

from repro.analysis.skew import SkewStatistics, inter_layer_skews, intra_layer_skews
from repro.core.bounds import (
    corollary1_intra_layer_bound,
    lemma3_skew_potential_bound,
    lemma4_intra_layer_bound,
    lemma5_pulse_skew_bound,
    theorem1_intra_layer_bound,
)
from repro.core.parameters import TimeoutConfig, TimingConfig, condition2_timeouts
from repro.core.pulse_solver import PulseSolution, solve_single_pulse
from repro.core.topology import Direction, HexGrid, LinkId, NodeId
from repro.engines import (
    Engine,
    EngineCapabilities,
    RunResult,
    RunSpec,
    available_engines,
    get_engine,
    register_engine,
)
from repro.faults.models import FaultModel, FaultType
from repro.faults.placement import check_condition1, place_faults
from repro.topologies import (
    Topology,
    available_topologies,
    build_topology,
    get_topology,
    register_topology,
)

__version__ = "1.0.0"

__all__ = [
    "HexGrid",
    "NodeId",
    "LinkId",
    "Direction",
    "TimingConfig",
    "TimeoutConfig",
    "condition2_timeouts",
    "solve_single_pulse",
    "PulseSolution",
    "theorem1_intra_layer_bound",
    "lemma3_skew_potential_bound",
    "lemma4_intra_layer_bound",
    "corollary1_intra_layer_bound",
    "lemma5_pulse_skew_bound",
    "Engine",
    "EngineCapabilities",
    "RunSpec",
    "RunResult",
    "available_engines",
    "get_engine",
    "register_engine",
    "SkewStatistics",
    "intra_layer_skews",
    "inter_layer_skews",
    "FaultModel",
    "FaultType",
    "place_faults",
    "check_condition1",
    "Topology",
    "available_topologies",
    "build_topology",
    "get_topology",
    "register_topology",
    "__version__",
]
