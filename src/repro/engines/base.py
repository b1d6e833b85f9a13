"""Engine protocol, run descriptions and unified run results.

This module defines the three value objects of the execution API:

* :class:`RunSpec` -- a frozen, JSON-round-trippable description of *one*
  simulation run: grid dimensions, timing bounds, layer-0 scenario, fault
  specification, delay-model choice, timeout override, timer policy, pulse
  schedule parameters and the seed-derivation coordinates.  A spec carries
  everything an engine needs to execute the run in any process, and hashes to
  a stable content key (the cache identity used by the campaign layer).

* :class:`RunResult` -- the unified outcome of a run, carrying the fields
  :mod:`repro.analysis` consumes (dense trigger times and correctness mask
  for single-pulse runs; timeouts, source schedule and raw firing records
  for multi-pulse runs) plus free-form per-engine ``metrics``.

* :class:`Engine` -- the protocol every execution backend implements:
  ``name``, ``capabilities`` and ``run(spec, rng) -> RunResult``.  Engines are
  looked up by name through :mod:`repro.engines.registry`.

Seed-derivation contract
------------------------
``RunSpec.rng()`` rebuilds the run's generator from ``(entropy, run_index)``
alone as ``default_rng(SeedSequence(entropy=entropy, spawn_key=(run_index,)))``
-- exactly the stream NumPy produces for child ``run_index`` of
``SeedSequence(entropy).spawn(n)``, and therefore exactly the stream of the
historical ``ExperimentConfig.spawn_rngs(runs, salt)`` loops and of
``campaign.spec.RunTask.rng()``.  Engines draw *only* from that generator, in
a documented order (see the engine modules), so a ``(spec, rng)`` pair fully
determines the result bit-for-bit in any process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.clocksource.scenarios import Scenario, parse_scenario
from repro.core.parameters import TimeoutConfig, TimerPolicy, TimingConfig
from repro.core.topology import HexGrid, NodeId
from repro.faults.models import FaultModel, FaultType
from repro.simulation.links import (
    ConstantDelays,
    DelayModel,
    FreshUniformDelays,
    UniformRandomDelays,
)
from repro.topologies import (
    DEFAULT_TOPOLOGY,
    TopologySpec,
    build_topology,
    canonical_topology,
    validate_topology,
)

if TYPE_CHECKING:
    # The adversary and solver modules load only for the specs that use them.
    from repro.adversary.schedule import FaultSchedule
    from repro.core.pulse_solver import PulseSolution

__all__ = [
    "KINDS",
    "DELAY_MODELS",
    "INITIAL_STATES",
    "EngineCapabilities",
    "Engine",
    "RunSpec",
    "RunResult",
    "batch_key",
    "shared_grid",
    "canonical_json",
    "content_key",
    "generic_run_batch",
    "validate_layer0",
]

#: Supported workload kinds.
KINDS = ("single_pulse", "multi_pulse")

#: Delay-model choices a spec can request.  ``"default"`` picks the historical
#: per-kind default (cached per-link draws for single-pulse runs, fresh
#: per-message draws for multi-pulse runs); the explicit names force one
#: model.  ``"max_skew"`` and ``"biased"`` are the delay *adversaries* of
#: :mod:`repro.adversary.delays`, still confined to ``[d-, d+]``.
#: ``"constant"`` fixes every link to ``d+`` (the paper's uniform-delay
#: idealisation).
DELAY_MODELS = ("default", "uniform", "fresh", "max_skew", "biased", "constant")

#: Initial-state policies of multi-pulse runs.  ``None`` on a spec defers to
#: the historical ``random_initial_states`` flag; ``"adversarial"`` starts
#: every node with all memory flags set (one coherent spurious wave at t=0).
INITIAL_STATES = ("clean", "random", "adversarial")

_PAPER_TIMING = TimingConfig.paper_defaults()


# ----------------------------------------------------------------------
# canonical JSON hashing (shared with the campaign layer)
# ----------------------------------------------------------------------
def canonical_json(payload: Any) -> str:
    """A canonical (sorted-keys, compact) JSON encoding used for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(payload: Any, length: int = 32) -> str:
    """Content-address of a JSON-serializable payload (truncated SHA-256)."""
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return digest[:length]


# ----------------------------------------------------------------------
# canonicalisation helpers (shared with campaign.spec)
# ----------------------------------------------------------------------
def canonical_scenario(value: Union[Scenario, str]) -> str:
    """Canonical string value of a scenario or one of its aliases."""
    return parse_scenario(value).value


def canonical_fault_type(value: Union[FaultType, str]) -> str:
    """Canonical string value of a fault type."""
    if isinstance(value, FaultType):
        return value.value
    return FaultType(str(value)).value


def canonical_timer_policy(value: Union[TimerPolicy, str]) -> str:
    """Canonical string value of a timer policy."""
    if isinstance(value, TimerPolicy):
        return value.value
    return TimerPolicy(str(value)).value


def canonical_positions(
    value: Optional[Sequence[NodeId]],
) -> Optional[Tuple[Tuple[int, int], ...]]:
    """Node positions as a tuple of ``(layer, column)`` int pairs."""
    if value is None:
        return None
    return tuple((int(layer), int(column)) for layer, column in value)


def canonical_timeouts(
    value: Optional[Union[TimeoutConfig, Sequence[float]]]
) -> Optional[Tuple[float, ...]]:
    """A timeout override as the canonical 6-tuple (or ``None``)."""
    if value is None:
        return None
    if isinstance(value, TimeoutConfig):
        return (
            value.t_link_min,
            value.t_link_max,
            value.t_sleep_min,
            value.t_sleep_max,
            value.pulse_separation,
            value.stable_skew,
        )
    items = tuple(float(item) for item in value)
    if len(items) != 6:
        raise ValueError(f"explicit timeouts need 6 values, got {len(items)}")
    return items


def timeouts_from_tuple(value: Optional[Sequence[float]]) -> Optional[TimeoutConfig]:
    """Rebuild a :class:`TimeoutConfig` from its canonical 6-tuple (or ``None``)."""
    if value is None:
        return None
    t_link_min, t_link_max, t_sleep_min, t_sleep_max, separation, sigma = value
    return TimeoutConfig(
        t_link_min=t_link_min,
        t_link_max=t_link_max,
        t_sleep_min=t_sleep_min,
        t_sleep_max=t_sleep_max,
        pulse_separation=separation,
        stable_skew=sigma,
    )


def validate_layer0(grid: HexGrid, layer0_times: Sequence[float]) -> np.ndarray:
    """Coerce and shape-check the layer-0 firing times of a single-pulse run."""
    layer0 = np.asarray(layer0_times, dtype=float)
    if layer0.shape != (grid.width,):
        raise ValueError(
            f"layer0_times must have shape ({grid.width},) -- one firing time per "
            f"layer-0 clock source of this width-{grid.width} grid -- but got shape "
            f"{layer0.shape}; repro.clocksource.scenarios.scenario_layer0_times("
            f"scenario, {grid.width}, timing) produces valid inputs"
        )
    return layer0


# ----------------------------------------------------------------------
# capabilities & protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineCapabilities:
    """What an execution engine supports.

    Attributes
    ----------
    kinds:
        Workload kinds the engine can run (subset of :data:`KINDS`).
    supports_faults:
        Whether the engine honours a spec's fault injection parameters.
    supports_fault_schedules:
        Whether the engine executes the *dynamic* fault schedules of
        :mod:`repro.adversary` (timed inject/heal/crash/flip events).  Only
        the discrete-event backend can -- the analytic solver and the
        clock-tree baseline have no time axis to mutate -- so they reject
        schedule-carrying specs early via :func:`require_support`.
    supported_topologies:
        Topology *families* (registry names of :mod:`repro.topologies`) the
        engine can execute, or ``("*",)`` for "any registered family".
        Defaults to the paper's cylinder only, so protocol-minimal engines
        stay honest; the hex engines declare the wildcard and the clock-tree
        baseline stays cylinder-bound (its H-tree replaces the cylinder die).
        Specs naming an unsupported topology fail early via
        :func:`require_support`, and :class:`SweepSpec` rejects the pairing
        at build time.
    description:
        One-line human-readable summary (shown by ``hex-repro engines``).
    """

    kinds: Tuple[str, ...]
    supports_faults: bool = True
    supports_fault_schedules: bool = False
    supported_topologies: Tuple[str, ...] = (DEFAULT_TOPOLOGY,)
    description: str = ""

    def __post_init__(self) -> None:
        for kind in self.kinds:
            if kind not in KINDS:
                raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
        if not self.supported_topologies:
            raise ValueError("supported_topologies must name at least one family (or '*')")

    def supports_topology(self, family: str) -> bool:
        """Whether the engine can execute grids of a topology family."""
        return "*" in self.supported_topologies or family in self.supported_topologies

    def summary(self) -> str:
        """Compact capability listing, e.g. ``"single_pulse, multi_pulse; faults"``."""
        parts = [", ".join(self.kinds)]
        parts.append("faults" if self.supports_faults else "no faults")
        if self.supports_fault_schedules:
            parts.append("fault-schedules")
        if "*" in self.supported_topologies:
            parts.append("all topologies")
        elif self.supported_topologies != (DEFAULT_TOPOLOGY,):
            parts.append("topologies: " + ", ".join(self.supported_topologies))
        return "; ".join(parts)

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable capability record (``hex-repro engines --json``)."""
        return {
            "kinds": list(self.kinds),
            "supports_faults": self.supports_faults,
            "supports_fault_schedules": self.supports_fault_schedules,
            "supported_topologies": list(self.supported_topologies),
            "description": self.description,
        }


@runtime_checkable
class Engine(Protocol):
    """The execution-backend protocol.

    An engine turns a :class:`RunSpec` (plus an optional explicit generator)
    into a :class:`RunResult`.  Implementations must draw randomness only from
    the provided generator and in a stable, documented order, so that
    ``(spec, rng)`` determines the result bit-for-bit.
    """

    name: str
    capabilities: EngineCapabilities

    def run(
        self, spec: "RunSpec", rng: Optional[np.random.Generator] = None
    ) -> "RunResult":
        """Execute one run described by ``spec``.

        When ``rng`` is ``None`` the engine derives the generator from the
        spec's seed coordinates via :meth:`RunSpec.rng`.
        """
        ...

    def run_batch(self, specs: Sequence["RunSpec"]) -> List["RunResult"]:
        """Execute several runs, amortizing spec-independent setup.

        The contract is strict: ``run_batch(specs)`` must return results
        bit-identical to ``[run(spec) for spec in specs]`` -- batching is a
        wall-clock optimisation, never a semantics change.  Each spec still
        derives its own generator from its seed coordinates, so the batch
        result is independent of how specs are grouped.  Engines without a
        native batch implementation delegate to :func:`generic_run_batch`.
        """
        ...


def generic_run_batch(engine: Engine, specs: Sequence["RunSpec"]) -> List["RunResult"]:
    """The reference ``run_batch``: a plain per-spec loop over ``engine.run``.

    Engines whose setup cannot be shared across specs (or not profitably so)
    use this as their ``run_batch`` body; it is also the baseline the batch
    benchmarks and the bit-identity tests compare native implementations
    against.
    """
    return [engine.run(spec) for spec in specs]


def require_support(engine: Engine, spec: "RunSpec") -> None:
    """Raise a clean capability error when ``engine`` cannot run ``spec``.

    The one rule for what an engine can run, checked in order: the workload
    kind, fault injection (``num_faults > 0``), dynamic fault schedules and
    the topology family.  Every engine calls it before drawing anything, and
    :class:`~repro.campaign.spec.SweepSpec` calls it on probe specs at build
    time, so a cell fails with the same message before and during a run.
    """
    capabilities = engine.capabilities
    if spec.kind not in capabilities.kinds:
        raise ValueError(
            f"engine {engine.name!r} does not support kind {spec.kind!r} "
            f"(supported kinds: {', '.join(capabilities.kinds)})"
        )
    if spec.num_faults > 0 and not capabilities.supports_faults:
        raise ValueError(
            f"engine {engine.name!r} does not support fault injection (spec "
            f"requests num_faults={spec.num_faults}); run faulted specs on the "
            "'solver' or 'des' engine, and keep this engine fault-free"
        )
    if spec.fault_schedule is not None and not capabilities.supports_fault_schedules:
        label = spec.fault_schedule.label or spec.fault_schedule.key(8)
        raise ValueError(
            f"engine {engine.name!r} cannot execute dynamic fault schedules "
            f"(spec carries schedule {label!r}); time-varying adversaries need "
            "the discrete-event backend -- run the spec with engine 'des', or "
            "drop fault_schedule for a static-fault run"
        )
    family = spec.topology_family()
    if not capabilities.supports_topology(family):
        supported = ", ".join(capabilities.supported_topologies)
        raise ValueError(
            f"engine {engine.name!r} does not support topology {spec.topology!r} "
            f"(family {family!r}; supported: {supported}); run the spec on a "
            "hex engine ('solver'/'des'), or keep this engine on the cylinder"
        )


def batch_key(spec: "RunSpec") -> Tuple[str, int, int]:
    """The grid-sharing key of ``Engine.run_batch`` groupings.

    Two specs with equal keys build equal grids (same topology spec string
    and dimensions), so batch implementations may construct the grid -- and
    any grid-derived plan -- once per key.  Shared by every engine so the
    grouping rule cannot drift between implementations.
    """
    return (spec.topology, spec.layers, spec.width)


@lru_cache(maxsize=16)
def shared_grid(topology: str, layers: int, width: int) -> HexGrid:
    """The grid of a :func:`batch_key`, built once and shared.

    Grids are immutable, so runs on equal grids share one instance and with
    it its lazily built neighbour tables.
    """
    return build_topology(topology, layers, width)


# ----------------------------------------------------------------------
# run description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """A frozen, JSON-round-trippable description of one simulation run.

    Attributes
    ----------
    kind:
        ``"single_pulse"`` (one wave, dense trigger times) or
        ``"multi_pulse"`` (stabilization workload, raw firing records).
    layers, width:
        Grid dimensions ``L`` and ``W``.
    d_min, d_max, theta:
        The :class:`~repro.core.parameters.TimingConfig` scalars (defaults are
        the paper's).
    scenario:
        Layer-0 scenario (canonical string value; aliases accepted).
    num_faults, fault_type, fixed_fault_positions:
        Fault specification.  ``fault_type=None`` with ``num_faults > 0``
        injects nothing (the historical ``build_fault_model`` contract).
    delay_model:
        One of :data:`DELAY_MODELS`.
    timeouts:
        Optional explicit timeout override as the canonical 6-tuple
        ``(T-_link, T+_link, T-_sleep, T+_sleep, S, sigma)``.
    timer_policy:
        Timer-draw policy of the DES engine.
    num_pulses, random_initial_states, run_slack:
        Multi-pulse schedule parameters.
    fault_schedule:
        Optional dynamic :class:`~repro.adversary.schedule.FaultSchedule`
        (accepted as an instance or its JSON dict).  Only the DES engine can
        execute schedules; others fail early with a capability error.
        Omitted from the canonical JSON when ``None``, so schedule-free specs
        keep their historical content keys byte for byte.
    initial_states:
        Optional initial-state policy for multi-pulse runs, one of
        :data:`INITIAL_STATES`; ``None`` defers to ``random_initial_states``.
        Also omitted from the canonical JSON when ``None``.
    entropy, run_index:
        Seed-derivation coordinates (see the module docstring).  ``entropy``
        is the campaign-level ``seed + salt``; ``None`` means "unseeded".
    topology:
        Canonical topology spec string (``"cylinder"`` / ``"torus"`` /
        ``"patch"`` / ``"degraded:..."``; see :mod:`repro.topologies`).
        Omitted from the canonical JSON at the cylinder default, so
        topology-free specs keep their historical content keys byte for byte.
    """

    kind: str = "single_pulse"
    layers: int = 50
    width: int = 20
    d_min: float = _PAPER_TIMING.d_min
    d_max: float = _PAPER_TIMING.d_max
    theta: float = _PAPER_TIMING.theta
    scenario: str = Scenario.ZERO.value
    num_faults: int = 0
    fault_type: Optional[str] = None
    fixed_fault_positions: Optional[Tuple[Tuple[int, int], ...]] = None
    delay_model: str = "default"
    timeouts: Optional[Tuple[float, ...]] = None
    timer_policy: str = TimerPolicy.UNIFORM.value
    num_pulses: int = 1
    random_initial_states: bool = True
    run_slack: float = 0.0
    entropy: Optional[int] = None
    run_index: int = 0
    fault_schedule: Optional[FaultSchedule] = None
    initial_states: Optional[str] = None
    topology: str = DEFAULT_TOPOLOGY

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        coerce(self, "topology", canonical_topology(self.topology))
        coerce(self, "scenario", canonical_scenario(self.scenario))
        if self.fault_type is not None:
            coerce(self, "fault_type", canonical_fault_type(self.fault_type))
        coerce(self, "timer_policy", canonical_timer_policy(self.timer_policy))
        coerce(self, "fixed_fault_positions", canonical_positions(self.fixed_fault_positions))
        coerce(self, "timeouts", canonical_timeouts(self.timeouts))
        if isinstance(self.fault_schedule, dict):
            from repro.adversary.schedule import FaultSchedule

            coerce(self, "fault_schedule", FaultSchedule.from_json_dict(self.fault_schedule))
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.delay_model not in DELAY_MODELS:
            raise ValueError(
                f"unknown delay_model {self.delay_model!r}; expected one of {DELAY_MODELS}"
            )
        if self.initial_states is not None:
            if self.initial_states not in INITIAL_STATES:
                raise ValueError(
                    f"unknown initial_states {self.initial_states!r}; expected one of "
                    f"{INITIAL_STATES} (or None for the random_initial_states flag)"
                )
            if self.kind != "multi_pulse":
                raise ValueError(
                    "initial_states is a multi-pulse parameter (arbitrary initial "
                    "states only exist for stabilization workloads); "
                    f"got kind {self.kind!r}"
                )
        if self.layers < 1 or self.width < 3:
            raise ValueError("need layers >= 1 and width >= 3")
        # Family-specific lower bounds (e.g. the torus needs L >= 2) fail at
        # spec construction with an actionable error, not mid-campaign.
        validate_topology(self.topology, self.layers, self.width)
        if self.num_faults < 0:
            raise ValueError(f"num_faults must be non-negative, got {self.num_faults}")
        if self.num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {self.num_pulses}")

    # ------------------------------------------------------------------
    # reconstruction helpers
    # ------------------------------------------------------------------
    def rng(self) -> np.random.Generator:
        """The run's generator, derived from ``(entropy, run_index)``.

        With ``entropy=None`` a fresh unseeded generator is returned (the
        run is then *not* reproducible -- useful only for exploration).
        """
        if self.entropy is None:
            return np.random.default_rng()  # repro: allow-random[documented escape: entropy=None means exploratory, non-reproducible runs]
        sequence = np.random.SeedSequence(entropy=self.entropy, spawn_key=(self.run_index,))
        return np.random.default_rng(sequence)

    def make_grid(self) -> HexGrid:
        """The run's grid, built from the topology spec (cylinder by default)."""
        return build_topology(self.topology, self.layers, self.width)

    def topology_family(self) -> str:
        """The topology family name of this spec (``"cylinder"``, ...)."""
        return TopologySpec.parse(self.topology).family

    def make_timing(self) -> TimingConfig:
        """The run's timing configuration."""
        return TimingConfig(d_min=self.d_min, d_max=self.d_max, theta=self.theta)

    def make_fault_type(self) -> Optional[FaultType]:
        """The run's fault type (``None`` when no behaviour is to be injected)."""
        return FaultType(self.fault_type) if self.fault_type is not None else None

    def make_timeouts(self) -> Optional[TimeoutConfig]:
        """The explicit timeout override, if any."""
        return timeouts_from_tuple(self.timeouts)

    def make_delays(
        self, timing: TimingConfig, rng: np.random.Generator, kind_default: str
    ) -> Optional[DelayModel]:
        """Instantiate the requested delay model (drawing lazily from ``rng``).

        ``kind_default`` names the model to use for ``delay_model="default"``
        (``"uniform"`` for single-pulse runs, ``"fresh"`` for multi-pulse
        runs -- the historical entry-point defaults).
        """
        choice = self.delay_model if self.delay_model != "default" else kind_default
        if choice == "uniform":
            return UniformRandomDelays(timing, rng)
        if choice == "max_skew":
            from repro.adversary.delays import MaxSkewDelays

            return MaxSkewDelays(timing, self.width)
        if choice == "biased":
            from repro.adversary.delays import BiasedLinkDelays

            return BiasedLinkDelays(timing, rng)
        if choice == "constant":
            return ConstantDelays(timing.d_max)
        return FreshUniformDelays(timing, rng)

    def effective_initial_states(self) -> str:
        """The multi-pulse initial-state policy with the legacy flag folded in."""
        if self.initial_states is not None:
            return self.initial_states
        return "random" if self.random_initial_states else "clean"

    # ------------------------------------------------------------------
    # serialization & hashing
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (tuples become lists).

        The adversary fields (``fault_schedule``, ``initial_states``) are
        omitted when unset -- and ``topology`` at the cylinder default -- so
        that specs not using those layers serialize -- and hash -- exactly as
        they did before the layers existed.
        """
        payload: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "topology":
                if value == DEFAULT_TOPOLOGY:
                    continue
            elif spec_field.name in ("fault_schedule", "initial_states"):
                if value is None:
                    continue
                if spec_field.name == "fault_schedule":
                    value = value.to_json_dict()
            elif isinstance(value, tuple):
                value = [list(item) if isinstance(item, tuple) else item for item in value]
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_json_dict` (unknown keys rejected)."""
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {sorted(unknown)}")
        kwargs = dict(payload)
        for name in ("fixed_fault_positions", "timeouts"):
            if kwargs.get(name) is not None:
                kwargs[name] = tuple(
                    tuple(item) if isinstance(item, list) else item for item in kwargs[name]
                )
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical JSON encoding of the spec."""
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_json_dict(json.loads(text))

    def key(self) -> str:
        """Content-address of the spec (truncated SHA-256 of the canonical JSON)."""
        return content_key(self.to_json_dict())

    def with_seed(self, entropy: int, run_index: int = 0) -> "RunSpec":
        """A copy with different seed-derivation coordinates."""
        return replace(self, entropy=entropy, run_index=run_index)


# ----------------------------------------------------------------------
# run result
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """The unified outcome of one engine run.

    Single-pulse engines populate ``trigger_times`` / ``correct_mask`` /
    ``layer0_times`` (and, for the analytic solver, ``solution``); multi-pulse
    runs populate ``timeouts`` / ``source_schedule`` / ``firing_times``.
    :mod:`repro.analysis` consumes either kind through the accessors below.

    Attributes
    ----------
    engine:
        Name of the engine that produced the result.
    kind:
        ``"single_pulse"`` or ``"multi_pulse"``.
    grid, timing:
        Topology and delay bounds of the run.
    trigger_times:
        Dense trigger-time matrix (``+inf`` never fired, ``nan`` faulty).  For
        the clock-tree engine this is the sink-array arrival matrix, whose
        shape is the tree's ``2^k x 2^k`` sink grid rather than ``(L+1, W)``.
    correct_mask:
        ``True`` where the node is correct.
    layer0_times:
        The layer-0 firing times driving a single-pulse run.
    solution:
        The full analytic :class:`~repro.core.pulse_solver.PulseSolution`
        (solver engine only).
    fault_model:
        The fault model of the run (``None`` when fault-free).
    timeouts:
        Algorithm timeouts of a DES run.
    source_schedule:
        ``(num_pulses, W)`` layer-0 generation times of a multi-pulse run.
    firing_times:
        Mapping node -> sorted firing times of a multi-pulse run.
    spec:
        The spec the run was built from (``None`` for the imperative
        explicit-array entry points).
    metrics:
        Free-form per-engine scalars (e.g. the clock-tree skew report).
    """

    engine: str
    kind: str
    grid: HexGrid
    timing: TimingConfig
    trigger_times: Optional[np.ndarray] = None
    correct_mask: Optional[np.ndarray] = None
    layer0_times: Optional[np.ndarray] = None
    solution: Optional[PulseSolution] = None
    fault_model: Optional[FaultModel] = None
    timeouts: Optional[TimeoutConfig] = None
    source_schedule: Optional[np.ndarray] = None
    firing_times: Optional[Dict[NodeId, List[float]]] = None
    spec: Optional[RunSpec] = None
    metrics: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # single-pulse accessors
    # ------------------------------------------------------------------
    def trigger_time(self, node: NodeId) -> float:
        """Firing time of one node (single-pulse runs on the hex grid)."""
        if self.trigger_times is None:
            raise ValueError("run carries no dense trigger times")
        layer, column = self.grid.validate_node(node)
        return float(self.trigger_times[layer, column])

    def all_correct_triggered(self) -> bool:
        """Whether every correct forwarding node fired (single-pulse runs)."""
        if self.trigger_times is None or self.correct_mask is None:
            raise ValueError("run carries no dense trigger times")
        times = self.trigger_times[1:, :]
        mask = self.correct_mask[1:, :]
        return bool(np.all(np.isfinite(times[mask])))

    # ------------------------------------------------------------------
    # multi-pulse accessors
    # ------------------------------------------------------------------
    @property
    def num_pulses(self) -> int:
        """Number of pulses the layer-0 sources generated (multi-pulse runs)."""
        if self.source_schedule is None:
            raise ValueError("run carries no source schedule")
        return int(self.source_schedule.shape[0])

    def firings_of(self, node: NodeId) -> List[float]:
        """All firing times of one node (empty for faulty nodes)."""
        if self.firing_times is None:
            raise ValueError("run carries no firing records")
        return self.firing_times.get(self.grid.validate_node(node), [])

    def total_firings(self) -> int:
        """Total number of firings across all nodes (multi-pulse runs)."""
        if self.firing_times is None:
            raise ValueError("run carries no firing records")
        return sum(len(times) for times in self.firing_times.values())

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def analysis_mask(self) -> Optional[np.ndarray]:
        """The correctness mask in the form the pooled statistics expect.

        ``None`` for fault-free runs (matching the historical convention of
        passing no mask), the fault model's correctness mask otherwise.
        """
        if self.fault_model is None:
            return None
        return self.fault_model.correctness_mask()
