"""Declarative campaign specifications and their expansion into run tasks.

A *campaign* is a reproducible batch of independent simulation runs: Monte
Carlo repetitions of the paper's single-pulse and stabilization experiments
swept over grid sizes, scenarios, fault counts/types, engines and timer
policies.  The specification layer is purely declarative -- it never runs a
simulation -- so that specs can be hashed (for the on-disk result cache),
serialized to JSON (for the ``hex-repro sweep`` CLI) and shipped to worker
processes.

Three levels:

* :class:`SweepSpec` -- one *cell*: a cartesian grid over the sweep axes
  (``layers``, ``width``, ``scenario``, ``num_faults``, ``fault_type``,
  ``engine``, ``timer_policy``) plus per-cell scalars (run count, seed salt,
  workload kind).  Cells exist so that a campaign can combine points whose
  seed streams must *not* follow the cartesian enumeration -- e.g. the
  fault-type ablation deliberately reuses one salt for two fault types to get
  identical fault placements.

* :class:`CampaignSpec` -- a named collection of cells sharing a base seed and
  timing configuration.

* :class:`RunTask` -- one fully-resolved simulation run.  Expansion is
  deterministic: cell ``c``'s point ``p`` gets seed salt
  ``c.seed_salt + p`` and its run ``r`` draws its generator from
  ``SeedSequence(entropy=seed + salt, spawn_key=(r,))``.  This is *exactly*
  the stream produced by ``ExperimentConfig.spawn_rngs(runs, salt)`` (NumPy
  spawns child ``r`` of a sequence as ``spawn_key=(r,)``), so campaign results
  are bit-identical to the historical serial loops -- and every task can
  rebuild its generator alone, which is what makes process fan-out safe.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.clocksource.scenarios import Scenario
from repro.core.parameters import TimerPolicy, TimingConfig
from repro.engines import Engine, RunSpec, get_engine
from repro.engines.base import (
    DELAY_MODELS,
    INITIAL_STATES,
    KINDS,
    canonical_fault_type,
    canonical_json,
    canonical_positions,
    canonical_scenario,
    canonical_timeouts,
    canonical_timer_policy,
    content_key,
    require_support,
)
from repro.faults.models import FaultType
from repro.topologies import DEFAULT_TOPOLOGY, canonical_topology, validate_topology

if TYPE_CHECKING:
    # Loaded only by cells that sweep a fault schedule.
    from repro.adversary.schedule import FaultSchedule

__all__ = [
    "KINDS",
    "SweepSpec",
    "CampaignSpec",
    "RunTask",
    "executing_engine",
    "task_key",
    "canonical_json",
    "content_key",
]

#: Order of the sweep axes; fixes the cartesian enumeration (and therefore the
#: per-point seed salts) of a cell.  Axes added after the original seven
#: (``delay_model``, ``fault_schedule``, ``topology``) come last so that
#: cells not using them enumerate -- and salt -- exactly as before they
#: existed.
AXES = (
    "layers",
    "width",
    "scenario",
    "num_faults",
    "fault_type",
    "engine",
    "timer_policy",
    "delay_model",
    "fault_schedule",
    "topology",
)


def _as_tuple(value: Any) -> Tuple[Any, ...]:
    """Coerce a scalar or sequence axis value to a tuple (strings stay scalar)."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, (list, range)):
        return tuple(value)
    return (value,)


def _integer(name: str, value: Any) -> int:
    """``value`` as an ``int``; strings, floats and bools are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _canonical_schedule(value: Any) -> Optional[FaultSchedule]:
    """Coerce one ``fault_schedule`` axis value (None / instance / JSON dict)."""
    if value is None:
        return None
    from repro.adversary.schedule import FaultSchedule

    if isinstance(value, FaultSchedule):
        return value
    if isinstance(value, dict):
        return FaultSchedule.from_json_dict(value)
    raise TypeError(f"not a FaultSchedule, JSON dict or None: {value!r}")


def executing_engine(kind: str, name: str) -> Engine:
    """The engine that executes a ``kind`` point whose engine axis is ``name``.

    Multi-pulse points ignore the engine axis (the stabilization workload has
    a single semantics): an engine that cannot run them hands the point to
    the discrete-event backend ``"des"``.  :class:`SweepSpec` checks
    capabilities against this engine at build time and the campaign executor
    runs on it, so the two cannot disagree about who runs a point.  Unknown
    names fail with the list of registered engines.
    """
    engine = get_engine(name)
    if kind == "multi_pulse" and kind not in engine.capabilities.kinds:
        return get_engine("des")
    return engine


@dataclass(frozen=True)
class SweepSpec:
    """One campaign cell: a cartesian sweep plus per-cell run parameters.

    Axis attributes accept a scalar or a sequence and are normalised to
    tuples; enum-valued axes are stored as their canonical string values so
    cells serialize to JSON unchanged.

    Attributes
    ----------
    layers, width, scenario, num_faults, fault_type, engine, timer_policy, \
delay_model, fault_schedule, topology:
        The sweep axes, combined cartesian-product style in :data:`AXES`
        order.  ``fault_type`` and ``engine`` are ignored by points with
        ``num_faults == 0`` and ``kind == "multi_pulse"`` respectively.
        ``fault_schedule`` values are ``None`` (static faults only) or
        :class:`~repro.adversary.schedule.FaultSchedule` instances (their
        JSON dicts are accepted and coerced); non-``None`` schedules require
        every engine on the axis to support them (checked at build time).
        ``topology`` values are canonical spec strings of
        :mod:`repro.topologies` (``"cylinder"`` / ``"torus"`` / ``"patch"``
        / ``"degraded:..."``); every engine paired with a non-cylinder
        family must declare support for it (also checked at build time).
    runs:
        Monte Carlo repetitions per point.
    seed_salt:
        Base salt of the cell; point ``p`` uses ``seed_salt + p``.
    kind:
        ``"single_pulse"`` (skew experiments) or ``"multi_pulse"``
        (stabilization experiments).
    num_pulses, skew_choice:
        Multi-pulse parameters: pulses per run and the ``C in {0..3}``
        skew-bound choice of the stabilization estimate.
    fixed_fault_positions:
        Optional deterministic fault placement (otherwise placed uniformly at
        random under Condition 1, freshly per run).
    timeouts:
        Optional explicit timeout override for multi-pulse runs, as a
        6-tuple ``(T-_link, T+_link, T-_sleep, T+_sleep, S, sigma)``.
    initial_states:
        Optional per-cell initial-state policy for multi-pulse runs
        (``"clean"`` / ``"random"`` / ``"adversarial"``); ``None`` keeps the
        historical random-initial-states behaviour.
    label:
        Free-form tag carried through to the records (e.g. ``"byzantine"``).
    """

    layers: Tuple[int, ...] = (50,)
    width: Tuple[int, ...] = (20,)
    scenario: Tuple[str, ...] = (Scenario.ZERO.value,)
    num_faults: Tuple[int, ...] = (0,)
    fault_type: Tuple[str, ...] = (FaultType.BYZANTINE.value,)
    engine: Tuple[str, ...] = ("solver",)
    timer_policy: Tuple[str, ...] = (TimerPolicy.UNIFORM.value,)
    delay_model: Tuple[str, ...] = ("default",)
    fault_schedule: Tuple[Optional[FaultSchedule], ...] = (None,)
    topology: Tuple[str, ...] = (DEFAULT_TOPOLOGY,)
    runs: int = 25
    seed_salt: int = 0
    kind: str = "single_pulse"
    num_pulses: int = 10
    skew_choice: int = 0
    fixed_fault_positions: Optional[Tuple[Tuple[int, int], ...]] = None
    timeouts: Optional[Tuple[float, ...]] = None
    initial_states: Optional[str] = None
    label: str = ""

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        for name in ("layers", "width", "num_faults"):
            coerce(self, name, tuple(_integer(name, v) for v in _as_tuple(getattr(self, name))))
        for name in ("runs", "seed_salt", "num_pulses", "skew_choice"):
            coerce(self, name, _integer(name, getattr(self, name)))
        coerce(
            self,
            "scenario",
            tuple(canonical_scenario(v) for v in _as_tuple(self.scenario)),
        )
        coerce(
            self,
            "fault_type",
            tuple(canonical_fault_type(v) for v in _as_tuple(self.fault_type)),
        )
        coerce(self, "engine", tuple(str(v) for v in _as_tuple(self.engine)))
        coerce(
            self,
            "timer_policy",
            tuple(canonical_timer_policy(v) for v in _as_tuple(self.timer_policy)),
        )
        coerce(self, "delay_model", tuple(str(v) for v in _as_tuple(self.delay_model)))
        coerce(
            self,
            "fault_schedule",
            tuple(_canonical_schedule(v) for v in _as_tuple(self.fault_schedule)),
        )
        coerce(
            self,
            "topology",
            tuple(canonical_topology(v) for v in _as_tuple(self.topology)),
        )
        coerce(self, "fixed_fault_positions", canonical_positions(self.fixed_fault_positions))
        coerce(self, "timeouts", canonical_timeouts(self.timeouts))
        for axis in AXES:
            if not getattr(self, axis):
                raise ValueError(f"axis {axis!r} must have at least one value")
        for model in self.delay_model:
            if model not in DELAY_MODELS:
                raise ValueError(
                    f"unknown delay_model {model!r}; expected one of {DELAY_MODELS}"
                )
        if self.initial_states is not None:
            if self.initial_states not in INITIAL_STATES:
                raise ValueError(
                    f"unknown initial_states {self.initial_states!r}; expected one of "
                    f"{INITIAL_STATES}"
                )
            if self.kind != "multi_pulse":
                raise ValueError("initial_states is a multi-pulse cell parameter")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "multi_pulse":
            # Its records carry a stabilization estimate (``runner._record``):
            # load the analysis now, so the campaign run imports nothing.
            import repro.analysis.stabilization  # noqa: F401
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {self.num_pulses}")
        if self.skew_choice not in (0, 1, 2, 3):
            raise ValueError(f"skew_choice must be in 0..3, got {self.skew_choice}")
        if any(count < 0 for count in self.num_faults):
            raise ValueError("num_faults values must be non-negative")
        # Dimension lower bounds per topology and (layers, width) grid point.
        for topology in self.topology:
            for layers_value in self.layers:
                for width_value in self.width:
                    validate_topology(topology, layers_value, width_value)
        # Engine pairings fail at build time, not mid-campaign (which would
        # lose the completed work): every pairing of the executing engines
        # with the topology, delay_model, num_faults and fault_schedule axes
        # is probed through the engines' own capability rule.  The other
        # axes never change what an engine can run.
        backends = dict.fromkeys(executing_engine(self.kind, name) for name in self.engine)
        for backend, topology, delay_model, num_faults, schedule in itertools.product(
            backends, self.topology, self.delay_model, self.num_faults, self.fault_schedule
        ):
            probe = RunSpec(
                kind=self.kind,
                layers=self.layers[0],
                width=self.width[0],
                topology=topology,
                delay_model=delay_model,
                num_faults=num_faults,
                fault_schedule=schedule,
            )
            require_support(backend, probe)

    @property
    def num_points(self) -> int:
        """Number of grid points in this cell."""
        total = 1
        for axis in AXES:
            total *= len(getattr(self, axis))
        return total

    @property
    def num_tasks(self) -> int:
        """Number of run tasks this cell expands to."""
        return self.num_points * self.runs

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (tuples become lists).

        The adversary fields (``delay_model``, ``fault_schedule``,
        ``initial_states``) are omitted at their defaults -- and ``topology``
        at the all-cylinder default -- so cells that do not use those layers
        serialize -- and hash -- exactly as before the layers existed.
        """
        payload: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "fault_schedule":
                if value == (None,):
                    continue
                value = [
                    schedule.to_json_dict() if schedule is not None else None
                    for schedule in value
                ]
            elif spec_field.name == "delay_model":
                if value == ("default",):
                    continue
                value = list(value)
            elif spec_field.name == "topology":
                if value == (DEFAULT_TOPOLOGY,):
                    continue
                value = list(value)
            elif spec_field.name == "initial_states":
                if value is None:
                    continue
            elif isinstance(value, tuple):
                value = [list(item) if isinstance(item, tuple) else item for item in value]
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_json_dict` (unknown keys rejected)."""
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown SweepSpec fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True)
class CampaignSpec:
    """A named, seeded collection of sweep cells.

    Attributes
    ----------
    name:
        Campaign identifier; used in cache shard names and reports.
    cells:
        The sweep cells, expanded in order.
    seed:
        Base seed; a task's stream entropy is ``seed + cell.seed_salt +
        point_index`` (see module docstring).
    timing:
        Delay bounds and drift shared by all cells.
    keep_times:
        Whether records retain the dense trigger-time matrices (needed for
        pooled statistics and h-hop locality analysis; disable for huge
        Monte Carlo campaigns where per-run summary rows suffice).
    """

    name: str
    cells: Tuple[SweepSpec, ...]
    seed: int = 2013
    timing: TimingConfig = field(default_factory=TimingConfig.paper_defaults)
    keep_times: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"campaign name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if not isinstance(self.keep_times, bool):
            raise ValueError(f"keep_times must be true or false, got {self.keep_times!r}")
        cells = tuple(
            cell if isinstance(cell, SweepSpec) else SweepSpec.from_json_dict(cell)
            for cell in _as_tuple(self.cells)
        )
        if not cells:
            raise ValueError("a campaign needs at least one cell")
        object.__setattr__(self, "cells", cells)

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        """Total number of run tasks across all cells."""
        return sum(cell.num_tasks for cell in self.cells)

    def tasks(self) -> List["RunTask"]:
        """Expand the campaign into its full, deterministically ordered task list.

        Each cell expands its cartesian grid in :data:`AXES` order.  Point
        ``p`` (enumeration index) receives seed salt ``cell.seed_salt + p``,
        matching the historical ``seed_salt + index`` idiom of the
        per-figure sweeps.  Salts are therefore *positional*: appending to
        the innermost axes reshuffles later points' seeds (and their cache
        identities).  To grow a campaign while reusing completed runs, raise
        ``runs``, extend the outermost varied axis, or append a new cell
        with a fresh ``seed_salt``.
        """
        timing = self.timing
        result: List[RunTask] = []
        for cell_index, cell in enumerate(self.cells):
            axis_values = [getattr(cell, axis) for axis in AXES]
            for point_index, combo in enumerate(itertools.product(*axis_values)):
                values = dict(zip(AXES, combo))
                if values["num_faults"] == 0:
                    values["fault_type"] = None
                for run_index in range(cell.runs):
                    result.append(
                        RunTask(
                            kind=cell.kind,
                            d_min=timing.d_min,
                            d_max=timing.d_max,
                            theta=timing.theta,
                            num_pulses=cell.num_pulses,
                            skew_choice=cell.skew_choice,
                            fixed_fault_positions=cell.fixed_fault_positions,
                            timeouts=cell.timeouts,
                            keep_times=self.keep_times,
                            entropy=self.seed + cell.seed_salt + point_index,
                            run_index=run_index,
                            cell_index=cell_index,
                            point_index=point_index,
                            label=cell.label,
                            initial_states=cell.initial_states,
                            **values,
                        )
                    )
        return result

    # ------------------------------------------------------------------
    # serialization & hashing
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation of the whole campaign."""
        return {
            "name": self.name,
            "seed": self.seed,
            "timing": {
                "d_min": self.timing.d_min,
                "d_max": self.timing.d_max,
                "theta": self.timing.theta,
            },
            "keep_times": self.keep_times,
            "cells": [cell.to_json_dict() for cell in self.cells],
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        """Inverse of :meth:`to_json_dict` (unknown keys rejected)."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"campaign spec must be a JSON object, got {type(payload).__name__}"
            )
        missing = [key for key in ("name", "cells") if key not in payload]
        if missing:
            raise ValueError(f"campaign spec is missing required keys: {missing}")
        unknown = set(payload) - {"name", "seed", "timing", "keep_times", "cells"}
        if unknown:
            raise ValueError(f"unknown campaign spec keys: {sorted(unknown)}")
        timing_payload = payload.get("timing")
        if timing_payload is None:
            timing = TimingConfig.paper_defaults()
        else:
            try:
                timing = TimingConfig(**timing_payload)
            except TypeError as error:
                raise ValueError(
                    f"malformed campaign timing {timing_payload!r}: {error}"
                ) from None
        return cls(
            name=payload["name"],
            seed=payload.get("seed", 2013),
            timing=timing,
            keep_times=payload.get("keep_times", True),
            cells=tuple(SweepSpec.from_json_dict(cell) for cell in payload["cells"]),
        )

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        """Load a campaign spec from a JSON file (``hex-repro sweep --spec``)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json_dict(json.load(handle))

    def key(self) -> str:
        """Content-address of the spec (cache shard identity)."""
        return content_key(self.to_json_dict())

    def with_seed(self, seed: int) -> "CampaignSpec":
        """A copy with a different base seed."""
        return replace(self, seed=seed)


def task_key(params: Dict[str, Any]) -> str:
    """Content-address of a task from its :meth:`RunTask.to_json_dict` payload.

    Presentation-only coordinates (``cell_index``, ``point_index``,
    ``label``) are excluded so cached runs survive reorganising a campaign
    into different cells.
    """
    ignored = ("cell_index", "point_index", "label")
    return content_key({name: value for name, value in params.items() if name not in ignored})


@dataclass(frozen=True)
class RunTask:
    """One fully-resolved simulation run, self-contained and picklable.

    A task carries everything needed to execute in a fresh worker process:
    topology and timing scalars, workload parameters and the seed-derivation
    coordinates (``entropy``, ``run_index``).  Its content hash (:meth:`key`)
    identifies the run in the on-disk cache.
    """

    kind: str
    layers: int
    width: int
    d_min: float
    d_max: float
    theta: float
    scenario: str
    num_faults: int
    fault_type: Optional[str]
    engine: str
    timer_policy: str
    num_pulses: int
    skew_choice: int
    fixed_fault_positions: Optional[Tuple[Tuple[int, int], ...]]
    timeouts: Optional[Tuple[float, ...]]
    keep_times: bool
    entropy: int
    run_index: int
    cell_index: int
    point_index: int
    label: str = ""
    delay_model: str = "default"
    fault_schedule: Optional[FaultSchedule] = None
    initial_states: Optional[str] = None
    topology: str = DEFAULT_TOPOLOGY

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation.

        The adversary fields are omitted at their defaults -- and
        ``topology`` at the cylinder default -- so tasks of campaigns not
        using those layers keep their historical payloads, and therefore
        their cache keys and record params, byte for byte.
        """
        payload: Dict[str, Any] = {}
        for task_field in fields(self):
            value = getattr(self, task_field.name)
            if task_field.name == "fault_schedule":
                if value is None:
                    continue
                value = value.to_json_dict()
            elif task_field.name == "delay_model" and value == "default":
                continue
            elif task_field.name == "initial_states" and value is None:
                continue
            elif task_field.name == "topology" and value == DEFAULT_TOPOLOGY:
                continue
            elif isinstance(value, tuple):
                value = [list(item) if isinstance(item, tuple) else item for item in value]
            payload[task_field.name] = value
        return payload

    def key(self) -> str:
        """Content-address of the task (cache lookup key, see :func:`task_key`)."""
        return task_key(self.to_json_dict())

    def to_run_spec(self) -> RunSpec:
        """The engine-facing :class:`~repro.engines.base.RunSpec` of this task.

        Field-for-field translation -- in particular the seed coordinates
        ``(entropy, run_index)`` carry over unchanged, so ``spec.rng()`` is
        the historical ``spawn_rngs(runs, salt)[run_index]`` stream and engine
        execution is bit-identical to the historical per-run bodies.

        The explicit ``timeouts`` override is forwarded for multi-pulse tasks
        only: campaign timeouts are documented as a multi-pulse parameter,
        and the historical single-pulse bodies ignored them (DES computed its
        Condition 2 defaults from the layer-0 spread) -- forwarding them
        would change timer draws, and therefore records, for unchanged task
        keys.  Direct :class:`RunSpec` users get single-pulse overrides
        honoured by the DES engine.
        """
        return RunSpec(
            kind=self.kind,
            layers=self.layers,
            width=self.width,
            d_min=self.d_min,
            d_max=self.d_max,
            theta=self.theta,
            scenario=self.scenario,
            num_faults=self.num_faults,
            fault_type=self.fault_type,
            fixed_fault_positions=self.fixed_fault_positions,
            delay_model=self.delay_model,
            timeouts=self.timeouts if self.kind == "multi_pulse" else None,
            timer_policy=self.timer_policy,
            num_pulses=self.num_pulses,
            entropy=self.entropy,
            run_index=self.run_index,
            fault_schedule=self.fault_schedule,
            initial_states=self.initial_states,
            topology=self.topology,
        )
