"""Long-horizon soak runs: streaming telemetry under continuous fault churn.

The stabilization experiments of Section 4.4 run a few hundred pulses and
keep every firing in memory for post-processing.  A *soak* run drives
millions of pulses through the discrete-event engine under continuously
regenerated inject/heal fault schedules and keeps **nothing** per pulse:
every observation folds into bounded-memory accumulators
(:class:`repro.stream.StreamSummary` -- Welford moments plus a
Greenwald-Khanna quantile sketch), so peak memory is a function of the
epoch size, never of the total pulse count.

Structure
---------
The run is split into *epochs* of ``pulses_per_epoch`` pulses.  Each epoch
builds a fresh network, a fresh zero-scenario pulse schedule and -- when
``faults > 0`` -- a fresh :meth:`~repro.adversary.schedule.FaultSchedule.burst`
(injected at 25% of the epoch span, healed at ``heal_fraction``), then runs
:meth:`~repro.engines.des.DesEngine.multi_pulse` with a custom observer and
``collect_firings=False``.  Epoch ``k`` draws from the child generator
``SeedSequence(entropy=seed, spawn_key=(k,))``, so any epoch is reproducible
in isolation and a checkpoint-resumed run replays the exact same epochs an
uninterrupted run would have.

Per-pulse observations (streamed, never stored):

* **skew** -- the pulse's maximum intra-layer firing spread: firings of
  currently-faulty nodes and of layer-0 sources are excluded, each firing is
  binned to the window ``floor(t / S)`` (equivalently the
  :func:`repro.analysis.stabilization.pulse_windows` rule -- zero-scenario
  window ``k`` starts exactly at ``k * S``), and the window's skew is the
  max over layers with >= 2 firings of ``max - min``.
  :func:`repro.analysis.stabilization.pulse_skew_series` is the post-hoc
  mirror used by the equivalence tests.
* **recovery time** -- after the epoch's burst fully heals, the time from
  the heal to the start of the first window in which every forwarding layer
  fired ``width`` times with skew at most
  ``(width // 2) * (epsilon * layers) + d_max`` (a deliberately generous
  stable-skew heuristic: the Lemma 5 fault-free bound ``epsilon * L`` plus
  lateral slack; it classifies "recovered", it is not a verified bound).

Checkpoints
-----------
Every ``checkpoint_every`` epochs (and at the end) the full accumulator
state is serialized into a ``hex-repro/soak/v1`` JSON artifact at
``<store>/soak-<spec-key>.json`` (atomic rename, canonical JSON).  The
sketch buffers are flushed at *every* epoch boundary -- not just at
checkpoints -- so serialized state is a deterministic function of the
observation sequence and a resumed run finishes bit-identical (modulo the
wall-clock telemetry fields excluded from :meth:`SoakCheckpoint.state_key`)
to one that never stopped.

Wall-clock use in this module is telemetry only (pulses/sec throughput,
RSS, elapsed seconds); no simulated result depends on it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time as _time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Union

import numpy as np

from repro import obs
from repro.adversary.runtime import HealNode, InjectFault
from repro.adversary.schedule import FaultSchedule
from repro.checks.schemas import schema
from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.clocksource.scenarios import Scenario
from repro.core.parameters import TimingConfig
from repro.core.topology import HexGrid, NodeId
from repro.engines.base import canonical_json, content_key
from repro.engines.des import DesEngine, scenario_stabilization_timeouts
from repro.faults.models import FaultType
from repro.stream import StreamSummary

__all__ = [
    "SoakCheckpoint",
    "SoakObserver",
    "SoakResult",
    "SoakSpec",
    "checkpoint_path",
    "load_checkpoint",
    "run_soak",
]

#: Telemetry fields of a checkpoint payload that depend on the host / wall
#: clock; :meth:`SoakCheckpoint.state_key` excludes them so resume-identity
#: can be asserted bit-for-bit.
TELEMETRY_FIELDS = ("pulses_per_s", "rss_bytes", "wall_time_s")

#: The epoch-span fractions of the per-epoch burst: inject at 25%, heal at
#: ``heal_fraction`` (which must stay strictly inside ``(0.25, 0.95)`` so
#: the fault window and the post-heal recovery window both fit the epoch).
INJECT_FRACTION = 0.25
_HEAL_FRACTION_MAX = 0.95


@dataclass(frozen=True)
class SoakSpec:
    """A frozen, JSON-round-trippable description of one soak run.

    ``fault_type`` and ``initial_states`` are omitted from the canonical
    JSON at their defaults, so default specs keep stable content keys when
    new optional fields appear (the K001/K002 contract).
    """

    layers: int = 10
    width: int = 6
    num_pulses: int = 1_000_000
    pulses_per_epoch: int = 512
    faults: int = 2
    fault_type: str = FaultType.BYZANTINE.value
    heal_fraction: float = 0.6
    epsilon: float = 0.005
    exact_cap: int = 512
    seed: int = 2013
    initial_states: str = "random"

    def __post_init__(self) -> None:
        if self.layers < 1 or self.width < 3:
            raise ValueError("need layers >= 1 and width >= 3")
        if self.num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {self.num_pulses}")
        if self.pulses_per_epoch < 1:
            raise ValueError(
                f"pulses_per_epoch must be >= 1, got {self.pulses_per_epoch}"
            )
        if self.faults < 0:
            raise ValueError(f"faults must be non-negative, got {self.faults}")
        FaultType(self.fault_type)  # raises on unknown values
        if not INJECT_FRACTION < self.heal_fraction < _HEAL_FRACTION_MAX:
            raise ValueError(
                f"heal_fraction must lie in ({INJECT_FRACTION}, {_HEAL_FRACTION_MAX}), "
                f"got {self.heal_fraction}"
            )
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if self.exact_cap < 0:
            raise ValueError(f"exact_cap must be non-negative, got {self.exact_cap}")
        if self.initial_states not in ("clean", "random", "adversarial"):
            raise ValueError(
                f"unknown initial_states {self.initial_states!r}; expected "
                "'clean', 'random' or 'adversarial'"
            )

    @property
    def num_epochs(self) -> int:
        """Number of epochs (the last one may be short)."""
        return -(-self.num_pulses // self.pulses_per_epoch)

    def epoch_pulses(self, epoch: int) -> int:
        """Number of pulses of epoch ``epoch`` (0-based)."""
        remaining = self.num_pulses - epoch * self.pulses_per_epoch
        return max(0, min(self.pulses_per_epoch, remaining))

    def to_json_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (defaults of optional fields omitted)."""
        payload = dataclasses.asdict(self)
        if self.fault_type == FaultType.BYZANTINE.value:
            del payload["fault_type"]
        if self.initial_states == "random":
            del payload["initial_states"]
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "SoakSpec":
        """Rebuild a spec from :meth:`to_json_dict` output (unknown keys rejected)."""
        unknown = set(payload) - {spec_field.name for spec_field in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown SoakSpec fields: {sorted(unknown)}")
        return cls(**payload)

    def key(self, length: int = 32) -> str:
        """Content key of the canonical JSON form."""
        return content_key(self.to_json_dict(), length=length)


class SoakObserver:
    """Streaming per-epoch network observer: O(1) state per epoch.

    Binds to nothing: it maintains its own currently-faulty node set from
    the adversary actions it witnesses (valid because soak runs carry no
    static fault model -- every fault arrives through the schedule), and it
    exploits the event queue's time ordering: firing times are
    non-decreasing, so the pulse-window index is non-decreasing and only
    one window's min/max/count accumulators are ever live.
    """

    def __init__(
        self,
        grid: HexGrid,
        separation: float,
        num_windows: int,
        skew_threshold: float,
        skew: StreamSummary,
        recovery: StreamSummary,
    ) -> None:
        self._layers = grid.layers
        self._width = grid.width
        self._separation = float(separation)
        self._num_windows = int(num_windows)
        self._skew_threshold = float(skew_threshold)
        self.skew = skew
        self.recovery = recovery
        self.faults_injected = 0
        self.faults_healed = 0
        self.recoveries = 0
        self._faulty: Set[NodeId] = set()
        self._pending_heal: Optional[float] = None
        self._window: Optional[int] = None
        # Per-layer accumulators of the live window, as Python lists: every
        # firing updates them, and list items are cheaper than numpy scalars.
        self._size = grid.layers + 1
        self._mins = [math.inf] * self._size
        self._maxs = [-math.inf] * self._size
        self._counts = [0] * self._size

    # -- the duck-typed HexNetwork observer hooks ----------------------
    def on_firing(self, node: NodeId, time: float) -> None:
        """Fold one firing into the live window's accumulators."""
        layer = node[0]
        if layer == 0 or node in self._faulty:
            return
        window = min(int(time // self._separation), self._num_windows - 1)
        if self._window is None:
            self._window = window
        elif window > self._window:
            self._finalize_window()
            self._window = window
        self._counts[layer] += 1
        mins, maxs = self._mins, self._maxs
        if time < mins[layer]:
            mins[layer] = time
        if time > maxs[layer]:
            maxs[layer] = time

    def on_adversary(self, time: float, action: object) -> None:
        """Track the live faulty set and the heal instant."""
        if isinstance(action, InjectFault):
            self._faulty.add(action.fault.node)
            self.faults_injected += 1
            self._pending_heal = None
        elif isinstance(action, HealNode):
            self._faulty.discard(action.node)
            self.faults_healed += 1
            if not self._faulty:
                self._pending_heal = time

    # -- epoch lifecycle ------------------------------------------------
    def finish_epoch(self) -> None:
        """Finalize the last live window (call once, after the run)."""
        if self._window is not None:
            self._finalize_window()
            self._window = None

    def _finalize_window(self) -> None:
        counts, mins, maxs = self._counts, self._mins, self._maxs
        # The widest per-layer spread among the forwarding layers with at
        # least two firings in the window.
        spread = max(
            (maxs[layer] - mins[layer] for layer in range(1, self._size) if counts[layer] >= 2),
            default=None,
        )
        if spread is not None:
            self.skew.add(spread)
        else:
            spread = math.inf
        if self._pending_heal is not None:
            window_start = self._window * self._separation
            if (
                window_start >= self._pending_heal
                and all(count == self._width for count in counts[1:])
                and spread <= self._skew_threshold
            ):
                self.recovery.add(window_start - self._pending_heal)
                self.recoveries += 1
                self._pending_heal = None
        self._mins = [math.inf] * self._size
        self._maxs = [-math.inf] * self._size
        self._counts = [0] * self._size


@dataclass
class SoakCheckpoint:
    """One serialized snapshot of a soak run (``hex-repro/soak/v1``)."""

    spec: SoakSpec
    epochs_completed: int
    pulses_completed: int
    faults_injected: int
    faults_healed: int
    recoveries: int
    skew: StreamSummary
    recovery_s: StreamSummary
    pulses_per_s: float
    rss_bytes: int
    wall_time_s: float

    def to_json_dict(self) -> Dict[str, Any]:
        """The full artifact payload, schema string included."""
        return {
            "schema": schema("soak"),
            "spec": self.spec.to_json_dict(),
            "epochs_completed": self.epochs_completed,
            "pulses_completed": self.pulses_completed,
            "faults_injected": self.faults_injected,
            "faults_healed": self.faults_healed,
            "recoveries": self.recoveries,
            "skew": self.skew.to_json_dict(),
            "recovery_s": self.recovery_s.to_json_dict(),
            "pulses_per_s": self.pulses_per_s,
            "rss_bytes": self.rss_bytes,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "SoakCheckpoint":
        """Rebuild a checkpoint from artifact JSON (schema-checked)."""
        found = payload.get("schema")
        if found != schema("soak"):
            raise ValueError(
                f"not a {schema('soak')} artifact (schema: {found!r})"
            )
        missing = [
            checkpoint_field.name
            for checkpoint_field in dataclasses.fields(cls)
            if checkpoint_field.name not in payload
        ]
        if missing:
            raise ValueError(f"{schema('soak')} artifact is missing fields: {missing}")
        return cls(
            spec=SoakSpec.from_json_dict(payload["spec"]),
            epochs_completed=int(payload["epochs_completed"]),
            pulses_completed=int(payload["pulses_completed"]),
            faults_injected=int(payload["faults_injected"]),
            faults_healed=int(payload["faults_healed"]),
            recoveries=int(payload["recoveries"]),
            skew=StreamSummary.from_json_dict(payload["skew"]),
            recovery_s=StreamSummary.from_json_dict(payload["recovery_s"]),
            pulses_per_s=float(payload["pulses_per_s"]),
            rss_bytes=int(payload["rss_bytes"]),
            wall_time_s=float(payload["wall_time_s"]),
        )

    def key(self, length: int = 32) -> str:
        """Content key of the full payload (telemetry included)."""
        return content_key(self.to_json_dict(), length=length)

    def state_key(self, length: int = 32) -> str:
        """Content key of the *deterministic* state only.

        Excludes :data:`TELEMETRY_FIELDS`; a checkpoint-resumed run and an
        uninterrupted run produce equal state keys at the same epoch.
        """
        payload = self.to_json_dict()
        for field in TELEMETRY_FIELDS:
            del payload[field]
        return content_key(payload, length=length)


@dataclass
class SoakResult:
    """Summary of a completed (or resumed-and-completed) soak run."""

    spec: SoakSpec
    epochs: int
    pulses: int
    faults_injected: int
    faults_healed: int
    recoveries: int
    skew: StreamSummary
    recovery_s: StreamSummary
    pulses_per_s: float
    rss_bytes: int
    wall_time_s: float
    checkpoints_written: int = 0
    checkpoint_path: Optional[Path] = None
    resumed_epochs: int = 0

    def final_checkpoint(self) -> SoakCheckpoint:
        """The run's end state as a checkpoint object."""
        return SoakCheckpoint(
            spec=self.spec,
            epochs_completed=self.epochs,
            pulses_completed=self.pulses,
            faults_injected=self.faults_injected,
            faults_healed=self.faults_healed,
            recoveries=self.recoveries,
            skew=self.skew,
            recovery_s=self.recovery_s,
            pulses_per_s=self.pulses_per_s,
            rss_bytes=self.rss_bytes,
            wall_time_s=self.wall_time_s,
        )

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON summary (checkpoint payload plus run bookkeeping)."""
        payload = self.final_checkpoint().to_json_dict()
        payload["checkpoints_written"] = self.checkpoints_written
        payload["checkpoint_path"] = (
            str(self.checkpoint_path) if self.checkpoint_path is not None else None
        )
        payload["resumed_epochs"] = self.resumed_epochs
        return payload

    def render(self) -> List[str]:
        """Human-readable report lines (the CLI's non-JSON output)."""
        spec = self.spec
        skew = self.skew.stats()
        lines = [
            f"soak {spec.layers}x{spec.width} grid, seed {spec.seed}: "
            f"{self.pulses} pulses over {self.epochs} epochs"
            + (f" ({self.resumed_epochs} resumed)" if self.resumed_epochs else ""),
            f"  throughput: {self.pulses_per_s:.0f} pulses/s, "
            f"wall {self.wall_time_s:.1f} s, rss {self.rss_bytes / 1e6:.1f} MB",
            f"  faults: {self.faults_injected} injected, {self.faults_healed} healed, "
            f"{self.recoveries} recoveries",
            f"  skew ({int(skew['count'])} pulses): mean {skew['mean']:.3f}  "
            f"p50 {skew['p50']:.3f}  p95 {skew['p95']:.3f}  max {skew['max']:.3f}",
        ]
        if self.recovery_s.count:
            rec = self.recovery_s.stats()
            lines.append(
                f"  recovery ({int(rec['count'])} heals): mean {rec['mean']:.1f}  "
                f"p50 {rec['p50']:.1f}  p95 {rec['p95']:.1f}  max {rec['max']:.1f}"
            )
        if self.checkpoint_path is not None:
            lines.append(
                f"  checkpoint: {self.checkpoint_path} "
                f"({self.checkpoints_written} written)"
            )
        return lines


# ----------------------------------------------------------------------
# checkpoint store
# ----------------------------------------------------------------------
def checkpoint_path(store: Union[str, Path], spec: SoakSpec) -> Path:
    """The content-addressed checkpoint file of ``spec`` under ``store``."""
    return Path(store) / f"soak-{spec.key(16)}.json"


def save_checkpoint(store: Union[str, Path], checkpoint: SoakCheckpoint) -> Path:
    """Atomically write ``checkpoint`` to its content-addressed path."""
    path = checkpoint_path(store, checkpoint.spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_suffix(".json.tmp")
    temp.write_text(canonical_json(checkpoint.to_json_dict()) + "\n", encoding="utf-8")
    os.replace(temp, path)
    return path


def load_checkpoint(path: Union[str, Path]) -> SoakCheckpoint:
    """Load one ``hex-repro/soak/v1`` artifact."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return SoakCheckpoint.from_json_dict(payload)


def _rss_bytes() -> int:
    """Resident set size, best effort (0 when the platform offers nothing)."""
    return obs.resources.rss_bytes()


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def _epoch_rng(spec: SoakSpec, epoch: int) -> np.random.Generator:
    """Epoch ``epoch``'s generator: ``SeedSequence(seed, spawn_key=(epoch,))``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(epoch,))
    )


def _epoch_schedule(
    spec: SoakSpec, span: float
) -> Optional[FaultSchedule]:
    """The per-epoch burst schedule (``None`` for fault-free soaks)."""
    if spec.faults == 0:
        return None
    inject_time = INJECT_FRACTION * span
    heal_time = spec.heal_fraction * span
    return FaultSchedule.burst(
        time=inject_time,
        count=spec.faults,
        fault_type=spec.fault_type,
        duration=heal_time - inject_time,
        label="soak-churn",
    )


def run_soak(
    spec: SoakSpec,
    *,
    store: Optional[Union[str, Path]] = None,
    resume: bool = False,
    checkpoint_every: Optional[int] = None,
    progress: Optional[Callable[[Dict[str, float]], None]] = None,
    engine: Optional[DesEngine] = None,
) -> SoakResult:
    """Run (or resume) a soak: bounded-memory streaming over epochs.

    Parameters
    ----------
    spec:
        The run description; ``(spec, seed)`` determines all simulated
        state deterministically.
    store:
        Directory for checkpoint artifacts; ``None`` disables checkpoints.
    resume:
        Load ``checkpoint_path(store, spec)`` when it exists and continue
        from its epoch instead of starting over.
    checkpoint_every:
        Snapshot period in epochs; defaults to a quarter of the run
        (``max(1, num_epochs // 4)``), which guarantees at least one
        mid-run checkpoint for runs of four or more epochs.
    progress:
        Optional per-epoch callback receiving a flat stats dict (the same
        numbers the :mod:`repro.obs` gauges carry).
    engine:
        Injected :class:`~repro.engines.des.DesEngine` (tests); a fresh
        one by default.
    """
    engine = engine if engine is not None else DesEngine()
    num_epochs = spec.num_epochs
    if checkpoint_every is None:
        checkpoint_every = max(1, num_epochs // 4)
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")

    skew = StreamSummary(epsilon=spec.epsilon, exact_cap=spec.exact_cap)
    recovery = StreamSummary(epsilon=spec.epsilon, exact_cap=spec.exact_cap)
    start_epoch = 0
    pulses_completed = 0
    faults_injected = 0
    faults_healed = 0
    recoveries = 0
    prior_wall = 0.0

    path: Optional[Path] = None
    if store is not None:
        path = checkpoint_path(store, spec)
        if resume and path.exists():
            loaded = load_checkpoint(path)
            if loaded.spec != spec:
                raise ValueError(
                    f"checkpoint {path} was written by a different spec "
                    f"(key {loaded.spec.key(16)} != {spec.key(16)})"
                )
            skew = loaded.skew
            recovery = loaded.recovery_s
            start_epoch = loaded.epochs_completed
            pulses_completed = loaded.pulses_completed
            faults_injected = loaded.faults_injected
            faults_healed = loaded.faults_healed
            recoveries = loaded.recoveries
            prior_wall = loaded.wall_time_s

    grid = HexGrid(layers=spec.layers, width=spec.width)
    timing = TimingConfig.paper_defaults()
    timeouts = scenario_stabilization_timeouts(
        Scenario.ZERO,
        spec.width,
        spec.layers,
        spec.faults,
        timing,
        extra_hops=grid.condition2_extra_hops(),
    )
    separation = timeouts.pulse_separation
    skew_threshold = (
        (spec.width // 2) * (timing.epsilon * spec.layers) + timing.d_max
    )

    checkpoints_written = 0
    session_pulses = 0
    session_start = _time.perf_counter()

    def _snapshot() -> SoakCheckpoint:
        elapsed = _time.perf_counter() - session_start
        rate = session_pulses / elapsed if elapsed > 0 else 0.0
        return SoakCheckpoint(
            spec=spec,
            epochs_completed=epoch + 1,
            pulses_completed=pulses_completed,
            faults_injected=faults_injected,
            faults_healed=faults_healed,
            recoveries=recoveries,
            skew=skew,
            recovery_s=recovery,
            pulses_per_s=rate,
            rss_bytes=_rss_bytes(),
            wall_time_s=prior_wall + elapsed,
        )

    epoch = start_epoch - 1  # _snapshot reads it; resumed no-op runs report the prior epoch
    with obs.span(
        "soak.run", layers=spec.layers, width=spec.width, pulses=spec.num_pulses
    ):
        for epoch in range(start_epoch, num_epochs):
            epoch_pulses = spec.epoch_pulses(epoch)
            rng = _epoch_rng(spec, epoch)
            span_length = epoch_pulses * separation
            # Draw-order contract (mirrors DesEngine._run): adversary
            # materialization first, then the pulse schedule, then the
            # simulation's own draws.
            fault_schedule = _epoch_schedule(spec, span_length)
            adversary = (
                fault_schedule.materialize(grid, rng, exclude=())
                if fault_schedule is not None
                else None
            )
            schedule = generate_pulse_schedule(
                PulseScheduleConfig(
                    scenario=Scenario.ZERO,
                    num_pulses=epoch_pulses,
                    separation=separation,
                ),
                spec.width,
                timing,
                rng=rng,
            )
            observer = SoakObserver(
                grid,
                separation=separation,
                num_windows=epoch_pulses,
                skew_threshold=skew_threshold,
                skew=skew,
                recovery=recovery,
            )
            engine.multi_pulse(
                grid,
                timing,
                timeouts,
                schedule,
                rng=rng,
                fault_model=None,
                adversary=adversary,
                initial_states=spec.initial_states,
                observer=observer,
                collect_firings=False,
            )
            observer.finish_epoch()
            # Flush at *every* epoch boundary so serialized accumulator
            # state is independent of where checkpoints happened to land.
            skew.flush()
            recovery.flush()

            pulses_completed += epoch_pulses
            session_pulses += epoch_pulses
            faults_injected += observer.faults_injected
            faults_healed += observer.faults_healed
            recoveries += observer.recoveries

            elapsed = _time.perf_counter() - session_start
            rate = session_pulses / elapsed if elapsed > 0 else 0.0
            rss = _rss_bytes()
            obs.inc("soak.pulses", float(epoch_pulses))
            obs.inc("soak.faults_injected", float(observer.faults_injected))
            obs.inc("soak.faults_healed", float(observer.faults_healed))
            obs.gauge("soak.epochs", float(epoch + 1))
            obs.gauge("soak.pulses_per_s", rate)
            obs.gauge("soak.rss_bytes", float(rss))
            stats = skew.stats()
            obs.gauge("soak.skew_p50_s", stats["p50"])
            obs.gauge("soak.skew_p95_s", stats["p95"])
            obs.gauge("soak.skew_max_s", stats["max"])
            if obs.metrics_enabled():
                # CPU/GC accounting rides along with the per-epoch gauges so a
                # long soak's metrics snapshot shows where the process budget
                # went (leak triage pairs soak.rss_bytes with gc_collections).
                for name, value in obs.resources.usage_gauges("soak").items():
                    obs.gauge(name, value)
            if progress is not None:
                progress(
                    {
                        "epoch": float(epoch + 1),
                        "epochs": float(num_epochs),
                        "pulses": float(pulses_completed),
                        "pulses_per_s": rate,
                        "rss_bytes": float(rss),
                        "skew_p50": stats["p50"],
                        "skew_p95": stats["p95"],
                        "recoveries": float(recoveries),
                    }
                )

            if path is not None and (
                (epoch + 1) % checkpoint_every == 0 or epoch + 1 == num_epochs
            ):
                save_checkpoint(path.parent, _snapshot())
                checkpoints_written += 1

    final = _snapshot()
    return SoakResult(
        spec=spec,
        epochs=max(epoch + 1, start_epoch),
        pulses=pulses_completed,
        faults_injected=faults_injected,
        faults_healed=faults_healed,
        recoveries=recoveries,
        skew=skew,
        recovery_s=recovery,
        pulses_per_s=final.pulses_per_s,
        rss_bytes=final.rss_bytes,
        wall_time_s=final.wall_time_s,
        checkpoints_written=checkpoints_written,
        checkpoint_path=path,
        resumed_epochs=start_epoch,
    )
