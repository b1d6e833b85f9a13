"""Recovery time vs fault-burst size: re-stabilization after transient faults.

The self-stabilization experiments of Section 4.4 start from arbitrary states
but keep the fault set frozen; this experiment exercises the claim the paper
actually makes -- recovery from *transient* faults -- using the dynamic
adversary layer:

1. a multi-pulse run starts from random initial states and stabilizes;
2. at the ``inject_pulse``-th pulse window a burst of ``f`` Byzantine nodes
   appears (placed under Condition 1 by the
   :class:`~repro.adversary.schedule.FaultSchedule`);
3. at the ``heal_pulse``-th window the burst heals -- the transient fault
   ends and *every* node is correct again;
4. post-processing measures, per run, how many pulses after the first fully
   fault-free window the per-layer skews need to return within the
   *fault-free* bounds ``sigma(0, l)`` (the ``C = 0`` choice of
   :func:`repro.core.bounds.stable_skew_choice`) -- and stay there.

The headline observation mirrors Figs. 18/19: HEX re-stabilizes within a
couple of pulses of the last heal event, far below the worst-case ``L + 1``
pulses of Theorem 2, even though the during-burst windows may violate the
fault-free bounds arbitrarily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.schedule import FaultSchedule
from repro.analysis.stabilization import pulse_ok_flags, sigma_bound
from repro.clocksource.scenarios import Scenario
from repro.engines import RunSpec, get_engine
from repro.engines.des import scenario_stabilization_timeouts
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_table

__all__ = [
    "SCENARIO",
    "DEFAULT_BURST_SIZES",
    "RecoveryPoint",
    "RecoveryExperiment",
    "burst_recovery_spec",
    "recovery_pulses",
    "run",
]

#: Layer-0 scenario of the recovery runs.  Scenario (i) makes the pulse
#: windows deterministic (pulse ``k`` is generated exactly at ``k S``), so the
#: burst and heal times land mid-window by construction.
SCENARIO = Scenario.ZERO

#: Burst sizes evaluated by default.
DEFAULT_BURST_SIZES: Tuple[int, ...] = (1, 2, 4)


def burst_recovery_spec(
    config: ExperimentConfig,
    num_faults: int,
    num_pulses: int,
    inject_pulse: int,
    heal_pulse: int,
    run_index: int,
    seed_salt: int,
) -> RunSpec:
    """The :class:`RunSpec` of one burst-recovery run.

    Timeouts are the conservative Condition 2 values for ``num_faults``
    concurrent faults (the system must ride the burst out, not just the
    fault-free phases); with scenario (i) the resulting pulse separation ``S``
    puts pulse ``k`` exactly at ``k S``, so the burst injects at
    ``(inject_pulse + 1/2) S`` and heals at ``(heal_pulse + 1/2) S``.
    """
    if not 0 <= inject_pulse < heal_pulse < num_pulses:
        raise ValueError(
            f"need 0 <= inject_pulse < heal_pulse < num_pulses, got "
            f"{inject_pulse}, {heal_pulse}, {num_pulses}"
        )
    timeouts = scenario_stabilization_timeouts(
        SCENARIO, config.width, config.layers, num_faults, config.timing
    )
    separation = timeouts.pulse_separation
    schedule = (
        FaultSchedule.burst(
            time=(inject_pulse + 0.5) * separation,
            count=num_faults,
            duration=(heal_pulse - inject_pulse) * separation,
            label=f"recovery-burst-{num_faults}",
        )
        if num_faults > 0
        else None
    )
    return RunSpec(
        kind="multi_pulse",
        layers=config.layers,
        width=config.width,
        d_min=config.timing.d_min,
        d_max=config.timing.d_max,
        theta=config.timing.theta,
        scenario=SCENARIO.value,
        num_pulses=num_pulses,
        timeouts=timeouts,
        fault_schedule=schedule,
        entropy=config.seed + seed_salt,
        run_index=run_index,
    )


def recovery_pulses(flags: np.ndarray, heal_pulse: int) -> float:
    """Pulses needed after the first fully fault-free window to re-stabilize.

    Returns ``0.0`` when the first window entirely after the heal event (and
    every later one) already satisfies the fault-free bounds, ``k`` when the
    bounds hold from ``k`` windows later, and ``NaN`` when the run never
    re-stabilizes within the observed pulses.
    """
    first_clean = heal_pulse + 1
    for pulse in range(first_clean, len(flags)):
        if bool(np.all(flags[pulse:])):
            return float(pulse - first_clean)
    return float("nan")


@dataclass
class RecoveryPoint:
    """Recovery statistics of one burst size.

    Attributes
    ----------
    num_faults:
        The burst size ``f``.
    recovery:
        Per-run recovery times in pulses (``NaN`` = did not re-stabilize).
    violated_during:
        Per-run flags: some during-burst window violated the fault-free
        bounds (i.e. the burst was actually disruptive).
    """

    num_faults: int
    recovery: np.ndarray
    violated_during: np.ndarray

    def as_row(self) -> Dict[str, float]:
        """Summary row of this point."""
        finite = self.recovery[np.isfinite(self.recovery)]
        return {
            "f": float(self.num_faults),
            "runs": float(self.recovery.size),
            "recovered_runs": float(finite.size),
            "recovery_avg": float(finite.mean()) if finite.size else float("nan"),
            "recovery_max": float(finite.max()) if finite.size else float("nan"),
            "disrupted_runs": float(np.count_nonzero(self.violated_during)),
        }


@dataclass
class RecoveryExperiment:
    """Outcome of the burst-recovery experiment."""

    config: ExperimentConfig
    num_pulses: int
    inject_pulse: int
    heal_pulse: int
    points: List[RecoveryPoint] = field(default_factory=list)

    def point(self, num_faults: int) -> RecoveryPoint:
        """The point of one burst size."""
        for candidate in self.points:
            if candidate.num_faults == num_faults:
                return candidate
        raise KeyError(f"no recovery point for f={num_faults}")

    def render(self) -> str:
        """Text rendering (one row per burst size)."""
        headers = ["f", "runs", "recovered", "rec_avg", "rec_max", "disrupted"]
        rows = []
        for point in self.points:
            row = point.as_row()
            rows.append(
                [
                    int(row["f"]),
                    int(row["runs"]),
                    int(row["recovered_runs"]),
                    row["recovery_avg"],
                    row["recovery_max"],
                    int(row["disrupted_runs"]),
                ]
            )
        title = (
            f"Recovery from transient fault bursts "
            f"({self.config.layers}x{self.config.width} grid, "
            f"inject at pulse {self.inject_pulse}, heal at pulse {self.heal_pulse}, "
            f"{self.num_pulses} pulses; recovery in pulses after the first clean window)"
        )
        return format_table(headers, rows, title=title)


def run(
    config: Optional[ExperimentConfig] = None,
    runs: Optional[int] = None,
    burst_sizes: Sequence[int] = DEFAULT_BURST_SIZES,
    num_pulses: Optional[int] = None,
    inject_pulse: int = 2,
    heal_pulse: int = 4,
    seed_salt: int = 900,
) -> RecoveryExperiment:
    """Run the recovery-time-vs-fault-burst experiment.

    Each burst size gets its own seed salt (``seed_salt + f``) and
    ``config.runs`` Monte Carlo repetitions; run ``r`` of a point draws its
    generator from ``SeedSequence(seed + salt, spawn_key=(r,))`` -- the
    campaign seed discipline, so results are reproducible and
    process-placement independent.
    """
    if config is None:
        config = ExperimentConfig()
    if runs is not None:
        config = config.with_runs(runs)
    total_pulses = num_pulses if num_pulses is not None else max(config.num_pulses, 10)
    engine = get_engine("des")

    points: List[RecoveryPoint] = []
    for num_faults in burst_sizes:
        if num_faults < 1:
            raise ValueError(f"burst sizes must be >= 1, got {num_faults}")
        recovery = np.full(config.runs, np.nan, dtype=float)
        violated = np.zeros(config.runs, dtype=bool)
        for run_index in range(config.runs):
            spec = burst_recovery_spec(
                config,
                num_faults,
                total_pulses,
                inject_pulse,
                heal_pulse,
                run_index,
                seed_salt + num_faults,
            )
            result = engine.run(spec)
            # Judged against the fault-free bounds sigma(0, l) (C = 0): after
            # the heal event there are no faults left to excuse any skew.
            flags = pulse_ok_flags(result, sigma_bound(result.grid, result.timing, 0, 0))
            recovery[run_index] = recovery_pulses(flags, heal_pulse)
            violated[run_index] = not bool(
                np.all(flags[inject_pulse : heal_pulse + 1])
            )
        points.append(
            RecoveryPoint(num_faults=num_faults, recovery=recovery, violated_during=violated)
        )
    return RecoveryExperiment(
        config=config,
        num_pulses=total_pulses,
        inject_pulse=inject_pulse,
        heal_pulse=heal_pulse,
        points=points,
    )
