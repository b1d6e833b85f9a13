"""Declarative benchmark cases and the settings they shrink under.

A :class:`BenchCase` packages one tracked workload: a factory building the
(zero-argument) workload callable from the active :class:`BenchSettings`, the
repeat counts of the full and quick modes, an optional shape check asserting
the workload's scientific invariants, and an optional extractor of headline
numbers for the emitted ``BENCH_*.json`` records.

:class:`BenchSettings` is the single knob bundle every case shrinks under:
``quick`` mode (the CI perf job) keeps the paper's 50x20 grid but cuts the
Monte Carlo run counts (repeat counts stay at three so compared medians are
noise-robust), ``paper`` mode (``HEX_BENCH_PAPER=1``) restores the full
published configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["BenchCase", "BenchSettings"]

#: Runs per data point of the default (full) mode -- the historical
#: ``HEX_BENCH_RUNS`` default of the benchmark suite.
DEFAULT_RUNS = 10

#: Runs per data point of quick mode (the CI perf job).
QUICK_RUNS = 4


@dataclass(frozen=True)
class BenchSettings:
    """The mode knobs a benchmark run executes under.

    Attributes
    ----------
    quick:
        Shrink run counts and repeats for a CI-sized run.
    runs:
        Explicit runs-per-point override (the ``HEX_BENCH_RUNS`` knob);
        ``None`` uses the mode default.
    paper:
        Run the full paper-scale configuration (``HEX_BENCH_PAPER=1``);
        mutually exclusive with ``quick``.
    """

    quick: bool = False
    runs: Optional[int] = None
    paper: bool = False

    def __post_init__(self) -> None:
        if self.quick and self.paper:
            raise ValueError("quick and paper modes are mutually exclusive")
        if self.runs is not None and self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")

    @classmethod
    def from_env(cls, quick: bool = False) -> "BenchSettings":
        """Settings from the historical environment knobs.

        ``HEX_BENCH_RUNS`` overrides the runs per data point and
        ``HEX_BENCH_PAPER=1`` selects the full paper-scale configuration,
        exactly as the pre-harness benchmark conftest honoured them.
        A ``quick`` request under ``HEX_BENCH_PAPER=1`` is a hard conflict
        (silently running the hours-long paper configuration instead of a
        CI-sized one would be far worse than an error).
        """
        runs = os.environ.get("HEX_BENCH_RUNS")
        paper = os.environ.get("HEX_BENCH_PAPER") == "1"
        if quick and paper:
            raise ValueError(
                "quick mode conflicts with HEX_BENCH_PAPER=1; unset the "
                "environment variable or drop --quick"
            )
        return cls(
            quick=quick,
            runs=int(runs) if runs else None,
            paper=paper,
        )

    @property
    def mode(self) -> str:
        """The provenance tag of emitted records: quick / full / paper."""
        if self.quick:
            return "quick"
        return "paper" if self.paper else "full"

    def effective_runs(self) -> int:
        """Monte Carlo runs per data point under these settings."""
        if self.runs is not None:
            return self.runs
        return QUICK_RUNS if self.quick else DEFAULT_RUNS

    def config(self):
        """The experiment configuration of the single-pulse benchmarks.

        The paper's 50x20 grid in every mode (the shape checks compare
        against published 50x20 numbers); only the run count shrinks.
        """
        from repro.experiments.config import ExperimentConfig

        if self.paper:
            return ExperimentConfig.paper()
        return ExperimentConfig(runs=self.effective_runs())

    def stab_config(self):
        """The (smaller) configuration of the stabilization benchmarks."""
        from repro.experiments.config import ExperimentConfig

        if self.paper:
            return ExperimentConfig.paper()
        return ExperimentConfig(
            layers=20,
            width=10,
            runs=max(3, self.effective_runs() // 2),
            num_pulses=8,
        )


@dataclass(frozen=True)
class BenchCase:
    """One declarative benchmark: workload factory, repeats, check, info.

    Attributes
    ----------
    name:
        Case name, unique within its suite (``fig08``, ``run_batch`` ...).
    suite:
        Suite the case belongs to (``solver``, ``des``, ``campaign``,
        ``topology``, ``clocktree``, ``batch``).
    make:
        Factory called once per benchmark run with the active
        :class:`BenchSettings`; returns the zero-argument workload the
        harness times.  Setup done inside ``make`` is excluded from the
        timed region.
    repeats, quick_repeats:
        Timed repetitions in full and quick mode.  Statistics are computed
        over all repeats; the workloads are seeded and deterministic, so
        repeating them measures host noise, not the science.
    check:
        Optional shape check ``check(result, settings)`` run once on the
        last repeat's return value; assertion failures fail the benchmark
        (the reproduction claims are part of the tracked surface).
    quick_check:
        Whether ``check`` also gates quick mode.  Deterministic or
        floor-style checks (bit-identity, conservative speedup floors) set
        this; statistical shape checks tuned for the full run counts leave
        it off, so the CI-sized quick run stays a pure timing gate.
    info:
        Optional ``info(result, settings) -> dict`` extractor of headline
        scalars recorded next to the timings in ``BENCH_*.json``.
    work:
        Optional ``(counter, unit)``: a ``repro.obs`` work counter of the
        workload, counted in one untimed run under metrics; ``info`` then
        gains ``ns_per_<unit>``, the median repeat over that count (omitted
        when the run records none).
    """

    name: str
    suite: str
    make: Callable[[BenchSettings], Callable[[], Any]]
    repeats: int = 3
    quick_repeats: int = 1
    check: Optional[Callable[[Any, BenchSettings], None]] = None
    quick_check: bool = False
    info: Optional[Callable[[Any, BenchSettings], Dict[str, Any]]] = None
    work: Optional[Tuple[str, str]] = None

    def __post_init__(self) -> None:
        if not self.name or not self.suite:
            raise ValueError("BenchCase needs a non-empty name and suite")
        if self.repeats < 1 or self.quick_repeats < 1:
            raise ValueError("repeat counts must be >= 1")
        if self.quick_repeats > self.repeats:
            raise ValueError(
                f"quick_repeats ({self.quick_repeats}) must not exceed "
                f"repeats ({self.repeats}) -- quick mode only ever shrinks"
            )

    def effective_repeats(self, settings: BenchSettings) -> int:
        """Timed repetitions under ``settings``."""
        return self.quick_repeats if settings.quick else self.repeats

    def checks_under(self, settings: BenchSettings) -> bool:
        """Whether the shape check applies under ``settings``."""
        if self.check is None:
            return False
        return self.quick_check or not settings.quick
