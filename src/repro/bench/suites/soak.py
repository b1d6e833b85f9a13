"""Soak suite: sustained streaming throughput and accumulator overhead.

Two tracked cases:

* ``sustained_pulses`` -- a short but complete soak run (epoch loop, fault
  churn, streaming observer, checkpoint-shaped accumulators); the timing
  gate guards the pulses/sec the long-horizon acceptance runs rely on, and
  ``ns_per_event`` reports it per discrete event.
* ``accumulator_overhead`` -- microbenchmark of one
  :class:`repro.stream.StreamSummary` observation (Welford moments plus the
  GK sketch, past the exact-buffer spill point), with the sketch's
  rank-error bound re-checked against a full ``np.sort`` of the stream.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict

import numpy as np

from repro.bench.case import BenchCase, BenchSettings
from repro.bench.registry import register_case
from repro.bench.suites.des import EVENTS
from repro.experiments.soak import SoakSpec, run_soak
from repro.stream import StreamSummary

SUITE = "soak"


def _spec(settings: BenchSettings) -> SoakSpec:
    pulses = 200 if settings.quick else 600
    return SoakSpec(
        layers=4,
        width=4,
        num_pulses=pulses,
        pulses_per_epoch=100,
        faults=1,
        seed=906,
        exact_cap=64,
    )


def _make_sustained_pulses(settings: BenchSettings):
    spec = _spec(settings)

    def workload() -> Dict[str, Any]:
        start = time.perf_counter()
        soak = run_soak(spec)
        return {"result": soak, "wall_s": time.perf_counter() - start}

    return workload


def _check_sustained_pulses(result: Dict[str, Any], settings: BenchSettings) -> None:
    soak = result["result"]
    spec = _spec(settings)
    assert soak.pulses == spec.num_pulses, (
        f"soak completed {soak.pulses} of {spec.num_pulses} pulses"
    )
    # Windows where fault churn leaves every forwarding layer below two
    # correct firings yield no skew observation, so allow a small shortfall.
    assert spec.num_pulses * 0.9 <= soak.skew.count <= spec.num_pulses, (
        f"streamed {soak.skew.count} skew observations for {spec.num_pulses} pulses"
    )
    assert soak.faults_injected == spec.faults * spec.num_epochs
    assert soak.faults_healed == soak.faults_injected


def _info_sustained_pulses(result: Dict[str, Any], settings: BenchSettings) -> Dict[str, Any]:
    soak = result["result"]
    return {
        "pulses": soak.pulses,
        "epochs": soak.epochs,
        "pulses_per_s": round(soak.pulses / result["wall_s"], 1),
        "recoveries": soak.recoveries,
        "skew_p95": round(soak.skew.quantile(0.95), 4),
    }


register_case(
    BenchCase(
        name="sustained_pulses",
        suite=SUITE,
        make=_make_sustained_pulses,
        repeats=3,
        quick_repeats=1,
        check=_check_sustained_pulses,
        quick_check=True,
        info=_info_sustained_pulses,
        work=EVENTS,
    ),
    replace=True,
)


def _make_accumulator_overhead(settings: BenchSettings):
    count = 50_000 if settings.quick else 200_000
    epsilon = 0.005
    values = np.random.default_rng(906).normal(size=count).tolist()

    def workload() -> Dict[str, Any]:
        summary = StreamSummary(epsilon=epsilon, exact_cap=512)
        start = time.perf_counter()
        for value in values:
            summary.add(value)
        wall = time.perf_counter() - start
        return {
            "summary": summary,
            "values": values,
            "epsilon": epsilon,
            "ns_per_add": wall / count * 1e9,
        }

    return workload


def _check_accumulator_overhead(result: Dict[str, Any], settings: BenchSettings) -> None:
    summary = result["summary"]
    ordered = np.sort(np.asarray(result["values"], dtype=float))
    count = ordered.size
    bound = math.ceil(result["epsilon"] * count)
    for q in (0.1, 0.5, 0.9, 0.95, 0.99):
        estimate = summary.quantile(q)
        rank = int(np.searchsorted(ordered, estimate, side="left"))
        target = max(1, min(count, math.ceil(q * count)))
        assert abs(rank + 1 - target) <= bound + 1, (
            f"GK rank error at q={q}: estimate at rank {rank + 1}, "
            f"target {target}, bound {bound}"
        )
    assert math.isclose(
        summary.moments.mean, float(np.mean(ordered)), rel_tol=1e-9, abs_tol=1e-9
    )


def _info_accumulator_overhead(result: Dict[str, Any], settings: BenchSettings) -> Dict[str, Any]:
    summary = result["summary"]
    return {
        "observations": summary.count,
        "ns_per_add": round(result["ns_per_add"], 1),
        "sketch_entries": summary.quantiles._sketch.num_entries
        if summary.quantiles._sketch is not None
        else 0,
    }


register_case(
    BenchCase(
        name="accumulator_overhead",
        suite=SUITE,
        make=_make_accumulator_overhead,
        repeats=3,
        quick_repeats=1,
        check=_check_accumulator_overhead,
        quick_check=True,
        info=_info_accumulator_overhead,
    ),
    replace=True,
)
