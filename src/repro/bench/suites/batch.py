"""Batch suite: ``Engine.run_batch`` vs per-spec execution.

A serial 100-cell single-pulse sweep on the paper's 50x20 grid (25 cells
per scenario), run once through a per-spec ``engine.run()`` loop and once
through ``engine.run_batch``.  Both paths share one sweep and one grid per
``(topology, layers, width)``, so the check pins that there is no slow
per-spec path: results bit-identical, and the ``run()`` loop at most
:data:`MAX_RUN_OVER_BATCH` times the ``run_batch`` wall clock (fastest
repeat of each).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from repro.bench.case import BenchCase, BenchSettings
from repro.bench.registry import register_case
from repro.engines import RunResult, RunSpec, get_engine

SUITE = "batch"

#: How much slower than ``run_batch`` the per-spec ``run()`` loop may be.
MAX_RUN_OVER_BATCH = 1.25


def _sweep_specs(settings: BenchSettings) -> List[RunSpec]:
    if settings.quick:
        layers, width, cells = 20, 10, 40
    else:
        layers, width, cells = 50, 20, 100
    scenarios = ("i", "ii", "iii", "iv")
    return [
        RunSpec(
            kind="single_pulse",
            layers=layers,
            width=width,
            scenario=scenarios[index % len(scenarios)],
            entropy=2013,
            run_index=index,
        )
        for index in range(cells)
    ]


def _make(settings: BenchSettings):
    engine = get_engine("solver")
    specs = _sweep_specs(settings)
    # Warm both paths over the whole sweep so neither pays first-call costs
    # (grid and plan construction, allocator growth) inside the measured
    # region.
    engine.run_batch(specs)
    for spec in specs:
        engine.run(spec)
    serial_times: List[float] = []
    batch_times: List[float] = []

    def time_serial() -> List[RunResult]:
        start = time.perf_counter()
        results = [engine.run(spec) for spec in specs]
        serial_times.append(time.perf_counter() - start)
        return results

    def time_batch() -> List[RunResult]:
        start = time.perf_counter()
        results = engine.run_batch(specs)
        batch_times.append(time.perf_counter() - start)
        return results

    def workload() -> Dict[str, Any]:
        # Alternate which path goes first, so drift within a repeat favours
        # neither.
        if len(serial_times) % 2 == 0:
            serial, batched = time_serial(), time_batch()
        else:
            batched = time_batch()
            serial = time_serial()
        # The fastest repeat of each path: the least noisy ratio of two
        # paths that do the same work.
        serial_s, batch_s = min(serial_times), min(batch_times)
        return {
            "specs": specs,
            "serial": serial,
            "batched": batched,
            "serial_s": serial_s,
            "batch_s": batch_s,
            "run_over_batch": serial_s / batch_s if batch_s > 0 else float("inf"),
        }

    return workload


def _check(result: Dict[str, Any], settings: BenchSettings) -> None:
    for per_spec, batched in zip(result["serial"], result["batched"]):
        assert np.array_equal(
            per_spec.trigger_times, batched.trigger_times, equal_nan=True
        )
        assert np.array_equal(per_spec.correct_mask, batched.correct_mask)
        assert np.array_equal(
            per_spec.layer0_times, batched.layer0_times, equal_nan=True
        )
    assert result["run_over_batch"] <= MAX_RUN_OVER_BATCH, (
        f"the per-spec run() loop takes {result['run_over_batch']:.2f}x the "
        f"run_batch time on the {len(result['specs'])}-cell sweep (at most "
        f"{MAX_RUN_OVER_BATCH}x): run() has left the shared kernel or grid"
    )


def _info(result: Dict[str, Any], settings: BenchSettings) -> Dict[str, float]:
    return {
        "cells": len(result["specs"]),
        "serial_s": round(result["serial_s"], 3),
        "batch_s": round(result["batch_s"], 3),
        "run_over_batch": round(result["run_over_batch"], 2),
    }


register_case(
    BenchCase(
        name="run_batch",
        suite=SUITE,
        make=_make,
        repeats=3,
        quick_repeats=3,
        check=_check,
        quick_check=True,
        info=_info,
    ),
    replace=True,
)
