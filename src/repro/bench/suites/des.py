"""DES suite: the stabilization experiments (Figs. 18-19).

Both cases run the discrete-event engine through the experiments layer on
the smaller 20x10 stabilization grid (the historical ``bench_stab_config``),
with the fault-count / parameter-choice sweeps of the corresponding figures.
Each reports ``ns_per_event`` over ``des.events_processed``, so event-loop
speed is comparable across grids and fault loads.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.bench.case import BenchCase, BenchSettings
from repro.bench.registry import register_case
from repro.experiments import fig18, fig19
from repro.faults.models import FaultType

SUITE = "des"

#: The ``BenchCase.work`` counter of every DES-driven case.
EVENTS = ("des.events_processed", "event")


def _make_fig18(settings: BenchSettings):
    config = settings.stab_config()
    return lambda: fig18.run(
        config,
        fault_counts=(0, 2, 5),
        choices=(0, 3),
        fault_types=(FaultType.BYZANTINE, FaultType.FAIL_SILENT),
    )


def _check_fig18(result: Any, settings: BenchSettings) -> None:
    config = settings.stab_config()
    conservative = result.point(0, 0, FaultType.BYZANTINE)
    aggressive = result.point(5, 3, FaultType.BYZANTINE)
    # 1. with conservative skew bounds HEX stabilizes within the first couple
    #    of pulses in every run;
    assert conservative.num_stabilized == conservative.num_runs
    assert conservative.average <= 3.0
    # 2. aggressive bounds (C = 3) can only slow stabilization down and may
    #    leave a minority of runs unstabilized within the observed pulses;
    assert aggressive.num_stabilized <= conservative.num_stabilized
    if aggressive.num_stabilized:
        assert aggressive.average >= conservative.average - 1e-9
    # 3. everything stays far below the Theorem 2 worst case of L + 1 pulses.
    assert conservative.average < (config.layers + 1) / 2
    # 4. fail-silent faults behave no worse than Byzantine ones.
    fail_silent = result.point(5, 0, FaultType.FAIL_SILENT)
    assert (
        fail_silent.num_stabilized
        >= result.point(5, 0, FaultType.BYZANTINE).num_stabilized - 1
    )


def _info_fig18(result: Any, settings: BenchSettings) -> Dict[str, float]:
    conservative = result.point(0, 0, FaultType.BYZANTINE)
    aggressive = result.point(5, 3, FaultType.BYZANTINE)
    return {
        "avg_stab_time_f0_C0": round(conservative.average, 2),
        "stabilized_f0_C0": conservative.num_stabilized,
        "avg_stab_time_f5_C3": round(aggressive.average, 2),
        "stabilized_f5_C3": aggressive.num_stabilized,
        "theorem2_worst_case": settings.stab_config().layers + 1,
    }


register_case(
    BenchCase(
        name="fig18",
        suite=SUITE,
        make=_make_fig18,
        repeats=3,
        quick_repeats=3,
        check=_check_fig18,
        info=_info_fig18,
        work=EVENTS,
    ),
    replace=True,
)


def _make_fig19(settings: BenchSettings):
    config = settings.stab_config()
    return lambda: fig19.run(
        config, fault_counts=(0, 3), choices=(0, 2), fault_types=(FaultType.BYZANTINE,)
    )


def _check_fig19(result: Any, settings: BenchSettings) -> None:
    config = settings.stab_config()
    conservative = result.point(0, 0, FaultType.BYZANTINE)
    with_faults = result.point(3, 0, FaultType.BYZANTINE)
    # The qualitative picture of Fig. 18 carries over to the ramped scenario
    # -- stabilization within the first pulses for conservative bounds, even
    # with faults present, far below the Theorem 2 worst case.
    assert conservative.num_stabilized == conservative.num_runs
    assert conservative.average <= 3.0
    assert with_faults.num_stabilized >= with_faults.num_runs - 1
    if with_faults.num_stabilized:
        assert with_faults.average <= (config.layers + 1) / 2


def _info_fig19(result: Any, settings: BenchSettings) -> Dict[str, float]:
    conservative = result.point(0, 0, FaultType.BYZANTINE)
    with_faults = result.point(3, 0, FaultType.BYZANTINE)
    return {
        "avg_stab_time_f0_C0": round(conservative.average, 2),
        "avg_stab_time_f3_C0": round(with_faults.average, 2),
    }


register_case(
    BenchCase(
        name="fig19",
        suite=SUITE,
        make=_make_fig19,
        repeats=3,
        quick_repeats=3,
        check=_check_fig19,
        info=_info_fig19,
        work=EVENTS,
    ),
    replace=True,
)
