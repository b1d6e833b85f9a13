"""Solver suite: the single-pulse experiment regenerations.

One case per table/figure of the paper's single-pulse evaluation, each
carrying shape checks: the measured numbers must stay in the published
regime, not merely execute.  All cases run the analytic solver engine
through the experiments layer on the paper's 50x20 grid; quick mode shrinks
the Monte Carlo run counts only.  The engine-backed cases report ``ns_per_message`` over
the engine's ``solver.messages_delivered`` (fig05, fig13, fig14 and fig17 call
the solver outside the engine, which counts nothing, so they carry none).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.analysis.histograms import tail_fraction
from repro.bench.case import BenchCase, BenchSettings
from repro.bench.registry import register_case
from repro.clocksource.scenarios import SCENARIOS, Scenario
from repro.experiments import (
    ablation_faulttype,
    fig05,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    table1,
    table2,
    table3,
    theorem1,
)

SUITE = "solver"


def _case(
    name: str,
    make,
    check=None,
    info=None,
    repeats: int = 3,
    quick_repeats: int = 3,
    quick_check: bool = False,
    heap_sweep: bool = True,
) -> None:
    register_case(
        BenchCase(
            name=name,
            suite=SUITE,
            make=make,
            repeats=repeats,
            quick_repeats=quick_repeats,
            check=check,
            quick_check=quick_check,
            info=info,
            work=("solver.messages_delivered", "message") if heap_sweep else None,
        ),
        replace=True,
    )


# ----------------------------------------------------------------------
# Fig. 5: deterministic worst-case pulse wave
# ----------------------------------------------------------------------
def _check_fig05(result: Any, settings: BenchSettings) -> None:
    summary = result.summary()
    # The crafted wave tears the focus columns an order of magnitude further
    # apart than anything seen under random delays (Table 1, max 8.19 ns over
    # 250 runs), while respecting the Lemma 4 bound.
    paper_random_max = max(row["intra_max"] for row in table1.PAPER_TABLE1.values())
    assert summary["focus_skew"] > 2 * paper_random_max
    assert summary["focus_skew"] <= summary["lemma4_bound"]
    assert summary["focus_skew"] > summary["average_skew"]


def _info_fig05(result: Any, settings: BenchSettings) -> Dict[str, float]:
    summary = result.summary()
    return {
        "focus_skew_ns": round(summary["focus_skew"], 2),
        "lemma4_bound_ns": round(summary["lemma4_bound"], 2),
    }


# Deterministic construction: the check holds in every mode.
_case(
    "fig05",
    lambda settings: fig05.run,
    check=_check_fig05,
    info=_info_fig05,
    quick_check=True,
)


# ----------------------------------------------------------------------
# Fig. 8: pulse wave, zero layer-0 skew
# ----------------------------------------------------------------------
def _check_fig08(result: Any, settings: BenchSettings) -> None:
    summary = result.summary()
    # The wave propagates evenly -- one layer per link delay, with the
    # per-layer spread bounded by roughly d+ and no skew build-up with height.
    timing = settings.config().timing
    assert timing.d_min <= summary["per_layer_time"] <= timing.d_max
    assert summary["max_intra_layer_skew"] <= timing.d_max
    assert summary["top_layer_spread"] <= 2 * timing.d_max


def _info_fig08(result: Any, settings: BenchSettings) -> Dict[str, float]:
    summary = result.summary()
    return {
        key: round(summary[key], 3)
        for key in ("max_intra_layer_skew", "top_layer_spread", "per_layer_time")
    }


_case(
    "fig08",
    lambda settings: lambda: fig08.run(settings.config()),
    check=_check_fig08,
    info=_info_fig08,
)


# ----------------------------------------------------------------------
# Fig. 9: pulse wave, ramped layer-0 skew
# ----------------------------------------------------------------------
def _check_fig09(result: Any, settings: BenchSettings) -> None:
    smoothing = result.smoothing_summary()
    config = settings.config()
    timing = config.timing
    # Lemma 3 / Fig. 9: the huge initial ramp ((W/2) d+ ~ 82 ns on the
    # paper's grid) is smoothed out above layer W - 2, where the intra-layer
    # skew falls back to the ~d+ regime of the zero-skew scenario.
    assert smoothing["initial_layer0_skew"] >= (config.width // 2) * timing.d_max - 1e-9
    assert smoothing["max_skew_above_horizon"] < smoothing["max_skew_below_horizon"]
    assert smoothing["max_skew_above_horizon"] <= timing.d_max + timing.epsilon


def _info_fig09(result: Any, settings: BenchSettings) -> Dict[str, float]:
    smoothing = result.smoothing_summary()
    return {
        "initial_layer0_skew_ns": round(smoothing["initial_layer0_skew"], 2),
        "max_skew_above_W-2": round(smoothing["max_skew_above_horizon"], 3),
        "max_skew_below_W-2": round(smoothing["max_skew_below_horizon"], 3),
    }


_case(
    "fig09",
    lambda settings: lambda: fig09.run(settings.config()),
    check=_check_fig09,
    info=_info_fig09,
)


# ----------------------------------------------------------------------
# Fig. 10: cumulative skew histograms, scenario (i)
# ----------------------------------------------------------------------
def _check_fig10(result: Any, settings: BenchSettings) -> None:
    summary = result.summary()
    timing = settings.config().timing
    # Sharp concentration with an exponential-looking tail -- the median
    # intra-layer skew is a fraction of eps, virtually nothing exceeds d+,
    # and the inter-layer histogram sits just above d- (its structural bias).
    assert summary["intra_median"] < timing.epsilon
    assert summary["intra_frac_above_dmax"] < 0.01
    assert timing.d_min <= summary["inter_median"] <= timing.d_max + timing.epsilon
    assert tail_fraction(result.intra_values, 2 * timing.epsilon) < tail_fraction(
        result.intra_values, timing.epsilon
    ) or tail_fraction(result.intra_values, timing.epsilon) == 0.0


def _info_fig10(result: Any, settings: BenchSettings) -> Dict[str, float]:
    summary = result.summary()
    return {
        key: round(summary[key], 4)
        for key in ("intra_median", "intra_frac_above_eps", "inter_median")
    }


_case(
    "fig10",
    lambda settings: lambda: fig10.run(settings.config()),
    check=_check_fig10,
    info=_info_fig10,
)


# ----------------------------------------------------------------------
# Fig. 11: cumulative skew histograms, scenario (iv)
# ----------------------------------------------------------------------
def _check_fig11(result: Any, settings: BenchSettings) -> None:
    # The scenario (i) reference is computed untimed, inside the check.
    reference = fig10.run(settings.config())
    timing = settings.config().timing
    # Unlike scenario (i), scenario (iv) shows a visible cluster near the end
    # of the tail (intra-layer skews close to d+, inter-layer skews close to
    # 2 d+), caused by the large initial skews of the lower layers.
    assert tail_fraction(result.intra_values, timing.d_min) > 0.05
    assert tail_fraction(reference.intra_values, timing.d_min) < 0.02
    assert tail_fraction(result.inter_values, 1.5 * timing.d_max) > tail_fraction(
        reference.inter_values, 1.5 * timing.d_max
    )


def _info_fig11(result: Any, settings: BenchSettings) -> Dict[str, float]:
    timing = settings.config().timing
    return {
        "frac_above_dmin_scenario_iv": round(
            tail_fraction(result.intra_values, timing.d_min), 4
        )
    }


_case(
    "fig11",
    lambda settings: lambda: fig11.run(settings.config()),
    check=_check_fig11,
    info=_info_fig11,
)


# ----------------------------------------------------------------------
# Fig. 12: per-layer inter-layer skews, scenarios (iii)/(iv)
# ----------------------------------------------------------------------
def _check_fig12(result: Any, settings: BenchSettings) -> None:
    import numpy as np

    config = settings.config()
    ramp = result.series[Scenario.RAMP]
    flat = result.series[Scenario.UNIFORM_DMAX]
    smoothing_layer = result.smoothing_layer(Scenario.RAMP, tolerance=1.0)
    # Scenario (iv)'s large low-layer inter-layer skews shrink and settle
    # after roughly W - 2 layers (Lemma 3), whereas scenario (iii)'s
    # per-layer maxima are flat (within ~2 d+) from the very first layer.
    assert ramp["max"][0] > ramp["max"][-1]
    assert smoothing_layer <= 2 * config.width
    assert float(np.nanmax(flat["max"])) <= 2 * config.timing.d_max
    # The structural d- bias of the inter-layer skew is visible everywhere.
    assert float(np.nanmin(flat["min"])) >= config.timing.d_min - 1e-6


def _info_fig12(result: Any, settings: BenchSettings) -> Dict[str, float]:
    config = settings.config()
    ramp = result.series[Scenario.RAMP]
    return {
        "ramp_smoothing_layer": result.smoothing_layer(Scenario.RAMP, tolerance=1.0),
        "lemma3_horizon": config.width - 2,
        "ramp_max_skew_layer1": round(float(ramp["max"][0]), 2),
        "ramp_max_skew_top": round(float(ramp["max"][-1]), 2),
    }


_case(
    "fig12",
    lambda settings: lambda: fig12.run(settings.config()),
    check=_check_fig12,
    info=_info_fig12,
)


# ----------------------------------------------------------------------
# Fig. 13: one Byzantine node at (1, 19), scenario (i)
# ----------------------------------------------------------------------
def _check_fig13(result: Any, settings: BenchSettings) -> None:
    summary = result.summary()
    timing = settings.config().timing
    # The skew increase emanating from the faulty node fades with the
    # distance from the fault location (fault locality), and even next to
    # the fault the skew stays within a few d+.
    assert summary["max_skew_at_distance_1"] >= summary["max_skew_at_distance_ge_3"] - 1e-9
    assert summary["max_skew_at_distance_ge_3"] <= timing.d_max + timing.epsilon
    assert summary["max_intra_skew"] <= 4 * timing.d_max


def _info_fig13(result: Any, settings: BenchSettings) -> Dict[str, float]:
    return {key: round(value, 3) for key, value in result.summary().items()}


_case(
    "fig13",
    lambda settings: lambda: fig13.run(settings.config()),
    check=_check_fig13,
    info=_info_fig13,
)


# ----------------------------------------------------------------------
# Fig. 14: five Byzantine nodes, scenario (iv)
# ----------------------------------------------------------------------
def _check_fig14(result: Any, settings: BenchSettings) -> None:
    summary = result.summary()
    # Despite five Byzantine nodes the pulse still reaches every correct
    # node, and the worst skews stay in the same regime as the paper's
    # Table 2 (they do not accumulate with the number of faults).
    assert summary["num_faults"] == 5.0
    assert summary["all_correct_triggered"] == 1.0
    paper_iv_max_with_one_fault = 34.59  # Table 2, scenario (iv)
    assert summary["max_intra_skew"] <= 1.5 * paper_iv_max_with_one_fault


def _info_fig14(result: Any, settings: BenchSettings) -> Dict[str, Any]:
    return {
        "fault_positions": str(result.fault_positions),
        "max_intra_skew": round(result.summary()["max_intra_skew"], 3),
    }


_case(
    "fig14",
    lambda settings: lambda: fig14.run(settings.config()),
    check=_check_fig14,
    info=_info_fig14,
)


# ----------------------------------------------------------------------
# Fig. 15: skew vs number of Byzantine faults, scenario (iii)
# ----------------------------------------------------------------------
def _check_fig15(result: Any, settings: BenchSettings) -> None:
    timing = settings.config().timing
    max_f = max(f for f, _ in result.statistics)
    # 1. skews increase moderately with f -- far slower than the worst-case
    #    allowance of roughly 5 f d+;
    growth = result.max_skew_growth(hops=0)
    assert growth >= -1e-9
    assert growth < 5 * max_f * timing.d_max / 2
    # 2. discarding the faults' 1-hop out-neighbourhood removes most of the
    #    effect (strong fault locality);
    assert result.max_skew_growth(hops=1) <= result.max_skew_growth(hops=0) + 1e-9
    assert result.stats(max_f, 1).intra_max <= result.stats(max_f, 0).intra_max + 1e-9
    # 3. the averages barely move at all.
    assert result.stats(max_f, 0).intra_avg < result.stats(0, 0).intra_avg + 0.5


def _info_fig15(result: Any, settings: BenchSettings) -> Dict[str, float]:
    max_f = max(f for f, _ in result.statistics)
    return {
        "intra_max_f0": round(result.stats(0, 0).intra_max, 2),
        f"intra_max_f{max_f}_h0": round(result.stats(max_f, 0).intra_max, 2),
        f"intra_max_f{max_f}_h1": round(result.stats(max_f, 1).intra_max, 2),
    }


_case(
    "fig15",
    lambda settings: lambda: fig15.run(settings.config()),
    check=_check_fig15,
    info=_info_fig15,
)


# ----------------------------------------------------------------------
# Fig. 16: skew vs number of Byzantine faults, scenario (iv)
# ----------------------------------------------------------------------
def _check_fig16(result: Any, settings: BenchSettings) -> None:
    max_f = max(f for f, _ in result.statistics)
    # 1. a single fault already causes close to the worst observed skew --
    #    the effects of multiple faults do not accumulate;
    single = result.stats(1, 0).intra_max
    worst = max(result.stats(f, 0).intra_max for f, h in result.statistics if h == 0)
    assert single >= 0.4 * worst
    # 2. under the ramped scenario the maximal intra-layer skews typically
    #    exceed the inter-layer skews (the wave propagates diagonally);
    assert result.stats(max_f, 0).intra_max >= result.stats(max_f, 0).inter_max - 2.0
    # 3. locality: the h = 1 exclusion brings the maxima back down.
    assert result.stats(max_f, 1).intra_max <= result.stats(max_f, 0).intra_max + 1e-9


def _info_fig16(result: Any, settings: BenchSettings) -> Dict[str, float]:
    max_f = max(f for f, _ in result.statistics)
    return {
        "intra_max_f1": round(result.stats(1, 0).intra_max, 2),
        f"intra_max_f{max_f}": round(result.stats(max_f, 0).intra_max, 2),
        "inter_max_f1": round(result.stats(1, 0).inter_max, 2),
    }


_case(
    "fig16",
    lambda settings: lambda: fig16.run(settings.config()),
    check=_check_fig16,
    info=_info_fig16,
)


# ----------------------------------------------------------------------
# Fig. 17: single-fault worst case under scenario (iv)
# ----------------------------------------------------------------------
def _check_fig17(result: Any, settings: BenchSettings) -> None:
    summary = result.summary()
    # The paper's construction generates ~5 d+ of intra-layer skew from a
    # single Byzantine node, with the inter-layer skew smaller by d+.  Our
    # construction reaches >= 3 d+ (vs ~1 d+ without the fault) and
    # reproduces the "smaller by d+" relation exactly.
    assert summary["max_intra_skew_in_dmax"] >= 3.0
    assert abs(summary["intra_minus_inter_in_dmax"] - 1.0) <= 0.3
    assert (
        summary["fault_free_max_intra_skew"]
        <= result.construction.timing.d_max + 1e-6
    )


def _info_fig17(result: Any, settings: BenchSettings) -> Dict[str, float]:
    summary = result.summary()
    return {
        "max_intra_skew_in_dmax": round(summary["max_intra_skew_in_dmax"], 2),
        "paper_value_in_dmax": 5.0,
        "inter_smaller_by_dmax": round(summary["intra_minus_inter_in_dmax"], 2),
    }


# Deterministic construction: the check holds in every mode.
_case(
    "fig17",
    lambda settings: fig17.run,
    check=_check_fig17,
    info=_info_fig17,
    quick_check=True,
)


# ----------------------------------------------------------------------
# Table 1: fault-free skew statistics, scenarios (i)-(iv)
# ----------------------------------------------------------------------
def _check_table1(result: Any, settings: BenchSettings) -> None:
    # Averages land close to the paper even with few runs, the scenario
    # ordering matches, and maxima stay within the same regime.
    for scenario in SCENARIOS:
        measured = result.statistics[scenario]
        paper = table1.PAPER_TABLE1[scenario]
        assert abs(measured.intra_avg - paper["intra_avg"]) < 0.3
        assert abs(measured.inter_avg - paper["inter_avg"]) < 0.5
        assert measured.intra_max <= paper["intra_max"] * 1.5 + 1.0
    assert (
        result.statistics[Scenario.RAMP].intra_avg
        > result.statistics[Scenario.ZERO].intra_avg
    )


def _info_table1(result: Any, settings: BenchSettings) -> Dict[str, float]:
    info: Dict[str, float] = {}
    for scenario in SCENARIOS:
        measured = result.statistics[scenario].as_row()
        paper = table1.PAPER_TABLE1[scenario]
        for key in ("intra_avg", "inter_avg"):
            info[f"{scenario.value}_{key}_measured"] = round(measured[key], 3)
            info[f"{scenario.value}_{key}_paper"] = paper[key]
    return info


_case(
    "table1",
    lambda settings: lambda: table1.run(settings.config()),
    check=_check_table1,
    info=_info_table1,
)


# ----------------------------------------------------------------------
# Table 2: skew statistics with one Byzantine node
# ----------------------------------------------------------------------
def _check_table2(result: Any, settings: BenchSettings) -> None:
    # A single Byzantine node increases the maxima over Table 1's fault-free
    # values but leaves the averages almost unchanged (fault locality).
    for scenario in SCENARIOS:
        measured = result.statistics[scenario]
        paper_clean = table1.PAPER_TABLE1[scenario]
        assert measured.intra_avg < paper_clean["intra_avg"] + 1.0
        assert measured.inter_min <= paper_clean["inter_min"] + 0.5


def _info_table2(result: Any, settings: BenchSettings) -> Dict[str, float]:
    info: Dict[str, float] = {}
    for scenario in SCENARIOS:
        measured = result.statistics[scenario].as_row()
        paper = table2.PAPER_TABLE2[scenario]
        info[f"{scenario.value}_intra_max_measured"] = round(measured["intra_max"], 3)
        info[f"{scenario.value}_intra_max_paper"] = paper["intra_max"]
    return info


_case(
    "table2",
    lambda settings: lambda: table2.run(settings.config()),
    check=_check_table2,
    info=_info_table2,
)


# ----------------------------------------------------------------------
# Table 3: stable skews and Condition 2 timeouts
# ----------------------------------------------------------------------
def _check_table3(result: Any, settings: BenchSettings) -> None:
    # Feeding the paper's sigma column through Condition 2 reproduces every
    # timeout column of Table 3 (up to the footnote-10 signal-duration
    # slack), and the measured-sigma derivation lands in the same regime.
    for scenario in SCENARIOS:
        derived = result.from_paper_sigma[scenario].as_row()
        paper = table3.PAPER_TABLE3[scenario]
        for key in ("T_link_min", "T_link_max", "T_sleep_min", "T_sleep_max", "S"):
            assert abs(derived[key] - paper[key]) <= 0.2, (scenario, key)
        measured_sigma = result.measured_sigma[scenario]
        assert 0.3 * paper["sigma"] < measured_sigma < 2.5 * paper["sigma"]


def _info_table3(result: Any, settings: BenchSettings) -> Dict[str, float]:
    info: Dict[str, float] = {}
    for scenario in SCENARIOS:
        derived = result.from_paper_sigma[scenario].as_row()
        info[f"{scenario.value}_S_derived"] = round(derived["S"], 2)
        info[f"{scenario.value}_S_paper"] = table3.PAPER_TABLE3[scenario]["S"]
    return info


def _make_table3(settings: BenchSettings):
    config = settings.config()
    return lambda: table3.run(config, runs=max(3, config.runs // 2))


_case("table3", _make_table3, check=_check_table3, info=_info_table3)


# ----------------------------------------------------------------------
# Theorem 1: worst-case bounds vs observed maxima
# ----------------------------------------------------------------------
def _check_theorem1(result: Any, settings: BenchSettings) -> None:
    summary = result.summary()
    # The paper's Section 4.2 comparison -- the worst-case bound (quoted as
    # 21.63 ns) is far above the observed maxima (~3-7 ns), i.e. typical
    # skews are much better than worst case; and the bounds hold.
    assert result.holds()
    assert summary["paper_quoted_sigma_max"] == 21.63
    assert (
        summary["observed_intra_max_scenario_i"]
        < 0.5 * summary["theorem1_bound_quoted_in_paper"]
    )
    assert (
        summary["observed_intra_max_scenario_ii"]
        < summary["theorem1_bound_quoted_in_paper"]
    )


def _info_theorem1(result: Any, settings: BenchSettings) -> Dict[str, float]:
    summary = result.summary()
    return {
        key: round(summary[key], 3)
        for key in (
            "theorem1_bound_formula",
            "theorem1_bound_quoted_in_paper",
            "observed_intra_max_scenario_i",
            "observed_intra_max_scenario_ii",
        )
    }


_case(
    "theorem1",
    lambda settings: lambda: theorem1.run(settings.config()),
    check=_check_theorem1,
    info=_info_theorem1,
)


# ----------------------------------------------------------------------
# Ablation: Byzantine vs fail-silent fault severity
# ----------------------------------------------------------------------
def _check_ablation(result: Any, settings: BenchSettings) -> None:
    stats = result.statistics
    d_max = settings.config().timing.d_max
    # Paper's claim: fail-silent results are qualitatively similar to the
    # Byzantine ones but with smaller (or equal) skews, and both regimes
    # stay within a few d+ of the fault-free baseline.
    assert stats["fail_silent"].intra_max >= stats["fault_free"].intra_max - 1e-9
    assert stats["byzantine"].intra_max >= stats["fail_silent"].intra_max - 0.5
    assert stats["byzantine"].intra_max <= stats["fault_free"].intra_max + 4 * d_max
    assert stats["fail_silent"].intra_avg <= stats["byzantine"].intra_avg + 0.2


def _info_ablation(result: Any, settings: BenchSettings) -> Dict[str, float]:
    stats = result.statistics
    return {
        "intra_max_fault_free": round(stats["fault_free"].intra_max, 2),
        "intra_max_fail_silent": round(stats["fail_silent"].intra_max, 2),
        "intra_max_byzantine": round(stats["byzantine"].intra_max, 2),
    }


_case(
    "ablation_faulttype",
    lambda settings: lambda: ablation_faulttype.run(settings.config(), num_faults=3),
    check=_check_ablation,
    info=_info_ablation,
)


# ----------------------------------------------------------------------
# Dense frontier: the array engine on large grids (256^2 / 512^2 / 1000^2)
# ----------------------------------------------------------------------
# The paper's scaling argument is about *million-node* dies; these cases keep
# the dense numpy-frontier engine honest at that scale.  The timed workload is
# always the array engine (so the tracked baseline follows its performance);
# the shape checks replay the same specs on the reference solver to pin
# the exactness contract (bit-identical under deterministic delays) and the
# >= 10x speedup the engine exists for.  All checks run in quick mode too:
# they are deterministic, and the CI perf job is exactly where a perf or
# exactness regression must fail.


def get_array_engine():
    """The registered dense engine (resolved lazily to honour re-registration)."""
    from repro.engines import get_engine

    return get_engine("array")


def _dense_specs(side: int, delay_model: str, runs: int):
    from repro.engines import RunSpec

    return [
        RunSpec(
            layers=side,
            width=side,
            scenario="iii",
            delay_model=delay_model,
            entropy=4242,
            run_index=index,
        )
        for index in range(runs)
    ]


def _dense_workload(side: int, delay_model: str, runs: int):
    """Factory for a warmed dense workload callable.

    One untimed warm-up run amortizes allocator/page-cache effects that
    otherwise make a fresh process's first ~100 ms-scale medians swing by
    30-40% across invocations; timed repeats then vary only a few percent.
    """
    fn = lambda: get_array_engine().run_batch(  # noqa: E731
        _dense_specs(side, delay_model, runs)
    )
    fn()
    return fn


def _check_dense256(results: Any, settings: BenchSettings) -> None:
    import numpy as np

    from repro.engines import get_engine

    # Exactness contract at scale: under the deterministic max_skew delay
    # model the dense frontier must reproduce the solver bit for bit
    # (the solver replay covers one spec of the sweep; all must fire fully).
    assert all(result.all_correct_triggered() for result in results)
    result = results[0]
    reference = get_engine("solver").run(result.spec)
    np.testing.assert_array_equal(result.trigger_times, reference.trigger_times)
    np.testing.assert_array_equal(result.correct_mask, reference.correct_mask)


def _info_dense256(results: Any, settings: BenchSettings) -> Dict[str, float]:
    return {
        "grid_cells": float(results[0].trigger_times.size),
        "sweep_runs": float(len(results)),
    }


_case(
    "dense256_bitident",
    lambda settings: _dense_workload(256, "max_skew", 3),
    check=_check_dense256,
    info=_info_dense256,
    repeats=7,
    quick_repeats=7,
    quick_check=True,
    heap_sweep=False,
)


def _check_dense512(results: Any, settings: BenchSettings) -> None:
    import time

    import numpy as np

    from repro.engines import get_engine

    assert all(result.all_correct_triggered() for result in results)
    specs = [result.spec for result in results]
    # Re-measure both engines here (the harness-timed number only covers the
    # array workload): per-spec array time over the sweep vs the solver's
    # batched planned path on one spec of the same shape.
    start = time.perf_counter()
    array_results = get_array_engine().run_batch(specs)
    array_per_spec = (time.perf_counter() - start) / len(specs)
    start = time.perf_counter()
    (solver_result,) = get_engine("solver").run_batch(specs[:1])
    solver_per_spec = time.perf_counter() - start
    np.testing.assert_array_equal(
        array_results[0].trigger_times, solver_result.trigger_times
    )
    speedup = solver_per_spec / array_per_spec
    assert speedup >= 10.0, (
        f"dense array engine no longer >= 10x the solver on a fault-free "
        f"512x512 sweep: {speedup:.1f}x "
        f"(solver {solver_per_spec:.3f}s/spec, array {array_per_spec:.3f}s/spec)"
    )
    _check_dense512._last = {"speedup": speedup}


def _info_dense512(results: Any, settings: BenchSettings) -> Dict[str, float]:
    last = getattr(_check_dense512, "_last", None) or {}
    info = {"sweep_runs": float(len(results))}
    if "speedup" in last:
        info["speedup_vs_solver"] = round(last["speedup"], 1)
    return info


_case(
    "dense512_sweep",
    lambda settings: _dense_workload(512, "constant", 4),
    check=_check_dense512,
    info=_info_dense512,
    repeats=7,
    quick_repeats=7,
    quick_check=True,
    heap_sweep=False,
)


def _check_dense1000(results: Any, settings: BenchSettings) -> None:
    import numpy as np

    # A million-node die propagates a full pulse wave, every node fires, and
    # the wave is physically sane: monotone non-decreasing layer minima.
    (result,) = results
    assert result.trigger_times.shape == (1001, 1000)
    assert result.all_correct_triggered()
    layer_minima = result.trigger_times.min(axis=1)
    assert np.all(np.diff(layer_minima) >= 0)


def _info_dense1000(results: Any, settings: BenchSettings) -> Dict[str, float]:
    (result,) = results
    return {"grid_cells": float(result.trigger_times.size)}


_case(
    "dense1000_pulse",
    lambda settings: _dense_workload(1000, "constant", 1),
    check=_check_dense1000,
    info=_info_dense1000,
    repeats=7,
    quick_repeats=7,
    quick_check=True,
    heap_sweep=False,
)
