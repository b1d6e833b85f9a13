"""Unified benchmark harness: declarative cases, robust stats, perf gating.

The perf trajectory of the reproduction runs through this package:

* :class:`~repro.bench.case.BenchCase` -- one declarative benchmark
  (workload factory, repeat counts, quick-mode shrink, shape check, headline
  info extractor) and :class:`~repro.bench.case.BenchSettings`, the mode
  knobs (quick / full / paper, runs per data point);
* :mod:`~repro.bench.registry` -- the ``(suite, name)`` case registry the
  built-in suites (:mod:`repro.bench.suites`) populate;
* :mod:`~repro.bench.runner` -- times cases, computes robust statistics
  (min / median / IQR) and writes one schema-versioned ``BENCH_<suite>.json``
  per suite into the ``--out`` directory (default: current directory);
* :mod:`~repro.bench.compare` -- the regression gate behind
  ``hex-repro bench --compare``, comparing fresh medians against committed
  baselines with a tolerance percentage and the documented exit codes.

``hex-repro bench`` is the one client of this package.
"""

from repro.bench.case import BenchCase, BenchSettings
from repro.bench.compare import (
    EXIT_MISSING_BASELINE,
    EXIT_OK,
    EXIT_REGRESSION,
    compare_payloads,
    load_baseline,
)
from repro.bench.registry import (
    available_suites,
    cases_in_suite,
    get_case,
    load_builtin_suites,
    register_case,
    unregister_case,
)
from repro.bench.runner import (
    bench_output_dir,
    failed_checks,
    run_case,
    run_suites,
    suite_filename,
)
from repro.bench.stats import robust_stats

__all__ = [
    "BenchCase",
    "BenchSettings",
    "EXIT_OK",
    "EXIT_REGRESSION",
    "EXIT_MISSING_BASELINE",
    "available_suites",
    "bench_output_dir",
    "cases_in_suite",
    "compare_payloads",
    "failed_checks",
    "get_case",
    "load_baseline",
    "load_builtin_suites",
    "register_case",
    "robust_stats",
    "run_case",
    "run_suites",
    "suite_filename",
    "unregister_case",
]
