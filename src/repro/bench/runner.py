"""The benchmark runner: time cases, compute stats, emit BENCH JSON files.

Output layout (all paths resolved by :func:`bench_output_dir`):

* ``BENCH_<suite>.json`` -- one schema-versioned payload per suite
  (``hex-repro/bench-suite/v1``);
* ``BENCH_suite.json`` -- the combined payload over every suite that ran
  (``hex-repro/bench/v1``), what the CI regression gate archives.

The historical benchmark modules wrote their artifacts to the repository
root unconditionally; all paths now route through an explicit ``--out``
directory or the ``BENCH_OUT`` environment variable, with the current
working directory as the compatibility default (the repo root when invoked
from a checkout, as CI does).
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.bench.case import BenchCase, BenchSettings
from repro.bench.registry import available_suites, cases_in_suite, load_builtin_suites
from repro.bench.stats import robust_stats
from repro.checks.schemas import schema

__all__ = [
    "SUITE_SCHEMA",
    "COMBINED_SCHEMA",
    "SCHEMA_VERSION",
    "CaseResult",
    "bench_output_dir",
    "suite_filename",
    "run_case",
    "run_suites",
    "merge_case_result",
]

#: Schema tag of one suite's payload.
SUITE_SCHEMA = schema("bench-suite")

#: Schema tag of the combined all-suites payload (``BENCH_suite.json``).
COMBINED_SCHEMA = schema("bench")

#: Version number shared by both payload kinds.
SCHEMA_VERSION = 1

#: File name of the combined payload.
COMBINED_FILENAME = "BENCH_suite.json"


def bench_output_dir(out: Optional[str] = None) -> Path:
    """Resolve the benchmark artifact directory.

    Precedence: explicit ``out`` argument (the CLI's ``--out``), then the
    ``BENCH_OUT`` environment variable, then the current working directory
    (which preserves the historical repo-root artifacts when invoked from a
    checkout).
    """
    if out:
        return Path(out)
    env = os.environ.get("BENCH_OUT")
    if env:
        return Path(env)
    return Path.cwd()


def suite_filename(suite: str) -> str:
    """The per-suite artifact name, ``BENCH_<suite>.json``."""
    return f"BENCH_{suite}.json"


@dataclass
class CaseResult:
    """Timings, statistics and headline numbers of one executed case."""

    case: BenchCase
    times_s: List[float]
    stats: Dict[str, float]
    info: Dict[str, Any] = field(default_factory=dict)
    #: ``repro.obs`` counter deltas over the timed repeats; populated only
    #: when the process runs with metrics enabled (``bench --metrics``).
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable record of this case."""
        payload = {
            "repeats": len(self.times_s),
            "times_s": [float(value) for value in self.times_s],
            "stats": dict(self.stats),
            "info": _json_safe(self.info),
        }
        if self.metrics:
            payload["metrics"] = dict(self.metrics)
        return payload


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars/arrays and tuples into plain JSON values."""
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(item) for item in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def provenance(settings: BenchSettings) -> Dict[str, Any]:
    """The environment record stamped into every payload."""
    return {
        "mode": settings.mode,
        "runs_per_point": settings.effective_runs(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def run_case(
    case: BenchCase, settings: BenchSettings, check: bool = True
) -> CaseResult:
    """Build, time and (optionally) shape-check one case.

    The factory (and a case's :attr:`~BenchCase.work` counting run) runs
    outside the timed region; the workload runs
    ``case.effective_repeats(settings)`` times.  The check and the info
    extractor see the last repeat's return value.

    When the process runs with ``repro.obs`` metrics enabled, the counter
    deltas accumulated across the timed repeats are captured into
    :attr:`CaseResult.metrics` (and land under a ``"metrics"`` key in the
    BENCH JSON).  Gated ``--compare`` runs should stay uninstrumented: the
    committed baselines were timed without observability.
    """
    workload = case.make(settings)
    work = 0.0
    if case.work is not None:
        with obs.observed(metrics=True) as session:
            workload()
        work = session.registry.counter(case.work[0])
    registry = obs.registry()
    counters_before = registry.counters() if registry is not None else None
    times: List[float] = []
    result: Any = None
    for _ in range(case.effective_repeats(settings)):
        start = time.perf_counter()
        result = workload()
        times.append(time.perf_counter() - start)
    metrics = (
        obs.metrics_delta(counters_before, registry.counters())
        if registry is not None
        else {}
    )
    if check and case.checks_under(settings):
        case.check(result, settings)
    info = case.info(result, settings) if case.info is not None else {}
    stats = robust_stats(times)
    if work:
        info[f"ns_per_{case.work[1]}"] = round(stats["median_s"] / work * 1e9, 1)
    return CaseResult(case=case, times_s=times, stats=stats, info=info, metrics=metrics)


def _suite_payload(
    suite: str, results: Sequence[CaseResult], settings: BenchSettings
) -> Dict[str, Any]:
    return {
        "schema": SUITE_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "mode": settings.mode,
        "provenance": provenance(settings),
        "cases": {result.case.name: result.to_json_dict() for result in results},
    }


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_suites(
    suites: Optional[Sequence[str]] = None,
    settings: Optional[BenchSettings] = None,
    out: Optional[str] = None,
    check: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Run (a selection of) registered suites and write their artifacts.

    Returns the per-suite payloads keyed by suite name; the same payloads
    land on disk as ``BENCH_<suite>.json`` plus the combined
    ``BENCH_suite.json``.
    """
    load_builtin_suites()
    settings = settings if settings is not None else BenchSettings.from_env()
    selected = list(suites) if suites else list(available_suites())
    known = available_suites()
    for suite in selected:
        if suite not in known:
            raise ValueError(
                f"unknown bench suite {suite!r}; available suites: {', '.join(known)}"
            )
    out_dir = bench_output_dir(out)
    payloads: Dict[str, Dict[str, Any]] = {}
    for suite in selected:
        results: List[CaseResult] = []
        for case in cases_in_suite(suite):
            if log is not None:
                log(f"[{suite}] {case.name} ...")
            result = run_case(case, settings, check=check)
            if log is not None:
                log(
                    f"[{suite}] {case.name}: median "
                    f"{result.stats['median_s']:.3f}s over {len(result.times_s)} repeat(s)"
                )
            results.append(result)
        payload = _suite_payload(suite, results, settings)
        payloads[suite] = payload
        _write_json(out_dir / suite_filename(suite), payload)
    combined = {
        "schema": COMBINED_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "mode": settings.mode,
        "provenance": provenance(settings),
        "suites": payloads,
    }
    _write_json(out_dir / COMBINED_FILENAME, combined)
    return payloads


def merge_case_result(
    out_dir: Path, suite: str, settings: BenchSettings, result: CaseResult
) -> Path:
    """Merge one case result into the suite's on-disk payload.

    The pytest wrappers execute cases one test at a time (possibly a ``-k``
    subset); read-modify-write keeps ``BENCH_<suite>.json`` complete
    whichever subset ran last, matching the historical behaviour of the
    topology benchmark module.
    """
    path = Path(out_dir) / suite_filename(suite)
    payload: Dict[str, Any] = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            payload = {}
    if payload.get("schema") != SUITE_SCHEMA or payload.get("mode") != settings.mode:
        payload = _suite_payload(suite, [], settings)
    payload["provenance"] = provenance(settings)
    payload.setdefault("cases", {})[result.case.name] = result.to_json_dict()
    _write_json(path, payload)
    return path
