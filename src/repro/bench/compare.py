"""Baseline comparison: the perf-regression gate behind ``bench --compare``.

Fresh suite payloads are compared case by case against committed baselines:
a case *regresses* when its fresh median exceeds the baseline median by more
than the tolerance percentage.  Baselines are a single per-suite
``BENCH_<suite>.json`` file or a directory of them.

Exit-code contract (consumed by the CI ``perf`` job):

* :data:`EXIT_OK` (0) -- every fresh case was compared, none regressed;
* :data:`EXIT_REGRESSION` (1) -- at least one case regressed;
* :data:`EXIT_MISSING_BASELINE` (3) -- a baseline file, suite or case was
  missing or incomparable (e.g. quick run against a full-mode baseline) and
  nothing regressed among the comparable ones.

Fresh cases with no baseline counterpart are *new* benchmarks: they are
reported but do not fail the gate (otherwise adding a benchmark would break
CI until its baseline lands in the same commit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.bench.runner import SUITE_SCHEMA

__all__ = [
    "EXIT_OK",
    "EXIT_REGRESSION",
    "EXIT_MISSING_BASELINE",
    "CaseComparison",
    "CompareReport",
    "load_baseline",
    "compare_payloads",
]

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_MISSING_BASELINE = 3


@dataclass(frozen=True)
class CaseComparison:
    """One compared case: fresh vs baseline median."""

    suite: str
    name: str
    baseline_median_s: float
    fresh_median_s: float
    tolerance_pct: float

    @property
    def change_pct(self) -> float:
        """Relative median change in percent (positive = slower)."""
        if self.baseline_median_s == 0:
            return float("inf") if self.fresh_median_s > 0 else 0.0
        return 100.0 * (self.fresh_median_s / self.baseline_median_s - 1.0)

    @property
    def regressed(self) -> bool:
        """Whether the fresh median exceeds the tolerated slowdown."""
        return self.change_pct > self.tolerance_pct


@dataclass
class CompareReport:
    """The outcome of one baseline comparison."""

    tolerance_pct: float
    comparisons: List[CaseComparison] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    new_cases: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[CaseComparison]:
        """The comparisons that exceeded the tolerance."""
        return [comparison for comparison in self.comparisons if comparison.regressed]

    def exit_code(self) -> int:
        """The gate's exit code (regressions dominate missing baselines)."""
        if self.regressions:
            return EXIT_REGRESSION
        if self.missing:
            return EXIT_MISSING_BASELINE
        return EXIT_OK

    def render(self) -> str:
        """Human-readable comparison report."""
        lines: List[str] = [
            f"Benchmark comparison (tolerance {self.tolerance_pct:g}% on medians):"
        ]
        for comparison in self.comparisons:
            verdict = "REGRESSED" if comparison.regressed else "ok"
            lines.append(
                f"  {comparison.suite}/{comparison.name}: "
                f"{comparison.baseline_median_s:.4f}s -> "
                f"{comparison.fresh_median_s:.4f}s "
                f"({comparison.change_pct:+.1f}%) {verdict}"
            )
        for message in self.new_cases:
            lines.append(f"  new (no baseline, not gated): {message}")
        for message in self.missing:
            lines.append(f"  missing: {message}")
        verdict = {
            EXIT_OK: "PASS",
            EXIT_REGRESSION: f"FAIL: {len(self.regressions)} regression(s)",
            EXIT_MISSING_BASELINE: "FAIL: missing baseline(s)",
        }[self.exit_code()]
        lines.append(verdict)
        return "\n".join(lines)


def _suites_of(payload: Dict[str, Any], origin: str) -> Dict[str, Dict[str, Any]]:
    """The suite payload of one JSON document, keyed by its suite name."""
    schema = payload.get("schema")
    if schema == SUITE_SCHEMA:
        return {payload["suite"]: payload}
    raise ValueError(
        f"{origin}: not a bench payload (schema {schema!r}; expected {SUITE_SCHEMA!r})"
    )


def load_baseline(path: str) -> Dict[str, Dict[str, Any]]:
    """Load baseline suite payloads from a file or a directory.

    A directory is scanned for ``BENCH_*.json`` files.  A missing path
    returns an empty mapping -- the comparison then reports every suite as
    missing rather than crashing.
    """
    baseline_path = Path(path)
    suites: Dict[str, Dict[str, Any]] = {}
    if baseline_path.is_dir():
        for file in sorted(baseline_path.glob("BENCH_*.json")):
            payload = json.loads(file.read_text())
            suites.update(_suites_of(payload, str(file)))
    elif baseline_path.is_file():
        payload = json.loads(baseline_path.read_text())
        suites.update(_suites_of(payload, str(baseline_path)))
    return suites


def compare_payloads(
    fresh: Dict[str, Dict[str, Any]],
    baseline: Dict[str, Dict[str, Any]],
    tolerance_pct: float = 25.0,
) -> CompareReport:
    """Compare fresh suite payloads against baseline ones."""
    if tolerance_pct < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance_pct}")
    report = CompareReport(tolerance_pct=tolerance_pct)
    for suite, fresh_payload in sorted(fresh.items()):
        base_payload = baseline.get(suite)
        if base_payload is None:
            report.missing.append(f"suite {suite!r} has no baseline")
            continue
        if base_payload.get("mode") != fresh_payload.get("mode"):
            report.missing.append(
                f"suite {suite!r}: baseline mode {base_payload.get('mode')!r} "
                f"does not match fresh mode {fresh_payload.get('mode')!r}"
            )
            continue
        base_cases = base_payload.get("cases", {})
        fresh_cases = fresh_payload.get("cases", {})
        for name, fresh_case in sorted(fresh_cases.items()):
            base_case = base_cases.get(name)
            if base_case is None:
                report.new_cases.append(f"{suite}/{name}")
                continue
            report.comparisons.append(
                CaseComparison(
                    suite=suite,
                    name=name,
                    baseline_median_s=float(base_case["stats"]["median_s"]),
                    fresh_median_s=float(fresh_case["stats"]["median_s"]),
                    tolerance_pct=tolerance_pct,
                )
            )
        for name in sorted(set(base_cases) - set(fresh_cases)):
            report.missing.append(
                f"{suite}/{name} is in the baseline but was not run"
            )
    # Baseline suites absent from the fresh run would otherwise fall out of
    # tracking silently (e.g. a suite import accidentally dropped); callers
    # running a deliberate subset filter the baseline first.
    for suite in sorted(set(baseline) - set(fresh)):
        report.missing.append(f"baseline suite {suite!r} was not run")
    return report
