"""The findings model of the static-analysis pass.

A :class:`Finding` is one rule violation at one source location.  Findings are
value objects: rules yield them, the runner sorts and deduplicates them, the
CLI renders them as ``path:line: RULE message`` lines or as the
``hex-repro/check-findings/v1`` JSON document the CI gate archives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

__all__ = ["SEVERITIES", "Finding"]

#: Recognised severities.  Both fail the gate; ``warning`` marks rules whose
#: static approximation can over-trigger and whose findings are therefore
#: expected to be waived (with a reason) more often than fixed.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        The rule id (``"L001"``, ``"D002"``, ...).
    severity:
        ``"error"`` or ``"warning"`` (both fail the gate).
    path:
        Path of the offending file, relative to the scanned package root
        (POSIX separators, e.g. ``"simulation/network.py"``).
    line:
        1-based line number of the violation.
    message:
        Human-readable description, actionable enough to fix or waive.
    waived:
        Whether an inline waiver with a reason covers this finding.  Waived
        findings never fail the gate; they ride along in ``--json`` output so
        the waiver inventory stays visible.
    waiver_reason:
        The reason string of the covering waiver (empty when not waived).
    """

    rule: str
    severity: str
    path: str
    line: int
    message: str
    waived: bool = field(default=False, compare=False)
    waiver_reason: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of {SEVERITIES}"
            )
        if self.line < 1:
            raise ValueError(f"line numbers are 1-based, got {self.line}")

    def sort_key(self) -> Tuple[str, int, str]:
        """Stable presentation order: by file, then line, then rule id."""
        return (self.path, self.line, self.rule)

    def format(self) -> str:
        """One-line rendering, editor-clickable: ``path:line: RULE message``."""
        suffix = f"  [waived: {self.waiver_reason}]" if self.waived else ""
        return f"{self.path}:{self.line}: {self.rule} {self.message}{suffix}"

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (the ``--json`` document items)."""
        payload: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
        if self.waived:
            payload["waived"] = True
            payload["waiver_reason"] = self.waiver_reason
        return payload
