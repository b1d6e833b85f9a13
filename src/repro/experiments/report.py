"""Plain-text rendering of experiment results.

The benchmark harness and the CLI print each table/figure as aligned text:
measured rows next to the paper's values where available, so "who wins, by
roughly what factor, where crossovers fall" can be checked at a glance without
any plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence

__all__ = ["format_table", "format_kv"]


def _format_cell(value: object, precision: int) -> str:
    if isinstance(value, float):
        if value != value:  # nan
            return "nan"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 3,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned monospace table."""
    materialized = [[_format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(header).ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in materialized:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_kv(values: Mapping[str, object], precision: int = 3, title: Optional[str] = None) -> str:
    """Render a flat key/value mapping."""
    rows = [[key, value] for key, value in values.items()]
    return format_table(["key", "value"], rows, precision=precision, title=title)
