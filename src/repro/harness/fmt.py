"""Plain-text table and series formatting for experiment reports."""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> List[str]:
    """Render rows as an aligned text table (list of lines)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i]) if i else
                               cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return lines


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def format_speedups(series: Dict[str, Dict[int, float]],
                    procs: Sequence[int]) -> List[str]:
    """Render one speedup line per machine over processor counts."""
    headers = ["machine"] + [f"p={p}" for p in procs]
    rows = []
    for name, points in series.items():
        rows.append([name] + [points.get(p, float("nan")) for p in procs])
    return format_table(headers, rows)

