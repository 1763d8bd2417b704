"""Plain-text table rendering and CSV export for benchmark output."""

from __future__ import annotations

import io
from typing import Iterable, Optional, Sequence, Union

Cell = Union[str, int, float]


def format_cell(value: Cell, precision: int = 3) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and (abs(value) < 10 ** (-precision) or abs(value) >= 1e6):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render an aligned monospace table."""
    str_rows = [[format_cell(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    out.write(" | ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n")
    out.write(sep + "\n")
    for row in str_rows:
        out.write(" | ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")
    return out.getvalue()


def csv_lines(headers: Sequence[str], rows: Iterable[Sequence[Cell]]) -> str:
    """Minimal CSV (no quoting needed for our identifiers/numbers)."""
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(format_cell(c, 9) for c in row))
    return "\n".join(lines) + "\n"
