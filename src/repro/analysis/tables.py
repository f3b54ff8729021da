"""Plain-text table rendering for the benchmark harnesses.

Every benchmark prints the rows/series of the paper table or figure it
regenerates; these helpers keep the output format consistent.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_cell(value, width: int = 10, precision: int = 3) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.{precision}f}".rjust(width)
    return str(value).rjust(width)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    precision: int = 3,
    col_width: Optional[int] = None,
) -> str:
    """Render a fixed-width table with a title banner."""
    width = col_width or max(10, max(len(h) for h in headers) + 2)
    lines: List[str] = []
    lines.append("")
    lines.append("=" * (width * len(headers)))
    lines.append(title)
    lines.append("=" * (width * len(headers)))
    lines.append("".join(h.rjust(width) for h in headers))
    lines.append("-" * (width * len(headers)))
    for row in rows:
        lines.append(
            "".join(format_cell(cell, width, precision) for cell in row)
        )
    lines.append("")
    return "\n".join(lines)


def print_table(title, headers, rows, precision: int = 3,
                col_width: Optional[int] = None) -> None:
    print(render_table(title, headers, rows, precision, col_width))


def render_series(title: str, pairs, precision: int = 3) -> str:
    """Render a (label → value) series, one per line."""
    lines = ["", title, "-" * len(title)]
    for label, value in pairs:
        lines.append(f"  {label:<24} {format_cell(value, 10, precision).strip()}")
    lines.append("")
    return "\n".join(lines)
