"""Plain-text table rendering: the experiment tables and the run summaries."""

from __future__ import annotations

__all__ = ["render_table", "format_number"]


def format_number(value, decimals: int = 2) -> str:
    """Render ints exactly, floats with fixed decimals, None as '-'."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if float(value).is_integer() and abs(value) >= 100:
            return str(int(value))
        return f"{value:.{decimals}f}"
    return str(value)


def render_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Render an aligned ASCII table (right-aligned numeric columns)."""
    cells = [[format_number(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
