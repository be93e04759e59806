"""Plain-text rendering helpers for experiment output.

Every experiment renders its result as the same kind of artifact the paper
prints: a small table of rows, or a series of (x, y) points.  These helpers
keep that rendering consistent across the 20+ experiment modules and the
CLI, and avoid any dependency on plotting libraries (the environment is
offline; the *numbers* are the deliverable).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["format_table", "format_series"]


def _cell(value: object, float_digits: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    float_digits: int = 3,
) -> str:
    """Render an aligned monospace table.

    Floats are formatted with ``float_digits`` decimals; all other values via
    ``str``.  Returns the table as a single string (no trailing newline).
    """
    rendered = [[_cell(v, float_digits) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    name: str,
    points: Iterable[tuple[object, object]],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render a named (x, y) series, one point per line, floats to three
    decimals."""
    return format_table([x_label, y_label], list(points), title=name)
