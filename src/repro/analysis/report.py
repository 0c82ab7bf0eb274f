"""Plain-text rendering of tables, bar charts and reproduced figures.

``repro figures`` and the benchmark harness print every figure's data
through :func:`format_figure` (an ASCII table plus its summary
scalars); examples add a horizontal bar chart where it helps -- the
same series the paper plots, readable in a terminal or CI log.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width table."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(v) for v in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]

    def line(row: Sequence[str]) -> str:
        return "  ".join(v.rjust(w) for v, w in zip(row, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(cells[0]))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(r) for r in cells[1:])
    return "\n".join(out)


def format_figure(data) -> str:
    """Render one :class:`~repro.sim.experiments.FigureData`: a title
    line, its table and one indented line per summary scalar, floats
    to four decimals."""

    def fixed(value: object) -> str:
        return f"{value:.4f}" if isinstance(value, float) else str(value)

    lines = [
        f"== {data.figure}: {data.description} ==",
        format_table(data.headers, [[fixed(v) for v in row] for row in data.rows]),
    ]
    lines.extend(f"  {key}: {fixed(value)}" for key, value in data.summary.items())
    return "\n".join(lines)


def format_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    title: str | None = None,
    width: int = 40,
    fmt: str = "{:6.2%}",
) -> str:
    """Render values as horizontal ASCII bars (scaled to the max)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    peak = max((abs(v) for v in values), default=0.0) or 1.0
    label_w = max((len(l) for l in labels), default=0)
    out = []
    if title:
        out.append(title)
    for label, value in zip(labels, values):
        bar = "#" * max(0, round(abs(value) / peak * width))
        out.append(f"{label.rjust(label_w)}  {fmt.format(value)}  {bar}")
    return "\n".join(out)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
