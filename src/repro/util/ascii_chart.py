"""Plain-text chart rendering for figure reproduction without matplotlib.

The offline environment has no plotting stack, so every "figure" experiment
renders (a) a CSV-able series and (b) an ASCII chart good enough to read the
shape (linear vs superlinear, crossover points).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["line_chart", "render_table", "log_log_chart"]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a monospace table with right-aligned columns.

    >>> print(render_table(["k", "latency"], [[8, 41], [16, 90]]))
     k  latency
     8       41
    16       90
    """
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {columns}")
    texts = [[str(h) for h in headers]]
    for row in rows:
        texts.append([f"{v:.4g}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(line[i]) for line in texts) for i in range(columns)]
    lines = []
    for line in texts:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(lines)


def line_chart(
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    *,
    width: int = 72,
    height: int = 18,
    title: str = "",
) -> str:
    """Render one or more y-series against shared x-values as ASCII art.

    Each series gets a distinct marker character.  Points are binned into a
    ``width x height`` grid; the y-axis is annotated with min/max values.
    """
    if not xs:
        raise ValueError("line_chart needs at least one x value")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} has {len(ys)} points, expected {len(xs)}")
    markers = "*o+x#@%&"
    x_min, x_max = min(xs), max(xs)
    all_y = [y for ys in series.values() for y in ys if math.isfinite(y)]
    if not all_y:
        raise ValueError("no finite y values to plot")
    y_min, y_max = min(all_y), max(all_y)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (name, ys) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            if not math.isfinite(y):
                continue
            col = round((x - x_min) / (x_max - x_min) * (width - 1))
            row = round((y - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][col] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_max:.4g}".rjust(10) + " +" + "-" * width)
    for row in grid:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{y_min:.4g}".rjust(10) + " +" + "-" * width)
    lines.append(" " * 12 + f"{x_min:.4g}".ljust(width // 2) + f"{x_max:.4g}".rjust(width // 2))
    legend = "   ".join(
        f"{markers[i % len(markers)]} = {name}" for i, name in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def log_log_chart(
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    *,
    width: int = 72,
    height: int = 18,
    title: str = "",
) -> str:
    """Render a log-log ASCII chart (both axes log2-transformed).

    Non-positive values are dropped per-point; useful for scaling-law reads
    where a straight line means a power law.
    """
    log_xs: list[float] = []
    log_series: dict[str, list[float]] = {name: [] for name in series}
    for i, x in enumerate(xs):
        if x <= 0:
            continue
        log_xs.append(math.log2(x))
        for name, ys in series.items():
            y = ys[i]
            log_series[name].append(math.log2(y) if y > 0 else math.nan)
    return line_chart(
        log_xs,
        {name: ys for name, ys in log_series.items()},
        width=width,
        height=height,
        title=(title + "  [log2-log2]") if title else "[log2-log2]",
    )
