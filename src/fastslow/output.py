"""Deterministic CSV and SVG emission.

CSV: one header line, one row per index, floats at 17 significant digits so
every value re-parses exactly; optional footer rows (name, value) after the
data block.  SVG: a single self-contained scatter/line chart, hand-rolled so
identical inputs give identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

__all__ = ["format_value", "emit_csv", "emit_svg"]


def format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _check_columns(series: dict):
    lengths = {len(v) for v in series.values()}
    if len(lengths) > 1:
        raise ShapeError(f"ragged columns: lengths {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def emit_csv(series: dict, path, footer=()) -> None:
    """Write named columns as CSV; ``footer`` is an iterable of (name, value)."""
    n = _check_columns(series)
    lines = [",".join(series.keys())]
    cols = list(series.values())
    for i in range(n):
        lines.append(",".join(format_value(col[i]) for col in cols))
    for name, value in footer:
        lines.append(f"{name},{format_value(value)}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _ticks(lo, hi, log):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, hi_e + 1)]
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * abs(span):
        out.append(t)
        t += step
    return out


def emit_svg(series: dict, path, x_column=None, log_log=False) -> None:
    """One chart: the first column (or ``x_column``) against the rest.

    Only the points whose x and y are both finite are drawn; a chart without
    one raises ``ShapeError``.  ``log_log=True`` requires strictly positive
    data and draws both axes logarithmically.
    """
    n = _check_columns(series)
    if n == 0 or len(series) < 2:
        raise ShapeError("an SVG chart needs at least one x and one y column")
    names = list(series.keys())
    x_name = x_column if x_column is not None else names[0]
    if x_name not in series:
        raise ShapeError(f"unknown x column {x_name!r}")
    y_names = [k for k in names if k != x_name]
    x = np.asarray(series[x_name], dtype=float)
    points = {}
    for k in y_names:
        y = np.asarray(series[k], dtype=float)
        finite = np.isfinite(x) & np.isfinite(y)
        points[k] = (x[finite], y[finite])
    all_x = np.concatenate([a for a, _ in points.values()])
    all_y = np.concatenate([b for _, b in points.values()])
    if all_x.size == 0:
        raise ShapeError("an SVG chart needs at least one finite point")

    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 20, 50
    if log_log:
        if np.min(all_x) <= 0 or np.min(all_y) <= 0:
            raise ShapeError("log-log chart requires positive data")
        points = {k: (np.log10(a), np.log10(b)) for k, (a, b) in points.items()}
        all_x, all_y = np.log10(all_x), np.log10(all_y)
    x_lo, x_hi = float(np.min(all_x)), float(np.max(all_x))
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(v):
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    x_ticks = _ticks(*( (10.0**x_lo, 10.0**x_hi) if log_log else (x_lo, x_hi) ), log_log)
    for t in x_ticks:
        tv = math.log10(t) if log_log else t
        if tv < x_lo - 1e-12 or tv > x_hi + 1e-12:
            continue
        px = sx(tv)
        parts.append(
            f'<line x1="{px:.2f}" y1="{height - mb}" x2="{px:.2f}" y2="{height - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{height - mb + 18}" font-size="11" text-anchor="middle">{t:.3g}</text>'
        )
    y_ticks = _ticks(*( (10.0**y_lo, 10.0**y_hi) if log_log else (y_lo, y_hi) ), log_log)
    for t in y_ticks:
        tv = math.log10(t) if log_log else t
        if tv < y_lo - 1e-12 or tv > y_hi + 1e-12:
            continue
        py = sy(tv)
        parts.append(
            f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2}" y="{height - 10}" font-size="13" '
        f'text-anchor="middle">{x_name}</text>'
    )
    label = ", ".join(y_names)
    parts.append(
        f'<text x="15" y="{(mt + height - mb) / 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 15 {(mt + height - mb) / 2})">{label}</text>'
    )
    for idx, name in enumerate(y_names):
        color = colors[idx % len(colors)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(*points[name]))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for a, b in zip(*points[name]):
            parts.append(
                f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{width - mr - 5}" y="{mt + 15 * (idx + 1)}" font-size="12" '
            f'text-anchor="end" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
