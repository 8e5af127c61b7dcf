"""Deterministic file writers: band CSVs, fit reports, tables, SVG figures.

All numeric text uses ``repr`` (shortest round-trip form), and nothing here
embeds timestamps or environment details, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import csv
import html
import json

import numpy as np

from .area import ComparisonReport
from .bands import PredictionBand
from .dataset import BivariateDataset
from .quantile import QuantileBreakpointTable


def _fmt(value: float) -> str:
    return repr(float(value))


def _text(value: str) -> str:
    """``value`` as XML text: ``&``, ``<`` and ``>`` escaped."""
    return html.escape(value, quote=False)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2, ensure_ascii=False)
        handle.write("\n")


def write_band_csv(path, band: PredictionBand) -> None:
    """Band as CSV rows (x, center, lower, upper) under one JSON header line."""
    header = {
        "gamma": band.gamma,
        "B": band.meta.get("B"),
        "seed": band.meta.get("seed"),
        "area": band.area,
        "method": band.method,
    }
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("# " + json.dumps(header) + "\n")
        writer = csv.writer(handle)
        writer.writerow(["x", "center", "lower", "upper"])
        for i in range(band.grid_x.size):
            writer.writerow(
                [_fmt(band.grid_x[i]), _fmt(band.center[i]), _fmt(band.lower[i]), _fmt(band.upper[i])]
            )


def write_tau_table_csv(path, table: QuantileBreakpointTable) -> None:
    """Per-tau breakpoint table plus a min/max/coverage summary block."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tau", "alpha1", "alpha2"])
        for tau, a1, a2 in table.rows:
            writer.writerow(
                [_fmt(tau), "" if a1 is None else _fmt(a1), "" if a2 is None else _fmt(a2)]
            )
        writer.writerow(["min", _fmt(table.alpha1_interval[0]), _fmt(table.alpha2_interval[0])])
        writer.writerow(["max", _fmt(table.alpha1_interval[1]), _fmt(table.alpha2_interval[1])])
        writer.writerow(["coverage", table.coverage_label, table.coverage_label])
        if table.partial:
            writer.writerow(["partial", "true", "true"])


def write_comparison_csv(path, report: ComparisonReport) -> None:
    """Width and area tables in one CSV, minima flagged per row."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["table", "row", "method", "lower", "upper", "width_or_area", "is_min"])
        for row in report.interval_rows:
            for method, cells in row["methods"].items():
                writer.writerow(
                    [
                        "widths",
                        row["breakpoint"],
                        method,
                        _fmt(cells["lower"]),
                        _fmt(cells["upper"]),
                        _fmt(cells["width"]),
                        str(method in row["narrowest"]).lower(),
                    ]
                )
        for method, area in report.areas.items():
            writer.writerow(
                ["areas", "band", method, "", "", _fmt(area), str(method in report.smallest_area).lower()]
            )


def write_geometry_csv(path, ds: BivariateDataset, elements) -> None:
    """Raw figure geometry: one row per vertex of every plotted element."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["element", "series", "x", "y"])
        for i in range(ds.n):
            label = ds.labels[i] if ds.labels is not None else ""
            writer.writerow(["point", label, _fmt(ds.xs[i]), _fmt(ds.ys[i])])
        for kind, series, xs, ys in elements:
            for x, y in zip(xs, ys):
                writer.writerow([kind, series, _fmt(x), _fmt(y)])


class _Scale:
    def __init__(self, lo, hi, out_lo, out_hi):
        self.lo, self.hi = float(lo), float(hi)
        span = self.hi - self.lo
        self.span = span if span > 0 else 1.0
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, v):
        frac = (np.asarray(v, dtype=float) - self.lo) / self.span
        return self.out_lo + frac * (self.out_hi - self.out_lo)


def _ticks(lo, hi, count=5):
    if hi <= lo:
        return [lo]
    raw = np.linspace(lo, hi, count)
    return [float(v) for v in raw]


def write_svg_figure(
    path,
    ds: BivariateDataset,
    bands: list[PredictionBand],
    curves=None,
    breakpoint_ticks=None,
) -> None:
    """Scatter plus fitted curve(s) and shaded band(s), emitted as raw SVG.

    ``breakpoint_ticks`` draws solid interval segments along the x axis
    (used for the breakpoint confidence intervals of the piecewise fit).
    No plotting framework, no timestamps: geometry only.  Axis names, point
    labels and curve names are written as escaped XML text.
    """
    width, height = 800.0, 600.0
    margin = 70.0
    curves = curves or []

    all_y = [ds.ys]
    for band in bands:
        all_y.extend([band.lower, band.upper, band.center])
    for _, _, ys in curves:
        all_y.append(np.asarray(ys, dtype=float))
    ymin = min(float(np.min(a)) for a in all_y)
    ymax = max(float(np.max(a)) for a in all_y)
    pad = 0.05 * (ymax - ymin if ymax > ymin else 1.0)
    sx = _Scale(ds.xs[0], ds.xs[-1], margin, width - margin)
    sy = _Scale(ymin - pad, ymax + pad, height - margin, margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    band_fills = ["#9ecae1", "#c6dbef", "#deebf7"]
    for k, band in enumerate(bands):
        xs_fwd = list(zip(sx(band.grid_x), sy(band.upper)))
        xs_rev = list(zip(sx(band.grid_x[::-1]), sy(band.lower[::-1])))
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in xs_fwd + xs_rev)
        fill = band_fills[min(k, len(band_fills) - 1)]
        parts.append(f'<polygon points="{points}" fill="{fill}" fill-opacity="0.55" stroke="none"/>')
    palette = ["#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    for k, band in enumerate(bands):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx(band.grid_x), sy(band.center)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="2"/>')
        for env in (band.lower, band.upper):
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx(band.grid_x), sy(env)))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1" stroke-dasharray="4,3"/>')
    for k, (name, xs, ys) in enumerate(curves):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx(xs), sy(ys)))
        color = palette[k % len(palette)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"><title>{_text(name)}</title></polyline>')
    point_palette = ["#333333", "#e07b39", "#5a7d2a", "#7a4fa3", "#b03a5b"]
    label_colors = {}
    if ds.labels is not None:
        for lab in ds.labels:
            if lab not in label_colors:
                label_colors[lab] = point_palette[len(label_colors) % len(point_palette)]
    for i in range(ds.n):
        color = label_colors[ds.labels[i]] if ds.labels is not None else point_palette[0]
        title = f"<title>{_text(ds.labels[i])}</title>" if ds.labels is not None else ""
        parts.append(
            f'<circle cx="{float(sx(ds.xs[i])):.2f}" cy="{float(sy(ds.ys[i])):.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.8">{title}</circle>'
            if title
            else f'<circle cx="{float(sx(ds.xs[i])):.2f}" cy="{float(sy(ds.ys[i])):.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
    axis_y = height - margin
    if breakpoint_ticks:
        for lo, hi in breakpoint_ticks:
            lo = max(lo, float(ds.xs[0]))
            hi = min(hi, float(ds.xs[-1]))
            parts.append(
                f'<line x1="{float(sx(lo)):.2f}" y1="{axis_y + 14:.2f}" '
                f'x2="{float(sx(hi)):.2f}" y2="{axis_y + 14:.2f}" stroke="black" stroke-width="3"/>'
            )
    # axes and tick labels
    parts.append(f'<line x1="{margin:g}" y1="{axis_y:g}" x2="{width - margin:g}" y2="{axis_y:g}" stroke="black"/>')
    parts.append(f'<line x1="{margin:g}" y1="{margin:g}" x2="{margin:g}" y2="{axis_y:g}" stroke="black"/>')
    for v in _ticks(float(ds.xs[0]), float(ds.xs[-1])):
        x = float(sx(v))
        parts.append(f'<line x1="{x:.2f}" y1="{axis_y:g}" x2="{x:.2f}" y2="{axis_y + 6:g}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{axis_y + 30:g}" font-size="12" text-anchor="middle">{v:.3g}</text>')
    for v in _ticks(ymin - pad, ymax + pad):
        y = float(sy(v))
        parts.append(f'<line x1="{margin - 6:g}" y1="{y:.2f}" x2="{margin:g}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 10:g}" y="{y + 4:.2f}" font-size="12" text-anchor="end">{v:.4g}</text>')
    parts.append(
        f'<text x="{width / 2:g}" y="{height - 12:g}" font-size="14" text-anchor="middle">{_text(ds.x_name)}</text>'
    )
    parts.append(
        f'<text x="18" y="{height / 2:g}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {height / 2:g})">{_text(ds.y_name)}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")
