"""Surface area of prediction bands and method-comparison reports.

The band envelopes are piecewise linear between their sampled x values, so
the area between them has a closed form: per interval, the trapezoid of the
height ``upper - lower`` where it stays nonnegative, nothing where it stays
nonpositive, and the positive triangle where the envelopes cross.
:func:`band_area` computes it for all intervals at once;
:func:`band_area_exact` is the same integral as a plain loop, kept as an
independent oracle for tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bands import PredictionBand


class AreaError(ValueError):
    """A band too short to have an area, or incomparable inputs."""


def band_area(band: PredictionBand) -> float:
    """Exact area between the band envelopes.

    The height ``upper - lower`` is linear between grid points and clamped
    at zero where the envelopes cross.  A band with a degenerate x range has
    zero area (with a warning).
    """
    if band.grid_x.size < 2:
        raise AreaError("band needs at least 2 grid points")
    x = band.grid_x
    if x[-1] <= x[0]:
        warnings.warn("band x-range is degenerate; area is 0", stacklevel=2)
        return 0.0
    d = band.upper - band.lower
    d0, d1 = d[:-1], d[1:]
    p0, p1 = np.maximum(d0, 0.0), np.maximum(d1, 0.0)
    crossed = (np.minimum(d0, d1) < 0.0) & (np.maximum(d0, d1) > 0.0)
    # twice the mean clamped height of each interval: p0 + p1, unless the
    # envelopes cross inside it and only the positive triangle counts
    heights = np.divide(p0 * p0 + p1 * p1, np.abs(d0 - d1), out=p0 + p1, where=crossed)
    return float(heights @ np.diff(x)) / 2.0


def band_area_exact(band: PredictionBand) -> float:
    """Exact area of the clamped piecewise-linear height function.

    Splits every interval at the zero crossing of ``upper - lower`` so that
    crossed sub-intervals contribute exactly their positive part.
    """
    if band.grid_x.size < 2:
        raise AreaError("band needs at least 2 grid points")
    x = band.grid_x
    d = band.upper - band.lower
    total = 0.0
    for k in range(x.size - 1):
        w = x[k + 1] - x[k]
        if w <= 0.0:
            continue
        d0, d1 = d[k], d[k + 1]
        if d0 >= 0.0 and d1 >= 0.0:
            total += 0.5 * (d0 + d1) * w
        elif d0 <= 0.0 and d1 <= 0.0:
            continue
        else:
            cross = d0 / (d0 - d1)  # in (0, 1)
            if d0 > 0.0:
                total += 0.5 * d0 * cross * w
            else:
                total += 0.5 * d1 * (1.0 - cross) * w
    return float(total)


def compute_area(band: PredictionBand) -> float:
    """Compute the band's area, store it on the band, and return it."""
    value = band_area(band)
    band.area = value
    return value


@dataclass(frozen=True)
class MethodIntervals:
    """Labeled breakpoint intervals from one method, for comparison tables."""

    method: str
    coverage_label: str
    alpha1: tuple[float, float]
    alpha2: tuple[float, float]


@dataclass
class ComparisonReport:
    """Width and area comparison across methods.

    ``interval_rows`` has one row per breakpoint with per-method lower,
    upper, and width, plus the narrowest method(s); ``areas`` maps method to
    band area with the smallest flagged.  Ratios are quoted against the
    reference method (PLRM when present) as fractions and percent strings.
    """

    gamma: float
    coverage_label: str
    interval_rows: list[dict]
    areas: dict[str, float]
    smallest_area: list[str]
    width_ratios: dict[str, dict[str, float]]
    area_ratios: dict[str, float]
    reference: str

    def to_jsonable(self) -> dict:
        return {
            "gamma": self.gamma,
            "coverage_label": self.coverage_label,
            "reference": self.reference,
            "interval_rows": self.interval_rows,
            "areas": self.areas,
            "smallest_area": self.smallest_area,
            "width_ratios": self.width_ratios,
            "width_ratio_percents": {
                bp: {m: _percent(v) for m, v in row.items()}
                for bp, row in self.width_ratios.items()
            },
            "area_ratios": self.area_ratios,
            "area_ratio_percents": {m: _percent(v) for m, v in self.area_ratios.items()},
        }


def _percent(fraction: float) -> str:
    return f"{100.0 * fraction:.2f}%"


def _flag_minima(values: Mapping[str, float]) -> list[str]:
    smallest = min(values.values())
    return [m for m, v in values.items() if math.isclose(v, smallest, rel_tol=0.0, abs_tol=1e-12)]


def compare_methods(
    bands: Mapping[str, PredictionBand],
    intervals: Sequence[MethodIntervals],
) -> ComparisonReport:
    """Build the comparison tables: interval widths and band surface areas.

    All bands must share one confidence coefficient and all interval sets one
    coverage label; mixing levels is refused.  Per breakpoint and for the
    areas, the minimum is flagged (ties flag every tied method).
    """
    if not bands:
        raise AreaError("no bands to compare")
    gammas = {round(b.gamma, 9) for b in bands.values()}
    if len(gammas) != 1:
        raise AreaError(f"bands disagree on gamma: {sorted(gammas)}")
    gamma = float(next(iter(gammas)))
    coverage = ""
    if intervals:
        labels = {iv.coverage_label for iv in intervals}
        if len(labels) != 1:
            raise AreaError(f"interval sets disagree on coverage: {sorted(labels)}")
        coverage = next(iter(labels))

    areas = {m: compute_area(b) for m, b in bands.items()}
    reference = "PLRM" if "PLRM" in bands or any(iv.method == "PLRM" for iv in intervals) else next(iter(bands))

    interval_rows = []
    width_ratios: dict[str, dict[str, float]] = {}
    for bp in ("alpha1", "alpha2"):
        per_method = {}
        for iv in intervals:
            lo, hi = getattr(iv, bp)
            per_method[iv.method] = {"lower": lo, "upper": hi, "width": hi - lo}
        if not per_method:
            continue
        widths = {m: row["width"] for m, row in per_method.items()}
        row = {
            "breakpoint": bp,
            "methods": per_method,
            "narrowest": _flag_minima(widths),
        }
        interval_rows.append(row)
        if reference in widths and widths[reference] > 0.0:
            width_ratios[bp] = {
                m: widths[m] / widths[reference] for m in widths if m != reference
            }

    area_ratios = {}
    if reference in areas and areas[reference] > 0.0:
        area_ratios = {m: areas[m] / areas[reference] for m in areas if m != reference}

    return ComparisonReport(
        gamma=gamma,
        coverage_label=coverage,
        interval_rows=interval_rows,
        areas=areas,
        smallest_area=_flag_minima(areas),
        width_ratios=width_ratios,
        area_ratios=area_ratios,
        reference=reference,
    )
