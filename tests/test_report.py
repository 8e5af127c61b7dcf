import csv
import json

import numpy as np

from breakline.bands import PredictionBand
from breakline.dataset import BivariateDataset
from breakline.quantile import QuantileBreakpointTable
from breakline.report import (
    write_band_csv,
    write_geometry_csv,
    write_svg_figure,
    write_tau_table_csv,
)


def _band():
    xs = np.linspace(0, 1, 5)
    return PredictionBand(
        grid_x=xs,
        center=xs * 2,
        lower=xs * 2 - 1,
        upper=xs * 2 + 1,
        gamma=0.8,
        method="BL",
        area=2.0,
        meta={"B": 100, "seed": 7},
    )


def test_band_csv_round_trip(tmp_path):
    band = _band()
    path = tmp_path / "band.csv"
    write_band_csv(path, band)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0].lstrip("# "))
    assert header == {"gamma": 0.8, "B": 100, "seed": 7, "area": 2.0, "method": "BL"}
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 5
    got = np.array([float(r["lower"]) for r in rows])
    assert np.array_equal(got, band.lower)  # repr round-trips exactly


def test_band_csv_deterministic(tmp_path):
    band = _band()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_band_csv(a, band)
    write_band_csv(b, band)
    assert a.read_bytes() == b.read_bytes()


def test_tau_table_csv(tmp_path):
    table = QuantileBreakpointTable(
        rows=[(0.1, 0.2, 0.5), (0.5, 0.25, 0.55), (0.9, None, None)],
        alpha1_interval=(0.2, 0.25),
        alpha2_interval=(0.5, 0.55),
        coverage=0.8,
        partial=True,
        failed_taus=(0.9,),
    )
    path = tmp_path / "taus.csv"
    write_tau_table_csv(path, table)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,alpha1,alpha2"
    assert lines[3] == "0.9,,"
    assert any(line.startswith("min,") for line in lines)
    assert any(line.startswith("coverage,80%") for line in lines)
    assert lines[-1] == "partial,true,true"


def test_svg_and_geometry(tmp_path):
    ds = BivariateDataset.from_arrays(np.linspace(0, 1, 5), np.arange(5.0), labels=list("aabbb"))
    band = _band()
    svg = tmp_path / "fig.svg"
    write_svg_figure(svg, ds, [band], curves=[("extra", ds.xs, ds.ys * 0.5)], breakpoint_ticks=[(0.2, 0.4)])
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "<polygon" in text and "<polyline" in text and "<circle" in text
    geom = tmp_path / "geom.csv"
    write_geometry_csv(
        geom,
        ds,
        [("center", "BL", band.grid_x, band.center)],
    )
    rows = list(csv.DictReader(geom.read_text().splitlines()))
    assert len(rows) == 5 + 5  # points + one curve
    assert {r["element"] for r in rows} == {"point", "center"}
