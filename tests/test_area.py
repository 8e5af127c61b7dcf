import numpy as np
import pytest

from breakline.area import (
    AreaError,
    MethodIntervals,
    band_area,
    band_area_exact,
    compare_methods,
    compute_area,
)
from breakline.bands import PredictionBand


def _band(xs, lower, upper, gamma=0.8, method=""):
    xs = np.asarray(xs, dtype=float)
    return PredictionBand(
        grid_x=xs,
        center=(np.asarray(lower) + np.asarray(upper)) / 2.0,
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        gamma=gamma,
        method=method,
    )


def _rect_band(area_value, gamma=0.8, method=""):
    return _band([0.0, 1.0], [0.0, 0.0], [area_value, area_value], gamma, method)


def test_rectangle_exact():
    band = _band([0.0, 2.0], [0.0, 0.0], [1.0, 1.0])
    assert band_area(band) == pytest.approx(2.0, abs=1e-12)
    assert band_area_exact(band) == pytest.approx(2.0, abs=1e-12)


def test_triangle_exact():
    band = _band([0.0, 1.0], [0.0, 0.0], [0.0, 1.0])
    assert band_area(band) == pytest.approx(0.5, abs=1e-15)
    assert band_area_exact(band) == pytest.approx(0.5, abs=1e-15)


def test_crossed_interval_contributes_zero():
    # envelopes cross at x = 0.5; the crossed half contributes nothing
    band = _band([0.0, 1.0], [0.0, 1.0], [0.5, 0.5])
    expected = 0.5 * 0.5 * 0.5  # triangle on [0, 0.5] with height 0.5
    assert band_area_exact(band) == pytest.approx(expected, abs=1e-15)
    assert band_area(band) == pytest.approx(expected, abs=1e-15)
    fully_crossed = _band([0.0, 1.0], [1.0, 1.0], [0.0, 0.0])
    assert band_area_exact(fully_crossed) == 0.0
    assert band_area(fully_crossed) == 0.0


def test_knot_aligned_grid_is_exact():
    xs = [0.0, 0.25, 0.5, 1.0]
    band = _band(xs, [0.0, 0.1, 0.0, 0.2], [1.0, 0.6, 0.9, 0.4])
    exact = band_area_exact(band)
    assert band_area(band) == pytest.approx(exact, abs=1e-12)


def test_additivity_on_aligned_split():
    xs = np.linspace(0.0, 2.0, 9)
    rng = np.random.default_rng(1)
    lower = rng.normal(size=9)
    upper = lower + rng.uniform(0.5, 1.5, size=9)
    whole = _band(xs, lower, upper)
    left = _band(xs[:5], lower[:5], upper[:5])
    right = _band(xs[4:], lower[4:], upper[4:])
    assert band_area_exact(whole) == pytest.approx(
        band_area_exact(left) + band_area_exact(right), abs=1e-12
    )
    assert band_area(whole) == pytest.approx(band_area(left) + band_area(right), abs=1e-12)


def test_matches_exact_on_random_bands():
    rng = np.random.default_rng(3)
    for k in range(20):
        n = int(rng.integers(5, 60))
        xs = np.sort(rng.uniform(0, 1, n))
        if k % 2:  # repeated x values, where the band jumps
            xs[1::2] = xs[::2][: n // 2]
        xs[0], xs[-1] = 0.0, 1.0
        lower = rng.normal(size=n)
        upper = lower + rng.uniform(-0.2, 2.0, size=n)
        band = _band(xs, lower, upper)
        exact = band_area_exact(band)
        assert band_area(band) == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_nonnegative_always():
    rng = np.random.default_rng(9)
    for _ in range(20):
        xs = np.sort(rng.uniform(0, 1, 10))
        lower = rng.normal(size=10)
        upper = rng.normal(size=10)  # may cross anywhere
        band = _band(xs, lower, upper)
        assert band_area_exact(band) >= 0.0
        assert band_area(band) >= 0.0


def test_degenerate_range_warns_zero():
    band = _band([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.warns(UserWarning, match="degenerate"):
        assert band_area(band) == 0.0
    with pytest.raises(AreaError, match="2 grid points"):
        band_area(_band([0.0], [0.0], [1.0]))


def test_compute_area_stores_value():
    band = _band([0.0, 2.0], [0.0, 0.0], [1.0, 1.0])
    value = compute_area(band)
    assert band.area == value == pytest.approx(2.0)


def test_compare_refuses_mixed_gamma():
    bands = {"BL": _rect_band(1.0, gamma=0.8), "PLRM": _rect_band(2.0, gamma=0.95)}
    with pytest.raises(AreaError, match="gamma"):
        compare_methods(bands, [])


def test_compare_refuses_mixed_coverage():
    bands = {"PLRM": _rect_band(1.0), "PQRM": _rect_band(2.0)}
    intervals = [
        MethodIntervals("PLRM", "80%", (0.0, 1.0), (0.0, 1.0)),
        MethodIntervals("PQRM", "95%", (0.0, 1.0), (0.0, 1.0)),
    ]
    with pytest.raises(AreaError, match="coverage"):
        compare_methods(bands, intervals)


def test_compare_identical_bands_tie():
    bands = {"BL": _rect_band(1.0, method="BL"), "PLRM": _rect_band(1.0, method="PLRM")}
    report = compare_methods(bands, [])
    assert sorted(report.smallest_area) == ["BL", "PLRM"]
    assert report.area_ratios["BL"] == pytest.approx(1.0)
    assert report.to_jsonable()["area_ratio_percents"]["BL"] == "100.00%"


def test_compare_published_style_areas_fish():
    bands = {
        "BL": _rect_band(12.479),
        "PLRM": _rect_band(17.240),
        "PQRM": _rect_band(12.438),
    }
    report = compare_methods(bands, [])
    assert report.smallest_area == ["PQRM"]
    out = report.to_jsonable()
    assert out["area_ratio_percents"]["PQRM"] == "72.15%"
    assert out["area_ratio_percents"]["BL"] == "72.38%"


def test_compare_published_style_areas_lakes():
    bands = {
        "BL": _rect_band(3.456),
        "PLRM": _rect_band(3.956),
        "PQRM": _rect_band(2.951),
    }
    report = compare_methods(bands, [])
    assert report.smallest_area == ["PQRM"]
    out = report.to_jsonable()
    assert out["area_ratio_percents"]["PQRM"] == "74.60%"
    assert out["area_ratio_percents"]["BL"] == "87.36%"


def test_compare_published_style_widths():
    bands = {"PLRM": _rect_band(1.0), "PQRM": _rect_band(0.9)}
    intervals = [
        MethodIntervals("PLRM", "80%", (0.220, 0.306), (0.426, 0.550)),
        MethodIntervals("PQRM", "80%", (0.233, 0.284), (0.448, 0.564)),
    ]
    report = compare_methods(bands, intervals)
    rows = {row["breakpoint"]: row for row in report.interval_rows}
    assert rows["alpha1"]["narrowest"] == ["PQRM"]
    assert rows["alpha2"]["narrowest"] == ["PQRM"]
    assert rows["alpha1"]["methods"]["PQRM"]["width"] == pytest.approx(0.051)
    assert rows["alpha2"]["methods"]["PLRM"]["width"] == pytest.approx(0.124)
    out = report.to_jsonable()
    assert out["width_ratio_percents"]["alpha1"]["PQRM"] == "59.30%"
    assert out["width_ratio_percents"]["alpha2"]["PQRM"] == "93.55%"


def test_compare_published_style_widths_lakes():
    bands = {"PLRM": _rect_band(1.0), "PQRM": _rect_band(0.9)}
    intervals = [
        MethodIntervals("PLRM", "80%", (1.091, 1.334), (1.489, 1.758)),
        MethodIntervals("PQRM", "80%", (1.066, 1.230), (1.585, 1.662)),
    ]
    report = compare_methods(bands, intervals)
    out = report.to_jsonable()
    assert out["width_ratio_percents"]["alpha1"]["PQRM"] == "67.49%"
    # 0.077 / 0.269 = 28.6245...%; a report built from the rounded interval
    # endpoints lands on 28.62%
    assert out["width_ratio_percents"]["alpha2"]["PQRM"] == "28.62%"
