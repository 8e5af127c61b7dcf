import math

import numpy as np
import pytest

from breakline.dataset import (
    BivariateDataset,
    DataError,
    TransformSpec,
    load_dataset,
    summarize,
    write_dataset_csv,
)


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_identity_sorted(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["stress", "ibi"], [[1.0, 3.0], [0.0, 2.0]])
    ds = load_dataset(p, "stress", "ibi")
    assert ds.n == 2
    assert np.array_equal(ds.xs, [0.0, 1.0])
    assert np.array_equal(ds.ys, [2.0, 3.0])
    assert ds.x_name == "stress"


def test_affine_transform_matches_direct_evaluation(tmp_path):
    # oracle: direct evaluation of a + b*x at the raw score -1.5634
    a, b, raw = 0.341774, 0.196037, -1.5634
    expected = a + b * raw
    assert round(expected, 6) == 0.035290

    p = tmp_path / "d.csv"
    _write_csv(p, ["raw", "y"], [[raw, 1.0], [0.5, 2.0]])
    ds = load_dataset(p, "raw", "y", x_transform=TransformSpec(kind="affine", a=a, b=b))
    assert math.isclose(ds.xs[0], expected, abs_tol=1e-12)


def test_log10_transform_known_pair(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["conc", "biomass"], [[16.293, 1.0], [42.073, 2.0]])
    ds = load_dataset(p, "conc", "biomass", x_transform=TransformSpec(kind="log10"))
    assert round(float(ds.xs[0]), 4) == 1.2120
    assert round(float(ds.xs[1]), 4) == 1.6240


def test_log10_rejects_nonpositive(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["x", "y"], [[0.0, 1.0]])
    with pytest.raises(DataError, match="positive"):
        load_dataset(p, "x", "y", x_transform=TransformSpec(kind="log10"))


def test_missing_column(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["x", "y"], [[1.0, 2.0]])
    with pytest.raises(DataError, match="'z' not found"):
        load_dataset(p, "z", "y")


def test_non_numeric_cell_names_location(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["x", "y"], [[1.0, 2.0], ["oops", 3.0]])
    with pytest.raises(DataError, match="line 3"):
        load_dataset(p, "x", "y")


def test_empty_dataset(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, ["x", "y"], [])
    with pytest.raises(DataError, match="empty"):
        load_dataset(p, "x", "y")


def test_sort_is_stable_and_keeps_pairs():
    xs = [3.0, 1.0, 3.0, 0.0]
    ys = [30.0, 10.0, 31.0, 0.0]
    ds = BivariateDataset.from_arrays(xs, ys, labels=["a", "b", "c", "d"])
    assert np.array_equal(ds.xs, [0.0, 1.0, 3.0, 3.0])
    assert np.array_equal(ds.ys, [0.0, 10.0, 30.0, 31.0])  # tie keeps input order
    assert ds.labels == ("d", "b", "a", "c")
    pairs_in = set(zip(xs, ys))
    pairs_out = set(zip(ds.xs.tolist(), ds.ys.tolist()))
    assert pairs_in == pairs_out


def test_affine_identity_property():
    rng = np.random.default_rng(0)
    values = rng.normal(size=50) * 100
    out = TransformSpec(kind="affine", a=0.0, b=1.0).apply(values)
    assert np.array_equal(out, values)


def test_arrays_are_read_only():
    ds = BivariateDataset.from_arrays([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        ds.xs[0] = 5.0


def test_rejects_non_finite():
    with pytest.raises(DataError):
        BivariateDataset.from_arrays([0.0, np.nan], [1.0, 2.0])


def test_summarize_zero_variance():
    ds = BivariateDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
    row = [r for r in summarize(ds) if r.variable == "y"][0]
    assert row.mean == 1.0
    assert row.ci_lower == pytest.approx(1.0)
    assert row.ci_upper == pytest.approx(1.0)


def test_summarize_two_points_hand_computed():
    # mean 1, s = sqrt(2), s/sqrt(2) = 1, t_{0.975,1} = 12.7062
    ds = BivariateDataset.from_arrays([0.0, 1.0], [0.0, 2.0])
    row = [r for r in summarize(ds) if r.variable == "y"][0]
    assert row.mean == pytest.approx(1.0)
    assert row.ci_lower == pytest.approx(-11.7062, abs=1e-4)
    assert row.ci_upper == pytest.approx(13.7062, abs=1e-4)


def test_summarize_group_structure():
    # layout check: one row pair per group in first-appearance order, then combined
    xs = np.linspace(0, 1, 10)
    ys = np.linspace(10, 20, 10)
    labels = ["north"] * 4 + ["south"] * 6
    ds = BivariateDataset.from_arrays(xs, ys, labels=labels, x_name="stress", y_name="ibi")
    rows = summarize(ds)
    assert [(r.group, r.variable) for r in rows] == [
        ("north", "stress"),
        ("north", "ibi"),
        ("south", "stress"),
        ("south", "ibi"),
        ("combined", "stress"),
        ("combined", "ibi"),
    ]
    combined = rows[-1]
    assert combined.n == 10
    assert combined.ci_lower < combined.mean < combined.ci_upper


def test_summarize_needs_two_points():
    ds = BivariateDataset.from_arrays([1.0], [1.0])
    with pytest.raises(DataError):
        summarize(ds)


def test_csv_round_trip(tmp_path):
    ds = BivariateDataset.from_arrays([0.25, 0.75], [1.5, 2.5], labels=["a", "b"])
    out = tmp_path / "echo.csv"
    write_dataset_csv(out, ds)
    ds2 = load_dataset(out, "x", "y", label_column="label")
    assert np.array_equal(ds2.xs, ds.xs) and np.array_equal(ds2.ys, ds.ys)
    assert ds2.labels == ds.labels
    assert (ds2.x_name, ds2.y_name) == (ds.x_name, ds.y_name)


def test_transform_parse():
    assert TransformSpec.parse("identity") == TransformSpec()
    assert TransformSpec.parse("log10").kind == "log10"
    spec = TransformSpec.parse("affine:0.341774,0.196037")
    assert spec.kind == "affine" and spec.a == 0.341774 and spec.b == 0.196037
    with pytest.raises(DataError):
        TransformSpec.parse("affine:1")
    with pytest.raises(DataError):
        TransformSpec.parse("exp")
