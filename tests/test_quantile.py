import numpy as np
import pytest

from breakline.bands import PredictionBand
from breakline.dataset import BivariateDataset
from breakline.piecewise import SegmentedModel, eval_segmented, fit_segmented
from breakline.quantile import (
    DEFAULT_TAU_GRID,
    QuantileError,
    QuantileSegmentedFit,
    RankDeficiencyError,
    check_loss,
    check_objective,
    fit_quantile_linear,
    fit_segmented_quantile,
    fit_tau_grid,
    pqrm_prediction_band,
    quantile_breakpoint_intervals,
)
from breakline.rng import RngSpec, standard_normal
from breakline.synthetic import quantile_oracle

TRUTH = SegmentedModel(beta=(10.0, 0.0, -5.0, 5.0), alpha=(0.275, 0.625))


def _grid_dataset(n=21, sigma=0.0, seed=0):
    # spacing 0.05 puts the truth breakpoints exactly on candidate midpoints
    xs = np.linspace(0, 1, n)
    ys = eval_segmented(TRUTH, xs)
    if sigma > 0:
        ys = ys + sigma * standard_normal(RngSpec(seed).stream(0), n)
    return BivariateDataset.from_arrays(xs, ys)


def test_check_loss_values():
    assert check_loss(2.0, 0.5) == pytest.approx(1.0)
    assert check_loss(-2.0, 0.5) == pytest.approx(1.0)
    assert check_loss(1.0, 0.9) == pytest.approx(0.9)
    assert check_loss(-1.0, 0.9) == pytest.approx(0.1)
    for tau in (0.1, 0.5, 0.9):
        assert check_loss(0.0, tau) == 0.0
    u = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(check_loss(u, 0.25), [0.75, 0.0, 0.5])
    with pytest.raises(QuantileError):
        check_loss(1.0, 0.0)


def test_check_loss_nonnegative_property():
    rng = np.random.default_rng(0)
    u = rng.normal(size=1000) * 10
    for tau in (0.1, 0.37, 0.5, 0.9):
        values = check_loss(u, tau)
        assert np.all(values >= 0.0)
        assert np.all((values == 0.0) == (u == 0.0))


def test_intercept_median_example():
    """ys = 1..5 at tau 0.5: the median minimizes, objective = sum of
    check losses = 0.5 * (2 + 1 + 0 + 1 + 2) = 3."""
    design = np.ones((5, 1))
    ys = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    beta = fit_quantile_linear(design, ys, 0.5)
    assert beta[0] == pytest.approx(3.0)
    objective = check_objective(ys - design @ beta, 0.5)
    assert objective == pytest.approx(3.0)
    assert objective == pytest.approx(quantile_oracle(design, ys, 0.5))


def test_single_point_interpolates():
    for tau in (0.1, 0.5, 0.9):
        beta = fit_quantile_linear(np.ones((1, 1)), np.array([4.2]), tau)
        assert beta[0] == pytest.approx(4.2)


def test_lp_matches_exhaustive_oracle():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(3, 9))
        p = int(rng.integers(2, 5))
        if p >= n:
            continue
        design = rng.standard_normal((n, p))
        design[:, 0] = 1.0
        ys = rng.standard_normal(n)
        if rng.random() < 0.4:
            ys = np.round(ys, 1)  # exercise ties and degenerate vertices
        tau = float(rng.uniform(0.05, 0.95))
        beta = fit_quantile_linear(design, ys, tau)
        objective = check_objective(ys - design @ beta, tau)
        assert objective == pytest.approx(quantile_oracle(design, ys, tau), abs=1e-9)


def test_residual_sign_counts():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(20, 60))
        design = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        ys = rng.standard_normal(n)
        tau = float(rng.uniform(0.1, 0.9))
        beta = fit_quantile_linear(design, ys, tau)
        r = ys - design @ beta
        ztol = 1e-9 * (1.0 + np.max(np.abs(ys)))
        assert np.sum(r < -ztol) <= n * tau <= np.sum(r <= ztol)


def test_rank_deficiency_rejected():
    design = np.ones((6, 2))  # duplicated column
    with pytest.raises(RankDeficiencyError):
        fit_quantile_linear(design, np.arange(6.0), 0.5)


def test_scale_equivariance():
    ds = _grid_dataset(sigma=0.8, seed=5)
    fit1 = fit_segmented_quantile(ds, 0.5)
    ds10 = BivariateDataset.from_arrays(ds.xs, 10.0 * ds.ys)
    fit10 = fit_segmented_quantile(ds10, 0.5)
    assert fit10.model.alpha == pytest.approx(fit1.model.alpha, abs=1e-9)
    assert np.allclose(fit10.model.beta, 10.0 * np.asarray(fit1.model.beta), rtol=1e-8)
    assert fit10.objective == pytest.approx(10.0 * fit1.objective, rel=1e-9)


def test_noiseless_recovery_every_tau():
    ds = _grid_dataset(sigma=0.0)
    thetas = []
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
        fit = fit_segmented_quantile(ds, tau)
        assert fit.objective == pytest.approx(0.0, abs=1e-12)
        assert fit.status == "optimal"
        thetas.append(fit.model.theta)
    for theta in thetas:
        assert np.max(np.abs(theta - TRUTH.theta)) < 1e-9


def test_default_tau_grid_is_nine_deciles():
    assert DEFAULT_TAU_GRID == (0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90)


def test_extreme_tau_refused():
    ds = _grid_dataset(sigma=0.2, seed=1)  # n = 21
    with pytest.raises(QuantileError, match="extreme"):
        fit_segmented_quantile(ds, 0.04)
    with pytest.raises(QuantileError, match="extreme"):
        fit_segmented_quantile(ds, 0.96)


def test_refinement_never_worsens_objective():
    ds = _grid_dataset(n=31, sigma=0.6, seed=7)
    coarse = fit_segmented_quantile(ds, 0.3, refine_rounds=0)
    refined = fit_segmented_quantile(ds, 0.3, refine_rounds=2)
    assert refined.objective <= coarse.objective + 1e-12


def test_median_fit_consistent_with_least_squares():
    """tau = 0.5 breakpoints land inside the least-squares 95% CI on
    symmetric-noise data, in nearly every seed."""
    truth = SegmentedModel(beta=(10.0, 0.0, -20.0, 20.0), alpha=(0.275, 0.625))
    hits = 0
    runs = 100
    for seed in range(runs):
        xs = np.linspace(0, 1, 50)
        ys = eval_segmented(truth, xs) + 0.4 * standard_normal(RngSpec(seed).stream(0), 50)
        ds = BivariateDataset.from_arrays(xs, ys)
        ls = fit_segmented(ds)
        from breakline.piecewise import breakpoint_intervals

        iv = breakpoint_intervals(ls, 0.95)
        q = fit_segmented_quantile(ds, 0.5, init=ls.model)
        if (
            iv["alpha1"][0] <= q.model.alpha[0] <= iv["alpha1"][1]
            and iv["alpha2"][0] <= q.model.alpha[1] <= iv["alpha2"][1]
        ):
            hits += 1
    assert hits >= 90


def _dummy_fit(tau, a1, a2):
    model = SegmentedModel(beta=(0.0, 0.0, 0.0, 0.0), alpha=(a1, a2))
    return QuantileSegmentedFit(
        tau=tau, model=model, objective=0.0, status="optimal", residuals=np.zeros(1), n=1
    )


def test_interval_table_from_published_style_rows():
    # nine-decile collections: the min/max across taus and the tau span label
    rows_a = [
        (0.10, 0.233, 0.452),
        (0.20, 0.239, 0.450),
        (0.30, 0.233, 0.450),
        (0.40, 0.270, 0.448),
        (0.50, 0.264, 0.466),
        (0.60, 0.255, 0.476),
        (0.70, 0.264, 0.533),
        (0.80, 0.284, 0.564),
        (0.90, 0.264, 0.552),
    ]
    fits = [_dummy_fit(t, a1, a2) for t, a1, a2 in rows_a]
    table = quantile_breakpoint_intervals(fits)
    assert table.alpha1_interval == pytest.approx((0.233, 0.284))
    assert table.alpha2_interval == pytest.approx((0.448, 0.564))
    assert round(table.alpha1_width, 3) == 0.051
    assert round(table.alpha2_width, 3) == 0.116
    assert table.coverage_label == "80%"
    assert not table.partial

    rows_b = [
        (0.10, 1.228, 1.609),
        (0.20, 1.201, 1.585),
        (0.30, 1.066, 1.645),
        (0.40, 1.230, 1.646),
        (0.50, 1.110, 1.662),
        (0.60, 1.176, 1.641),
        (0.70, 1.155, 1.623),
        (0.80, 1.146, 1.598),
        (0.90, 1.200, 1.623),
    ]
    table_b = quantile_breakpoint_intervals([_dummy_fit(t, a1, a2) for t, a1, a2 in rows_b])
    assert table_b.alpha1_interval == pytest.approx((1.066, 1.230))
    assert table_b.alpha2_interval == pytest.approx((1.585, 1.662))
    assert round(table_b.alpha2_width, 3) == 0.077


def test_interval_table_degenerate_and_partial():
    fits = [_dummy_fit(t, 0.3, 0.6) for t in (0.1, 0.5, 0.9)]
    table = quantile_breakpoint_intervals(fits)
    assert table.alpha1_width == 0.0
    assert table.alpha2_width == 0.0

    partial = quantile_breakpoint_intervals(fits, failed_taus=[0.2])
    assert partial.partial
    assert (0.2, None, None) in partial.rows
    with pytest.raises(QuantileError):
        quantile_breakpoint_intervals(fits[:1])


def test_band_noiseless_zero_width():
    ds = _grid_dataset(sigma=0.0)
    lo = fit_segmented_quantile(ds, 0.1)
    mid = fit_segmented_quantile(ds, 0.5)
    hi = fit_segmented_quantile(ds, 0.9)
    band = pqrm_prediction_band(lo, mid, hi, ds)
    assert band.gamma == pytest.approx(0.8)
    assert np.max(np.abs(band.upper - band.lower)) < 1e-9
    assert band.crossings == ()


def test_band_validates_taus():
    ds = _grid_dataset(sigma=0.0)
    lo = fit_segmented_quantile(ds, 0.1)
    mid = fit_segmented_quantile(ds, 0.5)
    hi = fit_segmented_quantile(ds, 0.9)
    with pytest.raises(QuantileError):
        pqrm_prediction_band(hi, mid, lo, ds)
    with pytest.raises(QuantileError):
        pqrm_prediction_band(lo, mid, fit_segmented_quantile(ds, 0.8), ds)
    with pytest.raises(QuantileError):
        pqrm_prediction_band(lo, fit_segmented_quantile(ds, 0.3), hi, ds)


def test_band_flags_crossings():
    ds = _grid_dataset(sigma=0.0)
    lo = _dummy_fit(0.1, 0.3, 0.6)
    lo.model = SegmentedModel(beta=(1.0, 0.0, 0.0, 0.0), alpha=(0.3, 0.6))
    mid = _dummy_fit(0.5, 0.3, 0.6)
    hi = _dummy_fit(0.9, 0.3, 0.6)  # upper curve identically 0, below lower
    band = pqrm_prediction_band(lo, mid, hi, ds)
    assert len(band.crossings) == ds.n
    assert np.all(band.lower > band.upper)


def test_wedge_band_residual_counts():
    """At tau 0.1/0.9 roughly n*0.1 points sit outside each envelope; the
    inner LP interpolates 4 points, so the count can fall short by at most
    the basis size (plus one for ties)."""
    truth = SegmentedModel(beta=(10.0, 0.0, -5.0, 5.0), alpha=(0.3, 0.6))
    n = 200
    xs = np.linspace(0, 1, n)
    sigma = 0.5 * (1.0 + 1.5 * xs)
    ys = eval_segmented(truth, xs) + sigma * standard_normal(RngSpec(11).stream(0), n)
    ds = BivariateDataset.from_arrays(xs, ys)
    lo = fit_segmented_quantile(ds, 0.1)
    hi = fit_segmented_quantile(ds, 0.9)
    tol = 1e-9 * (1.0 + np.max(np.abs(ys)))
    lower_curve = eval_segmented(lo.model, xs)
    upper_curve = eval_segmented(hi.model, xs)
    below = int(np.sum(ys < lower_curve - tol))
    above = int(np.sum(ys > upper_curve + tol))
    assert n * 0.1 - 5 <= below <= n * 0.1 + 1e-9
    assert n * 0.1 - 5 <= above <= n * 0.1 + 1e-9


def test_sign_counts_on_segmented_fits():
    for seed in (0, 1, 2):
        ds = _grid_dataset(n=41, sigma=0.7, seed=seed)
        for tau in (0.2, 0.5, 0.8):
            fit = fit_segmented_quantile(ds, tau)
            r = fit.residuals
            ztol = 1e-9 * (1.0 + np.max(np.abs(ds.ys)))
            n = ds.n
            assert np.sum(r < -ztol) <= n * tau <= np.sum(r <= ztol)


def test_fit_tau_grid_collects_failures():
    ds = _grid_dataset(n=21, sigma=0.3, seed=2)
    fits, failures = fit_tau_grid(ds, [0.04, 0.3, 0.5, 0.7])
    assert [round(f.tau, 2) for f in fits] == [0.3, 0.5, 0.7]
    assert len(failures) == 1 and failures[0][0] == 0.04
    with pytest.raises(QuantileError):
        fit_tau_grid(ds, [0.5, 0.3])  # not increasing
