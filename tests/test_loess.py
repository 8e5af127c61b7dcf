import math

import numpy as np
import pytest

from breakline.dataset import BivariateDataset
from breakline.loess import (
    ExtrapolationError,
    LoessConfig,
    LoessError,
    SingularFitError,
    fit_loess,
    loess_fitter,
    predict_loess,
    tricube_weights,
)


def _wls_oracle(xs, ys, x0, span, degree, delta=None):
    """Independent per-target weighted least squares on the tricube neighborhood."""
    n = xs.size
    k = math.ceil(span * n)
    d = np.abs(xs - x0)
    d_k = np.sort(d)[k - 1]
    idx = np.nonzero(d <= d_k)[0]
    if d_k == 0.0:
        w = np.ones(idx.size) if delta is None else delta[idx]
        return float(np.average(ys[idx], weights=w))
    w = (1.0 - (d[idx] / d_k) ** 3) ** 3
    if delta is not None:
        w = w * delta[idx]
    basis = np.vander(xs[idx] - x0, degree + 1, increasing=True)
    wmat = np.diag(w)
    coef = np.linalg.solve(basis.T @ wmat @ basis, basis.T @ wmat @ ys[idx])
    return float(coef[0])


def test_affine_data_reproduced_exactly():
    xs = np.linspace(0.0, 2.0, 25)
    ds = BivariateDataset.from_arrays(xs, 2.0 * xs + 1.0)
    for degree in (1, 2):
        fit = fit_loess(ds, LoessConfig(span=0.4, degree=degree, robust_iterations=2))
        assert np.max(np.abs(fit.fitted - ds.ys)) < 1e-9
        assert np.max(np.abs(fit.residuals)) < 1e-9


def test_constant_data_reproduced():
    ds = BivariateDataset.from_arrays(np.linspace(0, 1, 12), np.full(12, 3.5))
    fit = fit_loess(ds, LoessConfig(span=0.5, degree=1))
    assert np.allclose(fit.fitted, 3.5, atol=1e-12)


def test_quadratic_reproduced_by_degree_two():
    xs = np.linspace(-1.0, 1.0, 30)
    ys = 1.0 - 0.5 * xs + 2.0 * xs**2
    ds = BivariateDataset.from_arrays(xs, ys)
    fit = fit_loess(ds, LoessConfig(span=0.5, degree=2, robust_iterations=0))
    scale = np.max(np.abs(ys))
    assert np.max(np.abs(fit.fitted - ys)) < 1e-8 * scale


def test_matches_per_point_wls_oracle():
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(0, 1, 10))
    ys = np.sin(3 * xs) + 0.1 * rng.standard_normal(10)
    ds = BivariateDataset.from_arrays(xs, ys)
    cfg = LoessConfig(span=0.6, degree=1, robust_iterations=0)
    fit = fit_loess(ds, cfg)
    oracle = np.array([_wls_oracle(xs, ys, x0, 0.6, 1) for x0 in xs])
    assert np.allclose(fit.fitted, oracle, atol=1e-10)


def test_five_point_full_span_oracle():
    xs = np.array([0.0, 0.3, 0.5, 0.8, 1.0])
    ys = np.array([1.0, 0.4, 0.9, 1.6, 1.2])
    ds = BivariateDataset.from_arrays(xs, ys)
    fit = fit_loess(ds, LoessConfig(span=1.0, degree=1, robust_iterations=0))
    oracle = np.array([_wls_oracle(xs, ys, x0, 1.0, 1) for x0 in xs])
    assert np.allclose(fit.fitted, oracle, atol=1e-10)


def test_predict_on_design_equals_fitted():
    rng = np.random.default_rng(2)
    xs = np.sort(rng.uniform(0, 1, 40))
    ds = BivariateDataset.from_arrays(xs, np.cos(4 * xs) + 0.2 * rng.standard_normal(40))
    for passes in (3, 0):
        fit = fit_loess(ds, LoessConfig(span=0.5, degree=2, robust_iterations=passes))
        assert np.array_equal(predict_loess(fit, ds, xs), fit.fitted)


def test_predict_interior_matches_oracle():
    xs = np.array([0.0, 0.4, 1.0])
    ys = np.array([0.0, 1.0, 0.5])
    ds = BivariateDataset.from_arrays(xs, ys)
    cfg = LoessConfig(span=1.0, degree=1, robust_iterations=0)
    fit = fit_loess(ds, cfg)
    x_star = 0.2  # midpoint of the first gap
    got = predict_loess(fit, ds, [x_star])[0]
    assert got == pytest.approx(_wls_oracle(xs, ys, x_star, 1.0, 1), abs=1e-10)


def test_predict_affine_interior():
    xs = np.linspace(0, 1, 20)
    ds = BivariateDataset.from_arrays(xs, 2 * xs + 1)
    fit = fit_loess(ds, LoessConfig(span=0.5, degree=1))
    grid = np.array([0.123, 0.5, 0.87])
    assert np.max(np.abs(predict_loess(fit, ds, grid) - (2 * grid + 1))) < 1e-9


def test_extrapolation_refused():
    ds = BivariateDataset.from_arrays(np.linspace(0, 1, 10), np.zeros(10))
    fit = fit_loess(ds, LoessConfig(span=0.5, degree=1))
    with pytest.raises(ExtrapolationError):
        predict_loess(fit, ds, [1.01])
    with pytest.raises(ExtrapolationError):
        predict_loess(fit, ds, [-0.2, 0.5])


def test_locality_without_robustness():
    # span small enough that the far point is outside every left-side neighborhood
    xs = np.linspace(0, 1, 20)
    rng = np.random.default_rng(3)
    ys = np.sin(xs) + 0.05 * rng.standard_normal(20)
    cfg = LoessConfig(span=0.2, degree=1, robust_iterations=0)
    ds_a = BivariateDataset.from_arrays(xs, ys)
    ys_b = ys.copy()
    ys_b[-1] += 1e6
    ds_b = BivariateDataset.from_arrays(xs, ys_b)
    fit_a = fit_loess(ds_a, cfg)
    fit_b = fit_loess(ds_b, cfg)
    assert fit_a.fitted[0] == fit_b.fitted[0]
    assert fit_a.fitted[3] == fit_b.fitted[3]


def test_robustness_reduces_outlier_influence():
    rng = np.random.default_rng(8)
    xs = np.linspace(0, 1, 30)
    base = 2 * xs + 1 + 0.05 * rng.standard_normal(30)
    ys = base.copy()
    ys[14] += 20.0
    clean = fit_loess(
        BivariateDataset.from_arrays(xs, base), LoessConfig(span=0.5, degree=1, robust_iterations=0)
    )
    ds = BivariateDataset.from_arrays(xs, ys)
    plain = fit_loess(ds, LoessConfig(span=0.5, degree=1, robust_iterations=0))
    robust = fit_loess(ds, LoessConfig(span=0.5, degree=1, robust_iterations=4))
    err_plain = abs(plain.fitted[14] - clean.fitted[14])
    err_robust = abs(robust.fitted[14] - clean.fitted[14])
    assert err_robust < err_plain


def test_tricube_weights_valid():
    d = np.linspace(0, 1, 11)
    w = tricube_weights(d, 1.0)
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    assert w[0] == 1.0
    assert w[-1] == 0.0


def test_residual_identity():
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(0, 1, 25))
    ys = rng.normal(size=25)
    ds = BivariateDataset.from_arrays(xs, ys)
    fit = fit_loess(ds, LoessConfig(span=0.8, degree=1, robust_iterations=1))
    assert np.array_equal(fit.residuals, ds.ys - fit.fitted)


def test_ties_at_target_fall_back_to_weighted_mean():
    ds = BivariateDataset.from_arrays([0.0, 0.0, 5.0, 5.0], [1.0, 3.0, 10.0, 12.0])
    fit = fit_loess(ds, LoessConfig(span=0.5, degree=1, robust_iterations=0))
    # each neighborhood is a pair of tied points; plain mean of their ys
    assert fit.fitted[0] == pytest.approx(2.0)
    assert fit.fitted[2] == pytest.approx(11.0)


def test_singular_neighborhood_names_target():
    ds = BivariateDataset.from_arrays([0.0, 0.0, 5.0], [1.0, 3.0, 10.0])
    with pytest.raises(SingularFitError, match="5.0"):
        fit_loess(ds, LoessConfig(span=2.0 / 3.0, degree=1, robust_iterations=0))


def test_config_validation():
    with pytest.raises(LoessError):
        LoessConfig(span=0.0)
    with pytest.raises(LoessError):
        LoessConfig(span=1.5)
    with pytest.raises(LoessError):
        LoessConfig(degree=3)
    with pytest.raises(LoessError):
        LoessConfig(robust_iterations=-1)
    ds = BivariateDataset.from_arrays(np.linspace(0, 1, 100), np.zeros(100))
    with pytest.raises(LoessError, match="neighbors"):
        fit_loess(ds, LoessConfig(span=0.02, degree=2))


def _lstsq_reference(xs, ys, config):
    """The smoother as a loop over targets, each an ``lstsq`` on its
    weighted local design, with the robustness passes of :func:`fit_loess`."""
    n = xs.size
    k = config.neighborhood_size(n)

    def local(x0, delta):
        d = np.abs(xs - x0)
        d_k = np.partition(d, k - 1)[k - 1]
        idx = np.nonzero(d <= d_k)[0]
        if d_k == 0.0:
            w = delta[idx]
            return float(np.mean(ys[idx])) if w.sum() <= 0.0 else float(np.average(ys[idx], weights=w))
        w = tricube_weights(d[idx], d_k) * delta[idx]
        if np.unique(xs[idx][w > 0.0]).size < config.degree + 1:
            raise SingularFitError(x0)
        sw = np.sqrt(w)
        basis = np.vander(xs[idx] - x0, config.degree + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(basis * sw[:, None], ys[idx] * sw, rcond=None)
        return float(coef[0])

    delta = np.ones(n)
    fitted = np.array([local(x0, delta) for x0 in xs])
    floor = 1e-12 * (1.0 + float(np.median(np.abs(ys))))
    for _ in range(config.robust_iterations):
        resid = ys - fitted
        s = float(np.median(np.abs(resid)))
        if s <= floor:
            break
        u = np.clip(resid / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - u * u) ** 2
        fitted = np.array([local(x0, delta) for x0 in xs])
    return fitted


@pytest.mark.parametrize("design", ["continuous", "half-unit ties", "repeated x"])
@pytest.mark.parametrize("config", [LoessConfig(), LoessConfig(span=0.3, degree=1, robust_iterations=2)])
def test_block_fit_matches_fit_loess_and_lstsq_reference(design, config):
    gen = np.random.default_rng(4)
    n = 60
    xs = np.sort(np.repeat(gen.uniform(0, 1, n // 2), 2) if design == "repeated x" else gen.uniform(0, 1, n))
    truth = 10.0 - 5.0 * np.maximum(xs - 0.3, 0.0) + 5.0 * np.maximum(xs - 0.6, 0.0)
    Y = truth + 0.5 * (1.0 + 1.5 * xs) * gen.standard_normal((5, n))
    if design == "half-unit ties":
        Y = np.round(2.0 * Y) / 2.0
    # a straight line is fit exactly, so its row stops after the first pass
    Y = np.vstack([Y[:2], 1.0 + 2.0 * xs, Y[2:]])
    block = loess_fitter(config)(xs)(Y)
    for ys, row in zip(Y, block):
        single = fit_loess(BivariateDataset.from_arrays(xs, ys), config).fitted
        assert np.allclose(row, single, rtol=1e-12, atol=0.0)
        assert np.allclose(row, _lstsq_reference(xs, ys, config), rtol=1e-12, atol=0.0)


def test_block_with_a_singular_row_raises_like_that_row():
    # two adjacent outliers get bisquare weight 0 in the first robustness
    # pass, which leaves the local line at x = 3 one distinct x value
    xs = np.arange(12.0)
    singular = np.array([0.2, -0.25, 0.04, -0.06, 4.95, 5.41, -0.2, -0.02, -0.09, 0.33, 0.02, -0.03])
    others = 0.1 * np.random.default_rng(1).standard_normal((3, 12))
    config = LoessConfig(span=4 / 12, degree=1, robust_iterations=2)
    fitter = loess_fitter(config)(xs)
    with pytest.raises(SingularFitError) as single:
        fit_loess(BivariateDataset.from_arrays(xs, singular), config)
    with pytest.raises(SingularFitError) as block:
        fitter(np.vstack([others[:1], singular, others[1:]]))
    assert single.value.target_x == block.value.target_x == 3.0
    assert "x=3.0:" in str(single.value) and str(single.value) == str(block.value)
    with pytest.raises(SingularFitError):
        _lstsq_reference(xs, singular, config)
    fitted = fitter(others)
    for ys, row in zip(others, fitted):
        assert np.allclose(row, fit_loess(BivariateDataset.from_arrays(xs, ys), config).fitted, rtol=1e-12, atol=0.0)
        assert np.allclose(row, _lstsq_reference(xs, ys, config), rtol=1e-12, atol=1e-15)
