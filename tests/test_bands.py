import numpy as np
import pytest

from breakline import bands
from breakline.bands import (
    BootstrapError,
    PredictionBand,
    band_from_pool,
    bootstrap_band,
    bootstrap_bands,
    ols_line_fitter,
    predicted_residual_pool,
)
from breakline.area import band_area
from breakline.dataset import BivariateDataset
from breakline.loess import LoessConfig, fit_loess, loess_fitter
from breakline.piecewise import segmented_fitter
from breakline.rng import RngSpec, standard_normal


def _line_dataset(n=30, noise=0.0, seed=0):
    xs = np.linspace(0, 1, n)
    ys = 2.0 * xs + 1.0
    if noise > 0:
        ys = ys + noise * standard_normal(RngSpec(seed).stream(0), n)
    return BivariateDataset.from_arrays(xs, ys)


def _ols(ds):
    """The least-squares line of ``ds`` at its xs: the center of its bands."""
    return ols_line_fitter(ds.xs)(ds.ys[None, :])[0]


def test_bootstrap_bands_check_gamma_and_B():
    ds = _line_dataset(noise=0.3)

    def bands(B, gamma):
        return bootstrap_bands(ds, _ols(ds), ols_line_fitter, [gamma], B, RngSpec(1))

    with pytest.raises(BootstrapError, match=r"gamma must be in \(0, 1\), got 1.0"):
        bands(100, 1.0)
    with pytest.raises(BootstrapError, match=r"gamma must be in \(0, 1\), got 0.0"):
        bands(100, 0.0)
    # B >= 2/(1-gamma): gamma 0.95 needs at least 40
    with pytest.raises(BootstrapError, match="B=30 is too small for gamma=0.95"):
        bands(30, 0.95)
    bands(40, 0.95)
    # gamma 0.8 needs B >= 10, although 2/(1-0.8) rounds to 10.000000000000002
    bands(10, 0.8)
    with pytest.raises(BootstrapError):
        bands(9, 0.8)


def test_zero_residuals_collapse_band():
    ds = _line_dataset(noise=0.0)
    band = bootstrap_band(ds, _ols(ds), ols_line_fitter, 0.8, 50, RngSpec(1))
    assert np.allclose(band.lower, band.center, atol=1e-12)
    assert np.allclose(band.upper, band.center, atol=1e-12)


def test_deterministic_given_seed():
    ds = _line_dataset(noise=0.3)
    a = bootstrap_band(ds, _ols(ds), ols_line_fitter, 0.8, 100, RngSpec(7))
    b = bootstrap_band(ds, _ols(ds), ols_line_fitter, 0.8, 100, RngSpec(7))
    assert np.array_equal(a.lower, b.lower)
    assert np.array_equal(a.upper, b.upper)
    assert np.array_equal(a.center, b.center)


def test_different_seeds_differ():
    ds = _line_dataset(noise=0.3)
    a = bootstrap_band(ds, _ols(ds), ols_line_fitter, 0.8, 100, RngSpec(1))
    b = bootstrap_band(ds, _ols(ds), ols_line_fitter, 0.8, 100, RngSpec(2))
    assert not np.array_equal(a.lower, b.lower)


def test_quantile_ordering_and_center_not_required_inside():
    ds = _line_dataset(noise=0.5, seed=3)
    band = bootstrap_band(ds, _ols(ds), ols_line_fitter, 0.9, 200, RngSpec(3))
    assert np.all(band.lower <= band.upper)


def test_gamma_monotone_nested_from_shared_pool():
    ds = _line_dataset(noise=0.4, seed=5)
    narrow, wide = bootstrap_bands(ds, _ols(ds), ols_line_fitter, [0.5, 0.95], 400, RngSpec(5))
    assert np.all(wide.lower <= narrow.lower)
    assert np.all(narrow.upper <= wide.upper)


def test_centering_step():
    gen = RngSpec(0).stream(0)
    resid = gen.random(500) * 3.0 + 1.0
    centered = resid - resid.mean()
    assert abs(centered.mean()) < 1e-12


def test_quantile_convention_linear_interpolation():
    # pool column [0, 1, 2, 3]: rank q*(B-1)+1 with linear interpolation
    ds = BivariateDataset.from_arrays([0.0], [1.0])
    pool = np.array([[0.0], [1.0], [2.0], [3.0]])
    band = band_from_pool(ds, np.array([10.0]), pool, gamma=0.5)
    assert band.lower[0] == pytest.approx(10.0 + 0.75)
    assert band.upper[0] == pytest.approx(10.0 + 2.25)


def test_tied_rows_share_one_envelope():
    """Rows at one x value draw from one predictive distribution, so they
    get one quantile of their pooled draws, and the band's area does not
    depend on their order."""
    xs = np.repeat(np.linspace(0.0, 1.0, 20), 2)
    ys = 1.0 + 2.0 * xs + 0.5 * standard_normal(RngSpec(8).stream(0), xs.size)
    ds = BivariateDataset.from_arrays(xs, ys)
    config = LoessConfig(span=0.5, robust_iterations=2)
    band = bootstrap_band(ds, fit_loess(ds, config).fitted, loess_fitter(config), 0.9, 100, RngSpec(2))
    assert np.array_equal(band.lower[::2], band.lower[1::2])
    assert np.array_equal(band.upper[::2], band.upper[1::2])
    swap = np.arange(xs.size).reshape(-1, 2)[:, ::-1].ravel()
    swapped = PredictionBand(
        grid_x=band.grid_x, center=band.center[swap], lower=band.lower[swap], upper=band.upper[swap], gamma=0.9
    )
    assert band_area(swapped) == band_area(band)


def _counting(fitter, fail_on=(), raise_type=ValueError):
    """A fitter whose bound form counts its calls and rows and raises on
    the listed call numbers (1 is the first block)."""
    seen = {"binds": 0, "calls": 0, "rows": 0}

    def bind(xs):
        seen["binds"] += 1
        fit_rows = fitter(xs)

        def fit(Y):
            seen["calls"] += 1
            seen["rows"] += len(Y)
            if seen["calls"] in fail_on:
                raise raise_type("injected")
            return fit_rows(Y)

        return fit

    return bind, seen


def test_retry_then_success():
    ds = _line_dataset(noise=0.2)
    # the block of replicates fails, then replicate 0 refit alone fails
    # twice more and recovers: three failures, as a per-replicate retry
    flaky, seen = _counting(ols_line_fitter, fail_on=(1, 2, 3))
    pool = predicted_residual_pool(ds, _ols(ds), flaky, 10, RngSpec(4))
    assert pool.shape == (10, ds.n)
    assert seen["binds"] == 1
    assert seen["calls"] == 1 + 3 + 9  # block, replicate 0 thrice, 1..9 alone
    assert seen["rows"] == 10 + 3 + 9
    # the retries draw from replicate 0's stream only
    clean = predicted_residual_pool(ds, _ols(ds), ols_line_fitter, 10, RngSpec(4))
    assert np.array_equal(pool[1:], clean[1:])
    assert not np.array_equal(pool[0], clean[0])


def test_abort_after_retries_reports_replicate():
    ds = _line_dataset(noise=0.2)
    always_fail, seen = _counting(ols_line_fitter, fail_on=range(1, 100))
    with pytest.raises(BootstrapError, match="replicate 0"):
        predicted_residual_pool(ds, _ols(ds), always_fail, 5, RngSpec(1))
    assert seen["calls"] == 1 + 11  # block, replicate 0 and its 10 retries


def test_fitter_bug_propagates_unchanged():
    ds = _line_dataset(noise=0.2)
    buggy, seen = _counting(ols_line_fitter, fail_on=(1,), raise_type=TypeError)
    with pytest.raises(TypeError, match="injected"):
        predicted_residual_pool(ds, _ols(ds), buggy, 5, RngSpec(1))
    assert seen["calls"] == 1  # the block raised; no replicate was refit alone or retried


def test_fitter_bug_in_a_single_refit_propagates_unchanged():
    ds = _line_dataset(noise=0.2)
    # the block's ValueError sends its replicates one at a time, and the
    # first of them meets the bug
    calls = {"n": 0}

    def buggy(xs):
        fit_rows = ols_line_fitter(xs)

        def fit(Y):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("fit failure")
            if calls["n"] == 2:
                raise TypeError("not a fit failure")
            return fit_rows(Y)

        return fit

    with pytest.raises(TypeError, match="not a fit failure"):
        predicted_residual_pool(ds, _ols(ds), buggy, 5, RngSpec(1))
    assert calls["n"] == 2  # no retry


def test_band_shape_validation():
    with pytest.raises(ValueError):
        PredictionBand(
            grid_x=np.array([0.0, 1.0]),
            center=np.array([0.0]),
            lower=np.array([0.0, 0.0]),
            upper=np.array([1.0, 1.0]),
            gamma=0.8,
        )


def test_fitter_output_shape_checked():
    ds = _line_dataset()
    with pytest.raises(BootstrapError, match="one fitted value"):
        bootstrap_band(ds, _ols(ds), lambda xs: lambda Y: np.zeros(3), 0.5, 10, RngSpec())
    # the caller's center is checked as well, before any refit
    with pytest.raises(BootstrapError, match="center must hold one fitted value"):
        bootstrap_band(ds, _ols(ds)[:-1], ols_line_fitter, 0.5, 10, RngSpec())


def test_ols_fitter_fits_each_row():
    ds = _line_dataset(noise=0.3)
    Y = np.stack([ds.ys, 3.0 - ds.xs, ds.ys[::-1]])
    fitted = ols_line_fitter(ds.xs)(Y)
    for ys, row in zip(Y, fitted):
        design = np.column_stack([np.ones_like(ds.xs), ds.xs])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        assert np.allclose(row, design @ coef, rtol=0.0, atol=1e-12)


def _row_rule_fitter(xs):
    """OLS that fails on rows whose first response is low (two of the first
    draws below): which replicates fail depends on their draws only, never
    on the block they are in."""
    fit_rows = ols_line_fitter(xs)

    def fit(Y):
        if np.any(Y[:, 0] < 0.75):
            raise ValueError("row rule")
        return fit_rows(Y)

    return fit


@pytest.mark.parametrize(
    "fitter",
    [
        ols_line_fitter,
        _row_rule_fitter,
        loess_fitter(LoessConfig(span=0.5, degree=2, robust_iterations=2)),
        segmented_fitter(),
    ],
    ids=["ols", "ols-with-retries", "loess", "plrm"],
)
def test_pool_and_bands_do_not_depend_on_block_size(monkeypatch, fitter):
    ds = _line_dataset(n=40, noise=0.3, seed=2)
    results = []
    center = _ols(ds)
    for block in (1, 7, bands._BLOCK):
        monkeypatch.setattr(bands, "_BLOCK", block)
        pool = predicted_residual_pool(ds, center, fitter, 30, RngSpec(6))
        lo, hi = bootstrap_bands(ds, center, fitter, [0.5, 0.9], 30, RngSpec(6))
        results.append([pool, lo.lower, lo.upper, hi.lower, hi.upper])
    for other in results[1:]:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(results[0], other))
