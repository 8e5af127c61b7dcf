import numpy as np
import pytest

from breakline.bands import (
    BandConfig,
    BootstrapError,
    PredictionBand,
    band_from_pool,
    bootstrap_band,
    bootstrap_bands,
    ols_line_fitter,
    predicted_residual_pool,
)
from breakline.dataset import BivariateDataset
from breakline.rng import RngSpec, standard_normal


def _line_dataset(n=30, noise=0.0, seed=0):
    xs = np.linspace(0, 1, n)
    ys = 2.0 * xs + 1.0
    if noise > 0:
        ys = ys + noise * standard_normal(RngSpec(seed).stream(0), n)
    return BivariateDataset.from_arrays(xs, ys)


def test_config_validation():
    with pytest.raises(BootstrapError):
        BandConfig(B=100, gamma=1.0)
    with pytest.raises(BootstrapError):
        BandConfig(B=100, gamma=0.0)
    # B >= 2/(1-gamma): gamma 0.95 needs at least 40
    with pytest.raises(BootstrapError):
        BandConfig(B=30, gamma=0.95)
    BandConfig(B=40, gamma=0.95)
    # gamma 0.8 needs B >= 10, although 2/(1-0.8) rounds to 10.000000000000002
    BandConfig(B=10, gamma=0.8)
    with pytest.raises(BootstrapError):
        BandConfig(B=9, gamma=0.8)


def test_zero_residuals_collapse_band():
    ds = _line_dataset(noise=0.0)
    band = bootstrap_band(ds, ols_line_fitter, BandConfig(B=50, gamma=0.8, rng=RngSpec(1)))
    assert np.allclose(band.lower, band.center, atol=1e-12)
    assert np.allclose(band.upper, band.center, atol=1e-12)


def test_deterministic_given_seed():
    ds = _line_dataset(noise=0.3)
    cfg = BandConfig(B=100, gamma=0.8, rng=RngSpec(7))
    a = bootstrap_band(ds, ols_line_fitter, cfg)
    b = bootstrap_band(ds, ols_line_fitter, cfg)
    assert np.array_equal(a.lower, b.lower)
    assert np.array_equal(a.upper, b.upper)
    assert np.array_equal(a.center, b.center)


def test_different_seeds_differ():
    ds = _line_dataset(noise=0.3)
    a = bootstrap_band(ds, ols_line_fitter, BandConfig(B=100, gamma=0.8, rng=RngSpec(1)))
    b = bootstrap_band(ds, ols_line_fitter, BandConfig(B=100, gamma=0.8, rng=RngSpec(2)))
    assert not np.array_equal(a.lower, b.lower)


def test_quantile_ordering_and_center_not_required_inside():
    ds = _line_dataset(noise=0.5, seed=3)
    band = bootstrap_band(ds, ols_line_fitter, BandConfig(B=200, gamma=0.9, rng=RngSpec(3)))
    assert np.all(band.lower <= band.upper)


def test_gamma_monotone_nested_from_shared_pool():
    ds = _line_dataset(noise=0.4, seed=5)
    cfg = BandConfig(B=400, gamma=0.95, rng=RngSpec(5))
    narrow, wide = bootstrap_bands(ds, ols_line_fitter, cfg, [0.5, 0.95])
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


def test_retry_then_success():
    ds = _line_dataset(noise=0.2)
    calls = {"n": 0}

    def flaky(xs, ys):
        calls["n"] += 1
        if calls["n"] in (2, 3, 4):  # replicate 0 fails three times, then recovers
            raise ValueError("transient")
        return ols_line_fitter(xs, ys)

    center, pool = predicted_residual_pool(ds, flaky, BandConfig(B=10, gamma=0.5, rng=RngSpec(4)))
    assert np.array_equal(center, ols_line_fitter(ds.xs, ds.ys))
    assert pool.shape == (10, ds.n)


def test_abort_after_retries_reports_replicate():
    ds = _line_dataset(noise=0.2)
    calls = {"n": 0}

    def always_fail_after_first(xs, ys):
        calls["n"] += 1
        if calls["n"] > 1:
            raise ValueError("broken")
        return ols_line_fitter(xs, ys)

    with pytest.raises(BootstrapError, match="replicate 0"):
        predicted_residual_pool(ds, always_fail_after_first, BandConfig(B=5, gamma=0.5, rng=RngSpec(1)))


def test_fitter_bug_propagates_unchanged():
    ds = _line_dataset(noise=0.2)
    calls = {"n": 0}

    def buggy(xs, ys):
        calls["n"] += 1
        if calls["n"] == 3:
            raise TypeError("not a fit failure")
        return ols_line_fitter(xs, ys)

    with pytest.raises(TypeError, match="not a fit failure"):
        predicted_residual_pool(ds, buggy, BandConfig(B=5, gamma=0.5, rng=RngSpec(1)))
    assert calls["n"] == 3  # no retry


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
        bootstrap_band(ds, lambda xs, ys: np.zeros(3), BandConfig(B=10, gamma=0.5))
