import tracemalloc

import numpy as np
import pytest

from breakline.bands import PredictionBand
from breakline.dataset import BivariateDataset
import breakline.quantile as quantile_module
from breakline.piecewise import (
    SegmentedModel,
    _pair_admissible,
    _segment_cells,
    eval_segmented,
    fit_segmented,
    segmented_design,
)
from breakline.quantile import (
    DEFAULT_TAU_GRID,
    PivotLimitError,
    QuantileError,
    QuantileSegmentedFit,
    RankDeficiencyError,
    check_loss,
    check_objective,
    fit_quantile_linear,
    fit_segmented_quantile,
    fit_tau_grid,
    pqrm_band_taus,
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
    """The refined fit is at or below the best candidate-grid pair, each
    pair solved alone."""
    ds = _grid_dataset(n=31, sigma=0.6, seed=7)
    tau = 0.3
    refined = fit_segmented_quantile(ds, tau)
    u, _, admissible = _segment_cells(ds.xs, 3)
    mids = (u[:-1] + u[1:]) / 2.0
    coarse = np.inf
    for i, j in zip(*np.nonzero(admissible)):
        X = segmented_design(ds.xs, mids[i], mids[j])
        coarse = min(coarse, check_objective(ds.ys - X @ fit_quantile_linear(X, ds.ys, tau), tau))
    assert refined.objective <= coarse + 1e-12


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
        q = fit_segmented_quantile(ds, 0.5)
        if (
            iv["alpha1"][0] <= q.model.alpha[0] <= iv["alpha1"][1]
            and iv["alpha2"][0] <= q.model.alpha[1] <= iv["alpha2"][1]
        ):
            hits += 1
    assert hits >= 90


def _dummy_fit(tau, a1, a2):
    model = SegmentedModel(beta=(0.0, 0.0, 0.0, 0.0), alpha=(a1, a2))
    return QuantileSegmentedFit(
        tau=tau, model=model, objective=0.0, status="optimal", residuals=np.zeros(1)
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
    band = pqrm_prediction_band([lo, mid, hi], 0.8, ds)
    assert band.gamma == pytest.approx(0.8)
    assert np.max(np.abs(band.upper - band.lower)) < 1e-9
    assert band.crossings == ()


def test_band_validates_taus():
    ds = _grid_dataset(sigma=0.0)
    assert pqrm_band_taus(0.8) == (0.1, 0.5, 0.9)
    assert pqrm_band_taus(0.95) == (0.025, 0.5, 0.975)
    fits = [_dummy_fit(t, 0.3, 0.6) for t in (0.1, 0.5, 0.9)]
    for gamma in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(QuantileError, match=rf"gamma must be in \(0, 1\), got {gamma}"):
            pqrm_prediction_band(fits, gamma, ds)
    with pytest.raises(QuantileError, match=r"\[0.025, 0.975\]"):
        pqrm_prediction_band(fits, 0.95, ds)
    with pytest.raises(QuantileError, match=r"\[0.5\]"):
        pqrm_prediction_band([fits[0], fits[2]], 0.8, ds)
    # the curves are picked by tau, whatever the order of the fits
    band = pqrm_prediction_band(fits[::-1], 0.8, ds)
    assert (band.meta["tau_lower"], band.meta["tau_upper"]) == (0.1, 0.9)


def test_band_flags_crossings():
    ds = _grid_dataset(sigma=0.0)
    lo = _dummy_fit(0.1, 0.3, 0.6)
    lo.model = SegmentedModel(beta=(1.0, 0.0, 0.0, 0.0), alpha=(0.3, 0.6))
    mid = _dummy_fit(0.5, 0.3, 0.6)
    hi = _dummy_fit(0.9, 0.3, 0.6)  # upper curve identically 0, below lower
    band = pqrm_prediction_band([lo, mid, hi], 0.8, ds)
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


# The scalar exchange simplex and per-tau sweep that the stacked block
# solver replaced, kept verbatim as the reference for bit identity.
def _scalar_solve(X, y, tau, warm_basis=None, ztol=None, trusted_basis=False):
    n, p = X.shape
    h = None
    if warm_basis is not None and len(warm_basis) == p:
        if trusted_basis:
            h = np.asarray(warm_basis).copy()
        else:
            cand = np.sort(np.asarray(warm_basis))
            if cand[0] >= 0 and cand[-1] < n and np.unique(cand).size == p:
                h = cand
    if h is None:
        h = quantile_module._initial_basis(X)
    if ztol is None:
        ztol = 1e-11 * (1.0 + float(np.median(np.abs(y))))
    for pivot in range(quantile_module._PIVOT_BUDGET):
        try:
            inv_xh = np.linalg.inv(X[h])
        except np.linalg.LinAlgError:
            h = quantile_module._initial_basis(X)
            inv_xh = np.linalg.inv(X[h])
        b = inv_xh @ y[h]
        G = X @ inv_xh
        r = y - X @ b
        off = np.ones(n, dtype=bool)
        off[h] = False
        abs_r = np.abs(r)
        neg = off & (r < -ztol)
        pos = off & (r > ztol)
        psi = tau * off
        psi[neg] -= 1.0
        zero = off & (abs_r <= ztol)
        any_zero = bool(zero.any())
        if any_zero:
            psi[zero] = 0.0
        s_fixed = G.T @ psi
        if any_zero:
            gz = G[zero]
            z_min = np.minimum(tau * gz, (tau - 1.0) * gz).sum(axis=0)
            z_max = np.maximum(tau * gz, (tau - 1.0) * gz).sum(axis=0)
        else:
            z_min = np.zeros(p)
            z_max = z_min
        opt_tol = 1e-10 * (1.0 + float(np.abs(G).sum()))
        d_plus = (1.0 - tau) - (s_fixed + z_min)
        d_minus = tau + (s_fixed + z_max)
        viol = np.maximum(-d_plus, -d_minus)
        if np.all(viol <= opt_tol):
            return float(np.sum(r * (tau - (r < 0.0)))), b, h.copy()
        bland = pivot >= quantile_module._BLAND_AFTER
        candidates = np.nonzero(viol > opt_tol)[0]
        if bland:
            j_pos = int(candidates[0])
        else:
            j_pos = int(candidates[np.argmax(viol[candidates])])
        sigma = 1.0 if -d_plus[j_pos] >= -d_minus[j_pos] else -1.0
        d0 = d_plus[j_pos] if sigma > 0 else d_minus[j_pos]
        dvec = sigma * inv_xh[:, j_pos]
        c = X @ dvec
        c_tol = 1e-13 * (1.0 + np.max(np.abs(c)))
        crossing = (pos & (c > c_tol)) | (neg & (c < -c_tol))
        idx = np.nonzero(crossing)[0]
        if idx.size == 0:
            return float(np.sum(r * (tau - (r < 0.0)))), b, h.copy()
        t = r[idx] / c[idx]
        gains = np.abs(c[idx])
        if bland:
            order = np.lexsort((idx, t))
            enter = int(idx[order[0]])
        else:
            order = np.lexsort((idx, -gains, t))
            cum = d0 + np.cumsum(gains[order])
            hit = np.nonzero(cum >= 0.0)[0]
            enter = int(idx[order[hit[0]]]) if hit.size else int(idx[order[-1]])
        h[np.nonzero(h == h[j_pos])[0][0]] = enter
        h.sort()
    raise PivotLimitError("pivot budget")


def _scalar_sweep(ds, tau, init=None, min_pts=3, refine_rounds=1, refine_points=9):
    """The per-tau sweep: (objective, alpha, beta, residuals, status), or the
    failure message.  ``init`` seeds the warm basis of the first pair with
    the four points closest to that model."""
    n = ds.n
    if n * min(tau, 1.0 - tau) < 1.0:
        return f"tau={tau} is too extreme for n={n}: fewer than one residual is expected on one side of the fit"
    xs, ys = ds.xs, ds.ys
    u, _, admissible = _segment_cells(xs, min_pts)
    mids = (u[:-1] + u[1:]) / 2.0
    i_idx, j_idx = np.nonzero(admissible)
    basis = None
    if init is not None:
        a1, a2 = init.alpha
        if _pair_admissible(u, admissible, a1, a2):
            resid = np.abs(ys - eval_segmented(init, xs))
            basis = np.sort(np.argsort(resid, kind="stable")[:4])
    best = None
    failures = 0
    X = np.column_stack([np.ones_like(xs), xs, xs, xs])
    ztol = 1e-11 * (1.0 + float(np.median(np.abs(ys))))

    def try_pair(a1, a2):
        nonlocal basis, best, failures
        np.maximum(xs - a1, 0.0, out=X[:, 2])
        np.maximum(xs - a2, 0.0, out=X[:, 3])
        try:
            objective, beta, h = _scalar_solve(
                X, ys, tau, warm_basis=basis, ztol=ztol, trusted_basis=basis is not None
            )
        except PivotLimitError:
            failures += 1
            return
        except RankDeficiencyError:
            return
        basis = h
        if best is None or (objective, a1, a2) < best[:3]:
            best = (objective, a1, a2, beta.copy())

    for i, j in zip(i_idx, j_idx):
        try_pair(float(mids[i]), float(mids[j]))
    if best is None:
        return f"quantile fit failed at every candidate breakpoint pair (tau={tau})"
    m = mids.size
    for _ in range(refine_rounds):
        _, a1_c, a2_c, _ = best
        i_c = int(np.searchsorted(mids, a1_c))
        j_c = int(np.searchsorted(mids, a2_c))
        lo1 = mids[max(i_c - 1, 0)]
        hi1 = mids[min(i_c + 1, m - 1)] if i_c < m else mids[-1]
        lo2 = mids[max(j_c - 1, 0)]
        hi2 = mids[min(j_c + 1, m - 1)] if j_c < m else mids[-1]
        for a1 in np.linspace(min(lo1, a1_c), max(hi1, a1_c), refine_points):
            for a2 in np.linspace(min(lo2, a2_c), max(hi2, a2_c), refine_points):
                if _pair_admissible(u, admissible, a1, a2):
                    try_pair(float(a1), float(a2))
    objective, a1, a2, beta = best
    residuals = ys - segmented_design(xs, a1, a2) @ beta
    return objective, (a1, a2), tuple(float(v) for v in beta), residuals, (
        "optimal" if failures == 0 else "grid-fallback"
    )


def _bit_identity_datasets():
    truth = SegmentedModel(beta=(10.0, 0.0, -5.0, 5.0), alpha=(0.3, 0.6))
    for n in (40, 100):
        for kind in ("continuous", "half-unit tied", "repeated x"):
            rng = np.random.default_rng([n, len(kind)])
            if kind == "repeated x":
                xs = np.repeat(np.linspace(0.0, 1.0, n // 2), 2)
            else:
                xs = np.sort(rng.uniform(0.0, 1.0, n))
            ys = eval_segmented(truth, xs) + 0.5 * (1.0 + 1.5 * xs) * rng.standard_normal(n)
            if kind == "half-unit tied":
                ys = np.round(2.0 * ys) / 2.0
            yield f"{kind} n={n}", BivariateDataset.from_arrays(xs, ys)
    # no noise: the points of each segment are collinear, so many residuals
    # sit at zero and the simplex meets degenerate vertices
    xs = np.linspace(0.0, 1.0, 40)
    yield "noiseless n=40", BivariateDataset.from_arrays(xs, eval_segmented(truth, xs))


def _assert_fits_match(fits, failures, wanted, label):
    """``fit_tau_grid``'s output against ``wanted``, the scalar sweep's
    result (or failure message) per tau."""
    got = {f.tau: f for f in fits}
    got.update(failures)
    assert len(got) == len(wanted)
    for tau, want in wanted.items():
        if isinstance(want, str):
            assert got[tau] == want, (label, tau)
            continue
        fit = got[tau]
        objective, alpha, beta, residuals, status = want
        assert fit.objective == objective, (label, tau)
        assert fit.model.alpha == alpha, (label, tau)
        assert fit.model.beta == beta, (label, tau)
        assert np.array_equal(fit.residuals, residuals), (label, tau)
        assert fit.status == status, (label, tau)


def _assert_grid_matches_scalar(ds, taus, label, starts):
    """``fit_tau_grid`` against the scalar sweep from each warm start in
    ``starts``: None (the QR basis) or a model seeding the first pair."""
    fits, failures = fit_tau_grid(ds, taus)
    for start in starts:
        _assert_fits_match(fits, failures, {tau: _scalar_sweep(ds, tau, init=start) for tau in taus}, (label, start))
    return fits


def test_tau_grid_is_bit_identical_to_scalar_sweep(monkeypatch):
    """The lockstep grid gives every tau exactly the fit of the scalar
    per-tau sweep: objective, breakpoints, coefficients, residuals, status.
    Seeding the scalar sweep's first pair with the least-squares fit changes
    none of them, since every later pair warm-starts from the one before."""
    for label, ds in _bit_identity_datasets():
        _assert_grid_matches_scalar(ds, list(DEFAULT_TAU_GRID), label, (None, fit_segmented(ds).model))
    # a level too extreme for n = 40 fails with the scalar sweep's message
    _, ds = next(_bit_identity_datasets())
    _assert_grid_matches_scalar(ds, [0.02, 0.25, 0.5, 0.975], "extreme", (None, fit_segmented(ds).model))
    # a pivot budget this low leaves some levels on the grid-fallback path;
    # a failed pair keeps its warm start there, so a seed would change the
    # chain and only the QR start is the reference
    monkeypatch.setattr(quantile_module, "_PIVOT_BUDGET", 3)
    fits = _assert_grid_matches_scalar(ds, [0.1, 0.5, 0.9], "low budget", (None,))
    assert "grid-fallback" in {f.status for f in fits}


def test_tau_grid_matches_scalar_sweep_on_the_bland_path(monkeypatch):
    """With the least-index rule from the first pivot at every pair, every
    tau still follows the chain of its scalar sweep on the tied and
    repeated-x data: the rule starts by each tau's own pass count at its
    own pair."""
    monkeypatch.setattr(quantile_module, "_BLAND_AFTER", 1)
    for label, ds in _bit_identity_datasets():
        if label.startswith(("half-unit tied", "repeated x")):
            _assert_grid_matches_scalar(ds, list(DEFAULT_TAU_GRID), label, (None,))


@pytest.mark.parametrize("setting", ["default", "bland", "low budget"])
def test_segmented_sweep_matches_scalar_sweep_at_every_segment_count(monkeypatch, setting):
    """Whether each tau's grid is walked as one segment, two, the default
    number or one segment per pair (every segment then starts cold, so
    the verifier solves every pair itself), every tau gets its scalar
    sweep's fit to the bit.  So it does on the least-index rule from the
    first pivot, and with a pivot budget of 6, where some taus keep every
    pair of their chain and others fail some, while cold segment starts
    fail more often: only the chain's failures may count."""
    taus = list(DEFAULT_TAU_GRID)
    datasets = list(_bit_identity_datasets())
    if setting == "bland":
        monkeypatch.setattr(quantile_module, "_BLAND_AFTER", 1)
        datasets = [(label, ds) for label, ds in datasets if label.startswith(("half-unit tied", "repeated x"))]
    elif setting == "low budget":
        monkeypatch.setattr(quantile_module, "_PIVOT_BUDGET", 6)
        taus = [0.1, 0.5, 0.9]
        datasets = [(label, ds) for label, ds in datasets if ds.n == 40]
    real_pass = quantile_module._simplex_pass
    stacked = []

    def counting(X, *args):
        stacked.append(X.shape[0])
        return real_pass(X, *args)

    monkeypatch.setattr(quantile_module, "_simplex_pass", counting)
    default = -(-quantile_module._STACK_ROWS // len(taus))
    statuses = set()
    for label, ds in datasets:
        wanted = {tau: _scalar_sweep(ds, tau) for tau in taus}
        n_grid = int(_segment_cells(ds.xs, 3)[2].sum())
        # one segment per pair stacks every pair of every tau at once, so
        # it runs on the small datasets only
        counts = (1, 2, default, n_grid) if ds.n == 40 else (1, 2, default)
        for segments in counts:
            monkeypatch.setattr(quantile_module, "_STACK_ROWS", segments * len(taus))
            stacked.clear()
            fits, failures = fit_tau_grid(ds, taus)
            assert max(stacked) == segments * len(taus), (label, segments)
            _assert_fits_match(fits, failures, wanted, (label, segments))
            statuses |= {f.status for f in fits}
    assert statuses == ({"optimal", "grid-fallback"} if setting == "low budget" else {"optimal"})


def _fixed_input():
    """The benchmark's fixed input: half-unit tied wedge data on
    x = linspace(0, 1, 100)."""
    truth = SegmentedModel(beta=(10.0, 0.0, -5.0, 5.0), alpha=(0.3, 0.6))
    xs = np.linspace(0.0, 1.0, 100)
    noise = 0.5 * (1.0 + 1.5 * xs) * np.random.default_rng(2).standard_normal(100)
    return BivariateDataset.from_arrays(xs, np.round(2.0 * (eval_segmented(truth, xs) + noise)) / 2.0)


def test_tau_sweep_pass_counts_are_bounded(monkeypatch):
    """Walking each tau's grid in segments side by side, the decile sweep
    of the benchmark's fixed input takes at most 3 000 stacked simplex
    passes and one tau at most 750 (2 327 and 689 when this was written;
    walking each tau's grid as one chain took 6 077 and 5 548)."""
    real_pass = quantile_module._simplex_pass
    calls = []

    def counting(*args):
        calls.append(1)
        return real_pass(*args)

    monkeypatch.setattr(quantile_module, "_simplex_pass", counting)
    ds = _fixed_input()
    fit_tau_grid(ds)
    assert len(calls) <= 3000, len(calls)
    calls.clear()
    fit_segmented_quantile(ds, 0.1)
    assert len(calls) <= 750, len(calls)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1.5, 1.0, 0.0, -0.1])
def test_tau_grid_refuses_levels_outside_unit_interval(bad):
    ds = _grid_dataset(n=21, sigma=0.3, seed=2)
    with pytest.raises(QuantileError, match=r"^tau must be in \(0, 1\), got "):
        fit_tau_grid(ds, [0.3, 0.5, bad])


def test_tau_grid_peak_memory_is_bounded():
    """A warm decile sweep of the benchmark's fixed input (half-unit tied
    wedge data on x = linspace(0, 1, 100)) peaks under 1 MB of Python
    allocations: the candidate grid and its hinge columns are stored once
    for every tau, and the per-tau state is a few rows of length n."""
    truth = SegmentedModel(beta=(10.0, 0.0, -5.0, 5.0), alpha=(0.3, 0.6))
    xs = np.linspace(0.0, 1.0, 100)
    noise = 0.5 * (1.0 + 1.5 * xs) * np.random.default_rng(2).standard_normal(100)
    ys = np.round(2.0 * (eval_segmented(truth, xs) + noise)) / 2.0
    ds = BivariateDataset.from_arrays(xs, ys)
    expected, _ = fit_tau_grid(ds)
    tracemalloc.start()
    try:
        fits, _ = fit_tau_grid(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [f.objective for f in fits] == [f.objective for f in expected]
    assert peak < 1e6, peak


def test_singular_basis_in_block_restarts_only_its_row():
    """A warm basis whose matrix is singular restarts its own row from QR;
    the other rows of the block keep their chains, and every row equals
    its block of one."""
    xs = np.repeat(np.linspace(0.0, 1.0, 15), 2)  # each x twice
    rng = np.random.default_rng(4)
    ys = eval_segmented(TRUTH, xs) + 0.3 * rng.standard_normal(xs.size)
    X = segmented_design(xs, 0.3, 0.6)
    ztol = quantile_module._zero_tol(ys)
    bases = np.array([[0, 1, 10, 20], [2, 9, 19, 28], [-1, -1, -1, -1], [3, 3, 12, 25]])
    taus = [0.2, 0.5, 0.7, 0.9]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(X[bases[0]])  # points 0 and 1 share their x
    block = quantile_module._solve_check_loss(X, ys, taus, bases, ztol)
    assert not block.errors
    for i, tau in enumerate(taus):
        alone = quantile_module._solve_check_loss(X, ys, [tau], bases[i : i + 1], ztol)
        assert block.objective[i] == alone.objective[0]
        assert np.array_equal(block.beta[i], alone.beta[0])
        assert np.array_equal(block.basis[i], alone.basis[0])
        objective, beta, _ = _scalar_solve(X, ys, tau, warm_basis=bases[i])
        assert block.objective[i] == objective and np.array_equal(block.beta[i], beta)
    # a rank-deficient design fails every row that needs the QR start, alone
    flat = X.copy()
    flat[:, 3] = flat[:, 2]
    state = quantile_module._solve_check_loss(flat, ys, [0.3, 0.6], [[-1] * 4, [0, 1, 2, 3]], ztol)
    assert set(state.errors) == {0, 1}
    assert all(isinstance(e, RankDeficiencyError) for e in state.errors.values())
