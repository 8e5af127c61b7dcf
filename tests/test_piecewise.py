import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from breakline.bands import BootstrapError
from breakline.dataset import BivariateDataset
from breakline.piecewise import (
    SegmentedError,
    SegmentedModel,
    _t_row,
    breakpoint_intervals,
    contrast_inference,
    eval_segmented,
    fit_report_rows,
    fit_segmented,
    plrm_prediction_band,
    profile_inner_ols,
    segmented_design,
    segmented_fitter,
)
from breakline.quantile import fit_segmented_quantile, fit_tau_grid
from breakline.rng import RngSpec, standard_normal
from breakline.synthetic import ols_oracle

TRUTH = SegmentedModel(beta=(10.0, 0.0, -5.0, 5.0), alpha=(0.3, 0.6))


def _noisy(n=60, sigma=0.5, seed=0, truth=TRUTH):
    xs = np.linspace(0, 1, n)
    ys = eval_segmented(truth, xs) + sigma * standard_normal(RngSpec(seed).stream(0), n)
    return BivariateDataset.from_arrays(xs, ys)


def test_eval_branches():
    m = SegmentedModel(beta=(0.0, 1.0, -2.0, 1.0), alpha=(1.0, 2.0))
    assert eval_segmented(m, 0.5) == pytest.approx(0.5)
    assert eval_segmented(m, 1.5) == pytest.approx(0.0 + 1.0 * 1.5 + (-2.0) * 0.5)
    assert eval_segmented(m, 3.0) == pytest.approx(3.0 + (-2.0) * 2.0 + 1.0 * 1.0)


def test_eval_continuous_at_breakpoints():
    m = SegmentedModel(beta=(0.0, 1.0, -2.0, 1.0), alpha=(1.0, 2.0))
    eps = 1e-9
    for a in m.alpha:
        left = eval_segmented(m, a - eps)
        right = eval_segmented(m, a + eps)
        assert abs(left - right) < 1e-8
    assert eval_segmented(m, 1.0) == pytest.approx(0.0 + 1.0 * 1.0)


def test_model_validation():
    with pytest.raises(SegmentedError):
        SegmentedModel(beta=(0, 1, 2, 3), alpha=(2.0, 1.0))
    with pytest.raises(SegmentedError):
        SegmentedModel(beta=(0, 1, 2), alpha=(1.0, 2.0))


def test_noiseless_recovery():
    xs = np.linspace(0, 1, 60)
    ds = BivariateDataset.from_arrays(xs, eval_segmented(TRUTH, xs))
    fit = fit_segmented(ds)
    assert np.max(np.abs(fit.model.theta - TRUTH.theta)) < 1e-6
    assert fit.rss < 1e-12


def test_inner_profile_matches_normal_equations_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(12, 31))
        xs = np.sort(rng.uniform(0, 1, n))
        ys = rng.normal(size=n) * 3 + 5
        a1, a2 = np.sort(rng.choice(xs[2:-2], 2, replace=False) + 1e-4)
        if a2 - a1 < 1e-3:
            continue
        beta, rss = profile_inner_ols(xs, ys, float(a1), float(a2))
        design = segmented_design(xs, a1, a2)
        beta_oracle = ols_oracle(design, ys)
        resid = ys - design @ beta_oracle
        rss_oracle = float(resid @ resid)
        assert rss == pytest.approx(rss_oracle, rel=1e-9, abs=1e-12)
        assert np.allclose(beta, beta_oracle, rtol=1e-6, atol=1e-8)


def test_fit_rss_beats_every_grid_candidate():
    ds = _noisy(n=25, sigma=0.4, seed=9)
    fit = fit_segmented(ds)
    u = np.unique(ds.xs)
    mids = (u[:-1] + u[1:]) / 2.0
    for i, j in zip(*np.triu_indices(mids.size, k=1)):
        c1 = np.sum(ds.xs <= mids[i])
        c2 = np.sum(ds.xs <= mids[j]) - c1
        if min(c1, c2, ds.n - c1 - c2) < 3:
            continue
        design = segmented_design(ds.xs, mids[i], mids[j])
        resid = ds.ys - design @ ols_oracle(design, ds.ys)
        rss = float(resid @ resid)
        assert fit.rss <= rss + 1e-9 * (1.0 + rss)


def _brute_min_rss(xs, ys, min_pts=3, step=2e-3, confirm=16):
    """Least RSS over breakpoint pairs on a grid of the given step plus every
    data value, under the fitter's segment rule: a breakpoint on a data value
    may count it in either neighbouring segment.  Batched normal equations
    rank the pairs; the best ``confirm`` are solved again by ``lstsq``."""
    grid = np.union1d(np.arange(xs[0], xs[-1], step), xs)
    at_or_below = np.searchsorted(xs, grid, side="right")
    below = np.searchsorted(xs, grid, side="left")
    n = xs.size
    i, j = np.triu_indices(grid.size, k=1)
    keep = np.zeros(i.size, dtype=bool)
    for c1 in (below[i], at_or_below[i]):
        for c2 in (below[j], at_or_below[j]):
            keep |= (c1 >= min_pts) & (c2 - c1 >= min_pts) & (n - c2 >= min_pts)
    a1, a2 = grid[i[keep]], grid[j[keep]]
    approx = np.empty(a1.size)
    for s in range(0, a1.size, 2048):
        X = np.stack(
            [np.ones((a1[s:s + 2048].size, n)), np.broadcast_to(xs, (a1[s:s + 2048].size, n)),
             np.maximum(xs - a1[s:s + 2048, None], 0.0), np.maximum(xs - a2[s:s + 2048, None], 0.0)],
            axis=2,
        )
        gram = np.einsum("pni,pnj->pij", X, X)
        coef = np.linalg.solve(gram, np.einsum("pni,n->pi", X, ys)[..., None])
        approx[s:s + 2048] = np.sum((ys - (X @ coef)[..., 0]) ** 2, axis=1)
    best = np.inf
    for k in np.argsort(approx, kind="stable")[:confirm]:
        design = segmented_design(xs, a1[k], a2[k])
        beta, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
        if rank == 4:
            resid = ys - design @ beta
            best = min(best, float(resid @ resid))
    return best


@pytest.mark.parametrize("case", ["continuous", "half-unit ties", "repeated x"])
def test_fit_is_least_squares_over_the_continuum(case):
    """The fit's RSS is at or below a brute-force search over a fine grid
    plus every data value, under the same segment rule."""
    for seed in range(4):
        gen = np.random.default_rng(seed)
        if case == "repeated x":
            xs = np.sort(np.repeat(gen.uniform(0, 1, 20), 2))
        else:
            xs = np.sort(gen.uniform(0, 1, 40))
        ys = eval_segmented(TRUTH, xs) + 0.5 * (1.0 + 1.5 * xs) * gen.standard_normal(xs.size)
        if case == "half-unit ties":
            ys = np.round(2.0 * ys) / 2.0
        fit = fit_segmented(BivariateDataset.from_arrays(xs, ys))
        brute = _brute_min_rss(fit.xs, fit.ys)
        assert fit.rss <= brute * (1.0 + 1e-10), (case, seed, fit.rss, brute)


@pytest.mark.parametrize("n", [40, 200])
@pytest.mark.parametrize("case", ["continuous", "half-unit ties", "repeated x"])
def test_block_fit_is_bit_identical_to_fit_segmented(case, n):
    gen = np.random.default_rng(n)
    if case == "repeated x":
        xs = np.sort(np.repeat(gen.uniform(0, 1, n // 2), 2))
    else:
        xs = np.sort(gen.uniform(0, 1, n))
    Y = eval_segmented(TRUTH, xs) + 0.5 * (1.0 + 1.5 * xs) * gen.standard_normal((4, n))
    if case == "half-unit ties":
        Y = np.round(2.0 * Y) / 2.0
    block = segmented_fitter()(xs)(Y)
    for ys, row in zip(Y, block):
        fit = fit_segmented(BivariateDataset.from_arrays(xs, ys))
        assert row.tobytes() == eval_segmented(fit.model, xs).tobytes()


def _wedge_dataset(case, n, seed):
    """Criterion-1 truth with noise sd 0.5 (1 + 1.5 x) on sorted uniform x."""
    gen = np.random.default_rng(seed)
    if case == "repeated x":
        xs = np.sort(np.repeat(gen.uniform(0, 1, n // 2), 2))
    else:
        xs = np.sort(gen.uniform(0, 1, n))
    ys = eval_segmented(TRUTH, xs) + 0.5 * (1.0 + 1.5 * xs) * gen.standard_normal(n)
    if case == "half-unit ties":
        ys = np.round(2.0 * ys) / 2.0
    return BivariateDataset.from_arrays(xs, ys)


# (case, n, min_segment_points, seed) -> float.hex of (a1, a2), (b0, b1, b2,
# b3), rss and the ends of the 95% alpha1 and alpha2 profile-F intervals.
# Recorded with the search as of commit 49225b4.  The last two datasets
# carry about 1e-7 relative rounding in their edge RSS (CHANGES.md).
PINNED = {
    ("continuous", 40, 3, (40, 3)): (
        "0x1.9956049caa67cp-2", "0x1.c9830e0a2c2a8p-1",
        "0x1.4222d3506042dp+3", "-0x1.2fbcc0880e158p-1", "-0x1.1ecfdf7d2e604p+2", "0x1.981d0e3efe2b1p+4",
        "0x1.5dfd7a40632c0p+4",
        "0x1.50839ceedc2d8p-4", "0x1.c9830e0a2c2a8p-1", "0x1.08fb144e4640ep-2", "0x1.dce2fb2ca615cp-1",
    ),
    ("continuous", 40, 5, (40, 5)): (
        "0x1.cad83795face2p-2", "0x1.611ba293d9879p-1",
        "0x1.395b97f9adcdfp+3", "-0x1.d1d46039db3e0p-3", "-0x1.fdfa57b122a8ap+2", "0x1.ae954f2a73704p+3",
        "0x1.efdb7c57c9bb3p+4",
        "0x1.8c537ebc3c0e0p-4", "0x1.92119acfb1e82p-1", "0x1.12a3a4d6e926ep-1", "0x1.d6d91d4785c76p-1",
    ),
    ("continuous", 200, 3, (200, 3)): (
        "0x1.6fb31b1ceb39ap-2", "0x1.5bc4fbcaf414fp-1",
        "0x1.44db317bb710dp+3", "-0x1.32646c417cfb6p+0", "-0x1.0412f685ae815p+2", "0x1.01453dbb5dd1fp+3",
        "0x1.1d9acd2a83e6bp+7",
        "0x1.c86fc76843714p-3", "0x1.ba0085af19131p-1", "0x1.18022ba4b85d0p-1", "0x1.fc851c5b7b5dap-1",
    ),
    ("continuous", 200, 5, (200, 5)): (
        "0x1.a6aabb4a0b9f2p-1", "0x1.acf4271727677p-1",
        "0x1.4aa80c0d04e68p+3", "-0x1.40e3236fd80c0p+1", "-0x1.c8904fd6f1853p+5", "0x1.0cf42062e1f3fp+6",
        "0x1.5a2088b6f6d74p+7",
        "0x1.6ef73bc8e5060p-6", "0x1.e0d372db4050bp-1", "0x1.0fd2cb10bfe08p-1", "0x1.f6de592e719c6p-1",
    ),
    ("half-unit ties", 40, 3, (40, 3)): (
        "0x1.a99d48d1291dep-2", "0x1.c9830e0a2c2a8p-1",
        "0x1.443a3d9ac1f13p+3", "-0x1.86dbe7b1d93e8p-1", "-0x1.275dad1ce8193p+2", "0x1.ad193a522e26cp+4",
        "0x1.739fb70d3a8b8p+4",
        "0x1.50839ceedc2d8p-4", "0x1.c381771315c81p-1", "0x1.7d2ca5db266c0p-3", "0x1.dce2fb2ca615cp-1",
    ),
    ("half-unit ties", 40, 5, (40, 5)): (
        "0x1.cff319bc83ddfp-2", "0x1.5d1a939f3641ep-1",
        "0x1.37a0cc64b7724p+3", "-0x1.b4255ed397800p-6", "-0x1.2a2f3f1df186fp+3", "0x1.df306acbf252dp+3",
        "0x1.e848a129b5666p+4",
        "0x1.7e4d61744b9a6p-3", "0x1.4b4bbcc8d1ad4p-1", "0x1.12a3a4d6e926ep-1", "0x1.b2110b9198f32p-1",
    ),
    ("half-unit ties", 200, 3, (200, 3)): (
        "0x1.6fb31b1ceb39ap-2", "0x1.5bb83a206a010p-1",
        "0x1.45fc9c13ba8f8p+3", "-0x1.6b88faa33cee7p+0", "-0x1.ce1b75aa73e39p+1", "0x1.ee6503a8e9c7bp+2",
        "0x1.21d309576e384p+7",
        "0x1.8e0528e4aa130p-3", "0x1.b06ba0a3d1732p-1", "0x1.0cd7433fff123p-1", "0x1.fc851c5b7b5dap-1",
    ),
    ("half-unit ties", 200, 5, (200, 5)): (
        "0x1.d9bf550ba1a96p-1", "0x1.e0d372db4050bp-1",
        "0x1.4c44792377f4ap+3", "-0x1.57b0162b5695bp+1", "0x1.207b16ca3e0c2p+6", "-0x1.37450039410a1p+6",
        "0x1.5d4fd513a2e55p+7",
        "0x1.6ef73bc8e5060p-6", "0x1.e0d372db4050bp-1", "0x1.1349e4878633dp-1", "0x1.f6de592e719c6p-1",
    ),
    ("repeated x", 40, 3, (40, 3)): (
        "0x1.c28fca913aa69p-1", "0x1.d318ea3eed2ebp-1",
        "0x1.4722e9cd6d610p+3", "-0x1.1b92e8e757a71p+1", "0x1.055cf147be9c6p+6", "-0x1.c18b923fb6c83p+7",
        "0x1.05356025fb6b7p+4",
        "0x1.8e198f0f64c16p-1", "0x1.c9830e0a2c2a8p-1", "0x1.ca27166310aebp-1", "0x1.d751c8ceada26p-1",
    ),
    ("repeated x", 40, 5, (40, 5)): (
        "0x1.531ed72c0125ep-1", "0x1.9e02c149742f1p-1",
        "0x1.4aa3424b5481ep+3", "-0x1.9fd4d7a9629c8p+1", "0x1.506d30e75d320p+3", "-0x1.9768184c1e085p+4",
        "0x1.e175229eccf69p+4",
        "0x1.c994b604c09e7p-2", "0x1.5b546e126cd0fp-1", "0x1.2a8186bd21cf2p-1", "0x1.9e02c149742f1p-1",
    ),
    ("repeated x", 200, 3, (200, 3)): (
        "0x1.15234087baf38p-1", "0x1.368b8f01687c4p-1",
        "0x1.49fedb75bf547p+3", "-0x1.05af855740d58p+1", "-0x1.0426e9f16ef5dp+4", "0x1.3f72b7011c1f1p+4",
        "0x1.20bc59e75a003p+7",
        "0x1.f1c322bb1bce7p-2", "0x1.4197c2d498c73p-1", "0x1.1a10daff93020p-1", "0x1.649bd735453efp-1",
    ),
    ("repeated x", 200, 5, (200, 5)): (
        "0x1.b7260ec8a055dp-1", "0x1.bb557a33ef5b2p-1",
        "0x1.4e27e123d748cp+3", "-0x1.5e39108ebb322p+1", "0x1.f63a2afea960ep+6", "-0x1.078dd368afa23p+7",
        "0x1.4becb168f01e1p+7",
        "0x1.4a67fd39c4159p-1", "0x1.ba43c2c4eaf36p-1", "0x1.64944931d2877p-1", "0x1.cf5a2770fe14ap-1",
    ),
    ("continuous", 200, 3, (200, 3, 4)): (
        "0x1.ae367b9efda96p-2", "0x1.f405317f8ccd4p-2",
        "0x1.3c875d08b6761p+3", "0x1.f1977fe211c48p-3", "-0x1.500fd276f7fb0p+4", "0x1.4c80ea0dfbe8ap+4",
        "0x1.0c2ba0749407ep+7",
        "0x1.382b59a44bb32p-2", "0x1.e9eb0704ccee8p-2", "0x1.bbbb3bf98fb6cp-2", "0x1.4387d9e25692ep-1",
    ),
    ("half-unit ties", 200, 3, (200, 1, 4)): (
        "0x1.9463bdc8f91f6p-2", "0x1.98130f7138276p-2",
        "0x1.3bba25a55103bp+3", "-0x1.cf7449c2a8040p-6", "-0x1.0be6b63a47c81p+8", "0x1.0aed4e242c298p+8",
        "0x1.9ffd035bf9816p+7",
        "0x1.f7e54d2636941p-5", "0x1.c667295bd37dap-1", "0x1.81271963b97c8p-2", "0x1.cff7e10effcccp-1",
    ),
}


@pytest.mark.parametrize("key", list(PINNED), ids=lambda key: f"{key[0]}-{key[1]}-{key[2]}-{key[3]}")
def test_fit_and_intervals_are_pinned_to_the_bit(key):
    """A reordered expression that moves a join point, a partner position,
    the winning pair or a crossing of the F cutoff shows here in the last
    bits."""
    case, n, min_pts, seed = key
    fit = fit_segmented(_wedge_dataset(case, n, list(seed)), min_segment_points=min_pts)
    iv = breakpoint_intervals(fit, 0.95)
    values = (*fit.model.alpha, *fit.model.beta, fit.rss, *iv["alpha1"], *iv["alpha2"])
    assert tuple(float(v).hex() for v in values) == PINNED[key]


# The same datasets -> the first 16 hex digits of the sha256 of the exact
# profile RSS at every admissible cell edge of alpha1, then of alpha2, then
# of every interior candidate's (a1, a2, rss), as the search ranks them.
# Recorded with the search as of commit 49225b4.
PINNED_PROFILES = {
    ("continuous", 40, 3, (40, 3)): "574a3470919e6d36",
    ("continuous", 40, 5, (40, 5)): "cc446e1f301a1aaa",
    ("continuous", 200, 3, (200, 3)): "d1bf5423d70d6006",
    ("continuous", 200, 5, (200, 5)): "12fe1c9340967e24",
    ("half-unit ties", 40, 3, (40, 3)): "1830c7136572086c",
    ("half-unit ties", 40, 5, (40, 5)): "43f9a01ef364c66d",
    ("half-unit ties", 200, 3, (200, 3)): "ce37ebdcc2e1a6ed",
    ("half-unit ties", 200, 5, (200, 5)): "9d595520230c7139",
    ("repeated x", 40, 3, (40, 3)): "9f5a5b69cb664986",
    ("repeated x", 40, 5, (40, 5)): "daa34a8aba414afb",
    ("repeated x", 200, 3, (200, 3)): "1f25f5fa1a9f1af4",
    ("repeated x", 200, 5, (200, 5)): "63e780309a164fbd",
    ("continuous", 200, 3, (200, 3, 4)): "db211f3425276f63",
    ("half-unit ties", 200, 3, (200, 1, 4)): "a88ce6139d5c1077",
}


@pytest.mark.parametrize("key", list(PINNED_PROFILES), ids=lambda key: f"{key[0]}-{key[1]}-{key[2]}-{key[3]}")
def test_profile_values_are_pinned_to_the_bit(key):
    """Most of the search's arithmetic reaches the fit only through
    comparisons, so the fit's pins miss a reordered expression there; the
    values compared are pinned here."""
    from breakline.piecewise import _design_profile

    case, n, min_pts, seed = key
    ds = _wedge_dataset(case, n, list(seed))
    profile = _design_profile(ds.xs, min_pts)
    y = profile.response(ds.ys)
    digest = hashlib.sha256()
    for which in (0, 1):
        cell, edge = profile.edges(which)
        digest.update(profile.rss(y, np.full(cell.size, which), profile.u[edge], cell).tobytes())
    for values in profile._interior_pairs(y, np.inf):
        digest.update(values.tobytes())
    assert digest.hexdigest()[:16] == PINNED_PROFILES[key]


def test_warm_search_allocates_no_grid_sized_temporaries():
    """With its workspace allocated, one search at n = 200 allocates no
    grid-sized temporaries: each (positions x cells) grid is 0.3 MB, and
    the search computes about twenty of them."""
    from breakline.piecewise import _design_profile

    ds = _wedge_dataset("continuous", 200, [200, 3])
    profile = _design_profile(ds.xs, 3)
    work = profile.workspace()
    y = profile.response(ds.ys)
    expected = profile.least_squares_pair(y, work)
    tracemalloc.start()
    try:
        assert profile.least_squares_pair(y, work) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6, peak


def _dense_partner_rss(profile, y, P, which, cell):
    """The response half of the search as it was before the range maximum:
    every gain on the full (positions x cells) grid, interior gains
    included, expanded to (rows x cells), masked by the admissible set and
    reduced.  Returns the profile RSS and the grids the tie rule reads."""
    blocked = ~np.where(which[:, None] == 0, profile.admissible[cell, :], profile.admissible[:, cell].T)
    t, p, back, q = P.t, P.p, P.back, profile.q
    w = np.stack([np.full(t.size, y.Sy), np.full(t.size, y.Sxy), y.sufxy[p] - t * y.sufy[p]], axis=1)
    rss_base = y.Syy - np.einsum("ei,eij,ej->e", w, P.G_inv, w)
    wc = [w[:, i, None] for i in range(3)]
    v1 = y.sufxy[q] - (wc[0] * P.hx[0] + wc[1] * P.hx[1] + wc[2] * P.hx[2])
    v2 = y.sufy[q] - (wc[0] * P.h1[0] + wc[1] * P.h1[1] + wc[2] * P.h1[2])
    m11, m12, m22 = P.m11, P.m12, P.m22
    k0, k1, k2 = profile.n - q, profile.suf1[q], profile.suf2[q]
    lo, hi = profile.u[:-1], profile.u[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        edge_gains = []
        for s in (lo, hi):
            quad = m11 - 2.0 * s * m12 + s * s * m22
            gain = np.square(v1 - s * v2) / quad
            gain[~(quad > 1e-12 * (k2 - 2.0 * s * k1 + s * s * k0))] = -np.inf
            edge_gains.append(gain)
        s_star = -(m11 * v2 - m12 * v1) / (m22 * v1 - m12 * v2)
        det = m11 * m22 - m12 * m12
        gain_in = (m22 * v1 * v1 - 2.0 * m12 * v1 * v2 + m11 * v2 * v2) / det
    gain_in[~((det > 1e-12 * m11 * m22) & (lo <= s_star) & (s_star <= hi))] = -np.inf
    gain_lo, gain_hi = edge_gains
    cell_gain = np.maximum(np.maximum(gain_lo, gain_in), gain_hi)[back]
    cell_gain[blocked] = -np.inf
    best = cell_gain.max(axis=1)
    rss = np.where(P.base_ok[back] & np.isfinite(best), np.maximum(rss_base[back] - best, 0.0), np.inf)
    return rss, blocked, cell_gain, (gain_lo, gain_in, gain_hi), s_star


def _dense_tie_partners(profile, y, P, dense, rows):
    """The tie rule on the grids of :func:`_dense_partner_rss`."""
    _, _, cell_gain, grids, s_star = dense
    cell_gain = cell_gain[rows]
    tied = (cell_gain.max(axis=1) - y.tie)[:, None]
    k = np.argmax(cell_gain >= tied, axis=1)
    c = P.back[rows]
    spot = np.argmax(np.stack([grid[c, k] for grid in grids], axis=1) >= tied, axis=1)
    inner = profile.x0 + profile.span * s_star[c, k]
    return np.where(spot == 0, profile.u_orig[k], np.where(spot == 2, profile.u_orig[k + 1], inner))


def _seed_101_input():
    """``plrm-boot-n200`` seed 101, command 10 of the benchmark
    (``perfbench/workloads.py``): six x values packed in 0.0106-0.0124."""
    gen = np.random.default_rng([101, 0, 10])
    xs = np.sort(gen.uniform(0.0, 1.0, 200))
    return BivariateDataset.from_arrays(xs, eval_segmented(TRUTH, xs) + 0.5 * gen.standard_normal(200))


@pytest.mark.parametrize(
    "case",
    ["continuous-200", "continuous-200-min5", "half-unit ties", "repeated x", "noiseless", "n400", "seed 101"],
)
def test_range_maximum_search_matches_the_dense_search(case):
    """The search's response half, which takes each row's best partner as a
    range maximum over its run of admissible cells and the interior gain
    only where the stationary point lies in its cell, gives the profile and
    the tied partners of the dense expand, mask and reduce to the bit, at
    every admissible cell edge of both breakpoints and at cells with no
    admissible partner at all."""
    from breakline.piecewise import _design_profile, _Partners, _Workspace

    min_pts = 5 if case.endswith("min5") else 3
    if case == "seed 101":
        ds = _seed_101_input()
    elif case == "noiseless":
        xs = np.sort(np.random.default_rng(9).uniform(0, 1, 80))
        ds = BivariateDataset.from_arrays(xs, eval_segmented(TRUTH, xs))
    elif case == "n400":
        ds = _wedge_dataset("continuous", 400, [400, 6])
    else:
        kind = case if case in ("half-unit ties", "repeated x") else "continuous"
        ds = _wedge_dataset(kind, 200 if case != "repeated x" else 120, [200, 7])
    profile = _design_profile(ds.xs, min_pts)
    y = profile.response(ds.ys)
    (cell0, edge0), (cell1, edge1) = profile.edges(0), profile.edges(1)
    # every admissible cell edge, plus every cell of each breakpoint at its
    # midpoint, which includes cells without an admissible partner
    every = np.arange(profile.q.size)
    which = np.concatenate([np.zeros(edge0.size + every.size, int), np.ones(edge1.size + every.size, int)])
    cell = np.concatenate([cell0, every, cell1, every])
    mid = (profile.u[:-1] + profile.u[1:]) / 2.0
    t = np.concatenate([profile.u[edge0], mid, profile.u[edge1], mid])
    P = _Partners(profile, which, t, cell)
    assert P.off_lo.size and P.off_hi.size and P.det_off.size, case
    work = _Workspace(P)
    rss = profile._partner_rss(y, P, work)
    dense = _dense_partner_rss(profile, y, P, which, cell)
    assert np.array_equal(rss, dense[0]), case
    # the per-cell gains themselves, where the masks fall outside every run
    gain_lo, gain_in, gain_hi = dense[3]
    assert np.array_equal(work.gain_lo, gain_lo) and np.array_equal(work.gain_hi, gain_hi), case
    assert np.array_equal(work.at, np.flatnonzero(gain_in > -np.inf)), case
    assert np.array_equal(work.gain_at, gain_in.ravel()[work.at]), case
    assert np.isinf(rss).any(), case
    assert np.array_equal(profile.rss(y, which, t, cell), rss), case
    # each row's admissible partners are the run [first, stop)
    for r, blocked in enumerate(dense[1]):
        assert np.array_equal(np.flatnonzero(~blocked), np.arange(P.first[r], P.stop[r])), (case, r)
    rows = np.flatnonzero(np.isfinite(rss))
    tied = profile._tie_partners(y, P, work, rows)
    assert np.array_equal(tied, _dense_tie_partners(profile, y, P, dense, rows)), case


def test_direct_rss_without_an_admissible_partner_is_inf():
    """A position whose cell admits no partner profiles to +inf: its run of
    partner cells is empty and reduces to the workspace's trailing -inf."""
    from breakline.piecewise import _design_profile

    ds = _wedge_dataset("continuous", 60, [60, 2])
    profile = _design_profile(ds.xs, 3)
    y = profile.response(ds.ys)
    last = profile.q.size - 1
    # breakpoint 0 in the first cell and in the last; breakpoint 1 in the first
    which, cell = np.array([0, 0, 1, 0]), np.array([0, last, 0, 10])
    t = (profile.u[cell] + profile.u[cell + 1]) / 2.0
    rss = profile.rss(y, which, t, cell)
    assert np.isposinf(rss[:3]).all() and np.isfinite(rss[3]), rss


def test_design_profile_and_workspace_hold_under_7_5_mb():
    """The x-only search state at n = 200, its design profile with edge
    partners plus one workspace, holds 6.14 MB of Python allocations: each
    (positions x cells) grid is 0.3 MB.  Expanding the gains to (edge rows
    x cells) with a blocked-partner mask, and a dense interior-gain grid,
    held 7.91 MB."""
    from breakline.piecewise import _design_profile

    ds = _wedge_dataset("continuous", 200, [200, 3])
    tracemalloc.start()
    try:
        profile = _design_profile(ds.xs, 3)
        work = profile.workspace()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert work.cell_best.shape == profile._edge_search()[2].m11.shape
    assert held < 7.5e6, held


def test_bootstrap_band_peak_memory_is_bounded():
    """A fit, a B = 2000 bootstrap band and the profile-F intervals at
    n = 200 peak at 14.1-14.3 MB of Python allocations: the 3.2 MB pool and
    the copy ``np.quantile`` makes of it, with the pool's design profile and
    workspace released before the quantiles.  Holding them through the
    quantiles would add about 9 MB."""
    ds = _wedge_dataset("continuous", 200, [200, 3])
    tracemalloc.start()
    try:
        fit = fit_segmented(ds)
        plrm_prediction_band(fit, [0.80, 0.95], B=2000, seed=1, force_bootstrap=True)
        breakpoint_intervals(fit, 0.95)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14.3e6, peak


def test_fitter_reused_across_designs_and_blocks_is_bit_identical():
    """One fitter bound to two designs, each bound form fed blocks of
    different sizes alternately with the other, matches fresh fits: nothing
    leaks between rows or blocks through the workspace, or between designs
    through the fitter.  Each block size also binds a fresh order of each
    design, since the fitter takes xs in any order."""
    designs = [_wedge_dataset("continuous", 60, [60, 1]), _wedge_dataset("repeated x", 80, [80, 2])]
    gen = np.random.default_rng(11)
    fitter = segmented_fitter()

    def permuted(ds):
        order = gen.permutation(ds.n)
        return ds.xs[order], ds.ys[order]

    bound = [(xs, ys0, fitter(xs)) for xs, ys0 in map(permuted, designs)]
    for size in (1, 5, 3, 1, 4, 2):
        fresh = [(xs, ys0, fitter(xs)) for xs, ys0 in map(permuted, designs)]
        for xs, ys0, fit_rows in bound + fresh:
            Y = ys0 + 0.3 * gen.standard_normal((size, xs.size))
            block = fit_rows(Y)
            for ys, row in zip(Y, block):
                fit = fit_segmented(BivariateDataset.from_arrays(xs, ys))
                assert row.tobytes() == eval_segmented(fit.model, xs).tobytes()


def test_fitter_shared_between_threads_is_bit_identical():
    """Threads sharing one fitter on two designs at once get the fits a
    fitter of their own gives."""
    designs = [_wedge_dataset("continuous", 40, [40, 7]), _wedge_dataset("half-unit ties", 50, [50, 8])]
    gen = np.random.default_rng(12)
    blocks = [(ds.xs, ds.ys + 0.3 * gen.standard_normal((3, ds.n))) for ds in designs]
    expected = [segmented_fitter()(xs)(Y).tobytes() for xs, Y in blocks]
    shared = segmented_fitter()
    results = {}

    def work(t):
        for r in range(6):
            i = (t + r) % 2
            xs, Y = blocks[i]
            results[t, r] = shared(xs)(Y).tobytes() == expected[i]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 24 and all(results.values())


def test_fit_rss_is_the_exact_profile_minimum():
    """On criterion 1's first dataset the exact profile at the fitted
    breakpoints is no lower than the fit's RSS."""
    from breakline.piecewise import _BreakpointProfile, _cells_of

    xs = np.linspace(0, 1, 200)
    ys = eval_segmented(TRUTH, xs) + 0.5 * standard_normal(RngSpec(0).stream(0), 200)
    fit = fit_segmented(BivariateDataset.from_arrays(xs, ys))
    profile = _BreakpointProfile(fit.xs, fit.min_segment_points)
    for which in (0, 1):
        a = fit.model.alpha[which]
        cells = [c for c in _cells_of(profile.u_orig, a) if c in profile.cells(which)]
        t = np.full(len(cells), (a - profile.x0) / profile.span)
        rss = profile.rss(profile.response(fit.ys), np.full(len(cells), which), t, np.array(cells))
        assert rss.min() >= fit.rss * (1.0 - 1e-12)


def test_fitted_mean_continuous_and_breaks_ordered():
    ds = _noisy(n=40, sigma=0.6, seed=2)
    fit = fit_segmented(ds)
    a1, a2 = fit.model.alpha
    assert ds.xs[0] < a1 < a2 < ds.xs[-1]
    eps = 1e-12 * (ds.xs[-1] - ds.xs[0])
    for a in (a1, a2):
        jump = abs(eval_segmented(fit.model, a + eps) - eval_segmented(fit.model, a - eps))
        assert jump < 1e-9


def test_pure_linear_monte_carlo():
    """On data with no breakpoints the slope contrasts stay near the common
    slope and the second/third hinge coefficients are indistinguishable from 0."""
    slope_ok = 0
    hinge_ok = 0
    runs = 400
    for seed in range(runs):
        xs = np.linspace(0, 1, 40)
        ys = 1.0 + 2.0 * xs + 0.5 * standard_normal(RngSpec(seed).stream(0), 40)
        fit = fit_segmented(BivariateDataset.from_arrays(xs, ys), min_segment_points=4)
        s2 = fit.inference["slope2"]
        s3 = fit.inference["slope3"]
        if s2.ci_lower <= 2.0 <= s2.ci_upper and s3.ci_lower <= 2.0 <= s3.ci_upper:
            slope_ok += 1
        b2 = contrast_inference(fit, [0.0, 0.0, 1.0, 0.0])
        b3 = contrast_inference(fit, [0.0, 0.0, 0.0, 1.0])
        if b2.ci_lower <= 0.0 <= b2.ci_upper and b3.ci_lower <= 0.0 <= b3.ci_upper:
            hinge_ok += 1
    assert slope_ok >= 0.9 * runs
    assert hinge_ok >= 0.9 * runs


@pytest.mark.parametrize(
    "est,se,df,t_printed,p_printed,ci_printed,tol_t,tol_ci",
    [
        (0.263, 0.033, 24, 7.970, 0.000, (0.196, 0.331), 1e-3, 2e-3),
        (0.488, 0.047, 24, 10.383, 0.000, (0.391, 0.585), 1e-3, 2e-3),
        (4.405, 36.100, 24, 0.122, 0.904, (-70.110, 78.920), 1e-3, 2e-2),
        (-161.700, 53.810, 24, -3.005, 0.006, (-272.800, -50.670), 1e-3, 1e-1),
        (112.300, 80.680, 24, 1.392, 0.177, (-54.240, 278.800), 1e-3, 1e-1),
        (1.212, 0.094, 144, 12.894, 0.000, (1.026, 1.399), 1e-3, 2e-3),
        (1.172, 0.326, 144, 3.595, 0.000, (0.528, 1.815), 1e-3, 2e-3),
        (0.831, 0.441, 144, 1.884, 0.062, (-0.041, 1.702), 1e-3, 2e-3),
    ],
)
def test_inference_rows_reproduce_published_style_tables(
    est, se, df, t_printed, p_printed, ci_printed, tol_t, tol_ci
):
    """Given a reported estimate/SE/df, the t, p, and CI arithmetic must
    reproduce the reported values up to their print rounding."""
    row = _t_row("x", est, se, df)
    assert row.t == pytest.approx(t_printed, abs=tol_t)
    assert row.p == pytest.approx(p_printed, abs=1e-3)
    assert row.ci_lower == pytest.approx(ci_printed[0], abs=tol_ci)
    assert row.ci_upper == pytest.approx(ci_printed[1], abs=tol_ci)


def test_report_rows_structure_and_significance():
    ds = _noisy(n=60, sigma=0.3, seed=1)
    fit = fit_segmented(ds)
    rows = fit_report_rows(fit)
    assert [r["parameter"] for r in rows] == ["alpha1", "alpha2", "slope1", "slope2", "slope3"]
    for r in rows:
        assert set(r) == {"parameter", "estimate", "se", "t", "p", "ci_lower", "ci_upper", "significant"}
        if r["p"] is not None:
            assert r["significant"] == (r["p"] < 0.05)
    # the steep middle slope must register as significant at this noise level
    slope2 = rows[3]
    assert slope2["significant"] is True


def test_degenerate_hinge_flags_breakpoint_unidentified():
    xs = np.linspace(0, 1, 40)
    ys = 1.0 + 2.0 * xs  # no slope change at all
    fit = fit_segmented(BivariateDataset.from_arrays(xs, ys))
    # every admissible pair fits exactly; the tie rule takes the
    # lexicographically smallest, three points into each segment
    assert fit.model.alpha == (xs[2], xs[5])
    assert fit.unidentified  # at least one breakpoint has no slope change
    name = fit.unidentified[0]
    row = fit.inference[name]
    assert math.isinf(row.se)
    assert (row.ci_lower, row.ci_upper) == (0.0, 1.0)
    report = {r["parameter"]: r for r in fit_report_rows(fit)}
    assert report[name]["se"] is None
    assert report[name]["significant"] is False


def test_breakpoint_intervals_levels_nest():
    ds = _noisy(n=80, sigma=0.4, seed=3)
    fit = fit_segmented(ds)
    narrow = breakpoint_intervals(fit, 0.80)
    wide = breakpoint_intervals(fit, 0.95)
    for key in ("alpha1", "alpha2"):
        assert wide[key][0] <= narrow[key][0] <= narrow[key][1] <= wide[key][1]
    # the report rows carry the 95% Wald interval est +/- t * se
    tq95 = stats.t.ppf(0.975, fit.df)
    for key in ("alpha1", "alpha2"):
        row = fit.inference[key]
        assert row.ci_lower == pytest.approx(row.estimate - tq95 * row.se)
        assert row.ci_upper == pytest.approx(row.estimate + tq95 * row.se)


def _brute_profile(xs, ys, which, value, min_pts=3, step=1e-3, zooms=2):
    """min over the other breakpoint of the inner RSS, by brute force on a
    grid (plus every data value) zoomed twice around its best point."""

    def rss(other):
        a1, a2 = (value, other) if which == 0 else (other, value)
        c1 = np.sum(xs <= a1)
        c2 = np.sum(xs <= a2) - c1
        if not (a1 < a2 and min(c1, c2, xs.size - c1 - c2) >= min_pts):
            return np.inf
        return profile_inner_ols(xs, ys, a1, a2)[1]

    grid = np.union1d(np.arange(xs[0], xs[-1], step), xs)
    values = np.array([rss(g) for g in grid])
    best_value = values.min()
    for _ in range(zooms):
        best = int(np.argmin(values))
        grid = np.linspace(grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)], 101)
        values = np.array([rss(g) for g in grid])
        best_value = min(best_value, values.min())
    return best_value


@pytest.mark.parametrize("case", ["noisy", "linear"])
def test_profile_interval_endpoints_on_cutoff_or_edge(case):
    """Every endpoint is a crossing of the F cutoff by the exact profile, or
    the edge of the breakpoint's admissible range."""
    if case == "noisy":
        ds = _noisy(n=60, sigma=0.4, seed=0)
    else:
        xs = np.linspace(0, 1, 60)
        ds = BivariateDataset.from_arrays(xs, 1.0 + 2.0 * xs + 0.5 * standard_normal(RngSpec(0).stream(0), 60))
    xs, ys, n = ds.xs, ds.ys, ds.n
    fit = fit_segmented(ds)
    assert not fit.unidentified
    iv = breakpoint_intervals(fit, 0.95)
    rss_min = min(fit.rss, *(_brute_profile(xs, ys, k, fit.model.alpha[k]) for k in (0, 1)))
    cutoff = rss_min * (1.0 + stats.f.ppf(0.95, 1, n - 6) / (n - 6))
    # admissible ranges with 3 points per segment and distinct x values
    edges = {"alpha1": (xs[2], xs[n - 6]), "alpha2": (xs[5], xs[n - 3])}
    on_cutoff = on_edge = 0
    for k, name in enumerate(("alpha1", "alpha2")):
        for side in (0, 1):
            end = iv[name][side]
            if end == edges[name][side]:
                on_edge += 1
            else:
                assert _brute_profile(xs, ys, k, end) == pytest.approx(cutoff, rel=1e-6), (name, side)
                on_cutoff += 1
    assert (on_cutoff, on_edge) == ((4, 0) if case == "noisy" else (0, 4))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the profile is sampled only at cell edges and the estimate, so a dip below the cutoff "
    "inside a cell whose edges are above it is missed (ROADMAP item 4)",
)
def test_profile_interval_reaches_a_dip_inside_a_cell():
    rng = np.random.default_rng(22)
    xs = np.sort(rng.uniform(0.0, 1.0, 100))
    ds = BivariateDataset.from_arrays(xs, eval_segmented(TRUTH, xs) + 0.5 * rng.standard_normal(100))
    fit = fit_segmented(ds)
    cutoff = fit.rss * (1.0 + stats.f.ppf(0.95, 1, fit.df) / fit.df)
    # the exact profile of alpha2 is 0.9995 of the cutoff at 0.8555
    if not _brute_profile(ds.xs, ds.ys, 1, 0.8555) <= cutoff:
        pytest.fail("the alpha2 profile no longer dips below the cutoff at 0.8555")
    assert breakpoint_intervals(fit, 0.95)["alpha2"][1] >= 0.8555


def test_profile_interval_contains_estimate():
    for seed in range(8):
        fit = fit_segmented(_noisy(n=40, sigma=0.6, seed=seed))
        for level in (0.5, 0.95):
            iv = breakpoint_intervals(fit, level)
            for k, name in enumerate(("alpha1", "alpha2")):
                assert iv[name][0] <= fit.model.alpha[k] <= iv[name][1]


def test_profile_interval_degenerate_without_noise():
    xs = np.linspace(0, 1, 60)
    fit = fit_segmented(BivariateDataset.from_arrays(xs, eval_segmented(TRUTH, xs)))
    iv = breakpoint_intervals(fit, 0.95)
    for k, name in enumerate(("alpha1", "alpha2")):
        assert iv[name][0] == pytest.approx(fit.model.alpha[k], abs=1e-6)
        assert iv[name][1] == pytest.approx(fit.model.alpha[k], abs=1e-6)


def test_unidentified_breakpoint_interval_is_x_range():
    xs = np.linspace(0, 1, 40)
    fit = fit_segmented(BivariateDataset.from_arrays(xs, 1.0 + 2.0 * xs))
    assert fit.unidentified
    iv = breakpoint_intervals(fit, 0.95)
    for name in fit.unidentified:
        assert iv[name] == (0.0, 1.0)


def test_breakpoint_intervals_validation():
    fit = fit_segmented(_noisy(n=40, sigma=0.4, seed=1))
    with pytest.raises(SegmentedError, match="level"):
        breakpoint_intervals(fit, 1.0)


def test_band_zero_noise_collapses():
    xs = np.linspace(0, 1, 60)
    ds = BivariateDataset.from_arrays(xs, eval_segmented(TRUTH, xs))
    fit = fit_segmented(ds)
    (band,) = plrm_prediction_band(fit, [0.80])
    assert np.max(band.upper - band.lower) < 1e-5


def test_band_wider_at_sparse_edges():
    ds = _noisy(n=80, sigma=0.5, seed=6)
    fit = fit_segmented(ds)
    (band,) = plrm_prediction_band(fit, [0.80])
    half = band.upper - band.lower
    mid = len(half) // 2
    assert half[0] > half[mid]
    assert half[-1] > half[mid]


def test_band_gamma_monotonicity():
    ds = _noisy(n=60, sigma=0.5, seed=7)
    fit = fit_segmented(ds)
    (b80,) = plrm_prediction_band(fit, [0.80])
    (b95,) = plrm_prediction_band(fit, [0.95])
    assert np.all(b95.upper - b95.lower > b80.upper - b80.lower)


def test_band_bootstrap_switch():
    ds = _noisy(n=30, sigma=0.5, seed=8)
    fit = fit_segmented(ds)
    (band,) = plrm_prediction_band(fit, [0.80], B=30, seed=1, force_bootstrap=True)
    assert band.meta.get("bootstrap_fallback") is True
    assert np.all(band.lower <= band.upper)
    # both coefficients are read off one replicate pool, so the bands nest
    b80, b95 = plrm_prediction_band(fit, [0.80, 0.95], B=40, seed=1, force_bootstrap=True)
    assert np.all(b95.lower <= b80.lower) and np.all(b80.upper <= b95.upper)
    # B = 30 is too few for 0.95
    with pytest.raises(BootstrapError, match="too small"):
        plrm_prediction_band(fit, [0.80, 0.95], B=30, seed=1, force_bootstrap=True)
    # the parametric band never resamples, so B is not checked against gamma
    (parametric,) = plrm_prediction_band(fit, [0.95], B=30, seed=1)
    assert parametric.meta == {"kind": "parametric"}


def test_preconditions():
    """PLRM, one PQRM tau and a PQRM grid refuse the same data with the same
    message: the quantile sweeps run the least-squares fitter's checks."""
    xs = np.linspace(0, 1, 8)
    too_few = BivariateDataset.from_arrays(xs, np.sin(xs))
    few_distinct = BivariateDataset.from_arrays(
        np.repeat([0.0, 0.2, 0.4, 0.6, 0.8], 3), np.arange(15.0)
    )
    cases = [
        (too_few, 3, "need at least 9 points for 3 per segment, got 8"),
        (few_distinct, 3, "need at least 6 distinct x values"),
        (_noisy(n=30), 1, "min_segment_points must be at least 2"),
    ]
    entry_points = {
        "fit_segmented": fit_segmented,
        "fit_segmented_quantile": lambda ds, **kw: fit_segmented_quantile(ds, 0.5, **kw),
        "fit_tau_grid": fit_tau_grid,
    }
    for ds, min_pts, message in cases:
        for name, fit in entry_points.items():
            with pytest.raises(SegmentedError) as caught:
                fit(ds, min_segment_points=min_pts)
            assert str(caught.value) == message, name
