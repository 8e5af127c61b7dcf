"""Two-breakpoint continuous piecewise linear regression with full inference.

The mean function is

    m(x) = b0 + b1*x                                  for x <= a1
           b0 + b1*x + b2*(x - a1)                    for a1 < x <= a2
           b0 + b1*x + b2*(x - a1) + b3*(x - a2)      for x > a2

which is continuous at both breakpoints by construction; the three segment
slopes are ``b1``, ``b1 + b2``, and ``b1 + b2 + b3``.

Fitting is exact least squares over the continuum of breakpoint pairs that
leave a minimum number of points in every segment (Hudson, JASA 1966): a
search over the cells between consecutive distinct x values, described at
:class:`_BreakpointProfile`, followed by one conditional least-squares solve
at the chosen pair.  Standard errors come from the usual
nonlinear-least-squares covariance ``sigma2 * (J'J)^-1`` with the
almost-everywhere Jacobian of the mean function, and slope contrasts use
the delta method; the report rows carry these Wald intervals.  Breakpoint
confidence intervals from :func:`breakpoint_intervals` instead invert the
profile F test (Hinkley 1969; Feder 1975) on the exact profiled RSS, which
follows the asymmetry of the breakpoint likelihood; they are computed only
when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

# bootstrap_band is unused here; perfbench/tracing.py patches it by name
from .bands import PredictionBand, bootstrap_band, bootstrap_bands  # noqa: F401
from .dataset import BivariateDataset
from .rng import RngSpec

# confidence level of the Wald intervals in the inference rows
_WALD_LEVEL = 0.95
# locating a profile-F interval end: rounds, and interior points per round
_SHRINK_ROUNDS = 12
_SHRINK_POINTS = 8


class SegmentedError(ValueError):
    """Invalid data or configuration for the piecewise fit."""


@dataclass(frozen=True)
class SegmentedModel:
    """Coefficients ``beta = (b0, b1, b2, b3)`` and breakpoints ``alpha = (a1, a2)``."""

    beta: tuple[float, float, float, float]
    alpha: tuple[float, float]

    def __post_init__(self) -> None:
        if len(self.beta) != 4 or len(self.alpha) != 2:
            raise SegmentedError("beta must have 4 entries and alpha 2")
        if not self.alpha[0] < self.alpha[1]:
            raise SegmentedError(f"breakpoints must be ordered, got {self.alpha}")

    @property
    def theta(self) -> np.ndarray:
        return np.array(list(self.beta) + list(self.alpha), dtype=float)

    @property
    def slopes(self) -> tuple[float, float, float]:
        b = self.beta
        return (b[1], b[1] + b[2], b[1] + b[2] + b[3])


def eval_segmented(model: SegmentedModel, x):
    """Mean response at x (scalar or array); continuous across the breakpoints."""
    x = np.asarray(x, dtype=float)
    b0, b1, b2, b3 = model.beta
    a1, a2 = model.alpha
    value = b0 + b1 * x + b2 * np.maximum(x - a1, 0.0) + b3 * np.maximum(x - a2, 0.0)
    return float(value) if value.ndim == 0 else value


def segmented_design(xs: np.ndarray, a1: float, a2: float) -> np.ndarray:
    """Inner design ``(1, x, (x-a1)+, (x-a2)+)`` for fixed breakpoints."""
    return np.column_stack(
        [np.ones_like(xs), xs, np.maximum(xs - a1, 0.0), np.maximum(xs - a2, 0.0)]
    )


def _theta_jacobian(xs, theta):
    _, _, b2, b3, a1, a2 = theta
    return np.column_stack(
        [segmented_design(xs, a1, a2), -b2 * (xs > a1).astype(float), -b3 * (xs > a2).astype(float)]
    )


def _suffix(values):
    """Right-tail sums: entry ``p`` sums the values from sorted index ``p``
    on, and the last entry is 0."""
    return np.concatenate([np.cumsum(values[::-1])[::-1], [0.0]])


class _ResponseSums:
    """Right-tail sums of one centred response on the standardised design of
    a :class:`_BreakpointProfile`: the y half of its power sums."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.sufy = _suffix(ys)
        self.sufxy = _suffix(xs * ys)
        self.Sy = float(self.sufy[0])
        self.Sxy = float(self.sufxy[0])
        self.Syy = float(np.sum(ys * ys))
        # near-ties of RSS values: a fraction of the centred total sum of squares
        self.tie = 1e-12 * self.Syy


def profile_inner_ols(xs: np.ndarray, ys: np.ndarray, a1: float, a2: float):
    """Inner least squares for one fixed breakpoint pair: ``lstsq`` on
    :func:`segmented_design`.

    Returns ``(beta, rss)``; raises :class:`SegmentedError` if the inner
    design is rank-deficient.
    """
    if not a1 < a2:
        raise SegmentedError("breakpoints must satisfy a1 < a2")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    design = segmented_design(xs, a1, a2)
    beta, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
    if rank < 4:
        raise SegmentedError(f"inner least squares singular at breakpoints ({a1}, {a2})")
    resid = ys - design @ beta
    return beta, float(resid @ resid)


def _segment_cells(xs: np.ndarray, min_pts: int):
    """The segment rule on the cells ``[u[c], u[c+1]]`` between consecutive
    distinct x values ``u`` of the sorted ``xs``.

    Returns ``(u, q, admissible)``: ``q[c]`` counts the points at or below
    ``u[c]``, and ``admissible[j, k]`` says that a1 in cell j and a2 in cell
    k leave at least ``min_pts`` points in every segment.  Pairs of closed
    cells are admitted, so a breakpoint on a data value belongs to either of
    its two cells.
    """
    u = np.unique(xs)
    q = np.searchsorted(xs, u[:-1], side="right")
    n = xs.size
    admissible = (
        (q[:, None] >= min_pts)
        & (q[None, :] - q[:, None] >= min_pts)
        & (n - q[None, :] >= min_pts)
    )
    return u, q, admissible


def _cells_of(u: np.ndarray, a: float) -> list[int]:
    """Cells holding position ``a``: one inside a cell, two on a data value
    between cells."""
    cells = {int(np.searchsorted(u, a, side="left")) - 1, int(np.searchsorted(u, a, side="right")) - 1}
    return sorted(c for c in cells if 0 <= c < u.size - 1)


def _pair_admissible(u, admissible, a1: float, a2: float) -> bool:
    """Whether ``(a1, a2)`` lies in an admissible pair of cells."""
    return a1 < a2 and any(admissible[j, k] for j in _cells_of(u, a1) for k in _cells_of(u, a2))


@dataclass(frozen=True)
class InferenceRow:
    parameter: str
    estimate: float
    se: float
    t: float
    p: float
    ci_lower: float
    ci_upper: float


@dataclass
class SegmentedFit:
    """Fit result with residual variance, covariance, and inference rows.

    ``inference`` is keyed ``alpha1, alpha2, slope1, slope2, slope3``; the
    slope rows are the delta-method contrasts ``b1``, ``b1+b2``, ``b1+b2+b3``.
    Breakpoint t/p values test the location against 0 for report-layout
    parity only; a location parameter has no meaningful null at 0, so read
    the breakpoint rows for their estimates and intervals.
    """

    model: SegmentedModel
    rss: float
    df: int
    sigma2: float
    cov: np.ndarray
    inference: dict[str, InferenceRow]
    n: int
    min_segment_points: int
    cov_pd: bool
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)
    unidentified: tuple[str, ...] = ()
    x_range: tuple[float, float] = (0.0, 0.0)


def _t_row(name, est, se, df) -> InferenceRow:
    if not math.isfinite(se) or se <= 0.0:
        return InferenceRow(name, est, math.inf, math.nan, math.nan, -math.inf, math.inf)
    t = est / se
    p = 2.0 * float(stats.t.sf(abs(t), df))
    tq = float(stats.t.ppf(0.5 + _WALD_LEVEL / 2.0, df))
    return InferenceRow(name, est, se, t, p, est - tq * se, est + tq * se)


def _contrast_row(name, c, beta, cov, df) -> InferenceRow:
    """Delta-method row of the contrast ``c`` over the betas."""
    full = np.concatenate([c, [0.0, 0.0]])
    se = math.sqrt(max(float(full @ cov @ full), 0.0))
    return _t_row(name, float(c @ beta), se, df)


def _design_profile(xs: np.ndarray, min_segment_points: int) -> _BreakpointProfile:
    """The checks on a sorted x design and the x-only part of every fit on it."""
    n = xs.size
    min_pts = int(min_segment_points)
    if min_pts < 2:
        raise SegmentedError("min_segment_points must be at least 2")
    if n < 7:
        raise SegmentedError(f"need at least 7 points for 6 parameters, got {n}")
    if n < 3 * min_pts:
        raise SegmentedError(f"need at least {3 * min_pts} points for {min_pts} per segment, got {n}")
    if np.unique(xs).size < 6:
        raise SegmentedError("need at least 6 distinct x values")
    profile = _BreakpointProfile(xs, min_pts)
    if not profile.admissible.any():
        raise SegmentedError(
            f"no breakpoint pair satisfies {min_pts} points per segment for n={n}"
        )
    return profile


def _least_squares(profile: _BreakpointProfile, xs: np.ndarray, ys: np.ndarray):
    """The exact least-squares model of one response on the profile's
    design: ``(model, beta, rss)``, from one conditional solve at the pair."""
    a1, a2 = profile.least_squares_pair(profile.response(ys))
    beta, rss = profile_inner_ols(xs, ys, a1, a2)
    return SegmentedModel(beta=tuple(float(b) for b in beta), alpha=(a1, a2)), beta, rss


def fit_segmented(ds: BivariateDataset, min_segment_points: int = 3) -> SegmentedFit:
    """Fit the two-breakpoint model by exact least squares.

    The breakpoint pair minimises the RSS over the continuum of pairs that
    leave at least ``min_segment_points`` observations in every segment; a
    breakpoint on a data value may count that value's points in either
    neighbouring segment.  Every pair whose RSS is within ``1e-12`` times the
    centred total sum of squares of the minimum ties, and the
    lexicographically smallest ``(a1, a2)`` among them is chosen.  The
    coefficients and the RSS are one conditional least-squares solve at that
    pair.  See :class:`_BreakpointProfile` for the search.

    Raises
    ------
    SegmentedError
        Too little data, no admissible breakpoint pair, or a singular inner
        problem at every admissible pair.
    """
    n = ds.n
    xs, ys = ds.xs, ds.ys
    profile = _design_profile(xs, min_segment_points)
    model, beta, rss = _least_squares(profile, xs, ys)
    theta_best = np.concatenate([beta, model.alpha])

    df = n - 6
    sigma2 = rss / df

    J = _theta_jacobian(xs, theta_best)
    jtj = J.T @ J
    cov_pd = True
    try:
        np.linalg.cholesky(jtj)
        cov = sigma2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov_pd = False
        cov = sigma2 * np.linalg.pinv(jtj)

    # A vanishing slope change makes the matching breakpoint unidentifiable
    # (its Jacobian column is numerically zero).
    beta_scale = max(1.0, float(np.max(np.abs(theta_best[:4]))))
    unidentified = []
    for name, col in (("alpha1", 4), ("alpha2", 5)):
        if np.linalg.norm(J[:, col]) <= 1e-9 * beta_scale * math.sqrt(n):
            unidentified.append(name)

    inference: dict[str, InferenceRow] = {}
    for name, col, est in (("alpha1", 4, model.alpha[0]), ("alpha2", 5, model.alpha[1])):
        if name in unidentified:
            inference[name] = InferenceRow(
                name, est, math.inf, math.nan, math.nan, float(xs[0]), float(xs[-1])
            )
        else:
            se = math.sqrt(max(cov[col, col], 0.0))
            inference[name] = _t_row(name, est, se, df)
    contrasts = {
        "slope1": np.array([0.0, 1.0, 0.0, 0.0]),
        "slope2": np.array([0.0, 1.0, 1.0, 0.0]),
        "slope3": np.array([0.0, 1.0, 1.0, 1.0]),
    }
    for name, c in contrasts.items():
        inference[name] = _contrast_row(name, c, theta_best[:4], cov, df)

    return SegmentedFit(
        model=model,
        rss=rss,
        df=df,
        sigma2=sigma2,
        cov=cov,
        inference=inference,
        n=n,
        min_segment_points=int(min_segment_points),
        cov_pd=cov_pd,
        xs=xs,
        ys=ys,
        unidentified=tuple(unidentified),
        x_range=(float(xs[0]), float(xs[-1])),
    )


def contrast_inference(fit: SegmentedFit, contrast, name: str = "contrast") -> InferenceRow:
    """Delta-method inference for an arbitrary linear contrast of the betas."""
    c = np.asarray(contrast, dtype=float)
    if c.shape != (4,):
        raise SegmentedError("contrast must have 4 coefficients (over beta)")
    return _contrast_row(name, c, np.asarray(fit.model.beta), fit.cov, fit.df)


class _Lines:
    """Least-squares lines of groups of points from their power sums.  The
    x sums are fixed at construction; :meth:`fit` takes the y sums and
    returns ``(slope, intercept, explained)``, where ``explained`` is the sum
    of squares of the fitted values.  Groups with fewer than two distinct x
    values give non-finite or meaningless values; callers mask them."""

    def __init__(self, n, sx, sxx):
        with np.errstate(divide="ignore", invalid="ignore"):
            self.n, self.sx = n, sx
            self.xbar = sx / n
            self.sxx_c = sxx - sx * self.xbar

    def fit(self, sy, sxy):
        with np.errstate(divide="ignore", invalid="ignore"):
            ybar = sy / self.n
            sxy_c = sxy - self.sx * ybar
            slope = sxy_c / self.sxx_c
            return slope, ybar - slope * self.xbar, sy * ybar + slope * sxy_c


class _Partners:
    """The part of :meth:`_BreakpointProfile.rss` that depends on x alone, for
    standardised positions ``t`` of breakpoint ``which`` (0 or 1, per point)
    lying in cells ``cell``: the partner cells admissible with each, and the
    base and partner-hinge cross products partialled through the base Gram
    matrix of each distinct position."""

    def __init__(self, profile: "_BreakpointProfile", which, t, cell):
        cell = np.asarray(cell)
        self.partners = np.where(
            np.asarray(which)[:, None] == 0, profile.admissible[cell, :], profile.admissible[:, cell].T
        )
        # (x - t)+ is the same column whichever side of t a point at t is
        # counted on, so the cell only matters through the partner set and
        # each distinct position is solved once
        t, first, self.back = np.unique(np.asarray(t, dtype=float), return_index=True, return_inverse=True)
        n = profile.n

        # base columns (1, x, (x - t)+) of every position
        p = profile.q[cell[first]]
        n_tail, s1, s2 = n - p, profile.suf1[p], profile.suf2[p]
        G = np.empty((t.size, 3, 3))
        G[:, 0, 0], G[:, 0, 1], G[:, 1, 1] = n, profile.Sx, profile.Sxx
        G[:, 0, 2] = s1 - t * n_tail
        G[:, 1, 2] = s2 - t * s1
        G[:, 2, 2] = s2 - 2.0 * t * s1 + t * t * n_tail
        G[:, 1, 0], G[:, 2, 0], G[:, 2, 1] = G[:, 0, 1], G[:, 0, 2], G[:, 1, 2]
        d = np.sqrt(np.diagonal(G, axis1=1, axis2=2))
        base_ok = np.all(d > 0.0, axis=1)
        d[~base_ok] = 1.0
        base_ok &= np.abs(np.linalg.det(G / (d[:, :, None] * d[:, None, :]))) > 1e-13
        G[~base_ok] = np.eye(3)
        self.t, self.p, self.base_ok, self.G_inv = t, p, base_ok, np.linalg.inv(G)

        # partner columns (x*I, I) of every cell k, with I the points above
        # it: their Gram entries, and their cross products with the base
        # columns partialled through G^-1
        qk = profile.q
        k0, k1, k2 = n - qk, profile.suf1[qk], profile.suf2[qk]
        r = np.maximum(p[:, None], qk[None, :])
        tt = t[:, None]
        cross_x = (k1, k2, profile.suf2[r] - tt * profile.suf1[r])
        cross_1 = (k0, k1, profile.suf1[r] - tt * (n - r))
        gi = [[self.G_inv[:, i, j, None] for j in range(3)] for i in range(3)]
        hx = [gi[i][0] * cross_x[0] + gi[i][1] * cross_x[1] + gi[i][2] * cross_x[2] for i in range(3)]
        h1 = [gi[i][0] * cross_1[0] + gi[i][1] * cross_1[1] + gi[i][2] * cross_1[2] for i in range(3)]
        m11 = k2 - (cross_x[0] * hx[0] + cross_x[1] * hx[1] + cross_x[2] * hx[2])
        m12 = k1 - (cross_1[0] * hx[0] + cross_1[1] * hx[1] + cross_1[2] * hx[2])
        m22 = k0 - (cross_1[0] * h1[0] + cross_1[1] * h1[1] + cross_1[2] * h1[2])
        self.hx, self.h1, self.m11, self.m12, self.m22 = hx, h1, m11, m12, m22

        # the denominators of the RSS reductions below: along the partner
        # hinge at each cell edge s, and of the interior stationary point
        def quad(s, raw):
            q = m11 - 2.0 * s * m12 + s * s * m22
            return q, q > 1e-12 * raw

        self.lo, self.hi = profile.u[:-1], profile.u[1:]
        self.quad_lo, self.ok_lo = quad(self.lo, k2 - 2.0 * self.lo * k1 + self.lo * self.lo * k0)
        self.quad_hi, self.ok_hi = quad(self.hi, k2 - 2.0 * self.hi * k1 + self.hi * self.hi * k0)
        self.det = m11 * m22 - m12 * m12
        self.det_ok = self.det > 1e-12 * m11 * m22


class _BreakpointProfile:
    """Exact profile RSS of one breakpoint, minimised over every admissible
    position of the other one, and the exact least-squares breakpoint pair.

    The data are standardised (x onto [0, 1], y centred), which leaves the
    RSS unchanged.  A breakpoint position lies in a *cell* ``[u_c, u_c+1]``
    between consecutive distinct x values; points above the cell start at
    sorted index ``q_c``.  A pair of cells ``(j, k)`` is admissible under the
    fitter's ``min_segment_points`` rule (:func:`_segment_cells`), and the
    profile of a breakpoint in cell ``c`` minimises over the partner cells
    admissible with ``c``.

    With the profiled breakpoint fixed at ``a`` and the partner restricted to
    cell ``k``, the partner's hinge ``b*(x - t)+`` equals ``g*x*I + h*I`` with
    ``I`` the indicator of the points above the cell and ``t = -h/g``.  The
    unconstrained five-column least squares over ``(1, x, (x - a)+, x*I, I)``
    is therefore the cell's exact minimum when its ``t`` falls inside the
    cell; otherwise the minimum sits on one of the cell's two edges (Hudson,
    JASA 1966).  Partialling the first three columns out reduces every cell
    to a 2x2 problem, evaluated for all cells at once from suffix sums.

    The same argument with both breakpoints free gives the least-squares
    pair (:meth:`least_squares_pair`): inside a pair of cells the model is
    three separate lines, so the minimum over the cell pair is either the
    three-line fit, when its meeting points fall inside the cells, or lies
    on a cell edge, where the profile is exact over the partner.

    An instance holds the work that depends on x alone (the x power sums,
    the cells, and, built on first use, the partner products at every cell
    edge and the x sums of every three-line split), so one instance serves
    every response on the same design; a response enters through
    :meth:`response`.
    """

    def __init__(self, xs: np.ndarray, min_pts: int):
        self.n = xs.size
        self.x0 = float(xs[0])
        self.span = float(xs[-1] - xs[0])
        self.std_xs = (xs - self.x0) / self.span
        self.suf1 = _suffix(self.std_xs)
        self.suf2 = _suffix(self.std_xs * self.std_xs)
        self.Sx = float(self.suf1[0])
        self.Sxx = float(self.suf2[0])
        self.u_orig, self.q, self.admissible = _segment_cells(xs, min_pts)
        self.u = (self.u_orig - self.x0) / self.span
        self._edges = None
        self._splits = None

    def response(self, ys: np.ndarray) -> _ResponseSums:
        """The y sums of one response on this design."""
        return _ResponseSums(self.std_xs, ys - float(np.mean(ys)))

    def cells(self, which: int) -> np.ndarray:
        """Cells holding at least one admissible position of breakpoint ``which``."""
        return np.nonzero(self.admissible.any(axis=1 - which))[0]

    def edges(self, which: int):
        """Both edges of each of :meth:`cells`, in increasing order:
        ``(cell, index into u)`` per edge."""
        cells = self.cells(which)
        return np.repeat(cells, 2), np.column_stack([cells, cells + 1]).ravel()

    def rss(self, y: _ResponseSums, which, t, cell):
        """Profile RSS of response ``y`` at standardised positions ``t`` of
        breakpoint ``which`` (0 or 1, per point) lying in cells ``cell``, and
        the position in x units of the partner breakpoint that attains it:
        the smallest one whose RSS is within ``y.tie`` of the minimum.  The
        RSS is +inf and the partner NaN where no admissible partner gives a
        non-singular inner problem."""
        return self._partner_rss(y, _Partners(self, which, t, cell))

    def _partner_rss(self, y: _ResponseSums, P: _Partners):
        t, p, back = P.t, P.p, P.back
        w = np.stack([np.full(t.size, y.Sy), np.full(t.size, y.Sxy), y.sufxy[p] - t * y.sufy[p]], axis=1)
        rss_base = y.Syy - np.einsum("ei,eij,ej->e", w, P.G_inv, w)
        qk, hx, h1 = self.q, P.hx, P.h1
        wc = [w[:, i, None] for i in range(3)]
        v1 = y.sufxy[qk] - (wc[0] * hx[0] + wc[1] * hx[1] + wc[2] * hx[2])
        v2 = y.sufy[qk] - (wc[0] * h1[0] + wc[1] * h1[1] + wc[2] * h1[2])

        # RSS reduction (v.dir)^2 / (dir' M dir) along dir = (1, -s): the
        # partner hinge at s; at the two cell edges, and at the interior
        # stationary point when it falls inside the cell
        def edge_gain(s, quad, ok):
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = (v1 - s * v2) ** 2 / quad
            return np.where(ok, gain, -np.inf)

        m11, m12, m22, lo, hi = P.m11, P.m12, P.m22, P.lo, P.hi
        with np.errstate(divide="ignore", invalid="ignore"):
            g = m22 * v1 - m12 * v2
            h = m11 * v2 - m12 * v1
            s_star = -h / g
            full = (m22 * v1 * v1 - 2.0 * m12 * v1 * v2 + m11 * v2 * v2) / P.det
        inside = P.det_ok & (lo <= s_star) & (s_star <= hi)
        # per partner cell, in increasing position: low edge, interior, high edge
        gain = (
            edge_gain(lo, P.quad_lo, P.ok_lo),
            np.where(inside, full, -np.inf),
            edge_gain(hi, P.quad_hi, P.ok_hi),
        )
        cell_gain = np.where(P.partners, np.maximum(np.maximum(gain[0], gain[1]), gain[2])[back], -np.inf)
        best = cell_gain.max(axis=1)
        tied = (best - y.tie)[:, None]
        k = np.argmax(cell_gain >= tied, axis=1)
        spot = np.argmax(np.stack([g[back, k] for g in gain], axis=1) >= tied, axis=1)
        partner = np.where(
            spot == 0,
            self.u_orig[k],
            np.where(spot == 2, self.u_orig[k + 1], self.x0 + self.span * s_star[back, k]),
        )
        ok = P.base_ok[back] & np.isfinite(best)
        return np.where(ok, np.maximum(rss_base[back] - best, 0.0), np.inf), np.where(ok, partner, np.nan)

    def _interior_pairs(self, y: _ResponseSums):
        """Breakpoint pairs strictly inside an admissible pair of cells
        ``(j, k)``: where the separate least-squares lines through the points
        at or below ``u_j``, between the two cells and at or above ``u_k+1``
        meet inside cells j and k.  Returns ``(a1, a2, rss)`` with the
        positions standardised."""
        u = self.u
        if self._splits is None:
            p = np.concatenate([[0], self.q])
            # every line needs two distinct x values: segment 1 holds
            # u_0..u_j, segment 2 u_j+1..u_k and segment 3 u_k+1..u_last
            c = np.arange(u.size - 1)
            j, k = np.nonzero(
                self.admissible
                & (c[:, None] >= 1)
                & (c[None, :] - c[:, None] >= 2)
                & (c[None, :] <= u.size - 3)
            )
            sums = np.stack([self.n - p, self.suf1[p], self.suf2[p]])
            total, tail = sums[:, :1], sums[:, 1:]
            lines = (_Lines(*(total - tail)), _Lines(*(tail[:, j] - tail[:, k])), _Lines(*tail))
            self._splits = p, j, k, lines
        # the three lines of each admissible split (j, k)
        p, j, k, (lines1, lines2, lines3) = self._splits
        sums = np.stack([y.sufy[p], y.sufxy[p]])
        total, tail = sums[:, :1], sums[:, 1:]
        m1, c1, e1 = lines1.fit(*(total - tail))
        m2, c2, e2 = lines2.fit(*(tail[:, j] - tail[:, k]))
        m3, c3, e3 = lines3.fit(*tail)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (c2 - c1[j]) / (m1[j] - m2)
            t2 = (c3[k] - c2) / (m2 - m3[k])
        lo, hi = u[:-1], u[1:]
        ok = (lo[j] < t1) & (t1 < hi[j]) & (lo[k] < t2) & (t2 < hi[k])
        return t1[ok], t2[ok], y.Syy - (e1[j[ok]] + e2[ok] + e3[k[ok]])

    def least_squares_pair(self, y: _ResponseSums) -> tuple[float, float]:
        """The admissible breakpoint pair of least RSS for response ``y``, in
        x units.

        Candidates are the interior three-line fits of every admissible cell
        pair, and each breakpoint at both edges of every admissible cell with
        its exact best partner.  Among the candidates within ``y.tie`` of the
        least RSS, the lexicographically smallest pair wins.
        """
        t1, t2, rss_in = self._interior_pairs(y)
        if self._edges is None:
            (cell1, edge1), (cell2, edge2) = self.edges(0), self.edges(1)
            which = np.repeat([0, 1], [edge1.size, edge2.size])
            cell, edge = np.concatenate([cell1, cell2]), np.concatenate([edge1, edge2])
            self._edges = which, edge, _Partners(self, which, self.u[edge], cell)
        which, edge, partners = self._edges
        rss_edge, partner = self._partner_rss(y, partners)
        at = self.u_orig[edge]
        a1 = np.concatenate([self.x0 + self.span * t1, np.where(which == 0, at, partner)])
        a2 = np.concatenate([self.x0 + self.span * t2, np.where(which == 0, partner, at)])
        rss = np.concatenate([rss_in, rss_edge])
        if not np.isfinite(rss).any():
            raise SegmentedError("inner least squares singular for every admissible breakpoint pair")
        tied = np.nonzero(rss <= rss.min() + y.tie)[0]
        best = tied[np.lexsort((a2[tied], a1[tied]))[0]]
        return float(a1[best]), float(a2[best])


def _shrink_brackets(profile, y, cutoff, which, cell, a_in, a_out):
    """Shrink brackets with the profile of response ``y`` at or below ``cutoff`` at ``a_in`` and
    above it at ``a_out`` (both ends in one cell, where the profile is
    continuous) around a crossing by repeated ``(_SHRINK_POINTS + 1)``-section;
    twelve 9-sections shrink a bracket to 4e-12 of its cell.  Returns the inside
    ends."""
    points = _SHRINK_POINTS
    frac = np.arange(1, points + 1) / (points + 1)
    rows = np.arange(a_in.size)
    for _ in range(_SHRINK_ROUNDS):
        trial = a_in[:, None] + (a_out - a_in)[:, None] * frac
        rss, _ = profile.rss(y, np.repeat(which, points), trial.ravel(), np.repeat(cell, points))
        below = rss.reshape(trial.shape) <= cutoff
        # walking from a_in towards a_out, the first trial above the cutoff
        # becomes the new outside end and the trial before it the inside end
        first_above = np.where(below.all(axis=1), points, np.argmin(below, axis=1))
        a_out = np.where(first_above < points, trial[rows, np.minimum(first_above, points - 1)], a_out)
        a_in = np.where(first_above > 0, trial[rows, np.maximum(first_above - 1, 0)], a_in)
    return a_in


def _profile_intervals(fit: SegmentedFit, level: float, names) -> dict[str, tuple[float, float]]:
    profile = _BreakpointProfile(fit.xs, fit.min_segment_points)
    y = profile.response(fit.ys)
    u, u_orig = profile.u, profile.u_orig
    # samples: both edges of every admissible cell, plus the estimate when
    # it lies inside a cell; an estimate on a data value is an edge of one
    # or both of its cells, and counts as inside the interval in either
    samples = []
    for name in names:
        which = 0 if name == "alpha1" else 1
        est = fit.model.alpha[which]
        cell, edge = profile.edges(which)
        t, orig = u[edge], u_orig[edge]
        at_est = orig == est
        if not at_est.any():
            est_cell = int(np.searchsorted(u_orig, est)) - 1
            est_at = 2 * int(np.searchsorted(cell[::2], est_cell)) + 1
            t_est = (est - profile.x0) / profile.span
            cell, t, orig, at_est = (
                np.insert(v, est_at, e) for v, e in ((cell, est_cell), (t, t_est), (orig, est), (at_est, True))
            )
        samples.append((which, est, cell, t, orig, at_est))
    rss, _ = profile.rss(
        y,
        np.concatenate([np.full(s[2].size, s[0]) for s in samples]),
        np.concatenate([s[3] for s in samples]),
        np.concatenate([s[2] for s in samples]),
    )
    rss_min = min(fit.rss, float(rss.min()))
    df = fit.n - 6
    cutoff = rss_min * (1.0 + float(stats.f.ppf(level, 1, df)) / df)

    ends = {}  # name -> [lower, upper]; bracketed ends are filled in below
    brackets = []
    offset = 0
    for name, (which, est, cell, t, orig, at_est) in zip(names, samples):
        below = (rss[offset : offset + t.size] <= cutoff) | at_est
        offset += t.size
        inside = np.nonzero(below)[0]
        ends[name] = [None, None]
        for side, i, j in ((0, inside[0], inside[0] - 1), (1, inside[-1], inside[-1] + 1)):
            if j < 0 or j >= t.size or cell[i] != cell[j]:
                # admissible edge, or a jump of the profile at a data point
                ends[name][side] = float(orig[i])
            else:
                brackets.append((name, side, which, cell[i], t[i], t[j]))
    if brackets:
        _, _, which, cell, a_in, a_out = (np.array(col) for col in zip(*brackets))
        found = _shrink_brackets(profile, y, cutoff, which, cell, a_in, a_out)
        for (name, side, *_), a in zip(brackets, found):
            ends[name][side] = profile.x0 + profile.span * float(a)
    return {
        name: (min(ends[name][0], est), max(ends[name][1], est))
        for name, (_, est, *_) in zip(names, samples)
    }


def breakpoint_intervals(fit: SegmentedFit, level: float) -> dict[str, tuple[float, float]]:
    """Confidence intervals for both breakpoints at the given level.

    The interval inverts the profile F test (Hinkley, Biometrika 1969; Feder,
    Ann. Stat. 1975): for ``a1`` it is the hull of ``{a1 : min_a2 RSS(a1, a2)
    <= RSS_min * (1 + F_{1,n-6}(level) / (n-6))}`` over breakpoint pairs
    admissible under the fit's ``min_segment_points`` rule, and likewise for
    ``a2``.  ``RSS_min`` is the smaller of ``fit.rss`` and the best profiled
    value.  The profile is exact over the continuum of the other breakpoint;
    it is scanned at both edges of every admissible cell between consecutive
    distinct x values, and each crossing of the cutoff is then located inside
    its cell.  An interval reaching the end of the admissible range stops at
    its edge.  Where the segment rule itself makes the profile jump across
    the cutoff (the best partner sits at its closest admissible position),
    the end is the data value of the jump.  The estimate always lies inside,
    and the intervals are asymmetric in general.

    The symmetric Wald interval ``estimate +/- t * se`` is the ``ci_lower`` /
    ``ci_upper`` of ``fit.inference[name]``; it ignores the asymmetry of the
    profile and under-covers at moderate signal-to-noise.

    A breakpoint flagged unidentified gets the whole x range.
    """
    if not 0.0 < level < 1.0:
        raise SegmentedError(f"level must be in (0, 1), got {level}")
    names = ("alpha1", "alpha2")
    identified = [name for name in names if name not in fit.unidentified]
    found = _profile_intervals(fit, level, identified) if identified else {}
    return {name: found.get(name, fit.x_range) for name in names}


def fit_report_rows(fit: SegmentedFit) -> list[dict]:
    """Report rows ``{parameter, estimate, se, t, p, ci_lower, ci_upper,
    significant}``, significant meaning p < 0.05; non-finite fields become
    None for JSON friendliness."""

    def clean(v):
        return float(v) if math.isfinite(v) else None

    rows = []
    for name in ("alpha1", "alpha2", "slope1", "slope2", "slope3"):
        row = fit.inference[name]
        rows.append(
            {
                "parameter": name,
                "estimate": clean(row.estimate),
                "se": clean(row.se),
                "t": clean(row.t),
                "p": clean(row.p),
                "ci_lower": clean(row.ci_lower),
                "ci_upper": clean(row.ci_upper),
                "significant": (math.isfinite(row.p) and row.p < 0.05),
            }
        )
    return rows


def segmented_fitter(min_segment_points: int = 3):
    """Block fitter for the bootstrap (see :mod:`breakline.bands`):
    ``(xs, Y) -> fitted``, row ``i`` the :func:`fit_segmented` mean of
    ``Y[i]`` evaluated at xs.  The x-only part of the search is built once
    per call and shared by the rows, and each row runs the same code as
    :func:`fit_segmented`, so its fit does not depend on the block."""

    def fitter(xs: np.ndarray, Y: np.ndarray) -> np.ndarray:
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        profile = _design_profile(xs_sorted, min_segment_points)
        rows = np.asarray(Y, dtype=float)[:, order]
        fitted = np.empty(rows.shape)
        for i, ys in enumerate(rows):
            model, _, _ = _least_squares(profile, xs_sorted, ys)
            fitted[i] = eval_segmented(model, xs)
        return fitted

    return fitter


def plrm_prediction_band(
    fit: SegmentedFit,
    ds: BivariateDataset,
    gammas,
    B: int = 10_000,
    seed: int = 0,
    force_bootstrap: bool = False,
) -> list[PredictionBand]:
    """Prediction bands for the response on the observed design, one per gamma.

    The default is the parametric band ``yhat(x) +/- t * sqrt(sigma2 * (1 +
    g' (J'J)^-1 g))`` with ``g`` the mean-function gradient; when the
    curvature matrix is not positive definite (or on request) the bands fall
    back to the residual bootstrap with the piecewise fitter, all read off
    one pool of ``B`` replicates seeded by ``seed``.  ``B`` and ``seed`` are
    used, and checked against the gammas, only on that branch.
    """
    for gamma in gammas:
        if not (0.0 < gamma < 1.0):
            raise SegmentedError(f"gamma must be in (0, 1), got {gamma}")
    if force_bootstrap or not fit.cov_pd:
        fitter = segmented_fitter(min_segment_points=fit.min_segment_points)
        bands = bootstrap_bands(ds, fitter, gammas, B, RngSpec(seed), method="PLRM")
        for band in bands:
            band.meta["bootstrap_fallback"] = True
        return bands
    xs = ds.xs
    center = eval_segmented(fit.model, xs)
    g = _theta_jacobian(xs, fit.model.theta)
    quad = np.einsum("ij,jk,ik->i", g, fit.cov, g)
    sd = np.sqrt(fit.sigma2 + np.maximum(quad, 0.0))
    bands = []
    for gamma in gammas:
        half = float(stats.t.ppf(0.5 + gamma / 2.0, fit.df)) * sd
        bands.append(
            PredictionBand(
                grid_x=xs.copy(),
                center=center.copy(),
                lower=center - half,
                upper=center + half,
                gamma=float(gamma),
                method="PLRM",
                meta={"kind": "parametric"},
            )
        )
    return bands
