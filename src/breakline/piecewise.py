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
from scipy.special import fdtri, stdtr, stdtrit

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
    min_segment_points: int
    cov_pd: bool
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)
    unidentified: tuple[str, ...] = ()


def _t_row(name, est, se, df) -> InferenceRow:
    if not math.isfinite(se) or se <= 0.0:
        return InferenceRow(name, est, math.inf, math.nan, math.nan, -math.inf, math.inf)
    t = est / se
    p = 2.0 * float(stdtr(df, -abs(t)))
    tq = float(stdtrit(df, 0.5 + _WALD_LEVEL / 2.0))
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


def _least_squares(profile: _BreakpointProfile, work: _Workspace, xs: np.ndarray, ys: np.ndarray):
    """The exact least-squares model of one response on the profile's
    design: ``(model, beta, rss)``, from one conditional solve at the pair."""
    a1, a2 = profile.least_squares_pair(profile.response(ys), work)
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
    model, beta, rss = _least_squares(profile, profile.workspace(), xs, ys)
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
        min_segment_points=int(min_segment_points),
        cov_pd=cov_pd,
        xs=xs,
        ys=ys,
        unidentified=tuple(unidentified),
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
    returns ``(slope, ybar, explained)``, where ``ybar`` is the mean response
    and ``explained`` the sum of squares of the fitted values; a group's
    intercept is ``ybar - slope * xbar``, left to the caller so that it is
    taken only where it is used.  Groups with fewer than two distinct x
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
            return slope, ybar, sy * ybar + slope * sxy_c


class _Partners:
    """The part of :meth:`_BreakpointProfile.rss` that depends on x alone, for
    standardised positions ``t`` of breakpoint ``which`` (0 or 1, per point)
    lying in cells ``cell``.

    The partner cells admissible with a row form one run ``[first, stop)``
    of cells, because ``q`` increases (:func:`_segment_cells`): for
    breakpoint 0 in cell c every k with ``q_c + m <= q_k <= n - m``, for
    breakpoint 1 in cell k every j with ``m <= q_j <= q_k - m``.  ``bounds``
    holds each row's run as flat offsets into a (distinct positions x
    cells) grid, interleaved for ``np.maximum.reduceat``; a row with an
    empty run points both offsets one past the grid, at the trailing
    ``-inf`` of the workspace's buffer.

    Further, per distinct position: the base and partner-hinge cross
    products partialled through the base Gram matrix, and the flat indices
    of the grid entries whose edge or interior RSS reduction has too small
    a denominator to use."""

    def __init__(self, profile: "_BreakpointProfile", which, t, cell):
        which, cell = np.asarray(which), np.asarray(cell)
        n, q, m = profile.n, profile.q, profile.min_pts
        q_own = q[cell]
        first = np.searchsorted(q, np.where(which == 0, q_own + m, m), side="left")
        stop = np.searchsorted(q, np.where(which == 0, n - m, q_own - m), side="right")
        empty = (stop <= first) | np.where(which == 0, q_own < m, n - q_own < m)
        self.first, self.stop = first, np.where(empty, first, stop)
        # (x - t)+ is the same column whichever side of t a point at t is
        # counted on, so the cell only matters through the partner set and
        # each distinct position is solved once
        t, at_first, self.back = np.unique(np.asarray(t, dtype=float), return_index=True, return_inverse=True)
        cells = q.size
        row = self.back * cells
        self.bounds = np.where(empty[:, None], t.size * cells, np.column_stack([row + first, row + stop])).ravel()

        # base columns (1, x, (x - t)+) of every position
        p = q[cell[at_first]]
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
        k0, k1, k2 = n - q, profile.suf1[q], profile.suf2[q]
        r = np.maximum(p[:, None], q[None, :])
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

        # the denominators of the RSS reductions below, and the few entries
        # where each is too small to use: along the partner hinge at each
        # cell edge s, and of the interior stationary point
        def quad(s, raw):
            q = m11 - 2.0 * s * m12 + s * s * m22
            return q, np.flatnonzero(~(q > 1e-12 * raw))

        self.lo, self.hi = profile.u[:-1], profile.u[1:]
        self.quad_lo, self.off_lo = quad(self.lo, k2 - 2.0 * self.lo * k1 + self.lo * self.lo * k0)
        self.quad_hi, self.off_hi = quad(self.hi, k2 - 2.0 * self.hi * k1 + self.hi * self.hi * k0)
        self.det = m11 * m22 - m12 * m12
        self.det_off = np.flatnonzero(~(self.det > 1e-12 * m11 * m22))


class _Workspace:
    """Scratch arrays for the response half of
    :meth:`_BreakpointProfile._partner_rss` on one :class:`_Partners`: grids
    over (distinct positions x partner cells).  ``flat_best`` is one flat
    buffer with a trailing ``-inf``, and ``cell_best`` the grid view of all
    but that entry; the interior gains live only at the flat indices ``at``
    where the stationary point lies inside its cell, in ``gain_at``.  A
    call overwrites them all, and :meth:`_BreakpointProfile._tie_partners`
    reads that call's gains back, so a workspace serves one response at a
    time, in one thread."""

    def __init__(self, P: _Partners):
        grid = P.m11.shape
        self.v1, self.v2, self.b, self.s_star, self.gain_lo, self.gain_hi = np.empty((6, *grid))
        self.flat_best = np.empty(P.m11.size + 1)
        self.flat_best[-1] = -np.inf
        self.cell_best = self.flat_best[:-1].reshape(grid)
        self.inside, self.below_hi = np.empty((2, *grid), dtype=bool)
        self.at = self.gain_at = None


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
    edge and the x sums of every three-line split) and nothing of any
    response, so one instance serves every response on the same design.  A
    response enters through :meth:`response`, and the search writes its
    grids into a :class:`_Workspace` (:meth:`workspace`), which is reused
    from one response to the next.
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
        self.min_pts = min_pts
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

    def rss(self, y: _ResponseSums, which, t, cell) -> np.ndarray:
        """Profile RSS of response ``y`` at standardised positions ``t`` of
        breakpoint ``which`` (0 or 1, per point) lying in cells ``cell``:
        the least RSS over every admissible position of the partner
        breakpoint, +inf where no admissible partner gives a non-singular
        inner problem."""
        P = _Partners(self, which, t, cell)
        return self._partner_rss(y, P, _Workspace(P))

    def _partner_rss(self, y: _ResponseSums, P: _Partners, work: _Workspace) -> np.ndarray:
        """The profile RSS of every row of ``P`` for response ``y``: the best
        partner gain over each row's run of admissible cells, taken as a
        range maximum of the per-cell gains, which are written into
        ``work``."""
        t, p, back = P.t, P.p, P.back
        w = np.stack([np.full(t.size, y.Sy), np.full(t.size, y.Sxy), y.sufxy[p] - t * y.sufy[p]], axis=1)
        rss_base = y.Syy - np.einsum("ei,eij,ej->e", w, P.G_inv, w)
        # the first two base cross products are the constants Sy and Sxy
        wc = [y.Sy, y.Sxy, w[:, 2, None]]
        v1, v2, a, b, s_star = work.v1, work.v2, work.cell_best, work.b, work.s_star
        np.subtract(y.sufxy[self.q], _dot3(wc, P.hx, v1, a), out=v1)
        np.subtract(y.sufy[self.q], _dot3(wc, P.h1, v2, a), out=v2)

        # RSS reduction (v.dir)^2 / (dir' M dir) along dir = (1, -s): the
        # partner hinge at s; at the two cell edges, and at the interior
        # stationary point when it falls inside the cell
        m11, m12, m22 = P.m11, P.m12, P.m22
        with np.errstate(divide="ignore", invalid="ignore"):
            edges = ((P.lo, P.quad_lo, P.off_lo, work.gain_lo), (P.hi, P.quad_hi, P.off_hi, work.gain_hi))
            for s, quad, off, gain in edges:
                np.subtract(v1, np.multiply(s, v2, out=gain), out=gain)
                np.divide(np.square(gain, out=gain), quad, out=gain)
                np.put(gain, off, -np.inf)
            g = np.subtract(np.multiply(m22, v1, out=a), np.multiply(m12, v2, out=b), out=a)
            h = np.subtract(np.multiply(m11, v2, out=s_star), np.multiply(m12, v1, out=b), out=s_star)
            np.divide(np.negative(h, out=s_star), g, out=s_star)
            inside, below_hi = work.inside, work.below_hi
            np.less_equal(P.lo, s_star, out=inside)
            np.logical_and(inside, np.less_equal(s_star, P.hi, out=below_hi), out=inside)
            np.put(inside, P.det_off, False)
            # the interior gain only where the stationary point lies in its
            # cell: (m22 v1 v1 - 2 m12 v1 v2 + m11 v2 v2) / det, left to right
            at = np.flatnonzero(inside)
            v1_at, v2_at = v1.take(at), v2.take(at)
            work.at, work.gain_at = at, (
                (m22.take(at) * v1_at) * v1_at
                - ((2.0 * m12.take(at)) * v1_at) * v2_at
                + (m11.take(at) * v2_at) * v2_at
            ) / P.det.take(at)
        # per partner cell: the best of its low edge, interior and high edge
        np.maximum(work.gain_lo, work.gain_hi, out=a)
        np.put(a, at, np.maximum(a.take(at), work.gain_at))
        best = np.maximum.reduceat(work.flat_best, P.bounds)[0::2]
        ok = P.base_ok[back] & np.isfinite(best)
        return np.where(ok, np.maximum(rss_base[back] - best, 0.0), np.inf)

    def _tie_partners(self, y: _ResponseSums, P: _Partners, work: _Workspace, rows) -> np.ndarray:
        """Positions in x units of the partner breakpoint that attains the
        profile at rows ``rows`` of ``P``, from the gains the last
        :meth:`_partner_rss` call left in ``work``: the smallest position
        whose RSS is within ``y.tie`` of the row's least RSS.  Each row must
        have a finite profile RSS.  Only these few rows expand their cell
        gains to a masked (rows x cells) array."""
        c = P.back[rows]
        cells = np.arange(self.q.size)
        in_run = (cells >= P.first[rows, None]) & (cells < P.stop[rows, None])
        cell_gain = np.where(in_run, work.cell_best[c], -np.inf)
        tied = (cell_gain.max(axis=1) - y.tie)[:, None]
        k = np.argmax(cell_gain >= tied, axis=1)
        # the interior gain of entry (c, k) where its stationary point lies
        # inside the cell, found in work.at; -inf elsewhere
        inside = work.inside[c, k]
        gain_in = np.full(c.size, -np.inf)
        gain_in[inside] = work.gain_at[np.searchsorted(work.at, (c * self.q.size + k)[inside])]
        gains = np.stack([work.gain_lo[c, k], gain_in, work.gain_hi[c, k]], axis=1)
        spot = np.argmax(gains >= tied, axis=1)
        return np.where(
            spot == 0,
            self.u_orig[k],
            np.where(spot == 2, self.u_orig[k + 1], self.x0 + self.span * work.s_star[c, k]),
        )

    def _interior_pairs(self, y: _ResponseSums, rss_max: float):
        """Breakpoint pairs strictly inside an admissible pair of cells
        ``(j, k)`` with RSS at most ``rss_max``: where the separate
        least-squares lines through the points at or below ``u_j``, between
        the two cells and at or above ``u_k+1`` meet inside cells j and k,
        the three-line RSS being the pair's RSS.  Returns ``(a1, a2, rss)``
        with the positions standardised."""
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
            # j is sorted, so a value per cell j expands to the splits by
            # repeating it over the cell's run of splits
            self._splits = p, j, k, np.bincount(j, minlength=c.size), lines
        # the three lines of each admissible split (j, k)
        p, j, k, j_runs, (lines1, lines2, lines3) = self._splits
        sy, sxy = y.sufy[p], y.sufxy[p]
        tail_y, tail_xy = sy[1:], sxy[1:]
        m1, ybar1, e1 = lines1.fit(sy[0] - tail_y, sxy[0] - tail_xy)
        m2, ybar2, e2 = lines2.fit(np.repeat(tail_y, j_runs) - tail_y[k], np.repeat(tail_xy, j_runs) - tail_xy[k])
        m3, ybar3, e3 = lines3.fit(tail_y, tail_xy)
        rss = y.Syy - (np.repeat(e1, j_runs) + e2 + e3[k])
        near = np.nonzero(rss <= rss_max)[0]
        j, k, m2, rss = j[near], k[near], m2[near], rss[near]
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = ybar1[j] - m1[j] * lines1.xbar[j]
            c2 = ybar2[near] - m2 * lines2.xbar[near]
            c3 = ybar3[k] - m3[k] * lines3.xbar[k]
            t1 = (c2 - c1) / (m1[j] - m2)
            t2 = (c3 - c2) / (m2 - m3[k])
        lo, hi = u[:-1], u[1:]
        ok = (lo[j] < t1) & (t1 < hi[j]) & (lo[k] < t2) & (t2 < hi[k])
        return t1[ok], t2[ok], rss[ok]

    def _edge_search(self):
        """``(which, edge, partners)`` of every admissible cell edge of
        either breakpoint, built on first use."""
        if self._edges is None:
            (cell1, edge1), (cell2, edge2) = self.edges(0), self.edges(1)
            which = np.repeat([0, 1], [edge1.size, edge2.size])
            cell, edge = np.concatenate([cell1, cell2]), np.concatenate([edge1, edge2])
            self._edges = which, edge, _Partners(self, which, self.u[edge], cell)
        return self._edges

    def workspace(self) -> _Workspace:
        """Scratch arrays for :meth:`least_squares_pair`, to reuse for every
        response on this design, one response at a time."""
        return _Workspace(self._edge_search()[2])

    def least_squares_pair(self, y: _ResponseSums, work: _Workspace) -> tuple[float, float]:
        """The admissible breakpoint pair of least RSS for response ``y``, in
        x units, computed in ``work`` (from :meth:`workspace`).

        Candidates are each breakpoint at both edges of every admissible cell
        with its exact best partner, and the interior three-line fits of the
        admissible cell pairs.  Among the candidates within ``y.tie`` of the
        least RSS, the lexicographically smallest pair wins.  Only the
        interior fits that can enter that tie set (RSS within ``y.tie`` of
        the least edge RSS) are located, and only the edges in it get their
        partner.
        """
        which, edge, partners = self._edge_search()
        rss_edge = self._partner_rss(y, partners, work)
        t1, t2, rss_in = self._interior_pairs(y, rss_edge.min() + y.tie)
        rss = np.concatenate([rss_in, rss_edge])
        if not np.isfinite(rss).any():
            raise SegmentedError("inner least squares singular for every admissible breakpoint pair")
        tied = np.nonzero(rss <= rss.min() + y.tie)[0]
        inner, rows = tied[tied < rss_in.size], tied[tied >= rss_in.size] - rss_in.size
        at, first = self.u_orig[edge[rows]], which[rows] == 0
        partner = self._tie_partners(y, partners, work, rows)
        a1 = np.concatenate([self.x0 + self.span * t1[inner], np.where(first, at, partner)])
        a2 = np.concatenate([self.x0 + self.span * t2[inner], np.where(first, partner, at)])
        best = np.lexsort((a2, a1))[0]
        return float(a1[best]), float(a2[best])


def _dot3(w, h, out, tmp):
    """``w[0] * h[0] + w[1] * h[1] + w[2] * h[2]`` into ``out``, summed in
    that order, with ``tmp`` as scratch."""
    np.multiply(w[0], h[0], out=out)
    for wi, hi in zip(w[1:], h[1:]):
        np.add(out, np.multiply(wi, hi, out=tmp), out=out)
    return out


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
        rss = profile.rss(y, np.repeat(which, points), trial.ravel(), np.repeat(cell, points))
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
    rss = profile.rss(
        y,
        np.concatenate([np.full(s[2].size, s[0]) for s in samples]),
        np.concatenate([s[3] for s in samples]),
        np.concatenate([s[2] for s in samples]),
    )
    rss_min = min(fit.rss, float(rss.min()))
    df = fit.df
    cutoff = rss_min * (1.0 + float(fdtri(1, df, level)) / df)

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
    x_range = (float(fit.xs[0]), float(fit.xs[-1]))
    return {name: found.get(name, x_range) for name in names}


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
    """Fitter for the bootstrap (see :mod:`breakline.bands`): ``fitter(xs)``
    builds the x-only part of the search (the design profile, with its edge
    partners and three-line split sums) and one workspace for it, and
    returns ``fit_rows(Y)``, whose row ``i`` is the :func:`fit_segmented`
    mean of ``Y[i]`` evaluated at xs.  ``fit_rows`` reuses the profile and
    the workspace for every row of every block, one row at a time, so it
    serves one thread at a time; the fitter itself keeps nothing, so threads
    may share it.  Each row runs the same code as :func:`fit_segmented`, so
    its fit does not depend on the block."""

    def fitter(xs: np.ndarray):
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        profile = _design_profile(xs_sorted, min_segment_points)
        work = profile.workspace()

        def fit_rows(Y: np.ndarray) -> np.ndarray:
            rows = np.asarray(Y, dtype=float)[:, order]
            fitted = np.empty(rows.shape)
            for i, ys in enumerate(rows):
                model, _, _ = _least_squares(profile, work, xs_sorted, ys)
                fitted[i] = eval_segmented(model, xs)
            return fitted

        return fit_rows

    return fitter


def plrm_prediction_band(
    fit: SegmentedFit,
    gammas,
    B: int = 10_000,
    seed: int = 0,
    force_bootstrap: bool = False,
) -> list[PredictionBand]:
    """Prediction bands for the response on the fit's own design, one per gamma.

    The default is the parametric band ``yhat(x) +/- t * sqrt(sigma2 * (1 +
    g' (J'J)^-1 g))`` with ``g`` the mean-function gradient; when the
    curvature matrix is not positive definite (or on request) the bands fall
    back to the residual bootstrap around the fitted curve with the
    piecewise fitter, all read off one pool of ``B`` replicates seeded by
    ``seed``.  The pool refits the replicates only: the curve is the fit's
    own, and the fitter builds the design profile once for the whole pool.
    ``B`` and ``seed`` are used, and checked against the gammas, only on
    that branch.
    """
    for gamma in gammas:
        if not (0.0 < gamma < 1.0):
            raise SegmentedError(f"gamma must be in (0, 1), got {gamma}")
    xs = fit.xs
    center = eval_segmented(fit.model, xs)
    if force_bootstrap or not fit.cov_pd:
        ds = BivariateDataset.from_arrays(xs, fit.ys)
        fitter = segmented_fitter(min_segment_points=fit.min_segment_points)
        bands = bootstrap_bands(ds, center, fitter, gammas, B, RngSpec(seed), method="PLRM")
        for band in bands:
            band.meta["bootstrap_fallback"] = True
        return bands
    g = _theta_jacobian(xs, fit.model.theta)
    quad = np.einsum("ij,jk,ik->i", g, fit.cov, g)
    sd = np.sqrt(fit.sigma2 + np.maximum(quad, 0.0))
    bands = []
    for gamma in gammas:
        half = float(stdtrit(fit.df, 0.5 + gamma / 2.0)) * sd
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
