"""Two-breakpoint piecewise linear quantile regression on a tau grid.

The conditional-quantile analogue of :mod:`breakline.piecewise`: the same
continuous two-breakpoint mean structure, fit at quantile level ``tau`` by
minimizing the check loss ``rho_tau(u) = u * (tau - 1[u < 0])``.

For fixed breakpoints the problem is linear in the coefficients and is solved
exactly as a linear program by a specialized exchange simplex (the classic
vertex structure of least-absolute-deviation fitting: an optimal basic
solution interpolates exactly ``p`` observations).  Breakpoints are profiled
over a candidate grid (midpoints between consecutive distinct x values, under
the least-squares fitter's segment rule), with an optional finer local
refinement around the incumbent, so the returned fit is the global optimum
on the candidate grid.

The spread of breakpoint estimates across a tau grid doubles as a simple
interval: the smallest and largest estimates over taus ``t_min..t_max`` are
reported as a ``(t_max - t_min) * 100`` percent interval.  This
range-of-estimates construction is a reporting convention, not a calibrated
frequentist procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import qr as _qr

from .bands import PredictionBand
from .dataset import BivariateDataset
from .piecewise import (
    SegmentedError,
    SegmentedModel,
    _pair_admissible,
    _segment_cells,
    eval_segmented,
    segmented_design,
)

DEFAULT_TAU_GRID = (0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90)

_PIVOT_BUDGET = 2000
_BLAND_AFTER = 400


class QuantileError(ValueError):
    """Invalid input for the quantile fitters."""


class RankDeficiencyError(QuantileError):
    """The design matrix does not have full column rank."""


class PivotLimitError(QuantileError):
    """The simplex exceeded its pivot budget even under the anti-cycling rule."""


def check_loss(u, tau: float):
    """Check loss ``u * (tau - 1[u < 0])``; nonnegative, zero only at u = 0."""
    if not (0.0 < tau < 1.0):
        raise QuantileError(f"tau must be in (0, 1), got {tau}")
    u = np.asarray(u, dtype=float)
    value = u * (tau - (u < 0.0))
    return float(value) if value.ndim == 0 else value


def check_objective(residuals, tau: float) -> float:
    return float(np.sum(check_loss(residuals, tau)))


@dataclass
class QuantileLinearState:
    """Optimal basic solution of one fixed-design check-loss fit."""

    beta: np.ndarray
    residuals: np.ndarray
    objective: float
    basis: np.ndarray
    pivots: int


def _initial_basis(X: np.ndarray) -> np.ndarray:
    """Well-conditioned interpolation set from column-pivoted QR of X'."""
    n, p = X.shape
    _, R, piv = _qr(X.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size < p or diag[-1] <= 1e-12 * max(diag[0], 1.0):
        raise RankDeficiencyError("design matrix is rank deficient")
    return np.sort(piv[:p])


def _solve_check_loss(
    X: np.ndarray,
    y: np.ndarray,
    tau: float,
    warm_basis: np.ndarray | None = None,
    ztol: float | None = None,
    trusted_basis: bool = False,
) -> QuantileLinearState:
    """Exchange simplex on the vertex set of exact-fit bases.

    Maintains a set ``h`` of p interpolated observations.  For each candidate
    exchange direction (drop one member of ``h``, move so the others stay
    interpolated) the one-sided objective derivatives are computed exactly:
    off-basis points with residual pinned at zero contribute their worst-case
    growth rate, so degenerate ties never produce phantom descent.  A
    genuinely descending edge therefore always admits a strictly improving
    step, found by walking the residual sign-change breakpoints until the
    running derivative turns nonnegative; the objective strictly decreases
    at every pivot, which rules out cycling.  A shortest-step least-index
    rule takes over after ``_BLAND_AFTER`` pivots as an extra safeguard, and
    the hard pivot budget backs both.
    """
    n, p = X.shape
    if n < p:
        raise QuantileError(f"need at least {p} observations for {p} columns, got {n}")
    h = None
    if warm_basis is not None and len(warm_basis) == p:
        if trusted_basis:
            h = np.asarray(warm_basis).copy()
        else:
            cand = np.sort(np.asarray(warm_basis))
            if cand[0] >= 0 and cand[-1] < n and np.unique(cand).size == p:
                h = cand
    if h is None:
        h = _initial_basis(X)

    if ztol is None:
        ztol = 1e-11 * (1.0 + float(np.median(np.abs(y))))

    for pivot in range(_PIVOT_BUDGET):
        try:
            inv_xh = np.linalg.inv(X[h])
        except np.linalg.LinAlgError:
            h = _initial_basis(X)
            inv_xh = np.linalg.inv(X[h])
        b = inv_xh @ y[h]
        G = X @ inv_xh
        r = y - X @ b
        off = np.ones(n, dtype=bool)
        off[h] = False
        abs_r = np.abs(r)
        neg = off & (r < -ztol)
        pos = off & (r > ztol)
        # Fixed-sign contributions plus the exact worst-case rates of points
        # pinned at zero: moving along +d_j flips a zero point to whichever
        # side costs more, so the true one-sided derivatives are
        #   D+_j = (1 - tau) - (s_fixed_j + sum_Z min(tau g, (tau-1) g))
        #   D-_j = tau + (s_fixed_j + sum_Z max(tau g, (tau-1) g)).
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
            return QuantileLinearState(
                beta=b,
                residuals=r,
                objective=float(np.sum(r * (tau - (r < 0.0)))),
                basis=h.copy(),
                pivots=pivot,
            )

        bland = pivot >= _BLAND_AFTER
        candidates = np.nonzero(viol > opt_tol)[0]
        if bland:
            j_pos = int(candidates[0])  # h is kept sorted: least point index
        else:
            j_pos = int(candidates[np.argmax(viol[candidates])])
        sigma = 1.0 if -d_plus[j_pos] >= -d_minus[j_pos] else -1.0
        d0 = d_plus[j_pos] if sigma > 0 else d_minus[j_pos]

        dvec = sigma * inv_xh[:, j_pos]
        c = X @ dvec
        c_tol = 1e-13 * (1.0 + np.max(np.abs(c)))
        # Only residuals moving toward the other sign ever cross zero; the
        # pinned-zero points are already inside d0 and never cross again.
        crossing = (pos & (c > c_tol)) | (neg & (c < -c_tol))
        idx = np.nonzero(crossing)[0]
        if idx.size == 0:
            # The objective is bounded below, so a genuinely descending edge
            # always has a crossing; an empty set means the violation was
            # rounding noise.  The current vertex is optimal within tolerance.
            return QuantileLinearState(
                beta=b,
                residuals=r,
                objective=float(np.sum(r * (tau - (r < 0.0)))),
                basis=h.copy(),
                pivots=pivot,
            )
        t = r[idx] / c[idx]
        gains = np.abs(c[idx])
        if bland:
            order = np.lexsort((idx, t))
            enter = int(idx[order[0]])
        else:
            order = np.lexsort((idx, -gains, t))
            cum = d0 + np.cumsum(gains[order])
            hit = np.nonzero(cum >= 0.0)[0]
            # cum < 0 past the last crossing is the same rounding-noise case;
            # step to the farthest crossing and let the next pass settle it.
            enter = int(idx[order[hit[0]]]) if hit.size else int(idx[order[-1]])
        h[np.nonzero(h == h[j_pos])[0][0]] = enter
        h.sort()

    raise PivotLimitError(
        f"check-loss simplex exceeded {_PIVOT_BUDGET} pivots (anti-cycling rule engaged)"
    )


def fit_quantile_linear(design, ys, tau: float, warm_basis=None) -> np.ndarray:
    """Exact check-loss linear fit; returns an optimal basic coefficient vector.

    Minimizes ``sum_i rho_tau(y_i - design_i . b)`` via the exchange simplex.
    Among multiple optimal basic solutions the deterministic pivot order
    selects one; compare objectives rather than coefficient vectors.

    Raises
    ------
    RankDeficiencyError
        If the design loses column rank.
    PivotLimitError
        If the pivot budget is exhausted (degenerate cycling).
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(ys, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise QuantileError("design must be (n, p) and ys length n")
    if not (0.0 < tau < 1.0):
        raise QuantileError(f"tau must be in (0, 1), got {tau}")
    return _solve_check_loss(X, y, tau, warm_basis=warm_basis).beta


@dataclass
class QuantileSegmentedFit:
    """One tau level: model, attained objective, and solver status.

    ``status`` is ``"optimal"`` when every candidate pair solved cleanly and
    ``"grid-fallback"`` when some candidates had to be skipped (pivot limit),
    in which case the result is the best over the candidates that did solve.
    """

    tau: float
    model: SegmentedModel
    objective: float
    status: str
    residuals: np.ndarray
    n: int


def fit_segmented_quantile(
    ds: BivariateDataset,
    tau: float,
    init: SegmentedModel | None = None,
    min_segment_points: int = 3,
    refine_rounds: int = 1,
    refine_points: int = 9,
) -> QuantileSegmentedFit:
    """Profile the breakpoint pair over the candidate grid at one tau level.

    The candidate grid is the midpoints between consecutive distinct x values,
    paired under the least-squares fitter's rule of at least
    ``min_segment_points`` per segment; each pair's inner problem is an exact
    LP on the basis ``(1, x, (x-a1)+, (x-a2)+)``.  ``refine_rounds`` local
    refinements search a finer sub-grid between the incumbent's neighboring
    candidates; the refined optimum can only improve on the coarse one.
    ``init`` (typically a least-squares fit) seeds the first warm start.

    Raises
    ------
    QuantileError
        For a tau so extreme that fewer than one residual is expected on one
        side (``n * min(tau, 1 - tau) < 1``), or if every candidate fails.
    SegmentedError
        For data that cannot support two breakpoints at all.
    """
    if not (0.0 < tau < 1.0):
        raise QuantileError(f"tau must be in (0, 1), got {tau}")
    n = ds.n
    if n * min(tau, 1.0 - tau) < 1.0:
        raise QuantileError(
            f"tau={tau} is too extreme for n={n}: fewer than one residual is "
            "expected on one side of the fit"
        )
    min_pts = int(min_segment_points)
    if n < 7:
        raise SegmentedError(f"need at least 7 points for 6 parameters, got {n}")
    if n < 3 * min_pts:
        raise SegmentedError(f"need at least {3 * min_pts} points for {min_pts} per segment, got {n}")
    xs, ys = ds.xs, ds.ys
    if np.unique(xs).size < 6:
        raise SegmentedError("need at least 6 distinct x values")

    u, _, admissible = _segment_cells(xs, min_pts)
    # the candidate grid: the midpoints of every admissible pair of cells
    mids = (u[:-1] + u[1:]) / 2.0
    i_idx, j_idx = np.nonzero(admissible)
    if i_idx.size == 0:
        raise SegmentedError(
            f"no breakpoint pair satisfies {min_pts} points per segment for n={n}"
        )

    basis = None
    if init is not None:
        a1, a2 = init.alpha
        if _pair_admissible(u, admissible, a1, a2):
            resid = np.abs(ys - eval_segmented(init, xs))
            basis = np.sort(np.argsort(resid, kind="stable")[:4])

    best = None  # (objective, a1, a2, beta)
    failures = 0
    # One design buffer for the whole sweep; only the hinge columns change.
    X = np.column_stack([np.ones_like(xs), xs, xs, xs])
    ztol = 1e-11 * (1.0 + float(np.median(np.abs(ys))))

    def try_pair(a1, a2):
        nonlocal basis, best, failures
        np.maximum(xs - a1, 0.0, out=X[:, 2])
        np.maximum(xs - a2, 0.0, out=X[:, 3])
        try:
            state = _solve_check_loss(
                X, ys, tau, warm_basis=basis, ztol=ztol, trusted_basis=basis is not None
            )
        except PivotLimitError:
            failures += 1
            return
        except RankDeficiencyError:
            return
        basis = state.basis
        key = (state.objective, a1, a2)
        if best is None or key < (best[0], best[1], best[2]):
            best = (state.objective, a1, a2, state.beta.copy())

    for i, j in zip(i_idx, j_idx):
        try_pair(float(mids[i]), float(mids[j]))
    if best is None:
        raise QuantileError(f"quantile fit failed at every candidate breakpoint pair (tau={tau})")

    m = mids.size
    for _ in range(max(0, int(refine_rounds))):
        _, a1_c, a2_c, _ = best
        i_c = int(np.searchsorted(mids, a1_c))
        j_c = int(np.searchsorted(mids, a2_c))
        lo1 = mids[max(i_c - 1, 0)]
        hi1 = mids[min(i_c + 1, m - 1)] if i_c < m else mids[-1]
        lo2 = mids[max(j_c - 1, 0)]
        hi2 = mids[min(j_c + 1, m - 1)] if j_c < m else mids[-1]
        grid1 = np.linspace(min(lo1, a1_c), max(hi1, a1_c), refine_points)
        grid2 = np.linspace(min(lo2, a2_c), max(hi2, a2_c), refine_points)
        for a1 in grid1:
            for a2 in grid2:
                if _pair_admissible(u, admissible, a1, a2):
                    try_pair(float(a1), float(a2))

    objective, a1, a2, beta = best
    model = SegmentedModel(beta=tuple(float(v) for v in beta), alpha=(a1, a2))
    residuals = ys - segmented_design(xs, a1, a2) @ beta
    return QuantileSegmentedFit(
        tau=float(tau),
        model=model,
        objective=float(objective),
        status="optimal" if failures == 0 else "grid-fallback",
        residuals=residuals,
        n=n,
    )


def fit_tau_grid(
    ds: BivariateDataset,
    taus: Sequence[float] = DEFAULT_TAU_GRID,
    init: SegmentedModel | None = None,
    min_segment_points: int = 3,
):
    """Fit every tau in the grid; returns (fits, failures) where failures is
    a list of ``(tau, message)`` for levels that could not be fit."""
    taus = list(taus)
    if sorted(taus) != taus or len(set(taus)) != len(taus):
        raise QuantileError("tau grid must be strictly increasing")
    fits: list[QuantileSegmentedFit] = []
    failures: list[tuple[float, str]] = []
    for tau in taus:
        try:
            fits.append(
                fit_segmented_quantile(ds, tau, init=init, min_segment_points=min_segment_points)
            )
        except (QuantileError, SegmentedError) as exc:
            failures.append((float(tau), str(exc)))
    return fits, failures


def _coverage_label(t_min: float, t_max: float) -> str:
    value = round((t_max - t_min) * 100.0, 6)
    if abs(value - round(value)) < 1e-9:
        return f"{int(round(value))}%"
    return f"{value:g}%"


@dataclass
class QuantileBreakpointTable:
    """Breakpoint estimates per tau plus the range-of-estimates intervals.

    ``rows`` holds ``(tau, alpha1, alpha2)`` sorted by tau, with None entries
    for failed levels.  Interval endpoints are attained by rows in the table.
    """

    rows: list[tuple[float, float | None, float | None]]
    alpha1_interval: tuple[float, float]
    alpha2_interval: tuple[float, float]
    coverage_label: str
    partial: bool
    failed_taus: tuple[float, ...]

    @property
    def alpha1_width(self) -> float:
        return self.alpha1_interval[1] - self.alpha1_interval[0]

    @property
    def alpha2_width(self) -> float:
        return self.alpha2_interval[1] - self.alpha2_interval[0]


def quantile_breakpoint_intervals(
    fits: Sequence[QuantileSegmentedFit],
    failed_taus: Sequence[float] = (),
) -> QuantileBreakpointTable:
    """Min/max breakpoint estimates across the tau collection.

    The interval label is the tau span of the successful rows, e.g. the
    default decile grid gives an "80%" interval.  Failed levels are carried
    as flagged rows and mark the table partial.
    """
    if len(fits) < 2:
        raise QuantileError("need at least 2 tau levels for an interval")
    taus = [f.tau for f in fits]
    if len(set(taus)) != len(taus):
        raise QuantileError("tau levels must be distinct")
    rows: list[tuple[float, float | None, float | None]] = [
        (f.tau, f.model.alpha[0], f.model.alpha[1]) for f in fits
    ]
    rows.extend((float(t), None, None) for t in failed_taus)
    rows.sort(key=lambda row: row[0])
    a1 = np.array([f.model.alpha[0] for f in fits])
    a2 = np.array([f.model.alpha[1] for f in fits])
    return QuantileBreakpointTable(
        rows=rows,
        alpha1_interval=(float(a1.min()), float(a1.max())),
        alpha2_interval=(float(a2.min()), float(a2.max())),
        coverage_label=_coverage_label(min(taus), max(taus)),
        partial=bool(failed_taus),
        failed_taus=tuple(float(t) for t in failed_taus),
    )


def pqrm_prediction_band(
    fit_lo: QuantileSegmentedFit,
    fit_center: QuantileSegmentedFit,
    fit_hi: QuantileSegmentedFit,
    ds: BivariateDataset,
) -> PredictionBand:
    """Band between the lower and upper conditional-quantile curves.

    For confidence coefficient gamma the bounding fits sit at
    ``tau = (1 -/+ gamma) / 2`` and the center curve is the median fit.
    Quantile curves may cross; crossing grid indices are flagged and the
    area computation clamps the height at zero there.
    """
    t_lo, t_hi = fit_lo.tau, fit_hi.tau
    if not t_lo < t_hi:
        raise QuantileError("lower tau must be below upper tau")
    if abs((t_lo + t_hi) - 1.0) > 1e-9:
        raise QuantileError(
            f"bounding taus must be symmetric around 0.5, got ({t_lo}, {t_hi})"
        )
    if abs(fit_center.tau - 0.5) > 1e-9:
        raise QuantileError(f"center fit must be the median (tau=0.5), got {fit_center.tau}")
    gamma = float(np.round(t_hi - t_lo, 10))
    xs = ds.xs
    lower = eval_segmented(fit_lo.model, xs)
    upper = eval_segmented(fit_hi.model, xs)
    center = eval_segmented(fit_center.model, xs)
    cross_tol = 1e-9 * (1.0 + float(np.max(np.abs(lower))) + float(np.max(np.abs(upper))))
    crossings = tuple(int(i) for i in np.nonzero(lower > upper + cross_tol)[0])
    return PredictionBand(
        grid_x=xs.copy(),
        center=center,
        lower=lower,
        upper=upper,
        gamma=gamma,
        method="PQRM",
        crossings=crossings,
        meta={"tau_lower": t_lo, "tau_upper": t_hi},
    )
