"""Two-breakpoint piecewise linear quantile regression on a tau grid.

The conditional-quantile analogue of :mod:`breakline.piecewise`: the same
continuous two-breakpoint mean structure, fit at quantile level ``tau`` by
minimizing the check loss ``rho_tau(u) = u * (tau - 1[u < 0])``.

For fixed breakpoints the problem is linear in the coefficients and is solved
exactly as a linear program by a specialized exchange simplex (the classic
vertex structure of least-absolute-deviation fitting: an optimal basic
solution interpolates exactly ``p`` observations).  Breakpoints are profiled
over a candidate grid (midpoints between consecutive distinct x values, under
the least-squares fitter's input checks and segment rule), then over one finer
local grid around the incumbent.  The fit is the optimum over those
candidates only where the simplex is: at a degenerate vertex (a residual
pinned at zero off the basis, as tied responses produce) it can stop short of
a pair's optimum, and the fit can then miss the grid optimum.  It is not
optimal over the continuum of breakpoint pairs (ROADMAP.md, item 6).

A tau's fit is defined by its sequential chain: it walks the candidate
pairs, and then its own refinement pairs, each pair warm-started from the
basis the pair before ended with.  A pair's outcome depends only on the
tau, the pair and the basis it is entered with, so a tau grid is fitted
in one sweep that runs each chain speculatively (in the manner of the
LRPD test, Rauchwerger & Padua 1995).  Each tau's candidate list is cut
into ``ceil(_STACK_ROWS / taus)`` contiguous segments, walked side by side,
each from the QR basis of its first pair, recording the basis it enters
every pair with.  A verifier per tau then walks the list from its start:
where it enters a pair with the basis its segment recorded there, the rest
of that segment is exactly the sequential chain and it jumps to the
segment's end; elsewhere it solves the pair itself.  Each simplex pass
stacks one row per walk still running (segments, verifiers and
refinements of every tau), on the hinge columns of that walk's current
pair: every basis-dependent step runs once over the stack, and only the
ratio test of a pivoting row runs on its own.  A row whose warm basis is
optimal moves on to its next pair while another one pivots.  Each row
keeps its own pass count and warm start, and the incumbent is the
lexicographic minimum of ``(objective, a1, a2)`` over the verified
outcomes, so each tau's fit is byte-identical to walking its chain alone.

The spread of breakpoint estimates across a tau grid doubles as a simple
interval: the smallest and largest estimates over taus ``t_min..t_max`` are
reported as a ``(t_max - t_min) * 100`` percent interval.  This
range-of-estimates construction is a reporting convention, not a calibrated
frequentist procedure.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np
from scipy.linalg import qr as _qr

from .bands import PredictionBand
from .dataset import BivariateDataset
from .piecewise import (
    SegmentedModel,
    _design_profile,
    _pair_admissible,
    eval_segmented,
    segmented_design,
)

DEFAULT_TAU_GRID = (0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90)

_PIVOT_BUDGET = 2000
_BLAND_AFTER = 400
# rows per simplex pass the tau sweep aims for: each of K taus walks its
# candidate grid as ceil(_STACK_ROWS / K) segments side by side
_STACK_ROWS = 36
# points per breakpoint in the grid of the local refinement
_REFINE_POINTS = 9


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
    """Optimal basic solutions of a block of fixed-design check-loss fits.

    Row ``i`` holds the coefficients, objective and interpolation set of the
    block's ``i``-th (tau, basis) row, unless ``errors`` maps ``i`` to the
    :class:`RankDeficiencyError` or :class:`PivotLimitError` it ended with;
    the basis of such a row is its warm start, sorted.
    """

    beta: np.ndarray  # (k, p)
    objective: np.ndarray  # (k,)
    basis: np.ndarray  # (k, p), each row sorted
    errors: dict[int, QuantileError]


def _initial_basis(X: np.ndarray) -> np.ndarray:
    """Well-conditioned interpolation set from column-pivoted QR of X'."""
    n, p = X.shape
    _, R, piv = _qr(X.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size < p or diag[-1] <= 1e-12 * max(diag[0], 1.0):
        raise RankDeficiencyError("design matrix is rank deficient")
    return np.sort(piv[:p])


def _zero_tol(y: np.ndarray) -> float:
    """Residuals within this of zero count as pinned at zero."""
    return 1e-11 * (1.0 + float(np.median(np.abs(y))))


def _solve_check_loss(X: np.ndarray, y: np.ndarray, taus, bases, ztol: float) -> QuantileLinearState:
    """Exchange simplex on the vertex set of exact-fit bases, for a block of
    ``k`` (tau, basis) rows that share the design ``X``.

    Each row keeps a set ``h`` of p interpolated observations.  For each
    candidate exchange direction (drop one member of ``h``, move so the others
    stay interpolated) the one-sided objective derivatives are computed
    exactly: off-basis points with residual pinned at zero contribute their
    worst-case growth rate, so degenerate ties never produce phantom descent.
    A genuinely descending edge therefore always admits a strictly improving
    step, found by walking the residual sign-change breakpoints until the
    running derivative turns nonnegative; the objective strictly decreases
    at every pivot, which rules out cycling.  A shortest-step least-index
    rule takes over after ``_BLAND_AFTER`` passes as an extra safeguard, and
    the hard pivot budget backs both.

    The rows run through :func:`_simplex_pass` together until each is
    optimal or spends its budget; rows found optimal drop out.

    ``bases`` is a ``(k, p)`` integer array of warm starts; a row that is not
    ``p`` distinct indices into ``X`` starts from the QR basis instead, as
    does a row whose basis matrix turns out singular.  ``ztol`` is the
    pinned-at-zero tolerance of :func:`_zero_tol`.
    """
    n, p = X.shape
    if n < p:
        raise QuantileError(f"need at least {p} observations for {p} columns, got {n}")
    tau = np.asarray(taus, dtype=float)
    k = tau.size
    bases = np.asarray(bases, dtype=np.intp).reshape(k, p)
    H = np.sort(bases, axis=1)
    state = QuantileLinearState(beta=np.zeros((k, p)), objective=np.zeros(k), basis=H, errors={})
    fallback = []  # the QR basis of X (or its rank error), made on first use

    def restart(row):
        if not fallback:
            try:
                fallback.append(_initial_basis(X))
            except RankDeficiencyError as exc:
                fallback.append(exc)
        if isinstance(fallback[0], RankDeficiencyError):
            state.errors[int(row)] = fallback[0]
            return False
        H[row] = fallback[0]
        return True

    rows = np.array(
        [i for i, start in enumerate(H.tolist())
         if (0 <= start[0] and start[-1] < n and len(set(start)) == p) or restart(i)],
        dtype=np.intp,
    )
    for pivot in range(_PIVOT_BUDGET):
        if rows.size == 0:
            break
        rows, settled, b, objective = _simplex_pass(
            np.broadcast_to(X, (rows.size, n, p)), y, tau[rows], H, rows, ztol,
            np.full(rows.size, pivot >= _BLAND_AFTER), restart,
        )
        done = rows[settled]
        state.beta[done] = b[settled]
        state.objective[done] = objective[settled]
        rows = rows[~settled]

    for row in rows:
        state.errors[int(row)] = PivotLimitError(
            f"check-loss simplex exceeded {_PIVOT_BUDGET} pivots (anti-cycling rule engaged)"
        )
    for row in state.errors:
        H[row] = np.sort(bases[row])
    return state


def _simplex_pass(X, y, tau, H, rows, ztol, bland, restart):
    """One pass of the exchange simplex over the bases ``H[rows]``: row ``m``
    of the pass has the design ``X[m]`` (``X`` is ``(R, n, p)``), the level
    ``tau[m]`` and, where ``bland[m]``, the least-index rule.

    Every basis-dependent step (the basis inverses, coefficients, residuals,
    one-sided derivatives and objectives) runs once, stacked over the rows;
    only the ratio test runs per row.  Stacked and per-matrix LAPACK / BLAS
    calls give the same bits, so a row's result does not depend on the other
    rows of its pass.  A row whose basis matrix is singular takes the basis
    ``restart(row)`` writes into ``H``, or leaves the pass where that
    returns False.

    Returns ``(rows, settled, beta, objective)``: the rows still in the pass
    and, over them, which are optimal, with their coefficients and
    objectives.  A row not settled has taken one pivot in ``H``.
    """
    h = H[rows]
    every = np.arange(rows.size)[:, None]
    try:
        inv = np.linalg.inv(X[every, h])
    except np.linalg.LinAlgError:
        kept, inv = _restart_singular(X, H, rows, restart)
        rows, X, tau, bland = rows[kept], X[kept], tau[kept], bland[kept]
        if rows.size == 0:
            return rows, np.zeros(0, dtype=bool), np.zeros((0, X.shape[2])), np.zeros(0)
        h, every = H[rows], every[: rows.size]
    t = tau[:, None]
    b = np.matmul(inv, y[h][:, :, None])[:, :, 0]
    G = np.matmul(X, inv)
    r = y - np.matmul(X, b[:, :, None])[:, :, 0]
    objective = (r * (t - (r < 0.0))).sum(axis=1)
    # the basis points' residuals are zero up to rounding; NaN keeps
    # them out of every sign class below
    r[every, h] = np.nan
    neg = r < -ztol
    pos = r > ztol
    zero = np.abs(r) <= ztol
    # Fixed-sign contributions plus the exact worst-case rates of points
    # pinned at zero: moving along +d_j flips a zero point to whichever
    # side costs more, so the true one-sided derivatives are
    #   D+_j = (1 - tau) - (s_fixed_j + sum_Z min(tau g, (tau-1) g))
    #   D-_j = tau + (s_fixed_j + sum_Z max(tau g, (tau-1) g)).
    # psi is tau on positive, tau - 1 on negative and 0 on other points.
    t1 = t - 1.0
    psi = np.where(neg, t1, t * pos)
    s_fixed = np.matmul(G.transpose(0, 2, 1), psi[:, :, None])[:, :, 0]
    del psi
    opt_tol = 1e-10 * (1.0 + np.abs(G).sum(axis=(1, 2)))
    s_min = s_max = s_fixed
    pinned = zero.any(axis=0).nonzero()[0]
    if pinned.size:
        # The sums over Z run in point order over the points pinned in
        # any row; a point not pinned in a row adds an exact zero to it.
        # The products are formed in place and G is dropped once its
        # pinned points are taken, so that the pass holds at most three
        # (rows, n, p) arrays at a time.
        hi = G[:, pinned]
        del G
        hi[~zero[:, pinned]] = 0.0
        lo = t[:, :, None] * hi
        np.multiply(t1[:, :, None], hi, out=hi)
        s_min = s_fixed + np.minimum(lo, hi).sum(axis=1)
        s_max = s_fixed + np.maximum(lo, hi, out=lo).sum(axis=1)
    d_plus = (1.0 - t) - s_min
    d_minus = t + s_max
    viol = np.maximum(-d_plus, -d_minus)
    settled = viol.max(axis=1) <= opt_tol
    for m in (~settled).nonzero()[0]:
        enter = _ratio_test(X[m], r[m], pos[m], neg[m], inv[m], viol[m], d_plus[m], d_minus[m],
                            opt_tol[m], bland[m])
        if enter is None:
            settled[m] = True
        else:
            row = H[rows[m]]
            row[enter[0]] = enter[1]
            row.sort()
    return rows, settled, b, objective


def _restart_singular(X, H, rows, restart):
    """The basis inverses of a pass whose stacked inverse raised: ``(kept,
    inverses)``, the pass rows that stay in it and their inverses.

    One stacked LU (``slogdet``, the factorisation ``inv`` makes, with no
    product to underflow to a false zero) finds the rows with a zero pivot.
    Those rows take their ``restart`` basis or leave the pass, and the
    stack is inverted once more.
    """
    every = np.arange(rows.size)[:, None]
    sign, _ = np.linalg.slogdet(X[every, H[rows]])
    kept = np.array([m for m, row in enumerate(rows.tolist()) if sign[m] != 0.0 or restart(row)], dtype=np.intp)
    if kept.size == 0:
        return kept, None
    return kept, np.linalg.inv(X[kept[:, None], H[rows[kept]]])


def _ratio_test(X, r, pos, neg, inv_xh, viol, d_plus, d_minus, opt_tol, bland):
    """One row's pivot at a non-optimal vertex: ``(j_pos, entering point)``,
    or None when no residual crosses zero along the chosen edge."""
    viol, tol = viol.tolist(), float(opt_tol)
    candidates = [j for j, v in enumerate(viol) if v > tol]
    # h is kept sorted, so the first candidate is the least point index
    j_pos = candidates[0] if bland else max(candidates, key=viol.__getitem__)
    sigma = 1.0 if -d_plus[j_pos] >= -d_minus[j_pos] else -1.0
    d0 = d_plus[j_pos] if sigma > 0 else d_minus[j_pos]

    c = X @ (sigma * inv_xh[:, j_pos])
    c_tol = 1e-13 * (1.0 + np.abs(c).max())
    # Only residuals moving toward the other sign ever cross zero; the
    # pinned-zero points are already inside d0 and never cross again.
    idx = ((pos & (c > c_tol)) | (neg & (c < -c_tol))).nonzero()[0]
    if idx.size == 0:
        # The objective is bounded below, so a genuinely descending edge
        # always has a crossing; an empty set means the violation was
        # rounding noise.  The current vertex is optimal within tolerance.
        return None
    c = c[idx]
    t = r[idx] / c
    if bland:
        return j_pos, int(idx[np.lexsort((idx, t))[0]])
    gains = np.abs(c)
    order = np.lexsort((idx, -gains, t))
    cum = d0 + np.cumsum(gains[order])
    hit = (cum >= 0.0).nonzero()[0]
    # cum < 0 past the last crossing is the same rounding-noise case;
    # step to the farthest crossing and let the next pass settle it.
    return j_pos, int(idx[order[hit[0]]]) if hit.size else int(idx[order[-1]])


def fit_quantile_linear(design, ys, tau: float) -> np.ndarray:
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
    state = _solve_check_loss(X, y, [tau], np.full(X.shape[1], -1, dtype=np.intp), _zero_tol(y))
    if state.errors:
        raise state.errors[0]
    return state.beta[0]


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


def fit_segmented_quantile(ds: BivariateDataset, tau: float, min_segment_points: int = 3) -> QuantileSegmentedFit:
    """Profile the breakpoint pair over the candidate grid at one tau level.

    The candidate grid is the midpoints between consecutive distinct x values,
    paired under the least-squares fitter's rule of at least
    ``min_segment_points`` per segment; each pair's inner problem is an exact
    LP on the basis ``(1, x, (x-a1)+, (x-a2)+)``.  One local refinement then
    searches a finer sub-grid between the incumbent's neighboring candidates;
    the refined optimum can only improve on the coarse one.  This is the
    sweep of :func:`fit_tau_grid` with one tau, whose candidate list is
    walked as ``_STACK_ROWS`` segments side by side and then verified
    against the sequential chain of warm starts.

    Raises
    ------
    SegmentedError
        For data that cannot support two breakpoints at all, by the checks
        of :func:`~breakline.piecewise.fit_segmented`, which run first.
    QuantileError
        For a tau so extreme that fewer than one residual is expected on one
        side (``n * min(tau, 1 - tau) < 1``), or if every candidate fails.
    """
    (fit,) = _fit_taus(ds, [tau], min_segment_points)
    if isinstance(fit, Exception):
        raise fit
    return fit


def _fit_taus(ds: BivariateDataset, taus: Sequence[float], min_segment_points: int) -> list:
    """The sweep behind :func:`fit_segmented_quantile` and
    :func:`fit_tau_grid`: one entry per tau, its fit or the error it ended with.

    The data pass the least-squares fitter's checks first, whose
    :class:`~breakline.piecewise.SegmentedError` fails the whole grid.  Each
    tau's fit is that of its sequential chain over the candidate grid (one
    list, shared by every tau) and then its own refinement list, from the
    QR basis at the first pair, run speculatively as the module docstring
    describes: ``ceil(_STACK_ROWS / taus)`` segments per tau, then a
    verifier, whose exit basis starts the refinement.  A grid pair that
    stays the incumbent is solved once more from its recorded entry basis
    for its coefficients.  Every walk is one row of the stacked simplex
    pass and keeps its own pass count and basis, so a pair's outcome is the
    one it gets alone.
    """
    xs, ys = ds.xs, ds.ys
    profile = _design_profile(xs, min_segment_points)
    u, admissible = profile.u_orig, profile.admissible
    out: list = []
    for tau in taus:
        if not (0.0 < tau < 1.0):
            out.append(QuantileError(f"tau must be in (0, 1), got {tau}"))
        elif ds.n * min(tau, 1.0 - tau) < 1.0:
            out.append(QuantileError(
                f"tau={tau} is too extreme for n={ds.n}: fewer than one residual is "
                "expected on one side of the fit"
            ))
        else:
            out.append(None)
    live = [k for k, fit in enumerate(out) if fit is None]
    if not live:
        return out
    # the candidate grid: the midpoints of every admissible pair of cells
    mids = (u[:-1] + u[1:]) / 2.0
    mid = mids.tolist()
    # the cells of each pair, in int32 arrays: half the memory of lists
    first, second = (array("i", cells.tolist()) for cells in np.nonzero(admissible))
    hinge = np.maximum(xs - mids[:, None], 0.0)  # the hinge column of each midpoint
    n_grid = len(first)
    K = len(live)
    C = min(-(-_STACK_ROWS // K), n_grid)  # segments per tau
    bounds = [c * n_grid // C for c in range(C + 1)]
    # Row s = k C + c walks segment c of tau k and then, if it is the last
    # of them to finish, that tau's verifier and refinement.  Per row: its
    # basis, its passes at its current pair and the coefficients of its
    # last optimal pair.  A row whose walk ends never starts again, so the
    # designs of the current pairs (only the hinge columns change) and the
    # levels are stacked over the rows still walking, row s at place[s].
    S = K * C
    rows = np.arange(S)
    place = list(range(S))
    level = np.repeat(np.asarray(taus, dtype=float)[live], C)
    X = np.empty((S, xs.size, 4))
    X[:, :, 0] = 1.0
    X[:, :, 1] = xs
    H = np.full((S, 4), -1, dtype=np.intp)  # a -1 row has no basis yet
    passes = [0] * S
    solved: list = [None] * S
    # Per tau and pair, the basis it was entered with; per row, the basis
    # its segment ended with, the suffix minima of (objective, pair) over
    # the segment, and the segment's pairs that spent the pivot budget.
    entry = np.empty((K, n_grid, 4), dtype=np.min_scalar_type(-xs.size))
    exits = H.copy()
    minima: list = [[] for _ in range(S)]
    spent_at: list = [[] for _ in range(S)]
    unfinished = [C] * K
    spent = object()  # the outcome of a pair that spent the pivot budget
    ztol = _zero_tol(ys)

    def walk(s):
        """Row s's walk.  It yields each pair to solve, a grid index or a
        refinement pair, and is sent the pair's objective, or None where its
        design is rank deficient, or ``spent``.  A pair without an objective
        leaves the row's basis as the pair was entered with."""
        k, c = divmod(s, C)
        stack, failed = minima[s], spent_at[s]
        for p in range(bounds[c], bounds[c + 1]):
            entry[k, p] = H[s]
            value = yield p
            if value is spent:
                failed.append(p)
            elif value is not None:
                while stack and stack[-1][0] > value:
                    stack.pop()
                stack.append((value, p))
                continue
            H[s] = entry[k, p]
        exits[s] = H[s]
        unfinished[k] -= 1
        if unfinished[k]:
            return
        # the verifier, from the first pair with no basis
        H[s] = -1
        best = None  # (objective, pair)
        failures = 0
        for c in range(C):
            t = k * C + c
            for p in range(bounds[c], bounds[c + 1]):
                if H[s].tolist() == entry[k, p].tolist():
                    # entered as its segment entered it: from here on the
                    # segment is the sequential chain
                    stack = minima[t]
                    at = bisect_left(stack, p, key=itemgetter(1))
                    if at < len(stack) and (best is None or stack[at] < best):
                        best = stack[at]
                    failures += len(spent_at[t]) - bisect_left(spent_at[t], p)
                    H[s] = exits[t]
                    break
                entry[k, p] = H[s]
                value = yield p
                if value is spent:
                    failures += 1
                elif value is not None:
                    if best is None or (value, p) < best:
                        best = (value, p)
                    continue
                H[s] = entry[k, p]
        if best is None:
            out[live[k]] = QuantileError(
                f"quantile fit failed at every candidate breakpoint pair (tau={taus[live[k]]})")
            return
        value, w = best
        incumbent = (value, mid[first[w]], mid[second[w]])
        beta = None
        for pair in _refinement(mids, u, admissible, incumbent[1:]):
            start = H[s].copy()
            value = yield pair
            if value is spent:
                failures += 1
            elif value is not None:
                if (value, *pair) < incumbent:
                    incumbent, beta = (value, *pair), solved[s]
                continue
            H[s] = start
        if beta is None:
            # the grid pair stands: solve it again from its entry basis
            H[s] = entry[k, w]
            yield w
            beta = solved[s]
        objective, a1, a2 = incumbent
        out[live[k]] = QuantileSegmentedFit(
            tau=float(taus[live[k]]),
            model=SegmentedModel(beta=tuple(beta.tolist()), alpha=(a1, a2)),
            objective=objective,
            status="optimal" if failures == 0 else "grid-fallback",
            residuals=ys - segmented_design(xs, a1, a2) @ beta,
        )

    def restart(s):
        try:
            H[s] = _initial_basis(X[place[s]])
        except RankDeficiencyError:
            return False
        return True

    def send(s, value):
        """Hand row s the outcome of its pair and set it at the next pair its
        walk asks for; False once the walk has ended.  A row with no basis
        starts from the QR basis of the pair, and skips the pair if that
        design is rank deficient."""
        try:
            pair = walks[s].send(value)
            while True:
                m = place[s]
                if type(pair) is int:
                    X[m, :, 2] = hinge[first[pair]]
                    X[m, :, 3] = hinge[second[pair]]
                else:
                    X[m, :, 2] = np.maximum(xs - pair[0], 0.0)
                    X[m, :, 3] = np.maximum(xs - pair[1], 0.0)
                passes[s] = 0
                if H[s, 0] >= 0 or restart(s):
                    return True
                pair = walks[s].send(None)
        except StopIteration:
            return False

    walks = [walk(s) for s in range(S)]
    ended = [s for s in range(S) if not send(s, None)]
    while True:
        if ended:
            walking = ~np.isin(rows, ended)
            rows, X, level = rows[walking], X[walking], level[walking]
            for m, s in enumerate(rows.tolist()):
                place[s] = m
        if rows.size == 0:
            return out
        bland = np.array([passes[s] >= _BLAND_AFTER for s in rows.tolist()])
        kept, settled, b, objective = _simplex_pass(X, ys, level, H, rows, ztol, bland, restart)
        # a row that leaves the pass has met a rank-deficient design
        outcomes = [(s, None) for s in np.setdiff1d(rows, kept).tolist()] if kept.size < rows.size else []
        for m, (s, optimal, value) in enumerate(zip(kept.tolist(), settled.tolist(), objective.tolist())):
            if optimal:
                solved[s] = b[m]
                outcomes.append((s, value))
            else:
                passes[s] += 1
                if passes[s] == _PIVOT_BUDGET:
                    outcomes.append((s, spent))
        ended = []
        for s, value in outcomes:
            if not send(s, value):
                ended.append(s)
            solved[s] = None


def _refinement(mids: np.ndarray, u: np.ndarray, admissible: np.ndarray, incumbent) -> list:
    """The admissible pairs of the finer grid between the neighbouring
    midpoints of the grid pair ``incumbent``."""
    m = mids.size
    i_c, j_c = np.searchsorted(mids, incumbent).tolist()
    grid1 = np.linspace(mids[max(i_c - 1, 0)], mids[min(i_c + 1, m - 1)], _REFINE_POINTS).tolist()
    grid2 = np.linspace(mids[max(j_c - 1, 0)], mids[min(j_c + 1, m - 1)], _REFINE_POINTS).tolist()
    return [(a1, a2) for a1 in grid1 for a2 in grid2 if _pair_admissible(u, admissible, a1, a2)]


def check_tau_grid(taus: Sequence[float]) -> list[float]:
    """The grid as a list, whose levels must lie in (0, 1) and strictly
    increase."""
    taus = list(taus)
    for tau in taus:
        if not (0.0 < tau < 1.0):
            raise QuantileError(f"tau must be in (0, 1), got {tau}")
    if sorted(taus) != taus or len(set(taus)) != len(taus):
        raise QuantileError("tau grid must be strictly increasing")
    return taus


def fit_tau_grid(ds: BivariateDataset, taus: Sequence[float] = DEFAULT_TAU_GRID, min_segment_points: int = 3):
    """Fit every tau in the grid in one sweep; returns (fits, failures) where
    failures is a list of ``(tau, message)`` for levels that could not be
    fit.

    Every level must lie in (0, 1) and the grid must strictly increase, or
    :class:`QuantileError` is raised.  Each tau's candidate list is walked
    as several segments side by side, each verified against the tau's
    sequential chain of warm starts where they meet, and each simplex pass
    solves the current pair of every walk still running in one stacked
    block.  Each tau's fit is byte-identical to its sequential chain, and
    so to ``fit_segmented_quantile(ds, tau, min_segment_points)``.  Data that
    cannot support two breakpoints raise the
    :class:`~breakline.piecewise.SegmentedError` of
    :func:`~breakline.piecewise.fit_segmented` for the whole grid.
    """
    taus = check_tau_grid(taus)
    fits: list[QuantileSegmentedFit] = []
    failures: list[tuple[float, str]] = []
    for tau, fit in zip(taus, _fit_taus(ds, taus, min_segment_points)):
        if isinstance(fit, Exception):
            failures.append((float(tau), str(fit)))
        else:
            fits.append(fit)
    return fits, failures


@dataclass
class QuantileBreakpointTable:
    """Breakpoint estimates per tau plus the range-of-estimates intervals.

    ``rows`` holds ``(tau, alpha1, alpha2)`` sorted by tau, with None entries
    for failed levels.  Interval endpoints are attained by rows in the table.
    """

    rows: list[tuple[float, float | None, float | None]]
    alpha1_interval: tuple[float, float]
    alpha2_interval: tuple[float, float]
    coverage: float  # the tau span of the successful rows, rounded to 10 decimals
    partial: bool
    failed_taus: tuple[float, ...]

    @property
    def coverage_label(self) -> str:
        value = round(self.coverage * 100.0, 6)
        if abs(value - round(value)) < 1e-9:
            return f"{int(round(value))}%"
        return f"{value:g}%"

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
        coverage=round(max(taus) - min(taus), 10),
        partial=bool(failed_taus),
        failed_taus=tuple(float(t) for t in failed_taus),
    )


def pqrm_band_taus(gamma: float) -> tuple[float, float, float]:
    """The (lower, median, upper) quantile levels of the PQRM band at
    confidence coefficient ``gamma``: ``(1 - gamma) / 2``, 0.5 and
    ``(1 + gamma) / 2``, rounded to 10 decimals."""
    if not (0.0 < gamma < 1.0):
        raise QuantileError(f"gamma must be in (0, 1), got {gamma}")
    return round((1.0 - gamma) / 2.0, 10), 0.5, round((1.0 + gamma) / 2.0, 10)


def pqrm_prediction_band(fits: Sequence[QuantileSegmentedFit], gamma: float, ds: BivariateDataset) -> PredictionBand:
    """Band between the lower and upper conditional-quantile curves at
    ``gamma``, around the median curve.

    The three curves are the fits in ``fits`` at :func:`pqrm_band_taus`;
    a tau matches when it rounds to the band tau at 10 decimals.  Quantile
    curves may cross; crossing grid indices are flagged and the area
    computation clamps the height at zero there.
    """
    taus = pqrm_band_taus(gamma)
    by_tau = {round(f.tau, 10): f for f in fits}
    missing = [t for t in taus if t not in by_tau]
    if missing:
        raise QuantileError(f"no fit at band tau(s) {missing} for gamma={gamma}")
    fit_lo, fit_center, fit_hi = (by_tau[t] for t in taus)
    t_lo, t_hi = fit_lo.tau, fit_hi.tau
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
        gamma=float(np.round(t_hi - t_lo, 10)),
        method="PQRM",
        crossings=crossings,
        meta={"tau_lower": t_lo, "tau_upper": t_hi},
    )
