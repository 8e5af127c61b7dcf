"""Locally weighted polynomial regression (loess) with tricube weights.

Classic scatterplot smoothing in the style of Cleveland (1979): at every
target point a low-degree polynomial is fit by weighted least squares over
the nearest ``ceil(span * n)`` neighbors, weighted by the tricube kernel
``(1 - (d/d_max)^3)^3`` on distances scaled by the neighborhood radius.
Optional robustness passes downweight outliers with the bisquare kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import BivariateDataset


class LoessError(ValueError):
    """Invalid configuration or data for the smoother."""


class SingularFitError(LoessError):
    """The weighted local design is rank deficient at some target point."""

    def __init__(self, target_x: float):
        self.target_x = float(target_x)
        super().__init__(
            f"singular local fit at x={self.target_x!r}: positive weight on fewer "
            "distinct x values than the local polynomial needs"
        )


class ExtrapolationError(LoessError):
    """A prediction was requested outside the observed x range."""


@dataclass(frozen=True)
class LoessConfig:
    """Smoother settings.

    span : fraction in (0, 1] of the points in each local neighborhood.
    degree : local polynomial degree, 1 or 2.
    robust_iterations : number of bisquare reweighting passes (0 disables).
    """

    span: float = 0.75
    degree: int = 2
    robust_iterations: int = 4

    def __post_init__(self) -> None:
        if not (0.0 < self.span <= 1.0):
            raise LoessError(f"span must be in (0, 1], got {self.span}")
        if self.degree not in (1, 2):
            raise LoessError(f"degree must be 1 or 2, got {self.degree}")
        if self.robust_iterations < 0:
            raise LoessError("robust_iterations must be nonnegative")

    def neighborhood_size(self, n: int) -> int:
        k = math.ceil(self.span * n)
        if k < self.degree + 1:
            raise LoessError(
                f"span {self.span} gives {k} neighbors for n={n}; "
                f"need at least degree + 1 = {self.degree + 1}"
            )
        return k


@dataclass(frozen=True)
class LoessFit:
    """Fitted values and residuals on the observed design.

    ``robustness_weights`` are the final bisquare weights; predictions reuse
    them so that predicting on the observed xs reproduces ``fitted`` exactly.
    """

    config: LoessConfig
    fitted: np.ndarray
    residuals: np.ndarray
    robustness_weights: np.ndarray


def tricube_weights(distances: np.ndarray, d_max: float) -> np.ndarray:
    """Tricube kernel on [0, d_max]; 0 at the boundary, all values in [0, 1]."""
    u = np.clip(distances / d_max, 0.0, 1.0)
    return (1.0 - u**3) ** 3


class _Neighbourhoods:
    """The part of a smoothing pass that depends on x alone.

    Target ``x0``'s neighbourhood is every point within ``d_k``, its k-th
    smallest distance to the data (boundary ties are all included).  The
    points at distance ``d_k`` get tricube weight 0, so a local fit runs
    over the points closer than ``d_k``: a contiguous run of the sorted
    ``xs``, padded here with zero weights to one width ``K``.  Offsets are
    scaled by ``d_k`` into [-1, 1].  Where ``d_k == 0`` every neighbour sits
    at the target and the kernel would be 0/0; those targets average their
    tied points instead.
    """

    def __init__(self, xs: np.ndarray, targets: np.ndarray, k: int, degree: int):
        n = xs.size
        self.targets, self.degree = targets, degree
        d = np.abs(xs[None, :] - targets[:, None])
        d_k = np.partition(d, k - 1, axis=1)[:, k - 1]
        near = d < d_k[:, None]
        count = near.sum(axis=1)
        j = np.arange(max(int(count.max()), 1))
        self.idx = np.minimum(np.argmax(near, axis=1)[:, None] + j, n - 1)
        valid = j < count[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            tw = np.where(valid, tricube_weights(np.take_along_axis(d, self.idx, axis=1), d_k[:, None]), 0.0)
            t = np.where(valid, (xs[self.idx] - targets[:, None]) / d_k[:, None], 0.0)
        # tricube weight times the offset's powers 0 .. 2 degree, the terms
        # of the local normal equations, laid out (power, neighbour, target, 1)
        twp = [tw]
        for _ in range(2 * degree):
            twp.append(twp[-1] * t)
        self.twp = np.stack(twp).transpose(0, 2, 1)[..., None].copy()
        # the moment sums under unit robustness weights, the same for every row
        self.unit_moments = self.twp.sum(axis=1)
        # index of each neighbour's distinct x value, nondecreasing along a row
        self.group = np.searchsorted(np.unique(xs), xs)[self.idx]
        self.valid = valid
        self.distinct = self._distinct(valid)
        self.ties = [(i, np.nonzero(d[i] == 0.0)[0]) for i in np.nonzero(d_k == 0.0)[0]]
        self.fit_at = d_k > 0.0

    def _distinct(self, positive: np.ndarray) -> np.ndarray:
        """Distinct x values among the neighbours flagged positive, per target."""
        g = np.where(positive, self.group, -1)
        seen = np.maximum.accumulate(g, axis=1)
        return positive[:, 0] + np.sum(positive[:, 1:] & (g[:, 1:] > seen[:, :-1]), axis=1)

    def check(self, delta: np.ndarray | None) -> None:
        """Raise :class:`SingularFitError` at the first target whose local fit
        puts positive weight on fewer than ``degree + 1`` distinct x values,
        for the first row of robustness weights ``delta`` (b, n) that has one
        (None: unit weights)."""
        need = self.degree + 1
        bad = self.fit_at & (self.distinct < need)
        if bad.any():
            raise SingularFitError(self.targets[np.argmax(bad)])
        if delta is None:
            return
        for row in delta[(delta == 0.0).any(axis=1)]:
            bad = self.fit_at & (self._distinct(self.valid & (row[self.idx] > 0.0)) < need)
            if bad.any():
                raise SingularFitError(self.targets[np.argmax(bad)])


def _smooth(nb: _Neighbourhoods, Y: np.ndarray, delta: np.ndarray | None = None) -> np.ndarray:
    """One weighted local polynomial fit per target and row: fitted values
    at ``nb.targets`` for responses ``Y`` (b, n) under robustness weights
    ``delta`` (b, n; None for unit weights), shape (b, targets).

    Each row is computed with elementwise operations and sums along its own
    axis only, so it comes out the same whatever block it is in."""
    nb.check(delta)
    degree = nb.degree
    m, b = nb.targets.size, Y.shape[0]
    # (n, b) layout: a neighbour's values for every row are one gathered row
    dyT = (Y if delta is None else delta * Y).T.copy()
    T = np.zeros((degree + 1, m, b))
    if delta is None:
        S = nb.unit_moments
    else:
        dT = delta.T.copy()
        S = np.zeros((2 * degree + 1, m, b))
    for j, cols in enumerate(nb.idx.T):
        dyj = dyT[cols]
        for p in range(degree + 1):
            T[p] += dyj * nb.twp[p, j]
        if delta is not None:
            dj = dT[cols]
            for p in range(2 * degree + 1):
                S[p] += dj * nb.twp[p, j]
    # the local normal equations sum_j w t^(i+j) c_j = sum_j w t^i y, with
    # the higher coefficients eliminated down to c_0, the value at the target
    A = [[S[i + j] for j in range(degree + 1)] for i in range(degree + 1)]
    r = list(T)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(degree, 0, -1):
            for i in range(k):
                f = A[i][k] / A[k][k]
                for j in range(k):
                    A[i][j] = A[i][j] - f * A[k][j]
                r[i] = r[i] - f * r[k]
        fitted = (r[0] / A[0][0]).T.copy()
    for i, tied in nb.ties:
        w = np.ones((b, tied.size)) if delta is None else delta[:, tied]
        total = w.sum(axis=1)
        fitted[:, i] = np.where(
            total > 0.0,
            (Y[:, tied] * w).sum(axis=1) / np.where(total > 0.0, total, 1.0),
            Y[:, tied].mean(axis=1),
        )
    return fitted


def _design(xs: np.ndarray, config: "LoessConfig") -> _Neighbourhoods:
    """The neighbourhoods of a fit at the sorted design ``xs`` itself."""
    n = xs.size
    if n < config.degree + 2:
        raise LoessError(f"need at least degree + 2 = {config.degree + 2} points, got {n}")
    return _Neighbourhoods(xs, xs, config.neighborhood_size(n), config.degree)


def _fit_rows(nb: _Neighbourhoods, Y: np.ndarray, config: "LoessConfig"):
    """Fitted values and final robustness weights for each row of ``Y``
    (b, n) on the design of ``nb`` (from :func:`_design`); the robustness
    passes stop per row."""
    fitted = _smooth(nb, Y)
    delta = np.ones_like(Y)
    scale_floor = 1e-12 * (1.0 + np.median(np.abs(Y), axis=1))
    active = np.ones(Y.shape[0], dtype=bool)
    for _ in range(config.robust_iterations):
        resid = Y - fitted
        s = np.median(np.abs(resid), axis=1)
        active &= s > scale_floor
        if not active.any():
            break
        u = np.clip(resid[active] / (6.0 * s[active, None]), -1.0, 1.0)
        delta[active] = (1.0 - u * u) ** 2
        fitted[active] = _smooth(nb, Y[active], delta[active])
    return fitted, delta


def fit_loess(ds: BivariateDataset, config: LoessConfig = LoessConfig()) -> LoessFit:
    """Fit the smoother and return fitted values and residuals at the data.

    Robustness passes recompute bisquare weights ``(1 - (r / 6 MAD)^2)^2``
    from the current residuals, stopping early if the residual MAD is zero.

    Raises
    ------
    LoessError
        If the configuration is invalid for this dataset size.
    SingularFitError
        If some neighborhood puts positive weight on fewer distinct x values
        than ``degree + 1``.
    """
    fitted, delta = _fit_rows(_design(ds.xs, config), ds.ys[None, :], config)
    fitted, delta = fitted[0], delta[0]
    return LoessFit(
        config=config,
        fitted=fitted,
        residuals=ds.ys - fitted,
        robustness_weights=delta,
    )


def predict_loess(fit: LoessFit, ds: BivariateDataset, grid) -> np.ndarray:
    """Evaluate the fitted smoother at arbitrary points inside the x range.

    Extrapolation is refused: every grid value must lie in
    ``[min(xs), max(xs)]``.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    lo, hi = float(ds.xs[0]), float(ds.xs[-1])
    if np.any(grid < lo) or np.any(grid > hi):
        bad = grid[(grid < lo) | (grid > hi)][0]
        raise ExtrapolationError(f"grid point {bad!r} outside the observed range [{lo!r}, {hi!r}]")
    nb = _Neighbourhoods(ds.xs, grid, fit.config.neighborhood_size(ds.n), fit.config.degree)
    # unit weights mean no robustness pass ran: the fit used the unit-weight path
    delta = fit.robustness_weights
    return _smooth(nb, ds.ys[None, :], None if np.all(delta == 1.0) else delta[None, :])[0]


def loess_fitter(config: LoessConfig = LoessConfig()):
    """Adapter with the fitter contract of :mod:`breakline.bands`:
    ``fitter(xs)`` builds the neighbourhoods and tricube weights of the
    design once and returns ``fit_rows(Y)``, one row of fitted values at xs
    per row of ``Y``.

    :func:`fit_loess` runs the same code on a block of one, so a row's fit
    does not depend on the block it is in.  A block raises
    :class:`SingularFitError` when any of its rows would.
    """

    def fitter(xs: np.ndarray):
        order = np.argsort(xs, kind="stable")
        nb = _design(xs[order], config)

        def fit_rows(Y: np.ndarray) -> np.ndarray:
            fitted = np.empty_like(Y, dtype=float)
            fitted[:, order] = _fit_rows(nb, np.asarray(Y, dtype=float)[:, order], config)[0]
            return fitted

        return fit_rows

    return fitter
