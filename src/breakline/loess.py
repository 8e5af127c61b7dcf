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
            f"singular local fit at x={target_x!r}: positive weight on fewer "
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


def _local_value(xs, ys, delta, x0, k, degree):
    """One weighted local polynomial fit, evaluated at x0."""
    d = np.abs(xs - x0)
    d_k = np.partition(d, k - 1)[k - 1]
    idx = np.nonzero(d <= d_k)[0]  # boundary ties are all included
    if d_k == 0.0:
        # Every neighbor sits at the target; the kernel would be 0/0.
        w = delta[idx]
        if w.sum() <= 0.0:
            return float(np.mean(ys[idx]))
        return float(np.average(ys[idx], weights=w))
    w = tricube_weights(d[idx], d_k) * delta[idx]
    positive = w > 0.0
    if np.unique(xs[idx][positive]).size < degree + 1:
        raise SingularFitError(x0)
    t = xs[idx] - x0
    basis = np.vander(t, degree + 1, increasing=True)
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(basis * sw[:, None], ys[idx] * sw, rcond=None)
    return float(coef[0])


def _smooth(xs, ys, delta, targets, k, degree):
    return np.array([_local_value(xs, ys, delta, x0, k, degree) for x0 in targets])


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
    n = ds.n
    if n < config.degree + 2:
        raise LoessError(f"need at least degree + 2 = {config.degree + 2} points, got {n}")
    k = config.neighborhood_size(n)
    xs, ys = ds.xs, ds.ys
    delta = np.ones(n)
    fitted = _smooth(xs, ys, delta, xs, k, config.degree)
    scale_floor = 1e-12 * (1.0 + float(np.median(np.abs(ys))))
    for _ in range(config.robust_iterations):
        resid = ys - fitted
        s = float(np.median(np.abs(resid)))
        if s <= scale_floor:
            break
        u = np.clip(resid / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - u * u) ** 2
        fitted = _smooth(xs, ys, delta, xs, k, config.degree)
    return LoessFit(
        config=config,
        fitted=fitted,
        residuals=ys - fitted,
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
    k = fit.config.neighborhood_size(ds.n)
    return _smooth(ds.xs, ds.ys, fit.robustness_weights, grid, k, fit.config.degree)


def loess_fitter(config: LoessConfig = LoessConfig()):
    """Adapter with the mean-model fitter signature used by the bootstrap.

    Returns a function mapping ``(xs, ys) -> fitted values at xs``.
    """

    def fitter(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        ds = BivariateDataset.from_arrays(xs, ys)
        return fit_loess(ds, config).fitted

    return fitter

