"""Residual-bootstrap prediction bands, generic over the mean-model fitter.

The resampling scheme (Davison & Hinkley 1997, ch. 6): around the caller's
fitted curve, the ``center``, center the residuals, and for each replicate
(1) build a synthetic response from the center plus resampled residuals,
(2) refit the model on it, (3) center the replicate's residuals and resample
them a second time, and (4) record the predicted residual ``center - refit
+ resampled``.  Pointwise empirical quantiles of the predicted residuals
(pooled over the rows at one x value), added back to the center, give the
band.  The center is the caller's own fit of the data, so the data are
never fitted twice.

A "fitter" binds to a design once, ``fitter(xs) -> fit_rows``, doing there
the work that depends on x alone; ``fit_rows(Y)`` then takes one response
per row, shape ``(b, n)``, and returns ``fitted`` of the same shape: row
``i`` is the fitted mean at ``xs`` for the responses ``Y[i]``.  The pool
binds its fitter once and refits every block of replicates with the bound
form.  A ``fit_rows`` that cannot fit some row raises a ``ValueError`` for
the whole block.  The scheme works for parametric and nonparametric mean
models alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import BivariateDataset
from .rng import RngSpec

_MAX_RETRIES = 10
# replicates per fitter call; a block's responses and fits are (_BLOCK, n)
_BLOCK = 64


class BootstrapError(RuntimeError):
    """A replicate's model refit kept failing, or B or a gamma is invalid."""


@dataclass(eq=False)
class PredictionBand:
    """Envelope [lower, upper] around a center curve on an x grid.

    ``lower <= upper`` holds for quantile-of-residual bands by construction;
    bands built from a pair of conditional-quantile curves may cross, in
    which case ``crossings`` lists the offending grid indices and the area
    computation clamps the height at zero.  ``center`` is not required to lie
    inside the envelope.
    """

    grid_x: np.ndarray
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    gamma: float
    area: float | None = None
    method: str = ""
    crossings: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("grid_x", "center", "lower", "upper"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.grid_x.shape == self.center.shape == self.lower.shape == self.upper.shape):
            raise ValueError("grid_x, center, lower, upper must share one shape")


def _fit_block(fit_rows, Y) -> np.ndarray:
    fitted = np.asarray(fit_rows(Y), dtype=float)
    if fitted.shape != Y.shape:
        raise BootstrapError("fitter must return one fitted value per observation")
    return fitted


def predicted_residual_pool(ds: BivariateDataset, center, fitter, B: int, rng: RngSpec) -> np.ndarray:
    """Run the resampling loop once around ``center``, the caller's fitted
    values at ``ds.xs``; returns the pool of shape (B, n).

    The fitter is bound to ``ds.xs`` once, and the replicates go to the
    bound form in blocks of ``_BLOCK``; the bound form is released when the
    pool is complete.  Replicate ``b`` draws from its own stream, in the
    same order whatever the blocking: its first residual draw, then one
    fresh draw per retry, then the second draw.  When a block raises a
    ``ValueError`` (the fitters' error types and numpy's ``LinAlgError``
    derive from it) its replicates are refit one at a time, and a replicate
    whose refit still fails is retried with fresh residual draws up to 10
    times, after which the whole run aborts naming the replicate.  Any other
    exception propagates unchanged.
    """
    xs, ys = ds.xs, ds.ys
    n = ds.n
    center = np.asarray(center, dtype=float)
    if center.shape != xs.shape:
        raise BootstrapError("center must hold one fitted value per observation")
    resid = ys - center
    centered = resid - resid.mean()
    fit_rows = fitter(xs)
    pool = np.empty((B, n))
    for start in range(0, B, _BLOCK):
        reps = range(start, min(start + _BLOCK, B))
        gens = [rng.stream(b) for b in reps]
        Y = np.array([center + centered[gen.integers(0, n, size=n)] for gen in gens])
        try:
            refits = _fit_block(fit_rows, Y)
        except ValueError:
            refits = np.empty_like(Y)
            for i, (b, gen) in enumerate(zip(reps, gens)):
                Y[i], refits[i] = _refit_one(fit_rows, Y[i], center, centered, gen, b)
        for b, gen, y_star, refit in zip(reps, gens, Y, refits):
            e_star = y_star - refit
            e_centered = e_star - e_star.mean()
            draw2 = gen.integers(0, n, size=n)
            pool[b] = center - refit + e_centered[draw2]
    return pool


def _refit_one(fit_rows, y_star, center, centered, gen, b):
    """One replicate's refit, retried with fresh draws from its stream on a
    ``ValueError``; returns the response that fit and its fitted values."""
    n = y_star.size
    for attempt in range(1 + _MAX_RETRIES):
        if attempt:
            y_star = center + centered[gen.integers(0, n, size=n)]
        try:
            return y_star, _fit_block(fit_rows, y_star[None, :])[0]
        except ValueError:
            continue
    raise BootstrapError(f"model fitter failed for replicate {b} after {_MAX_RETRIES} retries")


def _pooled_quantile(xs: np.ndarray, pool: np.ndarray, q: float) -> np.ndarray:
    """Quantile ``q`` of each pool column; the rows that share an x value
    (adjacent, as ``xs`` is sorted) get one quantile of all their columns."""
    out = np.quantile(pool, q, axis=0)
    _, first, counts = np.unique(xs, return_index=True, return_counts=True)
    tied = counts > 1
    for start, m in zip(first[tied].tolist(), counts[tied].tolist()):
        out[start : start + m] = np.quantile(pool[:, start : start + m], q)
    return out


def band_from_pool(ds: BivariateDataset, center, pool, gamma, method="", meta=None) -> PredictionBand:
    """Pointwise empirical quantiles of the pool around the center curve.

    Rows that share an x value draw from one predictive distribution, so
    their pool columns are taken together and the band has one envelope per
    x, whatever the order of the tied rows.  Quantiles interpolate linearly
    between closest order statistics (rank ``q * (m - 1) + 1`` of the ``m``
    draws), so the same pool gives nested bands for nested confidence
    coefficients.
    """
    q_lo = _pooled_quantile(ds.xs, pool, (1.0 - gamma) / 2.0)
    q_hi = _pooled_quantile(ds.xs, pool, (1.0 + gamma) / 2.0)
    info = {"B": int(pool.shape[0])}
    if meta:
        info.update(meta)
    return PredictionBand(
        grid_x=ds.xs.copy(),
        center=np.asarray(center, dtype=float).copy(),
        lower=center + q_lo,
        upper=center + q_hi,
        gamma=float(gamma),
        method=method,
        meta=info,
    )


def bootstrap_bands(
    ds: BivariateDataset, center, fitter, gammas, B: int, rng: RngSpec, method=""
) -> list[PredictionBand]:
    """Bands at several confidence coefficients around ``center``, the
    caller's fit of ``ds``, from one pool of ``B`` replicates drawn from
    ``rng``.  The request must pass ``check_band_request``."""
    check_band_request(gammas, B)
    pool = predicted_residual_pool(ds, center, fitter, B, rng)
    meta = {"seed": rng.seed}
    return [band_from_pool(ds, center, pool, g, method=method, meta=meta) for g in gammas]


def check_band_request(gammas, B: int) -> None:
    """Raise BootstrapError unless every gamma lies in (0, 1) and ``B``
    leaves two replicates outside the widest band: ``B (1 - gamma) >= 2``.
    A caller that fits its center first checks here before that fit, so a
    bad request fails the same way whatever the data."""
    for gamma in gammas:
        if not (0.0 < gamma < 1.0):
            raise BootstrapError(f"gamma must be in (0, 1), got {gamma}")
    widest = max(gammas)
    # with a tolerance for gamma's binary rounding
    if B * (1.0 - widest) < 2.0 - 1e-9:
        raise BootstrapError(
            f"B={B} is too small for gamma={widest}; need B >= 2/(1-gamma) = {2.0 / (1.0 - widest):.1f}"
        )


def bootstrap_band(ds: BivariateDataset, center, fitter, gamma, B: int, rng: RngSpec, method="") -> PredictionBand:
    """Single band at ``gamma``; deterministic given its arguments."""
    return bootstrap_bands(ds, center, fitter, [gamma], B, rng, method=method)[0]


def ols_line_fitter(xs: np.ndarray):
    """Least-squares straight line of each row of ``Y``, in the fitter
    contract above: one projection onto the orthonormal basis of the
    design, which the binding computes."""
    Q, _ = np.linalg.qr(np.column_stack([np.ones_like(xs), xs]))
    q0, q1 = Q.T.copy()

    def fit_rows(Y: np.ndarray) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        # row sums of elementwise products, so each row's fit ignores the others
        return (Y * q0).sum(axis=1)[:, None] * q0 + (Y * q1).sum(axis=1)[:, None] * q1

    return fit_rows
