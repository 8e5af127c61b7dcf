"""Synthetic data from known piecewise truths, plus brute-force test oracles.

The original field datasets behind this kind of analysis are rarely
publishable, so the generator here is first-class: it lets users rehearse
the full pipeline on data with a known answer, and it backs the test suite.
The two oracles are deliberately naive (direct normal equations; exhaustive
enumeration of exact-fit subsets) so the production solvers can be checked
against independent arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .dataset import BivariateDataset
from .piecewise import SegmentedModel, eval_segmented
from .rng import RngSpec, standard_normal


class SyntheticError(ValueError):
    """Invalid synthetic-data configuration."""


@dataclass(frozen=True)
class GaussianNoise:
    """Homoscedastic Gaussian noise with standard deviation sigma."""

    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise SyntheticError("sigma must be nonnegative")

    def scale(self, xs: np.ndarray) -> np.ndarray:
        return np.full_like(xs, self.sigma)


@dataclass(frozen=True)
class WedgeNoise:
    """Heteroscedastic wedge: sigma(x) = sigma0 * (1 + growth * x)."""

    sigma0: float
    growth: float

    def __post_init__(self) -> None:
        if self.sigma0 <= 0.0:
            raise SyntheticError("sigma0 must be positive")

    def scale(self, xs: np.ndarray) -> np.ndarray:
        factor = 1.0 + self.growth * xs
        if np.any(factor <= 0.0):
            raise SyntheticError("wedge scale must stay positive over the design")
        return self.sigma0 * factor


@dataclass(frozen=True)
class SyntheticSpec:
    """Truth model, design, noise law, and seed for one synthetic dataset.

    ``x_design`` is an explicit sequence of n x values; None means n evenly
    spaced points on [x_min, x_max].
    """

    model: SegmentedModel
    n: int
    noise: Union[GaussianNoise, WedgeNoise]
    rng: RngSpec = field(default_factory=RngSpec)
    x_design: Sequence[float] | None = None
    x_min: float = 0.0
    x_max: float = 1.0

    def design(self) -> np.ndarray:
        if self.x_design is None:
            if self.n < 2:
                raise SyntheticError("uniform design needs n >= 2")
            return np.linspace(self.x_min, self.x_max, self.n)
        xs = np.asarray(list(self.x_design), dtype=float)
        if xs.size != self.n:
            raise SyntheticError(f"fixed design has {xs.size} points but n={self.n}")
        return xs

    def __post_init__(self) -> None:
        xs = self.design()
        a1, a2 = self.model.alpha
        if not (xs.min() < a1 < a2 < xs.max()):
            raise SyntheticError("truth breakpoints must lie inside the design range")


def generate(spec: SyntheticSpec) -> BivariateDataset:
    """Draw one dataset: y = truth(x) + noise, deterministic per seed."""
    xs = spec.design()
    gen = spec.rng.stream(0)
    noise = standard_normal(gen, xs.size) * spec.noise.scale(xs)
    ys = eval_segmented(spec.model, xs) + noise
    return BivariateDataset.from_arrays(xs, ys)


def ols_oracle(design, ys) -> np.ndarray:
    """Least-squares coefficients by direct normal equations.

    Independent of the production solvers on purpose; raises on a singular
    cross-product matrix.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(ys, dtype=float)
    xtx = X.T @ X
    if abs(np.linalg.det(xtx)) <= 1e-300:
        raise np.linalg.LinAlgError("rank-deficient design")
    return np.linalg.solve(xtx, X.T @ y)


def quantile_oracle(design, ys, tau: float) -> float:
    """Optimal check-loss objective by exhaustive basic-solution enumeration.

    Evaluates every exact-fit subset of p observations (skipping singular
    submatrices) and returns the minimum objective.  Combinatorial cost;
    intended for n <= 8.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(ys, dtype=float)
    n, p = X.shape
    best = None
    for subset in itertools.combinations(range(n), p):
        sub = X[list(subset)]
        sign, logdet = np.linalg.slogdet(sub)
        if sign == 0 or not np.isfinite(logdet):
            continue
        b = np.linalg.solve(sub, y[list(subset)])
        u = y - X @ b
        objective = float(np.sum(u * (tau - (u < 0))))
        if best is None or objective < best:
            best = objective
    if best is None:
        raise np.linalg.LinAlgError("rank-deficient design: no invertible subset")
    return float(best)
