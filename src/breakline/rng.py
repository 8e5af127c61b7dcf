"""Deterministic random-number infrastructure shared by all resampling code.

Every stochastic routine in the package draws from a :class:`RngSpec`.  A spec
is a 64-bit seed; stream ``b`` is the PCG64 generator keyed by
``SeedSequence(entropy=seed, spawn_key=(b,))``, so replicate-level results do
not depend on the order in which replicates are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_MAX_SEED = 2**64


@dataclass(frozen=True)
class RngSpec:
    """Seed of every PCG64 stream of one run.

    Identical seed and identical inputs give bit-identical output for every
    consumer in this package.
    """

    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < _MAX_SEED):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def stream(self, replicate: int = 0) -> np.random.Generator:
        """Return the generator for one replicate, keyed by (seed, replicate)."""
        if replicate < 0:
            raise ValueError("replicate index must be nonnegative")
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(replicate),))
        return np.random.Generator(np.random.PCG64(seq))


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Standard normals via the inverse CDF of the uniform stream.

    The explicit probit transform (rather than the generator's own ziggurat
    sampler) keeps fixtures reproducible across generator library versions.
    """
    u = gen.random(size)
    # gen.random() lives in [0, 1); nudge an exact 0 off the pole of ndtri.
    u = np.where(u == 0.0, np.nextafter(0.0, 1.0), u)
    return ndtri(u)
