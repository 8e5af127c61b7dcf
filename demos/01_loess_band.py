"""Loess smoothing with residual-bootstrap prediction bands.

Generates a wedge-noise dataset from a known two-breakpoint truth, fits the
loess smoother, and builds 80% and 95% prediction bands from one shared
bootstrap replicate pool.  Run:

    python3 demos/01_loess_band.py
"""

import numpy as np

import breakline as bl

truth = bl.SegmentedModel(beta=(10.0, 0.0, -5.0, 5.0), alpha=(0.3, 0.6))
spec = bl.SyntheticSpec(
    model=truth,
    n=60,
    noise=bl.WedgeNoise(sigma0=0.5, growth=1.5),
    rng=bl.RngSpec(7),
)
ds = bl.generate(spec)
print(f"dataset: n={ds.n}, x in [{ds.xs[0]:.2f}, {ds.xs[-1]:.2f}]")

config = bl.LoessConfig(span=0.75, degree=2, robust_iterations=4)
fit = bl.fit_loess(ds, config)
print(f"loess residual spread: sd={np.std(fit.residuals):.3f}")

# both bands come from the same 2000-replicate pool, so they nest exactly
# the replicates resample around the loess fit above
bands = bl.bootstrap_bands(ds, fit.fitted, bl.loess_fitter(config), [0.80, 0.95], 2000, bl.RngSpec(1), method="BL")
for band in bands:
    area = bl.compute_area(band)
    print(f"gamma={band.gamma:.2f}: surface area {area:.3f} square units")

inner, outer = bands
assert np.all(outer.lower <= inner.lower) and np.all(inner.upper <= outer.upper)
print("80% band nests inside the 95% band at every design point")

# predictions on a fresh grid stay inside the observed x range
grid = np.linspace(ds.xs[0], ds.xs[-1], 7)
print("curve on a coarse grid:", np.round(bl.predict_loess(fit, ds, grid), 2))
