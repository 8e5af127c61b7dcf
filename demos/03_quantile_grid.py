"""Piecewise linear quantile regression over the decile tau grid.

Each tau level gets its own exact check-loss fit of the two-breakpoint
model; the spread of breakpoint estimates across the grid gives the
80%-style interval, and the tau = 0.1 / 0.9 curves bound the prediction
band.  Run:

    python3 demos/03_quantile_grid.py
"""

import numpy as np

import breakline as bl

truth = bl.SegmentedModel(beta=(10.0, 0.0, -20.0, 20.0), alpha=(0.3, 0.6))
spec = bl.SyntheticSpec(model=truth, n=80, noise=bl.WedgeNoise(0.4, 1.5), rng=bl.RngSpec(5))
ds = bl.generate(spec)

fits, failures = bl.fit_tau_grid(ds)
assert not failures

print(f"{'tau':>5} {'alpha1':>8} {'alpha2':>8} {'objective':>10}")
for fit in fits:
    print(f"{fit.tau:>5.2f} {fit.model.alpha[0]:>8.3f} {fit.model.alpha[1]:>8.3f} {fit.objective:>10.3f}")

table = bl.quantile_breakpoint_intervals(fits)
print(f"\n{table.coverage_label} interval for alpha1: "
      f"({table.alpha1_interval[0]:.3f}, {table.alpha1_interval[1]:.3f}), width {table.alpha1_width:.3f}")
print(f"{table.coverage_label} interval for alpha2: "
      f"({table.alpha2_interval[0]:.3f}, {table.alpha2_interval[1]:.3f}), width {table.alpha2_width:.3f}")

# the 80% band: the tau 0.1 and 0.9 curves of the grid, around its median
band = bl.pqrm_prediction_band(fits, 0.80, ds)
area = bl.compute_area(band)
print(f"\n80% band (tau 0.1 to 0.9): area {area:.3f} square units")
if band.crossings:
    print(f"quantile curves cross at {len(band.crossings)} design points (clamped in the area)")
else:
    print("no quantile crossings on the design")

inside = np.mean((ds.ys >= band.lower) & (ds.ys <= band.upper))
print(f"fraction of observed points inside the band: {inside:.2f}")
