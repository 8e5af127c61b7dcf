"""Two-breakpoint piecewise linear regression with full inference.

Fits the continuous three-segment model to noisy synthetic data, prints the
breakpoint and slope-contrast table (estimate, SE, t, p, 95% Wald CI), the
profile-F breakpoint intervals, and builds the parametric prediction band.  Run:

    python3 demos/02_piecewise_inference.py
"""

import numpy as np

import breakline as bl

truth = bl.SegmentedModel(beta=(10.0, 0.0, -5.0, 5.0), alpha=(0.3, 0.6))
spec = bl.SyntheticSpec(model=truth, n=120, noise=bl.GaussianNoise(0.4), rng=bl.RngSpec(3))
ds = bl.generate(spec)

fit = bl.fit_segmented(ds)
print(f"breakpoints: {fit.model.alpha[0]:.4f}, {fit.model.alpha[1]:.4f}  (truth 0.3, 0.6)")
print(f"segment slopes: {np.round(fit.model.slopes, 3)}  (truth 0, -5, 0)")
print(f"rss={fit.rss:.3f} df={fit.df} sigma2={fit.sigma2:.4f}")
print()

header = f"{'parameter':<10} {'estimate':>10} {'se':>8} {'t':>8} {'p':>7} {'95% CI':>22}"
print(header)
for row in bl.fit_report_rows(fit):
    ci = f"({row['ci_lower']:.3f}, {row['ci_upper']:.3f})" if row["ci_lower"] is not None else "(-, -)"
    se = f"{row['se']:.3f}" if row["se"] is not None else "inf"
    t = f"{row['t']:.3f}" if row["t"] is not None else "-"
    p = f"{row['p']:.3f}" if row["p"] is not None else "-"
    star = " *" if row["significant"] else ""
    print(f"{row['parameter']:<10} {row['estimate']:>10.3f} {se:>8} {t:>8} {p:>7} {ci:>22}{star}")
print()

for level in (0.80, 0.95):
    iv = bl.breakpoint_intervals(fit, level)
    print(
        f"{level:.0%} profile-F intervals: alpha1 ({iv['alpha1'][0]:.3f}, {iv['alpha1'][1]:.3f})"
        f"  alpha2 ({iv['alpha2'][0]:.3f}, {iv['alpha2'][1]:.3f})"
    )

(band,) = bl.plrm_prediction_band(fit, [0.80])
print(f"\n80% parametric band area: {bl.compute_area(band):.3f} square units")
