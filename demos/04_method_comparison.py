"""Side-by-side comparison of the three band methods at gamma = 0.80.

Runs bootstrapped loess (BL), piecewise linear regression (PLRM), and
piecewise linear quantile regression (PQRM) on one wedge dataset, then
compares breakpoint-interval widths and band surface areas, flagging the
winner per row.  Run:

    python3 demos/04_method_comparison.py
"""

import breakline as bl

truth = bl.SegmentedModel(beta=(10.0, 0.0, -20.0, 20.0), alpha=(0.3, 0.6))
spec = bl.SyntheticSpec(model=truth, n=100, noise=bl.WedgeNoise(0.4, 1.5), rng=bl.RngSpec(12))
ds = bl.generate(spec)
gamma = 0.80

center = bl.fit_loess(ds).fitted
bl_band = bl.bootstrap_band(ds, center, bl.loess_fitter(), gamma, 1000, bl.RngSpec(0), method="BL")

ls_fit = bl.fit_segmented(ds)
(pl_band,) = bl.plrm_prediction_band(ls_fit, [gamma])

fits, _ = bl.fit_tau_grid(ds)
table = bl.quantile_breakpoint_intervals(fits)
pq_band = bl.pqrm_prediction_band(fits, gamma, ds)

pl_iv = bl.breakpoint_intervals(ls_fit, 0.80)
intervals = [
    bl.MethodIntervals("PLRM", table.coverage_label, pl_iv["alpha1"], pl_iv["alpha2"]),
    bl.MethodIntervals("PQRM", table.coverage_label, table.alpha1_interval, table.alpha2_interval),
]

report = bl.compare_methods({"BL": bl_band, "PLRM": pl_band, "PQRM": pq_band}, intervals)

print(f"interval widths at coverage {report.coverage_label}:")
for row in report.interval_rows:
    cells = ", ".join(
        f"{m}: {v['width']:.3f}" for m, v in row["methods"].items()
    )
    print(f"  {row['breakpoint']}: {cells}   narrowest -> {row['narrowest']}")

print(f"\nband areas at gamma {report.gamma:.2f}:")
for method, area in report.areas.items():
    flag = "  <- smallest" if method in report.smallest_area else ""
    print(f"  {method}: {area:.3f}{flag}")

out = report.to_jsonable()
print("\narea ratios vs PLRM:", out["area_ratio_percents"])
print("width ratios vs PLRM:", out["width_ratio_percents"])
