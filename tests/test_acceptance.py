"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.  Criteria 1 and 9 encode statistical thresholds
for the estimators' sampling behavior; the suite asserts them and reports the
measured quantities either way.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import breakline as bl
from acceptance_log import record as _line
from breakline.quantile import DEFAULT_TAU_GRID, fit_segmented_quantile

TRUTH = bl.SegmentedModel(beta=(10.0, 0.0, -5.0, 5.0), alpha=(0.3, 0.6))


def test_c01_segmented_ls_recovery():
    """Criterion 1: breakpoint recovery accuracy and CI coverage, 100 seeds.

    Accuracy is judged against what the design allows: the asymptotic SD of
    each breakpoint from the information matrix ``sigma^2 (J'J)^-1``, with J
    the mean-function Jacobian at the truth on this design.  An efficient
    estimator's median |error| is about 0.67 SD, and no regular estimator
    does better.  The allowance of one SD (about 1.48 times that efficient
    median) is a choice, not a derived limit: neither the paper nor the
    README fixes it.  It still rejects the loess-curvature guesses alone,
    whose median |alpha1 error| is about 0.07.
    """
    t0 = time.time()
    errs1, errs2, cover1, cover2 = [], [], 0, 0
    xs = np.linspace(0, 1, 200)
    sigma = 0.5
    _, _, b2, b3 = TRUTH.beta
    a1, a2 = TRUTH.alpha
    jac = np.column_stack(
        [
            np.ones_like(xs),
            xs,
            np.maximum(xs - a1, 0.0),
            np.maximum(xs - a2, 0.0),
            -b2 * (xs > a1),
            -b3 * (xs > a2),
        ]
    )
    sd1, sd2 = np.sqrt(np.diag(sigma**2 * np.linalg.inv(jac.T @ jac)))[4:]
    base = bl.eval_segmented(TRUTH, xs)
    for seed in range(100):
        ys = base + sigma * bl.standard_normal(bl.RngSpec(seed).stream(0), 200)
        fit = bl.fit_segmented(bl.BivariateDataset.from_arrays(xs, ys))
        errs1.append(abs(fit.model.alpha[0] - 0.3))
        errs2.append(abs(fit.model.alpha[1] - 0.6))
        iv = bl.breakpoint_intervals(fit, 0.95)
        cover1 += iv["alpha1"][0] <= 0.3 <= iv["alpha1"][1]
        cover2 += iv["alpha2"][0] <= 0.6 <= iv["alpha2"][1]
    elapsed = time.time() - t0
    med1, med2 = float(np.median(errs1)), float(np.median(errs2))
    ok = med1 < sd1 and med2 < sd2 and cover1 >= 90 and cover2 >= 90 and elapsed < 60.0
    _line(
        1,
        ok,
        f"median |err| alpha1={med1:.4f} alpha2={med2:.4f} (need < information-bound SD "
        f"{sd1:.4f} and {sd2:.4f}), 95% CI coverage {cover1}/100 and {cover2}/100 (need >= 90), "
        f"{elapsed:.1f}s (< 60s)",
    )
    assert elapsed < 60.0
    assert med1 < sd1 and med2 < sd2
    assert cover1 >= 90 and cover2 >= 90


def test_c02_inner_ols_equivalence():
    """Criterion 2: profiled inner solve matches the normal-equations oracle."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(10, 31))
        xs = np.sort(rng.uniform(0, 1, n))
        ys = rng.normal(size=n) * 4.0 + 10.0
        # breakpoint pairs in the fitter's admissible domain: at least two
        # observations in every segment
        i1 = int(rng.integers(2, n - 5))
        i2 = int(rng.integers(i1 + 2, n - 2))
        a1 = float(rng.uniform(xs[i1 - 1], xs[i1]))
        a2 = float(rng.uniform(xs[i2 - 1], xs[i2]))
        _, rss = bl.profile_inner_ols(xs, ys, float(a1), float(a2))
        design = bl.segmented_design(xs, a1, a2)
        beta = bl.ols_oracle(design, ys)
        resid = ys - design @ beta
        rss_oracle = float(resid @ resid)
        rel = abs(rss - rss_oracle) / max(rss_oracle, 1e-300)
        worst = max(worst, rel)
    ok = worst < 1e-9
    _line(2, ok, f"worst relative RSS gap over 200 instances = {worst:.2e} (need < 1e-9)")
    assert ok


def test_c03_quantile_lp_exactness():
    """Criterion 3: solver objective equals the exhaustive oracle, 1000 runs."""
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(3, 9))
        p = int(rng.integers(2, 5))
        if p >= n:
            continue
        design = rng.standard_normal((n, p))
        design[:, 0] = 1.0
        ys = rng.standard_normal(n)
        if rng.random() < 0.35:
            ys = np.round(ys, 1)
        tau = float(rng.uniform(0.05, 0.95))
        beta = bl.fit_quantile_linear(design, ys, tau)
        objective = bl.check_objective(ys - design @ beta, tau)
        worst = max(worst, abs(objective - bl.quantile_oracle(design, ys, tau)))
        done += 1
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 120.0
    _line(3, ok, f"worst |objective gap| = {worst:.2e} (need < 1e-9), {elapsed:.1f}s (< 120s)")
    assert ok


def test_c04_quantile_residual_counts():
    """Criterion 4: sign counts bracket n*tau for every segmented-quantile fit."""
    checked = 0
    for seed in (0, 1, 2):
        spec = bl.SyntheticSpec(
            model=TRUTH, n=30, noise=bl.WedgeNoise(0.5, 1.0), rng=bl.RngSpec(400 + seed)
        )
        ds = bl.generate(spec)
        for tau in DEFAULT_TAU_GRID:
            fit = fit_segmented_quantile(ds, tau)
            r = fit.residuals
            ztol = 1e-9 * (1.0 + float(np.max(np.abs(ds.ys))))
            neg = int(np.sum(r < -ztol))
            nonpos = int(np.sum(r <= ztol))
            assert neg <= ds.n * tau <= nonpos, (seed, tau, neg, nonpos)
            checked += 1
    _line(4, True, f"sign-count bracket held on all {checked} fits")


def _ols_line(ds):
    """The least-squares line of ``ds`` at its xs: the center of its bands."""
    return bl.ols_line_fitter(ds.xs)(ds.ys[None, :])[0]


def test_c05_bootstrap_band_coverage():
    """Criterion 5: 80% band covers 70-90% of fresh points, 50 repetitions."""
    t0 = time.time()
    xs = np.linspace(0, 1, 100)
    coverages = []
    for rep in range(50):
        data_rng = bl.RngSpec(5000 + rep)
        ys = 1.0 + 2.0 * xs + 0.5 * bl.standard_normal(data_rng.stream(0), 100)
        ds = bl.BivariateDataset.from_arrays(xs, ys)
        band = bl.bootstrap_band(ds, _ols_line(ds), bl.ols_line_fitter, 0.80, 2000, bl.RngSpec(rep))
        fresh = 1.0 + 2.0 * xs + 0.5 * bl.standard_normal(data_rng.stream(999), 100)
        coverages.append(float(np.mean((fresh >= band.lower) & (fresh <= band.upper))))
    elapsed = time.time() - t0
    mean_cov = float(np.mean(coverages))
    ok = 0.70 <= mean_cov <= 0.90 and elapsed < 300.0
    _line(5, ok, f"mean fresh-point coverage = {mean_cov:.3f} (need in [0.70, 0.90]), {elapsed:.0f}s (< 300s)")
    assert ok


def test_c06_bootstrap_determinism(tmp_path):
    """Criterion 6: identical seeds give byte-identical band CSV exports."""
    from breakline.report import write_band_csv

    spec = bl.SyntheticSpec(model=TRUTH, n=25, noise=bl.GaussianNoise(0.4), rng=bl.RngSpec(66))
    ds = bl.generate(spec)
    files = []
    for name in ("a.csv", "b.csv"):
        band = bl.bootstrap_band(ds, _ols_line(ds), bl.ols_line_fitter, 0.8, 100, bl.RngSpec(42))
        bl.compute_area(band)
        path = tmp_path / name
        write_band_csv(path, band)
        files.append(path.read_bytes())
    ok = files[0] == files[1]
    _line(6, ok, f"two seeded runs export {len(files[0])} identical bytes")
    assert ok


def test_c07_band_area_correctness():
    """Criterion 7: rectangle exact, triangle 1e-6, area vs oracle 1e-4 rel."""
    rect = bl.PredictionBand(
        grid_x=np.array([0.0, 2.0]), center=np.array([0.5, 0.5]),
        lower=np.zeros(2), upper=np.ones(2), gamma=0.8,
    )
    rect_area = bl.band_area(rect)
    tri = bl.PredictionBand(
        grid_x=np.array([0.0, 1.0]), center=np.array([0.0, 0.5]),
        lower=np.zeros(2), upper=np.array([0.0, 1.0]), gamma=0.8,
    )
    tri_area = bl.band_area(tri)

    # representative bands from all three methods on one dataset
    spec = bl.SyntheticSpec(model=TRUTH, n=40, noise=bl.WedgeNoise(0.4, 1.5), rng=bl.RngSpec(7))
    ds = bl.generate(spec)
    ls = bl.fit_segmented(ds)
    bands = [
        bl.bootstrap_band(ds, _ols_line(ds), bl.ols_line_fitter, 0.8, 200, bl.RngSpec(1)),
        *bl.plrm_prediction_band(ls, [0.8]),
    ]
    q_fits = [fit_segmented_quantile(ds, t) for t in (0.1, 0.5, 0.9)]
    bands.append(bl.pqrm_prediction_band(q_fits, 0.8, ds))
    worst_rel = 0.0
    for band in bands:
        exact = bl.band_area_exact(band)
        approx = bl.band_area(band)
        worst_rel = max(worst_rel, abs(approx - exact) / max(exact, 1e-300))

    ok = (
        abs(rect_area - 2.0) <= 1e-12
        and abs(tri_area - 0.5) <= 1e-6
        and worst_rel <= 1e-4
    )
    _line(
        7,
        ok,
        f"rectangle |err|={abs(rect_area - 2.0):.1e} (<=1e-12), triangle |err|={abs(tri_area - 0.5):.1e} "
        f"(<=1e-6), area vs oracle worst rel={worst_rel:.1e} (<=1e-4)",
    )
    assert ok


def test_c08_reference_arithmetic():
    """Criterion 8: published log/width arithmetic reproduces exactly."""
    checks = [
        abs(10**1.212 - 16.293) <= 0.001,
        abs(10**1.624 - 42.073) <= 0.001,
        abs((0.284 - 0.233) - 0.051) < 1e-12,
        abs((1.662 - 1.585) - 0.077) < 1e-12,
    ]
    ok = all(checks)
    _line(
        8,
        ok,
        f"10^1.212={10**1.212:.3f}, 10^1.624={10**1.624:.3f}, "
        f"0.284-0.233={0.284 - 0.233:.3f}, 1.662-1.585={1.662 - 1.585:.3f}",
    )
    assert ok


@pytest.mark.slow  # most of the suite's time: 50 tau sweeps
def test_c09_method_comparison_tendency():
    """Criterion 9: on wedge data the quantile method tends to give narrower
    breakpoint intervals and smaller band areas than the least-squares fit."""
    seeds = 50
    interval_wins = 0
    area_wins = 0
    for seed in range(seeds):
        spec = bl.SyntheticSpec(
            model=TRUTH, n=150, noise=bl.WedgeNoise(0.5, 1.5), rng=bl.RngSpec(seed)
        )
        ds = bl.generate(spec)
        ls = bl.fit_segmented(ds)
        fits, failures = bl.fit_tau_grid(ds)
        if failures:
            continue
        table = bl.quantile_breakpoint_intervals(fits)
        pl_iv = bl.breakpoint_intervals(ls, 0.80)
        pl_width = pl_iv["alpha2"][1] - pl_iv["alpha2"][0]
        interval_wins += table.alpha2_width < pl_width
        pq_band = bl.pqrm_prediction_band(fits, 0.80, ds)
        (pl_band,) = bl.plrm_prediction_band(ls, [0.80])
        area_wins += bl.band_area(pq_band) < bl.band_area(pl_band)
    ok = interval_wins >= 0.6 * seeds and area_wins >= 0.6 * seeds
    _line(
        9,
        ok,
        f"alpha2 interval narrower in {interval_wins}/{seeds}, band area smaller in "
        f"{area_wins}/{seeds} (need >= 30 each)",
    )
    assert interval_wins >= 0.6 * seeds
    assert area_wins >= 0.6 * seeds


def test_c10_default_tau_grid_and_label():
    """Criterion 10: decile tau grid by default, labeled as an 80% interval."""
    ok_grid = DEFAULT_TAU_GRID == (0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90)
    spec = bl.SyntheticSpec(model=TRUTH, n=30, noise=bl.GaussianNoise(0.4), rng=bl.RngSpec(10))
    ds = bl.generate(spec)
    fits, failures = bl.fit_tau_grid(ds)
    table = bl.quantile_breakpoint_intervals(fits, failed_taus=[t for t, _ in failures])
    ok = ok_grid and table.coverage_label == "80%" and not failures
    _line(10, ok, f"grid={DEFAULT_TAU_GRID}, label={table.coverage_label!r}")
    assert ok


def _run_pipeline(workdir: Path, tag: str, threads: str) -> dict:
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = threads
    env["OPENBLAS_NUM_THREADS"] = threads
    env["MKL_NUM_THREADS"] = threads
    synth_dir = workdir / f"synth_{tag}"
    cmd = [
        sys.executable, "-m", "breakline.cli", "synth",
        "--n", "36", "--noise", "wedge:0.4,1.5", "--seed", "11", "--out", str(synth_dir),
    ]
    subprocess.run(cmd, check=True, env=env, capture_output=True)
    cmp_dir = workdir / f"cmp_{tag}"
    cmd = [
        sys.executable, "-m", "breakline.cli", "compare",
        "--input", str(synth_dir / "dataset.csv"), "--x", "x", "--y", "y",
        "--bootstrap", "150", "--seed", "3", "--out", str(cmp_dir),
    ]
    result = subprocess.run(cmd, check=False, env=env, capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    digests = {}
    for directory in (synth_dir, cmp_dir):
        for p in sorted(directory.iterdir()):
            if p.is_file():
                digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def test_c11_end_to_end_byte_stability(tmp_path):
    """Criterion 11: synth -> compare is byte-stable across runs and thread counts."""
    base = _run_pipeline(tmp_path, "a", "1")
    repeat = _run_pipeline(tmp_path, "b", "1")
    threaded = _run_pipeline(tmp_path, "c", "2")
    ok = base == repeat == threaded
    _line(11, ok, f"{len(base)} output files byte-identical across reruns and thread counts")
    assert ok
