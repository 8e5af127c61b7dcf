"""Self-tests of the benchmark's checks.

    python3 perfbench/selftest.py

The oracles must agree with the program's own brute-force oracles
(``breakline.synthetic.ols_oracle`` / ``quantile_oracle``) on tiny cases, and
every check must flag a deliberately corrupted output: swapped band
envelopes, a shrunken band, a 95 % band written as the 80 % one, an area
off by 1 %, a perturbed quantile curve, an inflated RSS, an interval that
misses its estimate, a tau fit above the grid optimum.  Real outputs come from small CLI commands of each workload.
The host speed probe must remove its timer and scale by its units' time.
Exits 1 if any test fails.  Takes about half a minute.
"""

import csv
import dataclasses
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import run  # sets the thread variables before numpy loads

cli = run.import_program()

import numpy as np  # noqa: E402
from breakline import band_area, band_area_exact, PredictionBand  # noqa: E402
from breakline.synthetic import ols_oracle, quantile_oracle  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, write_csv  # noqa: E402


def failing(found):
    return {name for name, ok, _ in found if not ok}


def tiny(n, seed):
    gen = np.random.default_rng(seed)
    x = np.sort(gen.uniform(0.0, 1.0, n))
    return x, 10.0 - 5.0 * np.maximum(x - 0.3, 0.0) + 5.0 * np.maximum(x - 0.6, 0.0) + 0.5 * gen.standard_normal(n)


def test_ols_oracles_agree():
    x, y = tiny(9, 1)
    a1s, a2s = checks.candidate_pairs(x, 2)
    brute = []
    for a1, a2 in zip(a1s, a2s):
        design = checks.hinge_design(x, a1, a2)
        r = y - design @ ols_oracle(design, y)
        brute.append(float(r @ r))
        assert abs(checks.conditional_ols_rss(x, y, a1, a2) - brute[-1]) <= 1e-9 * brute[-1]
    assert abs(checks.grid_lstsq_min(x, y, 2) - min(brute)) <= 1e-9 * min(brute)


def test_quantile_oracles_agree():
    for seed in range(3):
        x, y = tiny(8, 10 + seed)
        a1s, a2s = checks.candidate_pairs(x, 2)
        for k in range(0, a1s.size, 3):
            for tau in (0.2, 0.5, 0.8):
                want = quantile_oracle(checks.hinge_design(x, a1s[k], a2s[k]), y, tau)
                got = checks.lp_check_loss(x, y, a1s[k], a2s[k], tau)
                assert abs(got - want) <= 1e-7 * (1.0 + want), (seed, k, tau, got, want)


def test_trapezoid_area_and_grid_bound():
    gen = np.random.default_rng(5)
    x = np.sort(gen.uniform(0.0, 1.0, 40))
    center = np.sin(3 * x)
    lower, upper = center - 0.3 + 0.4 * gen.standard_normal(40), center + 0.3
    exact, bound = checks.trapezoid_area(x, lower, upper)
    band = PredictionBand(grid_x=x, center=center, lower=lower, upper=upper, gamma=0.8)
    assert abs(exact - band_area_exact(band)) <= 1e-12
    mids = np.linspace(x[0], x[-1], 2_000_001)
    fine = np.mean(np.maximum(np.interp(mids, x, upper) - np.interp(mids, x, lower), 0.0)) * (x[-1] - x[0])
    assert abs(exact - fine) <= 1e-6
    assert abs(band_area(band) - exact) <= bound
    assert abs(1.01 * exact - exact) > bound


def rewrite_band(path, change):
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline()[2:])
        rows = list(csv.reader(handle))
    cols = {name: np.array([float(r[k]) for r in rows[1:]]) for k, name in enumerate(rows[0])}
    change(header, cols)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("# " + json.dumps(header) + "\n")
        writer = csv.writer(handle)
        writer.writerow(rows[0])
        for i in range(cols["x"].size):
            writer.writerow([repr(float(cols[name][i])) for name in rows[0]])


def small_command(name, n, directory: Path, seed=3, extra=(), out_name=None):
    workload = dataclasses.replace(WORKLOADS[name], n=n)
    x, y, boot = workload.seeded_input(seed, 0)
    write_csv(directory / "input.csv", x, y)
    out = directory / (out_name or name)
    argv = [*workload.argv, *extra, "--input", str(directory / "input.csv"), "--x", "x", "--y", "y",
            "--seed", str(boot), "--out", str(out)]
    assert cli.main(argv) == 0
    fresh = workload.fresh(x, seed, checks.FRESH_DRAWS)
    return workload, out, x, y, fresh


def clean(found):
    """Failures apart from the known faults, which may show on any input."""
    return {name for name in failing(found) if not name.startswith(checks.KNOWN_FAULTS)}


def test_band_corruptions(tmp):
    workload, out, x, y, fresh = small_command("plrm-boot-n200", 60, tmp)
    found, _ = checks.command_checks(workload, out, x, y, fresh)
    assert clean(found) == set(), clean(found)

    def swap(header, cols):
        cols["lower"], cols["upper"] = cols["upper"].copy(), cols["lower"].copy()

    rewrite_band(out / "band_gamma080.csv", swap)
    bad = failing(checks.command_checks(workload, out, x, y, fresh)[0])
    assert {"band0.8.lower_le_upper", "band0.8.area"} <= bad, bad
    rewrite_band(out / "band_gamma080.csv", swap)

    def widen(header, cols):
        cols["lower"], cols["upper"] = cols["lower"] - 0.5, cols["upper"] + 0.5

    rewrite_band(out / "band_gamma080.csv", widen)
    bad = failing(checks.command_checks(workload, out, x, y, fresh)[0])
    assert "band0.8_in_0.95.nested" in bad, bad
    rewrite_band(out / "band_gamma080.csv", lambda h, c: c.update(lower=c["lower"] + 0.5, upper=c["upper"] - 0.5))

    rewrite_band(out / "band_gamma095.csv", lambda h, c: h.update(area=1.01 * h["area"]))
    bad = clean(checks.command_checks(workload, out, x, y, fresh)[0])
    assert bad == {"band0.95.area"}, bad
    rewrite_band(out / "band_gamma095.csv", lambda h, c: h.update(area=h["area"] / 1.01))

    def shrink(header, cols):
        half = 0.5 * (cols["upper"] - cols["lower"])
        mid = 0.5 * (cols["upper"] + cols["lower"])
        cols["lower"], cols["upper"] = mid - 0.3 * half, mid + 0.3 * half

    rewrite_band(out / "band_gamma080.csv", shrink)
    bad = failing(checks.command_checks(workload, out, x, y, fresh)[0])
    assert {f"{checks.UNDER_COVERAGE}.band0.8", "band0.8.area"} <= bad, bad

    # the 95% band written as the 80% one: nested, but not narrower
    shutil.copyfile(out / "band_gamma095.csv", out / "band_gamma080.csv")
    bad = failing(checks.command_checks(workload, out, x, y, fresh)[0])
    assert "band0.8_in_0.95.narrower" in bad, bad


def test_plrm_corruptions(tmp):
    workload, out, x, y, fresh = small_command("plrm-boot-n200", 60, tmp)
    found, _ = checks.command_checks(workload, out, x, y, fresh)
    assert clean(found) == set(), clean(found)
    report_path, summary_path = out / "fit_report.json", out / "summary.json"
    report = json.loads(report_path.read_text())
    report["rss"] *= 1.01
    report_path.write_text(json.dumps(report))
    bad = failing(checks.command_checks(workload, out, x, y, fresh)[0])
    assert {"plrm.rss_le_grid_lstsq", checks.RSS_IS_CONDITIONAL_OLS} <= bad, bad
    report["rss"] /= 1.01
    report_path.write_text(json.dumps(report))
    summary = json.loads(summary_path.read_text())
    a2 = summary["alpha"][1]
    summary["breakpoint_ci95"]["alpha2"] = [a2 + 0.01, a2 + 0.05]
    summary_path.write_text(json.dumps(summary))
    bad = failing(checks.command_checks(workload, out, x, y, fresh)[0])
    assert "plrm.alpha2_in_0.95_interval" in bad, bad


def test_compare_corruptions(tmp):
    workload, out, x, y, fresh = small_command("compare-tied-n100", 40, tmp)
    found, _ = checks.command_checks(workload, out, x, y, fresh)
    assert clean(found) == set(), clean(found)

    # the 95% parametric PLRM band written as the 80% one covers too much
    _, out95, *_ = small_command("compare-tied-n100", 40, tmp, extra=("--gamma", "0.95", "--bootstrap", "40"),
                                 out_name="compare95")
    shutil.copyfile(out / "plrm_band_gamma080.csv", tmp / "plrm80.csv")
    shutil.copyfile(out95 / "plrm_band_gamma095.csv", out / "plrm_band_gamma080.csv")
    bad = failing(checks.command_checks(workload, out, x, y, fresh)[0])
    assert "plrm.band0.8.coverage_not_over" in bad, bad
    shutil.copyfile(tmp / "plrm80.csv", out / "plrm_band_gamma080.csv")

    rewrite_band(out / "pqrm_band_gamma080.csv", lambda h, c: h.update(area=1.01 * h["area"]))
    bad = failing(checks.command_checks(workload, out, x, y, fresh)[0])
    assert {"pqrm.band0.8.area", "pqrm.area_in_comparison"} <= bad, bad

    # a perturbed tau = 0.9 curve no longer reaches the LP optimum
    def lift(header, cols):
        cols["upper"] = cols["upper"] + 1e-3

    rewrite_band(out / "pqrm_band_gamma080.csv", lift)
    bad = failing(checks.command_checks(workload, out, x, y, fresh)[0])
    assert f"{checks.PQRM_AT_OPTIMUM}.tau0.9.lp" in bad, bad

    # grid optimality against a reference built here: a fit at the grid
    # optimum passes, a fit at a worse pair is flagged
    a1s, a2s = checks.candidate_pairs(x, 3)
    objective = [checks.lp_check_loss(x, y, a1, a2, 0.5) for a1, a2 in zip(a1s, a2s)]
    best, worst = int(np.argmin(objective)), int(np.argmax(objective))
    reference = {"0.5": {"objective": objective[best]}}
    assert failing(checks.grid_optimality_checks(x, y, {0.5: (a1s[best], a2s[best])}, reference)) == set()
    bad = failing(checks.grid_optimality_checks(x, y, {0.5: (a1s[worst], a2s[worst])}, reference))
    assert bad == {f"{checks.PQRM_GRID_OPTIMAL}.tau0.5"}, bad



def test_host_probe():
    import signal
    import time

    import hostspeed

    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as probe:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert 2 <= len(probe.units) <= 4, probe.units
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    # the units' own time is taken out, and the rest put on the reference scale
    probe.units = [0.004, 0.006]
    expected = (1.0 - 0.01) * hostspeed.REFERENCE_UNIT_S / 0.005
    assert abs(probe.scaled(1.0) - expected) < 1e-12
    assert abs(hostspeed.scale([0.004, 0.006]) - hostspeed.REFERENCE_UNIT_S / 0.005) < 1e-12

def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    (run.HERE / "runs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.HERE / "runs") as root:
        for name, fn in tests:
            try:
                if fn.__code__.co_argcount:
                    work = Path(root) / name
                    work.mkdir()
                    fn(work)
                else:
                    fn()
                print(f"PASS {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
