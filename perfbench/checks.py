"""Output checks made apart from the program.

Every check reads what a CLI command wrote and compares it with a
computation of the benchmark's own (numpy least squares, scipy's HiGHS LP
solver, an exact trapezoid integral, fresh draws from the known truth) or
with a property any correct output must have.  Nothing here calls into
``breakline`` or compares against a stored copy of its output.

A check returns ``(name, ok, detail)``.  ``KNOWN_FAULTS`` names the checks
that fail on purpose on the fixed inputs, because of faults in the program
that the README names.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from workloads import MIN_SEGMENT_POINTS

# reported PLRM RSS above the conditional OLS RSS at its own breakpoints:
# fit_segmented's Gauss-Newton polish stops short of the optimum
RSS_IS_CONDITIONAL_OLS = "plrm.rss_is_conditional_ols"
# a tau fit above the HiGHS optimum over the candidate grid: the check-loss
# simplex stops at degenerate vertices on tied responses
PQRM_GRID_OPTIMAL = "pqrm.grid_optimal"
# a tau curve off the LP optimum at its own breakpoints: the same simplex
# fault, seen on some tied inputs
PQRM_AT_OPTIMUM = "pqrm.at_optimum"
# a band that covers fewer fresh draws than nominal - COVERAGE_BELOW: the
# residual-bootstrap pool and the PQRM band under-cover at these sample sizes
UNDER_COVERAGE = "bands.under_coverage"
KNOWN_FAULTS = (RSS_IS_CONDITIONAL_OLS, PQRM_GRID_OPTIMAL, PQRM_AT_OPTIMUM, UNDER_COVERAGE)

# coverage of fresh draws from the truth: below nominal - BELOW is the known
# fault above; above nominal + ABOVE fails on any input.  ABOVE sits just
# over the highest coverage measured for an 80% band (0.858), so a 95%
# parametric band written as the 80% one fails
COVERAGE_BELOW = 0.05
COVERAGE_ABOVE = 0.09
# "to rounding": a converged least-squares fit leaves ~1e-14
RSS_GAP_TOLERANCE = 1e-10
FRESH_DRAWS = 200
GRID_CELLS = 10_000  # the CLI's default --grid-cells


# ---------------------------------------------------------------- reading


def read_band(path):
    """Header dict and the x, center, lower, upper columns of a band CSV."""
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        if not first.startswith("# "):
            raise ValueError(f"{path}: no JSON header line")
        header = json.loads(first[2:])
        rows = list(csv.reader(handle))
    if rows[0] != ["x", "center", "lower", "upper"]:
        raise ValueError(f"{path}: unexpected columns {rows[0]}")
    cols = np.array(rows[1:], dtype=float).T
    return header, {"x": cols[0], "center": cols[1], "lower": cols[2], "upper": cols[3]}


def read_tau_table(path):
    """``{tau: (alpha1, alpha2)}`` from the numeric rows of tau_table.csv."""
    table = {}
    with open(path, encoding="utf-8") as handle:
        for row in csv.reader(handle):
            try:
                tau = float(row[0])
            except ValueError:
                continue
            if row[1] and row[2]:
                table[round(tau, 10)] = (float(row[1]), float(row[2]))
    return table


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------- oracles


def hinge_design(x, a1, a2):
    return np.column_stack([np.ones_like(x), x, np.maximum(x - a1, 0.0), np.maximum(x - a2, 0.0)])


def candidate_pairs(x, min_pts):
    """Breakpoint pairs of the candidate grid: midpoints of consecutive
    distinct x values, with at least ``min_pts`` points in every segment."""
    u = np.unique(x)
    mids = (u[:-1] + u[1:]) / 2.0
    left = np.searchsorted(np.sort(x), mids, side="right")
    i, j = np.triu_indices(mids.size, k=1)
    keep = (left[i] >= min_pts) & (left[j] - left[i] >= min_pts) & (x.size - left[j] >= min_pts)
    return mids[i[keep]], mids[j[keep]]


def conditional_ols_rss(x, y, a1, a2):
    design = hinge_design(x, a1, a2)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    r = y - design @ coef
    return float(r @ r)


def grid_lstsq_min(x, y, min_pts, chunk=1024, confirm=32):
    """Least-squares minimum RSS over the candidate grid.

    Batched normal equations rank every pair; the best ``confirm`` pairs
    are then solved again with ``np.linalg.lstsq``, which sets the value.
    """
    a1s, a2s = candidate_pairs(x, min_pts)
    approx = np.empty(a1s.size)
    for s in range(0, a1s.size, chunk):
        a1 = a1s[s:s + chunk, None]
        a2 = a2s[s:s + chunk, None]
        X = np.stack(
            [np.ones((a1.shape[0], x.size)), np.broadcast_to(x, (a1.shape[0], x.size)),
             np.maximum(x - a1, 0.0), np.maximum(x - a2, 0.0)],
            axis=2,
        )
        xtx = np.einsum("pni,pnj->pij", X, X)
        xty = np.einsum("pni,n->pi", X, y)
        coef = np.linalg.solve(xtx, xty[..., None])[..., 0]
        r = y - np.einsum("pni,pi->pn", X, coef)
        approx[s:s + chunk] = np.einsum("pn,pn->p", r, r)
    best = np.argsort(approx, kind="stable")[:confirm]
    return min(conditional_ols_rss(x, y, a1s[k], a2s[k]) for k in best)


def check_loss(r, tau):
    r = np.asarray(r, dtype=float)
    return float(np.sum(r * (tau - (r < 0.0))))


def lp_check_loss(x, y, a1, a2, tau):
    """Minimum check loss at fixed breakpoints, solved by HiGHS as the LP
    ``min tau 1'u + (1 - tau) 1'v  s.t.  X b + u - v = y,  u, v >= 0``."""
    n = y.size
    X = sparse.csr_matrix(hinge_design(x, a1, a2))
    eye = sparse.identity(n, format="csr")
    A = sparse.hstack([X, eye, -eye], format="csr")
    c = np.concatenate([np.zeros(4), np.full(n, tau), np.full(n, 1.0 - tau)])
    bounds = [(None, None)] * 4 + [(0.0, None)] * (2 * n)
    res = linprog(c, A_eq=A, b_eq=y, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed at ({a1}, {a2}), tau {tau}: {res.message}")
    return float(res.fun)


def trapezoid_area(x, lower, upper):
    """Exact area of the clamped piecewise-linear height, and a bound on the
    error of the program's midpoint rule on ``GRID_CELLS`` uniform cells.

    Each interval is split where the height crosses zero.  Midpoint sums
    are exact on linear pieces, so the error comes only from the cells that
    hold a kink of the clamped height: at most ``|slope jump| h^2 / 8`` each.
    """
    knots, heights = [x[0]], [max(upper[0] - lower[0], 0.0)]
    d = upper - lower
    for k in range(x.size - 1):
        w = x[k + 1] - x[k]
        if w <= 0.0:
            continue
        d0, d1 = d[k], d[k + 1]
        if (d0 > 0.0 > d1) or (d0 < 0.0 < d1):
            t = d0 / (d0 - d1)
            knots.append(x[k] + t * w)
            heights.append(0.0)
        knots.append(x[k + 1])
        heights.append(max(d1, 0.0))
    knots, heights = np.array(knots), np.array(heights)
    widths = np.diff(knots)
    total = float(np.sum(0.5 * (heights[:-1] + heights[1:]) * widths))
    keep = widths > 0.0
    slopes = np.diff(heights)[keep] / widths[keep]
    h = (x[-1] - x[0]) / GRID_CELLS
    bound = float(np.sum(np.abs(np.diff(slopes)))) * h * h / 8.0
    return total, bound


# ---------------------------------------------------------------- checks


def band_checks(label, header, band, nominal, fresh, envelopes_ordered=True):
    """Ordered envelopes, area against the exact integral, and coverage of
    fresh draws (shape (draws, n) at the band's x values)."""
    out = []
    lo, hi = band["lower"], band["upper"]
    if envelopes_ordered:
        bad = int(np.sum(lo > hi))
        out.append((f"{label}.lower_le_upper", bad == 0, f"{bad} points with lower > upper"))
    exact, bound = trapezoid_area(band["x"], lo, hi)
    area = header.get("area")
    ok = area is not None and abs(area - exact) <= bound + 1e-9 * abs(exact)
    out.append((f"{label}.area", ok, f"reported {area!r}, trapezoid {exact!r}, grid bound {bound:.3g}"))
    cover = float(np.mean((fresh >= lo) & (fresh <= hi)))
    detail = f"{cover:.4f} of fresh draws inside the {nominal:.0%} band"
    out.append((f"{label}.coverage_not_over", cover <= nominal + COVERAGE_ABOVE, detail))
    out.append((f"{UNDER_COVERAGE}.{label}", cover >= nominal - COVERAGE_BELOW, detail))
    return out, cover


def nested_checks(label, inner, outer, inner_area, outer_area):
    """The inner band inside the outer one, and narrower: bands at two
    levels drawn from one pool are not the same band."""
    bad = int(np.sum((outer["lower"] > inner["lower"]) | (inner["upper"] > outer["upper"])))
    same_x = np.array_equal(inner["x"], outer["x"])
    return [(f"{label}.nested", same_x and bad == 0, f"{bad} points where the inner band leaves the outer"),
            (f"{label}.narrower", inner_area < outer_area, f"areas {inner_area!r} and {outer_area!r}")]


def plrm_checks(x, y, rss, alpha, interval, level, min_pts):
    """``rss`` is the reported RSS, ``alpha`` the reported breakpoints and
    ``interval`` their reported profile-F intervals at ``level``."""
    out = []
    grid = grid_lstsq_min(x, y, min_pts)
    out.append(("plrm.rss_le_grid_lstsq", rss <= grid * (1.0 + 1e-9),
                f"reported {rss!r}, lstsq grid minimum {grid!r}"))
    cond = conditional_ols_rss(x, y, *alpha)
    gap = (rss - cond) / cond
    out.append((RSS_IS_CONDITIONAL_OLS, abs(gap) <= RSS_GAP_TOLERANCE,
                f"reported {rss!r}, conditional OLS {cond!r} at {alpha}, relative gap {gap:.3g}"))
    for k, name in enumerate(("alpha1", "alpha2")):
        lo, hi = interval[name]
        out.append((f"plrm.{name}_in_{level:g}_interval", lo <= alpha[k] <= hi,
                    f"estimate {alpha[k]!r}, interval [{lo!r}, {hi!r}]"))
    return out, gap


def pqrm_curve_checks(x, y, curves, table):
    """Quantile curves ``{tau: values at x}`` read from the band CSV, with
    their breakpoints from the tau table; returns (checks, curves off the
    optimum)."""
    out = []
    n = y.size
    ztol = 1e-9 * (1.0 + float(np.max(np.abs(y))))
    for tau, curve in curves.items():
        r = y - curve
        below, at_or_below = int(np.sum(r < -ztol)), int(np.sum(r <= ztol))
        out.append((f"{PQRM_AT_OPTIMUM}.tau{tau:g}.counts", below <= n * tau <= at_or_below,
                    f"#(r<0) = {below}, n tau = {n * tau:g}, #(r<=0) = {at_or_below}"))
        loss = check_loss(r, tau)
        best = lp_check_loss(x, y, *table[round(tau, 10)], tau)
        out.append((f"{PQRM_AT_OPTIMUM}.tau{tau:g}.lp", abs(loss - best) <= 1e-7 * (1.0 + best),
                    f"check loss {loss!r}, HiGHS {best!r}"))
    off = {name.rsplit(".", 1)[0] for name, ok, _ in out if not ok}
    return out, len(off)


def grid_optimality_checks(x, y, table, reference):
    """Every tau fit reaches the stored HiGHS optimum over the candidate
    grid (the fit may go below it: it also searches a finer sub-grid)."""
    out = []
    for tau, (a1, a2) in sorted(table.items()):
        ref = reference[f"{tau:g}"]["objective"]
        got = lp_check_loss(x, y, a1, a2, tau)
        out.append((f"{PQRM_GRID_OPTIMAL}.tau{tau:g}", got <= ref + 1e-7 * (1.0 + ref),
                    f"LP at the fit's breakpoints ({a1!r}, {a2!r}): {got!r}; grid optimum {ref!r}"))
    return out


def command_checks(workload, out_dir: Path, x, y, fresh, reference=None):
    """All checks for one command; returns (checks, facts) where facts holds
    measured values the run reports (coverage, RSS gap, bands that cover
    too little)."""
    checks, facts = [], {}
    if workload.argv[0] == "plrm":
        h80, b80 = read_band(out_dir / "band_gamma080.csv")
        h95, b95 = read_band(out_dir / "band_gamma095.csv")
        for header, band, g in ((h80, b80, 0.80), (h95, b95, 0.95)):
            found, facts[f"coverage{g:g}"] = band_checks(f"band{g:g}", header, band, g, fresh)
            checks += found
        checks += nested_checks("band0.8_in_0.95", b80, b95, h80.get("area"), h95.get("area"))
        report = read_json(out_dir / "fit_report.json")
        summary = read_json(out_dir / "summary.json")
        found, facts["rss_gap"] = plrm_checks(
            x, y, report["rss"], tuple(summary["alpha"]), summary["breakpoint_ci95"], 0.95, MIN_SEGMENT_POINTS
        )
        checks += found
    if workload.argv[0] == "compare":
        bands = {m: read_band(out_dir / f"{m}_band_gamma080.csv") for m in ("bl", "plrm", "pqrm")}
        for m, (header, band) in bands.items():
            found, facts[f"coverage0.8.{m}"] = band_checks(
                f"{m}.band0.8", header, band, 0.80, fresh, envelopes_ordered=(m != "pqrm")
            )
            checks += found
        comparison = read_json(out_dir / "comparison.json")
        for m, (header, _) in bands.items():
            area = comparison["areas"][m.upper()]
            checks.append((f"{m}.area_in_comparison", area == header["area"],
                           f"comparison {area!r}, band CSV {header['area']!r}"))
        rows = {row["parameter"]: row for row in read_json(out_dir / "plrm_fit_report.json")["rows"]}
        alpha = (rows["alpha1"]["estimate"], rows["alpha2"]["estimate"])
        interval = {
            row["breakpoint"]: (row["methods"]["PLRM"]["lower"], row["methods"]["PLRM"]["upper"])
            for row in comparison["interval_rows"]
        }
        plrm_header, plrm_band = bands["plrm"]
        if plrm_header.get("B") is None:  # parametric band: its center is the fit
            r = y - plrm_band["center"]
            found, facts["rss_gap"] = plrm_checks(x, y, float(r @ r), alpha, interval, 0.80, MIN_SEGMENT_POINTS)
            checks += found
        _, pq = bands["pqrm"]
        table = read_tau_table(out_dir / "tau_table.csv")
        found, facts["pqrm_off_optimum"] = pqrm_curve_checks(
            x, y, {0.1: pq["lower"], 0.5: pq["center"], 0.9: pq["upper"]}, table
        )
        checks += found
        if reference is not None:
            checks += grid_optimality_checks(x, y, table, reference)
    under = [ok for name, ok, _ in checks if name.startswith(UNDER_COVERAGE)]
    facts["bands_checked"], facts["bands_under"] = len(under), under.count(False)
    return checks, facts
