"""Command-line frontend: synth, loess-band, plrm, pqrm, and compare.

Exit codes: 0 success, 2 input error, 3 fit failure, 4 partial result (some
tau levels failed).  On failure an ``error.json`` record is written and any
partial outputs are moved to ``<out>/quarantine/``.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from numpy.linalg import LinAlgError

from .area import AreaError, MethodIntervals, compare_methods, compute_area
from .bands import BootstrapError, bootstrap_bands, check_band_request
from .dataset import (
    BivariateDataset,
    DataError,
    TransformSpec,
    load_dataset,
    summarize,
    write_dataset_csv,
)
from .loess import LoessConfig, LoessError, fit_loess, loess_fitter
from .piecewise import (
    SegmentedError,
    SegmentedModel,
    breakpoint_intervals,
    eval_segmented,
    fit_report_rows,
    fit_segmented,
    plrm_prediction_band,
)
# fit_segmented_quantile is unused here; perfbench/tracing.py patches it by name
from .quantile import (  # noqa: F401
    DEFAULT_TAU_GRID,
    QuantileError,
    check_tau_grid,
    fit_segmented_quantile,
    fit_tau_grid,
    pqrm_band_taus,
    pqrm_prediction_band,
    quantile_breakpoint_intervals,
)
from .report import (
    write_band_csv,
    write_comparison_csv,
    write_geometry_csv,
    write_json,
    write_svg_figure,
    write_tau_table_csv,
)
from .rng import RngSpec
from .synthetic import GaussianNoise, SyntheticError, SyntheticSpec, WedgeNoise, generate

# how breakpoint_intervals() builds the PLRM breakpoint intervals the
# summaries report; fit-report rows keep the Wald interval
_PLRM_CI_METHOD = "profile-F"

_FIT_ERRORS = (LoessError, SegmentedError, QuantileError, BootstrapError, SyntheticError, AreaError, LinAlgError)


class _Outputs:
    """Tracks written files so failures can quarantine partial results."""

    def __init__(self, out_dir: str):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.dir / name
        self.files.append(p)
        return p

    def quarantine(self) -> None:
        existing = [p for p in self.files if p.exists()]
        if not existing:
            return
        qdir = self.dir / "quarantine"
        qdir.mkdir(exist_ok=True)
        for p in existing:
            p.rename(qdir / p.name)


def _parse_floats(text: str, count: int | None = None, what: str = "value") -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise DataError(f"non-numeric {what} in {text!r}") from exc
    if count is not None and len(values) != count:
        raise DataError(f"expected {count} comma-separated {what}s, got {text!r}")
    return values


def _parse_noise(text: str):
    if text.startswith("gaussian:"):
        (sigma,) = _parse_floats(text[len("gaussian:"):], 1, "sigma")
        return GaussianNoise(sigma)
    if text.startswith("wedge:"):
        sigma0, growth = _parse_floats(text[len("wedge:"):], 2, "wedge parameter")
        return WedgeNoise(sigma0, growth)
    raise DataError(f"cannot parse noise spec {text!r} (use gaussian:s or wedge:s0,c)")


def _load(args) -> BivariateDataset:
    return load_dataset(
        args.input,
        x_column=args.x,
        y_column=args.y,
        label_column=args.label,
        x_transform=TransformSpec.parse(args.x_transform),
        y_transform=TransformSpec.parse(args.y_transform),
    )


def _gammas(args, default=(0.80, 0.95)) -> list[float]:
    return [args.gamma] if args.gamma is not None else list(default)


def _taus(args) -> list[float]:
    """The tau grid, checked before any fit runs."""
    return check_tau_grid(_parse_floats(args.tau_grid, None, "tau")) if args.tau_grid else list(DEFAULT_TAU_GRID)


def _loess_bands(args, ds, gammas):
    """The BL bands: the residual bootstrap around the command's loess fit."""
    # a bad gamma or B fails before the loess fit, whatever the data
    check_band_request(gammas, args.bootstrap)
    config = LoessConfig(span=args.span, degree=args.degree, robust_iterations=args.robust_iters)
    center = fit_loess(ds, config).fitted
    return bootstrap_bands(ds, center, loess_fitter(config), gammas, args.bootstrap, RngSpec(args.seed), method="BL")


def _emit_band(out: _Outputs, band, prefix: str = "") -> None:
    write_band_csv(out.path(f"{prefix}band_gamma{int(round(band.gamma * 100)):03d}.csv"), band)


def _area_and_emit(out: _Outputs, bands) -> dict[str, float]:
    """Compute each band's area and write its CSV; returns the areas keyed by gamma."""
    for band in bands:
        compute_area(band)
        _emit_band(out, band)
    return {f"{b.gamma:g}": b.area for b in bands}


def _emit_figure(out: _Outputs, name: str, ds, bands, curves=None, ticks=None) -> None:
    write_svg_figure(out.path(f"{name}.svg"), ds, bands, curves=curves, breakpoint_ticks=ticks)
    elements = []
    for band in bands:
        elements.append(("center", band.method or "center", band.grid_x, band.center))
        elements.append(("lower", f"{band.method} gamma={band.gamma:g}", band.grid_x, band.lower))
        elements.append(("upper", f"{band.method} gamma={band.gamma:g}", band.grid_x, band.upper))
    for label, xs, ys in curves or []:
        elements.append(("curve", label, xs, ys))
    write_geometry_csv(out.path(f"{name}_geometry.csv"), ds, elements)


def _summary_rows(ds) -> list[dict]:
    try:
        return [row.__dict__ for row in summarize(ds)]
    except DataError:
        return []


def cmd_synth(args, out: _Outputs) -> int:
    beta = _parse_floats(args.truth_beta, 4, "beta")
    alpha = _parse_floats(args.truth_alpha, 2, "alpha")
    x_lo, x_hi = _parse_floats(args.x_range, 2, "x-range bound")
    spec = SyntheticSpec(
        model=SegmentedModel(beta=tuple(beta), alpha=tuple(alpha)),
        n=args.n,
        noise=_parse_noise(args.noise),
        rng=RngSpec(args.seed),
        x_min=x_lo,
        x_max=x_hi,
    )
    ds = generate(spec)
    write_dataset_csv(out.path("dataset.csv"), ds)
    write_json(
        out.path("synth_config.json"),
        {
            "beta": beta,
            "alpha": alpha,
            "n": args.n,
            "noise": args.noise,
            "seed": args.seed,
            "x_range": [x_lo, x_hi],
        },
    )
    return 0


def cmd_loess_band(args, out: _Outputs) -> int:
    ds = _load(args)
    gammas = _gammas(args)
    bands = _loess_bands(args, ds, gammas)
    areas = _area_and_emit(out, bands)
    write_json(
        out.path("summary.json"),
        {
            "method": "BL",
            "loess": {"span": args.span, "degree": args.degree, "robust_iterations": args.robust_iters},
            "bootstrap": {"B": args.bootstrap, "seed": args.seed},
            "areas": areas,
            "dataset_summary": _summary_rows(ds),
        },
    )
    _emit_figure(out, "figure_loess_band", ds, bands)
    return 0


def cmd_plrm(args, out: _Outputs) -> int:
    ds = _load(args)
    fit = fit_segmented(ds, min_segment_points=args.min_seg_points)
    write_json(
        out.path("fit_report.json"),
        {
            "method": "PLRM",
            "rows": fit_report_rows(fit),
            "rss": fit.rss,
            "df": fit.df,
            "sigma2": fit.sigma2,
            "unidentified": list(fit.unidentified),
        },
    )
    gammas = _gammas(args)
    force_bootstrap = args.band_method == "bootstrap"
    bands = plrm_prediction_band(fit, gammas, args.bootstrap, args.seed, force_bootstrap)
    areas = _area_and_emit(out, bands)
    ci95 = breakpoint_intervals(fit, 0.95)
    _emit_figure(out, "figure_plrm", ds, bands, ticks=list(ci95.values()))
    write_json(
        out.path("summary.json"),
        {
            "method": "PLRM",
            "alpha": list(fit.model.alpha),
            "beta": list(fit.model.beta),
            "areas": areas,
            "breakpoint_ci95": {k: list(v) for k, v in ci95.items()},
            "breakpoint_ci_method": _PLRM_CI_METHOD,
        },
    )
    return 0


def _pqrm_pieces(ds, taus, gamma, min_seg_points):
    """Shared by pqrm and compare: the sweep's fits, interval table, band
    (None if a band tau failed) and whether any tau failed.

    The band's taus are fitted in the grid's sweep; the interval
    table uses the grid's taus only."""
    band_taus = pqrm_band_taus(gamma)
    sweep, sweep_failures = fit_tau_grid(ds, sorted(set(taus) | set(band_taus)), min_segment_points=min_seg_points)
    failed = dict(sweep_failures)
    fits = [f for f in sweep if f.tau in taus]
    if len(fits) < 2:
        raise QuantileError(f"too few successful tau fits ({len(fits)}) to build intervals")
    table = quantile_breakpoint_intervals(fits, failed_taus=[float(t) for t in taus if t in failed])
    band = None if any(t in failed for t in band_taus) else pqrm_prediction_band(sweep, gamma, ds)
    return sweep, table, band, bool(failed)


def cmd_pqrm(args, out: _Outputs) -> int:
    ds = _load(args)
    taus = _taus(args)
    (gamma,) = _gammas(args, (0.80,))
    sweep, table, band, partial = _pqrm_pieces(ds, taus, gamma, args.min_seg_points)
    write_tau_table_csv(out.path("tau_table.csv"), table)
    write_json(
        out.path("intervals.json"),
        {
            "method": "PQRM",
            "coverage": table.coverage_label,
            "alpha1": list(table.alpha1_interval),
            "alpha2": list(table.alpha2_interval),
            "rows": [{"tau": t, "alpha1": a1, "alpha2": a2} for t, a1, a2 in table.rows],
            "partial": table.partial,
            "failed_taus": list(table.failed_taus),
        },
    )
    bands = [] if band is None else [band]
    _area_and_emit(out, bands)
    # the sweep holds every band tau as pqrm_band_taus gives it
    curves = [(f"tau={fit.tau:g}", ds.xs, eval_segmented(fit.model, ds.xs)) for fit in sweep
              if fit.tau in pqrm_band_taus(gamma)]
    _emit_figure(out, "figure_pqrm", ds, bands, curves=curves)
    write_json(
        out.path("summary.json"),
        {
            "method": "PQRM",
            "tau_grid": [float(t) for t in taus],
            "coverage": table.coverage_label,
            "band_area": None if band is None else band.area,
            "partial": partial,
        },
    )
    return 4 if partial else 0


def cmd_compare(args, out: _Outputs) -> int:
    ds = _load(args)
    (gamma,) = _gammas(args, (0.80,))
    taus = _taus(args)
    # the loess fit runs first, so loess errors surface before the slow part
    (bl_band,) = _loess_bands(args, ds, [gamma])
    ls_fit = fit_segmented(ds, min_segment_points=args.min_seg_points)
    _, table, pq_band, partial = _pqrm_pieces(ds, taus, gamma, args.min_seg_points)
    (pl_band,) = plrm_prediction_band(ls_fit, [gamma], args.bootstrap, args.seed)
    if pq_band is None:
        raise QuantileError("quantile band fits failed; cannot compare methods")

    pl_iv = breakpoint_intervals(ls_fit, table.coverage)
    intervals = [
        MethodIntervals("PLRM", table.coverage_label, pl_iv["alpha1"], pl_iv["alpha2"]),
        MethodIntervals("PQRM", table.coverage_label, table.alpha1_interval, table.alpha2_interval),
    ]
    bands = {"BL": bl_band, "PLRM": pl_band, "PQRM": pq_band}
    report = compare_methods(bands, intervals)

    write_json(out.path("comparison.json"), {**report.to_jsonable(), "breakpoint_ci_method": _PLRM_CI_METHOD})
    write_json(out.path("plrm_fit_report.json"), {"method": "PLRM", "rows": fit_report_rows(ls_fit)})
    write_comparison_csv(out.path("comparison.csv"), report)
    write_tau_table_csv(out.path("tau_table.csv"), table)
    for name, band in bands.items():
        _emit_band(out, band, prefix=f"{name.lower()}_")
    _emit_figure(out, "figure_bl", ds, [bl_band])
    ticks = list(breakpoint_intervals(ls_fit, 0.95).values())
    _emit_figure(out, "figure_plrm", ds, [pl_band], ticks=ticks)
    _emit_figure(out, "figure_pqrm", ds, [pq_band])
    return 4 if partial else 0


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV file with a header row")
    p.add_argument("--x", required=True, help="predictor column name")
    p.add_argument("--y", required=True, help="response column name")
    p.add_argument("--label", default=None, help="optional group label column")
    p.add_argument("--x-transform", default="identity", help="identity | log10 | affine:a,b")
    p.add_argument("--y-transform", default="identity", help="identity | log10 | affine:a,b")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)


def _add_loess_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--span", type=float, default=0.75)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--robust-iters", type=int, default=4)


def _add_bootstrap_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bootstrap", type=int, default=10_000, metavar="B")


def _add_min_seg_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-seg-points", type=int, default=3)


def _add_tau_grid_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-grid", default=None, help="comma list, default 0.1,...,0.9")


def _add_gamma_arg(p: argparse.ArgumentParser, help: str = "default: both 0.80 and 0.95") -> None:
    p.add_argument("--gamma", type=float, default=None, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breakline",
        description="Breakpoint estimation and prediction bands for bivariate stress-response data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic data from a known piecewise truth")
    p.add_argument("--truth-beta", default="10,0,-5,5", help="b0,b1,b2,b3")
    p.add_argument("--truth-alpha", default="0.3,0.6", help="a1,a2")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--x-range", default="0,1")
    p.add_argument("--noise", default="gaussian:0.5", help="gaussian:sigma | wedge:sigma0,c")
    _add_common_args(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("loess-band", help="loess fit with bootstrap prediction bands")
    _add_dataset_args(p)
    _add_loess_args(p)
    _add_bootstrap_arg(p)
    _add_gamma_arg(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_loess_band)

    p = sub.add_parser("plrm", help="two-breakpoint piecewise linear regression")
    _add_dataset_args(p)
    _add_min_seg_arg(p)
    _add_gamma_arg(p)
    p.add_argument("--band-method", choices=["parametric", "bootstrap"], default="parametric")
    _add_bootstrap_arg(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_plrm)

    p = sub.add_parser("pqrm", help="two-breakpoint piecewise linear quantile regression")
    _add_dataset_args(p)
    _add_min_seg_arg(p)
    _add_tau_grid_arg(p)
    _add_gamma_arg(p, "band coefficient, default 0.80")
    _add_common_args(p)
    p.set_defaults(func=cmd_pqrm)

    p = sub.add_parser("compare", help="run all three methods and compare widths and areas")
    _add_dataset_args(p)
    _add_loess_args(p)
    _add_bootstrap_arg(p)
    _add_min_seg_arg(p)
    _add_tau_grid_arg(p)
    _add_gamma_arg(p, "default 0.80")
    _add_common_args(p)
    p.set_defaults(func=cmd_compare)

    return parser


# a comma list led by a negative number, which argparse takes for an option
_NEGATIVE_LIST = re.compile(r"-[0-9.][^,]*,")


def _join_negative_lists(argv: list[str]) -> list[str]:
    """``--flag -1,2`` as ``--flag=-1,2``, so that argparse reads it as the value."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1].startswith("--") and "=" not in joined[-1] and _NEGATIVE_LIST.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_lists(sys.argv[1:] if argv is None else list(argv)))
    try:
        RngSpec(args.seed)
    except ValueError as exc:
        parser.error(f"argument --seed: {exc}")
    out = _Outputs(args.out)
    try:
        return args.func(args, out)
    except (DataError, *_FIT_ERRORS) as exc:
        code, kind = (2, "input") if isinstance(exc, DataError) else (3, "fit")
        out.quarantine()
        write_json(
            out.dir / "error.json",
            {"exit_code": code, "kind": kind, "error_type": type(exc).__name__, "message": str(exc)},
        )
        print(f"{kind} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
