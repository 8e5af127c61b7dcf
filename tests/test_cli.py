import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from breakline.cli import main


def _synth(tmp_path, name="synth", **kw):
    out = tmp_path / name
    args = [
        "synth",
        "--n", str(kw.get("n", 40)),
        "--noise", kw.get("noise", "gaussian:0"),
        "--seed", str(kw.get("seed", 1)),
        "--truth-beta", kw.get("beta", "10,0,-5,5"),
        "--truth-alpha", kw.get("alpha", "0.3,0.6"),
        "--out", str(out),
    ]
    assert main(args) == 0
    return out / "dataset.csv"


def _dir_digest(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def test_synth_writes_dataset(tmp_path):
    csv_path = _synth(tmp_path, noise="wedge:0.3,1.5")
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == 40
    assert set(rows[0]) == {"x", "y"}


def test_synth_plrm_round_trip_recovers_truth(tmp_path):
    csv_path = _synth(tmp_path, noise="gaussian:0")
    out = tmp_path / "plrm"
    code = main(
        ["plrm", "--input", str(csv_path), "--x", "x", "--y", "y", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["alpha"][0] == pytest.approx(0.3, abs=1e-6)
    assert summary["alpha"][1] == pytest.approx(0.6, abs=1e-6)
    assert summary["breakpoint_ci_method"] == "profile-F"
    report = json.loads((out / "fit_report.json").read_text())
    assert [r["parameter"] for r in report["rows"]] == [
        "alpha1", "alpha2", "slope1", "slope2", "slope3",
    ]


def test_pqrm_tau_grid_cardinality(tmp_path):
    csv_path = _synth(tmp_path, noise="gaussian:0.4", seed=3)
    out = tmp_path / "pqrm"
    code = main(
        [
            "pqrm", "--input", str(csv_path), "--x", "x", "--y", "y",
            "--tau-grid", "0.1,0.5,0.9", "--out", str(out),
        ]
    )
    assert code == 0
    table = json.loads((out / "intervals.json").read_text())
    assert [row["tau"] for row in table["rows"]] == [0.1, 0.5, 0.9]
    assert table["coverage"] == "80%"
    bands = [p for p in out.iterdir() if p.name.startswith("band_gamma")]
    assert len(bands) == 1


def test_pqrm_band_taus_ride_in_the_grid_sweep(tmp_path, monkeypatch):
    """The band taus missing from --tau-grid are fitted in the grid's one
    sweep, each exactly as when fitted alone; the table keeps the grid taus,
    and no least-squares fit runs."""
    import breakline.cli as cli
    from breakline.dataset import load_dataset
    from breakline.quantile import fit_segmented_quantile

    sweeps = []
    fit_tau_grid = cli.fit_tau_grid

    def recording(ds, taus, **kwargs):
        sweeps.append(list(taus))
        return fit_tau_grid(ds, taus, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("pqrm ran a least-squares fit")

    monkeypatch.setattr(cli, "fit_tau_grid", recording)
    monkeypatch.setattr(cli, "fit_segmented", refused)
    csv_path = _synth(tmp_path, noise="gaussian:0.4", seed=5, n=60)
    out = tmp_path / "pqrm95"
    code = main(
        [
            "pqrm", "--input", str(csv_path), "--x", "x", "--y", "y",
            "--tau-grid", "0.1,0.5,0.9", "--gamma", "0.95", "--out", str(out),
        ]
    )
    assert code == 0
    assert sweeps == [[0.025, 0.1, 0.5, 0.9, 0.975]]
    table = json.loads((out / "intervals.json").read_text())
    assert [row["tau"] for row in table["rows"]] == [0.1, 0.5, 0.9]
    ds = load_dataset(str(csv_path), x_column="x", y_column="y")
    rows = list(csv.DictReader((out / "band_gamma095.csv").read_text().splitlines()[1:]))
    for column, tau in (("lower", 0.025), ("upper", 0.975)):
        alone = cli.eval_segmented(fit_segmented_quantile(ds, tau).model, ds.xs)
        assert [float(r[column]) for r in rows] == alone.tolist()


def test_pqrm_default_grid_is_deciles(tmp_path):
    csv_path = _synth(tmp_path, noise="gaussian:0.4", seed=4, n=40)
    out = tmp_path / "pqrm_default"
    assert main(["pqrm", "--input", str(csv_path), "--x", "x", "--y", "y", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tau_grid"] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    assert summary["coverage"] == "80%"


def test_compare_outputs_and_determinism(tmp_path):
    csv_path = _synth(tmp_path, noise="wedge:0.4,1.5", seed=5, n=36)
    outs = []
    for name in ("cmp_a", "cmp_b"):
        out = tmp_path / name
        code = main(
            [
                "compare", "--input", str(csv_path), "--x", "x", "--y", "y",
                "--bootstrap", "120", "--seed", "9", "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    assert _dir_digest(outs[0]) == _dir_digest(outs[1])
    report = json.loads((outs[0] / "comparison.json").read_text())
    assert set(report["areas"]) == {"BL", "PLRM", "PQRM"}
    assert report["breakpoint_ci_method"] == "profile-F"
    assert report["gamma"] == pytest.approx(0.8)
    assert (outs[0] / "comparison.csv").exists()
    assert (outs[0] / "tau_table.csv").exists()
    for fig in ("figure_bl.svg", "figure_plrm.svg", "figure_pqrm.svg"):
        assert (outs[0] / fig).exists()
        assert (outs[0] / fig.replace(".svg", "_geometry.csv")).exists()


def test_loess_band_dual_gammas(tmp_path):
    csv_path = _synth(tmp_path, noise="gaussian:0.5", seed=6, n=30)
    out = tmp_path / "lb"
    code = main(
        [
            "loess-band", "--input", str(csv_path), "--x", "x", "--y", "y",
            "--bootstrap", "60", "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "band_gamma080.csv").exists()
    assert (out / "band_gamma095.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["areas"]) == {"0.8", "0.95"}
    assert summary["areas"]["0.95"] > summary["areas"]["0.8"]


def test_missing_input_is_exit_2(tmp_path):
    out = tmp_path / "x"
    code = main(["plrm", "--input", str(tmp_path / "nope.csv"), "--x", "x", "--y", "y", "--out", str(out)])
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert record["exit_code"] == 2


def test_missing_column_is_exit_2(tmp_path):
    csv_path = _synth(tmp_path)
    out = tmp_path / "bad"
    code = main(["plrm", "--input", str(csv_path), "--x", "stress", "--y", "y", "--out", str(out)])
    assert code == 2


def test_bad_transform_is_exit_2(tmp_path):
    csv_path = _synth(tmp_path)
    out = tmp_path / "bad2"
    code = main(
        [
            "plrm", "--input", str(csv_path), "--x", "x", "--y", "y",
            "--y-transform", "log10", "--out", str(out),
        ]
    )
    # zero-noise middle segment dips below 10 but stays positive; force a failure
    # with an affine shift below zero instead
    code = main(
        [
            "plrm", "--input", str(csv_path), "--x", "x", "--y", "y",
            "--y-transform", "affine:nonsense", "--out", str(out),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("command", ["plrm", "pqrm"])
def test_fit_failure_is_exit_3_with_quarantine(tmp_path, command):
    # 8 points cannot support 3 points per segment
    csv_path = _synth(tmp_path, n=8)
    out = tmp_path / "fitfail"
    code = main([command, "--input", str(csv_path), "--x", "x", "--y", "y", "--out", str(out)])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["kind"] == "fit"
    assert record["exit_code"] == 3
    assert record["error_type"] == "SegmentedError"


@pytest.mark.parametrize("gamma", ["1.5", "0"])
@pytest.mark.parametrize(
    "argv, error_type",
    [
        (["loess-band", "--bootstrap", "40"], "BootstrapError"),
        (["plrm"], "SegmentedError"),
        (["plrm", "--band-method", "bootstrap", "--bootstrap", "40"], "SegmentedError"),
        (["pqrm"], "QuantileError"),
        (["compare", "--bootstrap", "40"], "BootstrapError"),
    ],
    ids=["loess-band", "plrm", "plrm-bootstrap", "pqrm", "compare"],
)
def test_gamma_outside_unit_interval_is_exit_3(tmp_path, argv, error_type, gamma):
    csv_path = _synth(tmp_path, noise="gaussian:0.4", seed=12, n=40)
    out = tmp_path / "badgamma"
    code = main([*argv, "--input", str(csv_path), "--x", "x", "--y", "y", "--gamma", gamma, "--out", str(out)])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error_type"] == error_type
    assert record["message"] == f"gamma must be in (0, 1), got {float(gamma)}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["loess-band", "--gamma", "1.5"], "gamma must be in (0, 1), got 1.5"),
        (["loess-band", "--bootstrap", "20"], "B=20 is too small for gamma=0.95; need B >= 2/(1-gamma) = 40.0"),
        (["compare", "--gamma", "0"], "gamma must be in (0, 1), got 0.0"),
        (["compare", "--bootstrap", "5"], "B=5 is too small for gamma=0.8; need B >= 2/(1-gamma) = 10.0"),
    ],
    ids=["loess-band-gamma", "loess-band-B", "compare-gamma", "compare-B"],
)
def test_bad_band_request_wins_over_a_failing_loess_fit(tmp_path, argv, message):
    """Three points cannot carry a local quadratic, but a bad gamma or B is
    reported first, as the bootstrap's error, whatever the data."""
    csv_path = tmp_path / "three.csv"
    csv_path.write_text("x,y\n0.1,1.0\n0.5,2.0\n0.9,1.5\n", encoding="utf-8")
    out = tmp_path / "badrequest"
    code = main([*argv, "--input", str(csv_path), "--x", "x", "--y", "y", "--out", str(out)])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error_type"] == "BootstrapError"
    assert record["message"] == message


def test_partial_tau_rows_exit_4(tmp_path):
    csv_path = _synth(tmp_path, noise="gaussian:0.4", seed=7, n=30)
    out = tmp_path / "partial"
    code = main(
        [
            "pqrm", "--input", str(csv_path), "--x", "x", "--y", "y",
            "--tau-grid", "0.02,0.1,0.5,0.9", "--out", str(out),
        ]
    )
    assert code == 4
    table = json.loads((out / "intervals.json").read_text())
    assert table["partial"] is True
    assert table["failed_taus"] == [0.02]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["partial"] is True


@pytest.mark.parametrize("bad", ["nan", "inf", "1.5", "0", "-0.1"])
@pytest.mark.parametrize("command", [["pqrm"], ["compare", "--bootstrap", "20"]], ids=["pqrm", "compare"])
def test_tau_outside_unit_interval_is_exit_3(tmp_path, command, bad):
    """A grid level outside (0, 1), NaN and inf included, is refused as a
    fit error before any fit runs, not reported as a partial result whose
    JSON would hold NaN or Infinity."""
    csv_path = _synth(tmp_path, noise="gaussian:0.4", seed=7, n=30)
    out = tmp_path / "badtau"
    code = main(
        [*command, "--input", str(csv_path), "--x", "x", "--y", "y", "--tau-grid", f"0.1,0.5,{bad}",
         "--out", str(out)]
    )
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error_type"] == "QuantileError"
    assert record["message"] == f"tau must be in (0, 1), got {float(bad)}"
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


_PLRM_FILES = [
    "band_gamma080.csv", "band_gamma095.csv", "figure_plrm.svg", "figure_plrm_geometry.csv",
    "fit_report.json", "summary.json",
]


@pytest.mark.parametrize(
    "argv, names",
    [
        (["synth"], ["dataset.csv", "synth_config.json"]),
        (
            ["loess-band", "--bootstrap", "40"],
            ["band_gamma080.csv", "band_gamma095.csv", "figure_loess_band.svg", "figure_loess_band_geometry.csv",
             "summary.json"],
        ),
        (["plrm"], _PLRM_FILES),
        (["plrm", "--band-method", "bootstrap", "--bootstrap", "40"], _PLRM_FILES),
        (
            ["pqrm", "--tau-grid", "0.1,0.5,0.9"],
            ["band_gamma080.csv", "figure_pqrm.svg", "figure_pqrm_geometry.csv", "intervals.json", "summary.json",
             "tau_table.csv"],
        ),
        (
            ["compare", "--bootstrap", "20", "--tau-grid", "0.1,0.5,0.9"],
            ["bl_band_gamma080.csv", "comparison.csv", "comparison.json", "figure_bl.svg", "figure_bl_geometry.csv",
             "figure_plrm.svg", "figure_plrm_geometry.csv", "figure_pqrm.svg", "figure_pqrm_geometry.csv",
             "plrm_band_gamma080.csv", "plrm_fit_report.json", "pqrm_band_gamma080.csv", "tau_table.csv"],
        ),
    ],
    ids=["synth", "loess-band", "plrm", "plrm-bootstrap", "pqrm", "compare"],
)
def test_each_command_writes_its_full_artifact_set(tmp_path, argv, names):
    out = tmp_path / "out"
    data = [] if argv[0] == "synth" else ["--input", str(_synth(tmp_path, noise="gaussian:0.3", seed=8, n=30)),
                                          "--x", "x", "--y", "y"]
    assert main([*argv, *data, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == names


def test_compare_plrm_interval_uses_the_exact_tau_span(tmp_path):
    """The PLRM breakpoint intervals of compare are taken at the PQRM tau
    span itself, not at the span as read back from its rounded label."""
    from breakline.dataset import load_dataset
    from breakline.piecewise import breakpoint_intervals, fit_segmented

    csv_path = _synth(tmp_path, noise="wedge:0.3,1.5", seed=2, n=40)
    out = tmp_path / "cmp"
    argv = ["compare", "--input", str(csv_path), "--x", "x", "--y", "y", "--tau-grid", "0.1,0.25,0.4333333"]
    assert main([*argv, "--bootstrap", "20", "--out", str(out)]) == 0
    report = json.loads((out / "comparison.json").read_text())
    assert report["coverage_label"] == "33.3333%"
    expected = breakpoint_intervals(fit_segmented(load_dataset(str(csv_path), "x", "y")), 0.3333333)
    for row in report["interval_rows"]:
        plrm = row["methods"]["PLRM"]
        assert (plrm["lower"], plrm["upper"]) == expected[row["breakpoint"]]


def test_plrm_bootstrap_bands_share_one_pool(tmp_path, monkeypatch):
    import breakline.cli as cli_module
    import breakline.piecewise as piecewise

    refits = []  # rows fitted per call of a bound fitter
    fits = []  # fit_segmented calls
    factory, fit_segmented = piecewise.segmented_fitter, piecewise.fit_segmented

    def counting_factory(*args, **kwargs):
        fitter = factory(*args, **kwargs)

        def bind(xs):
            fit_rows = fitter(xs)

            def counted(Y):
                refits.append(len(Y))
                return fit_rows(Y)

            return counted

        return bind

    def counting_fit(*args, **kwargs):
        fits.append(1)
        return fit_segmented(*args, **kwargs)

    monkeypatch.setattr(piecewise, "segmented_fitter", counting_factory)
    monkeypatch.setattr(cli_module, "fit_segmented", counting_fit)
    csv_path = _synth(tmp_path, noise="gaussian:0.4", seed=10, n=40)
    outs = []
    for name in ("boot_a", "boot_b"):
        out = tmp_path / name
        refits.clear()
        fits.clear()
        code = main(
            [
                "plrm", "--input", str(csv_path), "--x", "x", "--y", "y", "--band-method", "bootstrap",
                "--bootstrap", "40", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        # one fit of the data, whose curve is the pool's center, and one
        # refit per replicate, for both gammas
        assert len(fits) == 1 and sum(refits) == 40
        outs.append(out)
    assert _dir_digest(outs[0]) == _dir_digest(outs[1])

    def band(name):
        rows = list(csv.DictReader((outs[0] / name).read_text().splitlines()[1:]))  # after the JSON header
        return np.array([[float(r["lower"]), float(r["upper"])] for r in rows])

    b80, b95 = band("band_gamma080.csv"), band("band_gamma095.csv")
    assert np.all(b95[:, 0] <= b80[:, 0]) and np.all(b80[:, 1] <= b95[:, 1])


def test_plrm_small_bootstrap_checked_only_when_resampling(tmp_path):
    csv_path = _synth(tmp_path, noise="gaussian:0.4", seed=11, n=60)
    base = ["plrm", "--input", str(csv_path), "--x", "x", "--y", "y", "--bootstrap", "20"]
    # the default parametric bands never resample, so B = 20 is not checked
    out = tmp_path / "parametric"
    assert main([*base, "--out", str(out)]) == 0
    assert (out / "band_gamma095.csv").exists()
    # the bootstrap bands need B >= 40 for gamma 0.95
    out = tmp_path / "bootstrap"
    assert main([*base, "--band-method", "bootstrap", "--out", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error_type"] == "BootstrapError"
    assert "too small" in record["message"]


# every subcommand's options as the parser defined them before the shared flag
# blocks: option -> (default, type, help, other settings)
_DATASET_FLAGS = {
    "--input": (None, None, "CSV file with a header row", {"required": True}),
    "--x": (None, None, "predictor column name", {"required": True}),
    "--y": (None, None, "response column name", {"required": True}),
    "--label": (None, None, "optional group label column", {}),
    "--x-transform": ("identity", None, "identity | log10 | affine:a,b", {}),
    "--y-transform": ("identity", None, "identity | log10 | affine:a,b", {}),
}
_COMMON_FLAGS = {
    "--out": (None, None, "output directory", {"required": True}),
    "--seed": (0, int, None, {}),
}
_LOESS_FLAGS = {
    "--span": (0.75, float, None, {}),
    "--degree": (2, int, None, {}),
    "--robust-iters": (4, int, None, {}),
}
_BOOTSTRAP = {"--bootstrap": (10000, int, None, {"metavar": "B"})}
_MIN_SEG = {"--min-seg-points": (3, int, None, {})}
_TAU_GRID = {"--tau-grid": (None, None, "comma list, default 0.1,...,0.9", {})}
PARSER_TABLE = {
    "synth": {
        "--truth-beta": ("10,0,-5,5", None, "b0,b1,b2,b3", {}),
        "--truth-alpha": ("0.3,0.6", None, "a1,a2", {}),
        "--n": (100, int, None, {}),
        "--x-range": ("0,1", None, None, {}),
        "--noise": ("gaussian:0.5", None, "gaussian:sigma | wedge:sigma0,c", {}),
        **_COMMON_FLAGS,
    },
    "loess-band": {
        **_DATASET_FLAGS, **_LOESS_FLAGS, **_BOOTSTRAP,
        "--gamma": (None, float, "default: both 0.80 and 0.95", {}),
        **_COMMON_FLAGS,
    },
    "plrm": {
        **_DATASET_FLAGS, **_MIN_SEG,
        "--gamma": (None, float, "default: both 0.80 and 0.95", {}),
        "--band-method": ("parametric", None, None, {"choices": ["parametric", "bootstrap"]}),
        **_BOOTSTRAP, **_COMMON_FLAGS,
    },
    "pqrm": {
        **_DATASET_FLAGS, **_MIN_SEG, **_TAU_GRID,
        "--gamma": (None, float, "band coefficient, default 0.80", {}),
        **_COMMON_FLAGS,
    },
    "compare": {
        **_DATASET_FLAGS, **_LOESS_FLAGS, **_BOOTSTRAP, **_MIN_SEG, **_TAU_GRID,
        "--gamma": (None, float, "default 0.80", {}),
        **_COMMON_FLAGS,
    },
}


def test_parser_flags_are_unchanged():
    import argparse

    from breakline.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(PARSER_TABLE)
    for command, expected in PARSER_TABLE.items():
        actual = {}
        for action in sub.choices[command]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            extra = {k: getattr(action, k) for k in ("required", "metavar", "choices") if getattr(action, k)}
            actual[action.option_strings[0]] = (action.default, action.type, action.help, extra)
            assert action.option_strings == [action.option_strings[0]], (command, action.option_strings)
        assert actual == expected, command


def _written_band(path: Path):
    """The JSON header and the band rows of a band CSV."""
    from breakline.bands import PredictionBand

    lines = path.read_text().splitlines()
    header = json.loads(lines[0].removeprefix("# "))
    columns = {k: [float(r[k]) for r in csv.DictReader(lines[1:])] for k in ("x", "center", "lower", "upper")}
    band = PredictionBand(
        grid_x=columns["x"], center=columns["center"], lower=columns["lower"], upper=columns["upper"],
        gamma=header["gamma"],
    )
    return header, band


def test_written_areas_are_exact(tmp_path):
    """Every band CSV header carries the exact area of the band in its rows,
    and the summaries and comparison tables carry the headers' areas."""
    from breakline.area import band_area_exact

    csv_path = _synth(tmp_path, noise="wedge:0.3,1.5", seed=2, n=40)
    data = ["--input", str(csv_path), "--x", "x", "--y", "y"]
    runs = {
        "loess-band": ["--bootstrap", "40"],
        "plrm": ["--band-method", "bootstrap", "--bootstrap", "40"],
        "pqrm": [],
        "compare": ["--bootstrap", "20"],
    }
    for command, extra in runs.items():
        out = tmp_path / command
        assert main([command, *data, *extra, "--out", str(out)]) == 0
        by_gamma, by_method = {}, {}
        for path in sorted(out.glob("*band_gamma*.csv")):
            header, band = _written_band(path)
            assert header["area"] == pytest.approx(band_area_exact(band), rel=1e-12, abs=0.0), path.name
            by_gamma[f"{header['gamma']:g}"] = by_method[header["method"]] = header["area"]
        if command == "pqrm":
            assert json.loads((out / "summary.json").read_text())["band_area"] == by_gamma["0.8"]
        elif command == "compare":
            assert set(by_method) == {"BL", "PLRM", "PQRM"}
            assert json.loads((out / "comparison.json").read_text())["areas"] == by_method
            rows = list(csv.DictReader((out / "comparison.csv").read_text().splitlines()))
            assert {r["method"]: float(r["width_or_area"]) for r in rows if r["table"] == "areas"} == by_method
        else:
            assert set(by_gamma) == {"0.8", "0.95"}
            assert json.loads((out / "summary.json").read_text())["areas"] == by_gamma


_SEEDED_COMMANDS = [
    ["synth"],
    ["loess-band", "--bootstrap", "40"],
    ["plrm"],
    ["pqrm", "--tau-grid", "0.1,0.5,0.9"],
    ["compare", "--bootstrap", "20", "--tau-grid", "0.1,0.5,0.9"],
]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("argv", _SEEDED_COMMANDS, ids=[a[0] for a in _SEEDED_COMMANDS])
def test_out_of_range_seed_is_exit_2(tmp_path, capsys, argv, seed):
    """Every command refuses a seed outside [0, 2**64) as a bad flag value,
    the parametric plrm path (which draws nothing) included."""
    data = [] if argv[0] == "synth" else ["--input", str(_synth(tmp_path, noise="gaussian:0.3", seed=8, n=30)),
                                          "--x", "x", "--y", "y"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, *data, "--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    assert not out.exists()


def test_svg_escapes_names_and_labels(tmp_path):
    """Column names and labels holding markup characters give well-formed
    SVG whose titles and axis text read back unchanged."""
    import xml.etree.ElementTree as ET

    rows = list(csv.DictReader(_synth(tmp_path, noise="gaussian:0.4", seed=4, n=40).read_text().splitlines()))
    path = tmp_path / "marked.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["TP<10 & more", "y", "site"])
        for i, row in enumerate(rows):
            writer.writerow([row["x"], row["y"], "A&B" if i % 2 else "C<D"])
    out = tmp_path / "plrm"
    argv = ["plrm", "--input", str(path), "--x", "TP<10 & more", "--y", "y", "--label", "site", "--out", str(out)]
    assert main(argv) == 0
    root = ET.parse(out / "figure_plrm.svg").getroot()
    ns = {"svg": "http://www.w3.org/2000/svg"}
    assert {t.text for t in root.iterfind("svg:circle/svg:title", ns)} == {"A&B", "C<D"}
    assert "TP<10 & more" in [t.text for t in root.iterfind("svg:text", ns)]
    # labels title the points only
    assert root.find("svg:text/svg:title", ns) is None


def test_pqrm_figure_draws_the_band_curves_off_the_grid(tmp_path):
    """The figure draws the fits at the band's taus even when the tau grid
    lacks them, and each curve is the band's matching edge or centre."""
    csv_path = _synth(tmp_path, noise="gaussian:0.4", seed=6, n=40)
    out = tmp_path / "pqrm"
    argv = ["pqrm", "--input", str(csv_path), "--x", "x", "--y", "y", "--tau-grid", "0.2,0.5,0.8"]
    assert main([*argv, "--out", str(out)]) == 0
    curves = {}
    for row in csv.DictReader((out / "figure_pqrm_geometry.csv").read_text().splitlines()):
        if row["element"] == "curve":
            curves.setdefault(row["series"], []).append(float(row["y"]))
    assert sorted(curves) == ["tau=0.1", "tau=0.5", "tau=0.9"]
    band = list(csv.DictReader((out / "band_gamma080.csv").read_text().splitlines()[1:]))
    for series, column in (("tau=0.1", "lower"), ("tau=0.5", "center"), ("tau=0.9", "upper")):
        assert curves[series] == [float(r[column]) for r in band]


def test_comma_list_led_by_a_negative_value(tmp_path):
    """``--flag -1,2`` reads as ``--flag=-1,2``."""
    written = []
    for name, lists in (
        ("spaced", ["--x-range", "-1,2", "--truth-beta", "-2,0,-5,5"]),
        ("joined", ["--x-range=-1,2", "--truth-beta=-2,0,-5,5"]),
    ):
        out = tmp_path / name
        assert main(["synth", "--n", "30", "--truth-alpha", "0.2,1.1", *lists, "--seed", "3", "--out", str(out)]) == 0
        written.append((out / "dataset.csv").read_bytes())
    assert written[0] == written[1]


def _pin_input(path: Path, n: int = 40) -> Path:
    """A fixed labelled n-point input: the criterion-1 truth plus Gaussian
    noise of sd 0.5 on sorted uniform x, from the test's own generator."""
    gen = np.random.default_rng(1969)
    x = np.sort(gen.uniform(0.0, 1.0, n))
    y = 10.0 - 5.0 * np.maximum(x - 0.3, 0.0) + 5.0 * np.maximum(x - 0.6, 0.0) + 0.5 * gen.standard_normal(n)
    site = np.where(gen.uniform(size=n) < 0.5, "A", "B")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "site"])
        writer.writerows([repr(a), repr(b), c] for a, b, c in zip(x.tolist(), y.tolist(), site.tolist()))
    return path


_T_AND_F_PINS = {
    "plrm": (
        ["plrm"],
        {
            "fit_report.json": "f57d48a24fc93756768cb867f873bc3533c367251d170064ece053e0d380e147",
            "summary.json": "070f3f571fd94d2299ad9866a0c3d5b5ea8f7b796b9c419fb79e7d2e6b24109a",
            "band_gamma080.csv": "affe821c019e4097f958fd7f9eca942fdce8c10daa85c9a0685893397bb981b7",
            "band_gamma095.csv": "38d8b721997d93dfbe0fba5cd6cecf67f6da947a81cb5d4fc43f3af67cf542d8",
        },
    ),
    "loess-band": (
        ["loess-band", "--bootstrap", "40", "--label", "site"],
        {"summary.json": "7fd927c557748a5e9c1efa043a3a21686d5d8bd26162f866b7d86aa876f83949"},
    ),
    "compare": (
        ["compare", "--bootstrap", "20", "--tau-grid", "0.1,0.5,0.9"],
        {"comparison.json": "b076f60aa072318fb6c67ae3504572b7910c67dd7ecd2f08c2b96ee6d312feb7"},
    ),
}


@pytest.mark.parametrize("B", [40, 200])
def test_plrm_bootstrap_builds_the_design_profile_once_per_pool(tmp_path, monkeypatch, B):
    """A ``plrm --band-method bootstrap`` command builds the x-only design
    profile of the PLRM search three times, for the fit, the pool and the
    intervals, whatever B, and its edge partners twice (the intervals
    evaluate the profile at other positions)."""
    import breakline.piecewise as piecewise

    profile_class = piecewise._BreakpointProfile
    builds = {"profile": 0, "edges": 0}
    init, edge_search = profile_class.__init__, profile_class._edge_search

    def counting_init(self, *args, **kwargs):
        builds["profile"] += 1
        init(self, *args, **kwargs)

    def counting_edge_search(self):
        builds["edges"] += self._edges is None
        return edge_search(self)

    monkeypatch.setattr(profile_class, "__init__", counting_init)
    monkeypatch.setattr(profile_class, "_edge_search", counting_edge_search)
    data = _pin_input(tmp_path / "pin.csv")
    argv = ["plrm", "--band-method", "bootstrap", "--bootstrap", str(B), "--input", str(data), "--x", "x", "--y", "y"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert builds["profile"] <= 3 and builds["edges"] <= 2, builds


# band CSVs of the two bootstrap commands, recorded before the pool took its
# center from the command's own fit: no band moved
_BOOTSTRAP_BAND_PINS = {
    "plrm": (
        ["plrm", "--band-method", "bootstrap", "--bootstrap", "40"],
        {
            "band_gamma080.csv": "145b5a621fb513dc231cea82c3bec7613567cab0cdf48f5cb56f34ca79a5a282",
            "band_gamma095.csv": "9063c1af350ba652c19889c5d393437193e379d4a7c18745fd954f370e6ecf66",
        },
    ),
    "loess-band": (
        ["loess-band", "--bootstrap", "40"],
        {
            "band_gamma080.csv": "82d4fc92580369b35c25835d61193af2fe8cd4d8caeb568fc65eb67bcf24e25b",
            "band_gamma095.csv": "2ac00df07839e2d4ea21124b0294ab58d52e9199e3bad888356819ee2168169c",
        },
    ),
}


@pytest.mark.parametrize("command", list(_BOOTSTRAP_BAND_PINS))
def test_bootstrap_bands_are_pinned_to_the_byte(tmp_path, command):
    """The bootstrap band CSVs of ``plrm`` and ``loess-band``, byte for
    byte: the replicates resample around the command's own fit."""
    argv, pins = _BOOTSTRAP_BAND_PINS[command]
    data = _pin_input(tmp_path / "pin.csv")
    out = tmp_path / "out"
    assert main([*argv, "--input", str(data), "--x", "x", "--y", "y", "--seed", "4", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pins}
    assert digests == pins


@pytest.mark.parametrize("command", list(_T_AND_F_PINS))
def test_t_and_f_outputs_are_pinned_to_the_byte(tmp_path, command):
    """The files that carry a t or F value, byte for byte: the Wald rows,
    the profile-F breakpoint ends and the parametric t band of ``plrm``, the
    t interval of the labelled dataset summary, and the profile-F intervals
    of ``compare`` at the tau span."""
    argv, pins = _T_AND_F_PINS[command]
    data = _pin_input(tmp_path / "pin.csv")
    out = tmp_path / "out"
    assert main([*argv, "--input", str(data), "--x", "x", "--y", "y", "--seed", "4", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pins}
    assert digests == pins


# the benchmark's PLRM command on a 200-point input, where the profile-F
# shrink and the three-line scan see many cells; recorded at commit 763deaa
_PLRM_BOOTSTRAP_N200_PINS = {
    "band_gamma080.csv": "52214bb69b6e35d3ae6cc7f20b38dd6e5dbc3d1bc1d0e59c130507a04ed24da0",
    "band_gamma095.csv": "8f24d0f6b0e4a83b3d5e61c51e5779dcad859104ceb40b50372224cca14e75b3",
    "summary.json": "28462daa9cb251b260883440b239344d1ac23412931f2aa7f071aabbc240231d",
    "fit_report.json": "113375ba4ff84ee6b5de4d4e035a3f3ee65fa095ade0170fc86f5dae4c169317",
}


def test_plrm_bootstrap_at_n200_is_pinned_to_the_byte(tmp_path):
    """``plrm --band-method bootstrap --bootstrap 40`` at n = 200, byte for
    byte: both bootstrap bands, the profile-F ends in ``summary.json`` and
    the Wald rows."""
    data = _pin_input(tmp_path / "pin.csv", n=200)
    out = tmp_path / "out"
    argv = ["plrm", "--band-method", "bootstrap", "--bootstrap", "40", "--input", str(data), "--x", "x", "--y", "y"]
    assert main([*argv, "--seed", "4", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in _PLRM_BOOTSTRAP_N200_PINS}
    assert digests == _PLRM_BOOTSTRAP_N200_PINS
