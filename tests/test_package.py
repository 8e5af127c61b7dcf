import os
import subprocess
import sys
from pathlib import Path

import breakline

SRC = Path(__file__).resolve().parents[1] / "src"

EXPORTS = {
    "BivariateDataset", "BootstrapError", "ComparisonReport", "DEFAULT_TAU_GRID", "DataError", "GaussianNoise",
    "LoessConfig", "LoessError", "LoessFit", "MethodIntervals", "PredictionBand", "QuantileBreakpointTable",
    "QuantileError", "QuantileSegmentedFit", "RngSpec", "SegmentedError", "SegmentedFit", "SegmentedModel",
    "SingularFitError", "SyntheticSpec", "TransformSpec", "WedgeNoise", "band_area", "band_area_exact",
    "bootstrap_band", "bootstrap_bands", "breakpoint_intervals", "check_loss", "check_objective",
    "compare_methods", "compute_area", "contrast_inference", "eval_segmented", "fit_loess", "fit_quantile_linear",
    "fit_report_rows", "fit_segmented", "fit_segmented_quantile", "fit_tau_grid", "generate", "load_dataset",
    "loess_fitter", "ols_line_fitter", "ols_oracle", "plrm_prediction_band", "pqrm_band_taus",
    "pqrm_prediction_band", "predict_loess", "profile_inner_ols", "quantile_breakpoint_intervals",
    "quantile_oracle", "segmented_design", "segmented_fitter", "standard_normal", "summarize",
    "write_dataset_csv",
}


def test_export_list_is_pinned_and_resolves():
    assert sorted(breakline.__all__) == breakline.__all__
    assert set(breakline.__all__) == EXPORTS and len(breakline.__all__) == len(EXPORTS)
    for name in breakline.__all__:
        assert getattr(breakline, name) is not None, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from breakline import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS


def test_cli_import_leaves_scipy_stats_unloaded():
    """The t and F values come from ``scipy.special``; importing the CLI in a
    fresh interpreter loads no part of ``scipy.stats`` (some 400 modules)."""
    code = "import sys, breakline.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
