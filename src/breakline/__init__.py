"""Breakpoint estimation and prediction bands for bivariate stress-response data.

Three complementary estimates of where and how a response changes against a
stress gradient: a loess smoother with residual-bootstrap prediction bands,
a two-breakpoint continuous piecewise linear regression with full inference,
and its quantile-regression counterpart fit over a tau grid.  Band surface
areas and breakpoint interval widths make the methods directly comparable.
"""

from .area import ComparisonReport, MethodIntervals, band_area, band_area_exact, compare_methods, compute_area
from .bands import BootstrapError, PredictionBand, bootstrap_band, bootstrap_bands, ols_line_fitter
from .dataset import (
    BivariateDataset,
    DataError,
    TransformSpec,
    load_dataset,
    summarize,
    write_dataset_csv,
)
from .loess import LoessConfig, LoessError, LoessFit, SingularFitError, fit_loess, loess_fitter, predict_loess
from .piecewise import (
    SegmentedError,
    SegmentedFit,
    SegmentedModel,
    breakpoint_intervals,
    contrast_inference,
    eval_segmented,
    fit_report_rows,
    fit_segmented,
    plrm_prediction_band,
    profile_inner_ols,
    segmented_design,
    segmented_fitter,
)
from .quantile import (
    DEFAULT_TAU_GRID,
    QuantileBreakpointTable,
    QuantileError,
    QuantileSegmentedFit,
    check_loss,
    check_objective,
    fit_quantile_linear,
    fit_segmented_quantile,
    fit_tau_grid,
    pqrm_band_taus,
    pqrm_prediction_band,
    quantile_breakpoint_intervals,
)
from .rng import RngSpec, standard_normal
from .synthetic import GaussianNoise, SyntheticSpec, WedgeNoise, generate, ols_oracle, quantile_oracle

__version__ = "0.1.0"

__all__ = [
    "BivariateDataset",
    "BootstrapError",
    "ComparisonReport",
    "DEFAULT_TAU_GRID",
    "DataError",
    "GaussianNoise",
    "LoessConfig",
    "LoessError",
    "LoessFit",
    "MethodIntervals",
    "PredictionBand",
    "QuantileBreakpointTable",
    "QuantileError",
    "QuantileSegmentedFit",
    "RngSpec",
    "SegmentedError",
    "SegmentedFit",
    "SegmentedModel",
    "SingularFitError",
    "SyntheticSpec",
    "TransformSpec",
    "WedgeNoise",
    "band_area",
    "band_area_exact",
    "bootstrap_band",
    "bootstrap_bands",
    "breakpoint_intervals",
    "check_loss",
    "check_objective",
    "compare_methods",
    "compute_area",
    "contrast_inference",
    "eval_segmented",
    "fit_loess",
    "fit_quantile_linear",
    "fit_report_rows",
    "fit_segmented",
    "fit_segmented_quantile",
    "fit_tau_grid",
    "generate",
    "load_dataset",
    "loess_fitter",
    "ols_line_fitter",
    "ols_oracle",
    "plrm_prediction_band",
    "pqrm_band_taus",
    "pqrm_prediction_band",
    "predict_loess",
    "profile_inner_ols",
    "quantile_breakpoint_intervals",
    "quantile_oracle",
    "segmented_design",
    "segmented_fitter",
    "standard_normal",
    "summarize",
    "write_dataset_csv",
]
