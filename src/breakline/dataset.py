"""Bivariate dataset ingestion, column transforms, and summary statistics.

A :class:`BivariateDataset` is an immutable, x-sorted set of (x, y) pairs with
optional per-point group labels.  All fitters in this package consume this
type and may share instances across workers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import stdtrit


class DataError(ValueError):
    """Malformed input data, missing columns, or an invalid transform."""


@dataclass(frozen=True)
class TransformSpec:
    """Column transform applied at ingestion.

    ``kind`` is one of ``"identity"``, ``"log10"``, or ``"affine"`` where
    affine means ``a + b * x``.  ``log10`` requires strictly positive input.
    """

    kind: str = "identity"
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "log10", "affine"):
            raise DataError(f"unknown transform kind {self.kind!r}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self.kind == "identity":
            return values.copy()
        if self.kind == "log10":
            if values.size and np.any(values <= 0.0):
                bad = float(values[values <= 0.0][0])
                raise DataError(f"log10 transform requires strictly positive values, got {bad}")
            return np.log10(values)
        return self.a + self.b * values

    @classmethod
    def parse(cls, text: str) -> "TransformSpec":
        """Parse ``identity``, ``log10``, or ``affine:a,b``."""
        text = text.strip()
        if text in ("identity", "log10"):
            return cls(kind=text)
        if text.startswith("affine:"):
            body = text[len("affine:"):]
            parts = body.split(",")
            if len(parts) != 2:
                raise DataError(f"affine transform needs two coefficients, got {text!r}")
            try:
                a, b = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise DataError(f"non-numeric affine coefficient in {text!r}") from exc
            return cls(kind="affine", a=a, b=b)
        raise DataError(f"cannot parse transform {text!r}")


IDENTITY = TransformSpec()


@dataclass(frozen=True, eq=False)
class BivariateDataset:
    """Paired (x, y) observations, stored sorted by x ascending (stable
    sort, so ties in x keep input order).  Instances are immutable; the
    arrays are marked read-only.
    """

    xs: np.ndarray
    ys: np.ndarray
    labels: tuple | None
    x_name: str
    y_name: str

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
            raise DataError("xs and ys must be 1-d arrays of equal length")
        if xs.size < 1:
            raise DataError("empty dataset")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise DataError("all x and y values must be finite")
        if np.any(np.diff(xs) < 0):
            raise DataError("points must be sorted by x ascending; use from_arrays()")
        if self.labels is not None and len(self.labels) != xs.size:
            raise DataError("labels must align with the points")
        for arr in (xs, ys):
            arr.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return int(self.xs.size)

    @classmethod
    def from_arrays(
        cls,
        xs,
        ys,
        labels: Sequence[str] | None = None,
        x_name: str = "x",
        y_name: str = "y",
    ) -> "BivariateDataset":
        """Build a dataset from already-transformed values, sorting by x."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
            raise DataError("xs and ys must be 1-d arrays of equal length")
        order = np.argsort(xs, kind="stable")
        sorted_labels = None
        if labels is not None:
            labels = list(labels)
            if len(labels) != xs.size:
                raise DataError("labels must align with the points")
            sorted_labels = tuple(labels[i] for i in order)
        return cls(
            xs=xs[order],
            ys=ys[order],
            labels=sorted_labels,
            x_name=x_name,
            y_name=y_name,
        )


def load_dataset(
    path,
    x_column: str,
    y_column: str,
    label_column: str | None = None,
    x_transform: TransformSpec = IDENTITY,
    y_transform: TransformSpec = IDENTITY,
) -> BivariateDataset:
    """Load a CSV file (header row, comma delimiter, UTF-8) into a dataset.

    Parameters
    ----------
    path : path-like
        CSV file with a header row naming the columns.
    x_column, y_column : str
        Names of the predictor and response columns.
    label_column : str, optional
        Per-point group tag column (site / region).
    x_transform, y_transform : TransformSpec
        Applied to the raw columns before sorting.

    Raises
    ------
    DataError
        Missing column, non-numeric cell, empty file, or a transform that is
        invalid on the data (for example log10 of a non-positive value).
    """
    xs: list[float] = []
    ys: list[float] = []
    labels: list[str] = []
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for name in (x_column, y_column) + ((label_column,) if label_column else ()):
            if name not in header:
                raise DataError(f"column {name!r} not found in {path} (header: {header})")
        for lineno, row in enumerate(reader, start=2):
            for col, dest in ((x_column, xs), (y_column, ys)):
                cell = row[col]
                try:
                    value = float(cell)
                except (TypeError, ValueError) as exc:
                    raise DataError(f"non-numeric cell {cell!r} in column {col!r}, line {lineno}") from exc
                if not math.isfinite(value):
                    raise DataError(f"non-finite value {cell!r} in column {col!r}, line {lineno}")
                dest.append(value)
            if label_column:
                labels.append(row[label_column])
    if not xs:
        raise DataError(f"empty dataset: {path}")
    try:
        txs = x_transform.apply(np.array(xs))
    except DataError as exc:
        raise DataError(f"x column {x_column!r}: {exc}") from exc
    try:
        tys = y_transform.apply(np.array(ys))
    except DataError as exc:
        raise DataError(f"y column {y_column!r}: {exc}") from exc
    return BivariateDataset.from_arrays(
        txs,
        tys,
        labels=labels if label_column else None,
        x_name=x_column,
        y_name=y_column,
    )


def write_dataset_csv(path, ds: BivariateDataset) -> None:
    """Write points back out as CSV (column names from the dataset)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        header = [ds.x_name, ds.y_name] + (["label"] if ds.labels is not None else [])
        writer.writerow(header)
        for i in range(ds.n):
            row = [repr(float(ds.xs[i])), repr(float(ds.ys[i]))]
            if ds.labels is not None:
                row.append(ds.labels[i])
            writer.writerow(row)


@dataclass(frozen=True)
class SummaryRow:
    group: str
    variable: str
    n: int
    mean: float
    ci_lower: float
    ci_upper: float


def _mean_ci(values: np.ndarray) -> tuple[float, float, float]:
    n = values.size
    if n < 2:
        raise DataError(f"need at least 2 observations for a confidence interval, got {n}")
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    half = stdtrit(n - 1, 0.975) * sd / math.sqrt(n)
    return mean, mean - half, mean + half


def summarize(ds: BivariateDataset) -> list[SummaryRow]:
    """Per-variable mean and t-based 95% CI of the mean, per group and combined.

    Groups appear in order of first occurrence in the stored points, followed
    by a ``"combined"`` row pair.  Raises :class:`DataError` if any group has
    fewer than 2 points.
    """
    rows: list[SummaryRow] = []
    groups: list[str] = []
    if ds.labels is not None:
        for lab in ds.labels:
            if lab not in groups:
                groups.append(lab)
    for group in groups:
        mask = np.array([lab == group for lab in ds.labels])
        if mask.sum() < 2:
            raise DataError(f"group {group!r} has fewer than 2 points; variance undefined")
        for variable, values in ((ds.x_name, ds.xs[mask]), (ds.y_name, ds.ys[mask])):
            mean, lo, hi = _mean_ci(values)
            rows.append(SummaryRow(group, variable, int(mask.sum()), mean, lo, hi))
    for variable, values in ((ds.x_name, ds.xs), (ds.y_name, ds.ys)):
        mean, lo, hi = _mean_ci(values)
        rows.append(SummaryRow("combined", variable, ds.n, mean, lo, hi))
    return rows
