"""The per-element input path, kept as a reference for differential tests.

`read_table` is the csv-module parser and `standardize` the
column-by-column loop that the package's vectorized `_read_table` and
`standardize` replaced.  Every cell goes through `float()` and every
column through its own mean and `np.linalg.norm`, so they are slow but
obviously faithful; the package must reproduce their tables, datasets
and error messages bit for bit.  The one deliberate difference is the
constant-column rule: this loop also counts a column as constant when
its spread is below 1e-12 sqrt(n) in absolute terms, which the package
dropped so that rescaling data never changes the rule.  Test-only:
nothing in `rai` imports this module.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter

import numpy as np

from rai.cli import ParseFailure
from rai.errors import AllColumnsConstant, ConstantResponse
from rai.kernel import Dataset


def read_table(path: str) -> tuple[list[str], np.ndarray]:
    """Delimited text with a header row; comma or tab, sniffed from the
    header.  A UTF-8 byte order mark is skipped.  An unnamed column,
    duplicate column names and any non-numeric or missing cell are hard
    errors."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            first = fh.readline()
            if not first.strip():
                raise ParseFailure(f"{path}: empty file")
            delim = "\t" if "\t" in first else ","
            fh.seek(0)
            reader = csv.reader(fh, delimiter=delim)
            header = [h.strip() for h in next(reader)]
            for j, name in enumerate(header, start=1):
                if not name:
                    raise ParseFailure(f"{path}: column {j} has no name")
            repeated = sorted(h for h, k in Counter(header).items() if k > 1)
            if repeated:
                raise ParseFailure(
                    f"{path}: duplicate column names: {', '.join(repeated)}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise ParseFailure(
                        f"{path}:{lineno}: expected {len(header)} fields, "
                        f"got {len(row)}")
                try:
                    rows.append([float(c) for c in row])
                except ValueError:
                    raise ParseFailure(
                        f"{path}:{lineno}: non-numeric or missing value")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}")
    if not rows:
        raise ParseFailure(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ParseFailure(f"{path}: non-finite value in table")
    return header, data


def _unit_centered(col: np.ndarray) -> tuple[np.ndarray, float, float] | None:
    """Center and scale one column to unit norm.

    Returns (standardized, mean, scale), or None for a constant column.
    """
    mean = float(col.mean())
    centered = col - mean
    scale = float(np.linalg.norm(centered))
    if scale <= 1e-12 * math.sqrt(col.size) * (1.0 + abs(mean)):
        return None
    return centered / scale, mean, scale


def standardize(raw_matrix: np.ndarray, raw_response: np.ndarray,
                names: list[str] | None = None) -> Dataset:
    """Build a Dataset from an uncentered design and response.

    Constant predictor columns are dropped with a warning.  Raises
    AllColumnsConstant when nothing survives and ConstantResponse when
    the response has no variance.
    """
    X = np.asarray(raw_matrix, dtype=float)
    y = np.asarray(raw_response, dtype=float)
    if X.ndim != 2:
        raise ValueError("raw_matrix must be 2-dimensional")
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("response length does not match the design")
    if n < 3:
        raise ValueError("need at least 3 observations")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("design and response must be finite")
    if names is None:
        names = [f"X{j + 1}" for j in range(p)]
    elif len(names) != p:
        raise ValueError("names length does not match the design")

    resp = _unit_centered(y)
    if resp is None:
        raise ConstantResponse("response is constant")
    y_std, y_mean, y_scale = resp

    kept_cols, kept_names, kept_raw, kept_means, kept_scales = (
        [], [], [], [], [])
    dropped = []
    for j in range(p):
        out = _unit_centered(X[:, j])
        if out is None:
            dropped.append(names[j])
            continue
        kept_cols.append(out[0])
        kept_names.append(names[j])
        kept_raw.append(X[:, j])
        kept_means.append(out[1])
        kept_scales.append(out[2])
    if not kept_cols:
        raise AllColumnsConstant("every predictor column is constant")
    if dropped:
        warnings.warn(f"dropped constant columns: {', '.join(dropped)}",
                      stacklevel=2)

    return Dataset(
        columns=np.column_stack(kept_cols),
        response=y_std,
        names=tuple(kept_names),
        response_mean=y_mean,
        response_scale=y_scale,
        raw=np.column_stack(kept_raw),
        means=np.array(kept_means),
        scales=np.array(kept_scales),
    )
