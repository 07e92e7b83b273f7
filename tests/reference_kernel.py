"""Scalar kernel quantities the package no longer needs, kept as test
references.

The selection engine scores candidates through `ModelState.score` and
`Screen`, and fits through `fit_terms`.  The one-column queries below
(the S-adjusted column, partial correlation, t-statistic) and the
subset gain are the textbook definitions those paths must agree with,
so the tests keep them.  They take the state's basis and residual, but
adjust a column by their own Gram-Schmidt (`adjusted`), so an error in
`ModelState.adjusted_vector` or `ModelState.score` shows against them.
`t_statistic` alone checks df, and raises `InsufficientDf`, defined
here for it.  Test-only: nothing in `rai` imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from rai.errors import CollinearFeature, RaiError
from rai.kernel import (COLLINEARITY_TOL, RESIDUAL_TOL, T_STAT_MAX, Dataset,
                        ModelState, r_squared_of)


class InsufficientDf(RaiError):
    """Too few residual degrees of freedom to form a t-statistic."""


def adjusted(basis, x) -> np.ndarray:
    """x minus its projection onto the orthonormal `basis`: modified
    Gram-Schmidt, swept twice."""
    v = np.array(x, dtype=float)
    for _ in range(2):
        for q in basis:
            v -= np.dot(v, q) * q
    return v


def adjusted_column(state: ModelState, j: int) -> np.ndarray:
    """Column j minus its projection onto the state's basis."""
    return adjusted(state.basis, state.dataset.columns[:, j])


def partial_correlation(state: ModelState, j: int) -> float:
    """Correlation of the residual with the S-adjusted column j.

    Its square is the R^2 gain of adding j divided by (1 - R^2).
    """
    return _scored(state, j)[2]


def t_statistic(state: ModelState, j: int) -> float:
    """t-statistic for candidate j against the state's residual, on
    n - |S| - 2 degrees of freedom."""
    if state.df < 1:
        raise InsufficientDf(f"df = {state.df} with |S| = {state.size}")
    return _scored(state, j)[3]


def t_of_rho(rho, df: int) -> np.ndarray:
    """|t| on df degrees of freedom of each |rho| in `rho`, by the
    textbook formula |rho| sqrt(df) / sqrt(1 - rho^2).  A finite |rho|
    >= 1 gets T_STAT_MAX, the package's stand-in for an exact fit, and
    an infinite or NaN bound gets inf, which no threshold settles."""
    rho = np.abs(np.asarray(rho, dtype=float))
    with np.errstate(all="ignore"):
        t = rho * np.sqrt(df) / np.sqrt(1.0 - rho * rho)
    return np.where(np.isfinite(rho), np.where(rho < 1.0, t, T_STAT_MAX),
                    np.inf)


def _scored(state: ModelState, j: int):
    """(adjusted column, its norm, partial correlation, t) of column j,
    as `ModelState.score` defines them; column j must be testable."""
    adj = adjusted_column(state, j)
    nrm = float(np.linalg.norm(adj))
    if nrm <= COLLINEARITY_TOL:
        raise CollinearFeature(f"column {j} is collinear with the model")
    rnorm = float(np.linalg.norm(state.residual))
    if rnorm < RESIDUAL_TOL:
        return adj, nrm, 0.0, 0.0
    rho = min(1.0, max(-1.0, float(np.dot(state.residual, adj)
                                    / (rnorm * nrm))))
    return adj, nrm, rho, math.copysign(float(t_of_rho(rho, state.df)), rho)


def gain(dataset: Dataset, S, A) -> float:
    """R^2(S u A) - R^2(S).  Non-negative up to roundoff."""
    S = list(S)
    union = S + [a for a in A if a not in S]
    return r_squared_of(dataset, union) - r_squared_of(dataset, S)
