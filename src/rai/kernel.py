"""Standardized regression data and incremental least-squares state.

Everything downstream works on a fixed standardized view of the data:
predictor columns and the response are centered and scaled to unit
Euclidean norm.  On that scale squared correlations are R^2 increments,
so partial correlations, t-statistics and fit gains all come from plain
inner products against an orthonormal basis of the selected columns.

The orthonormal basis is grown one column at a time by modified
Gram-Schmidt with one reorthogonalization sweep, which keeps the basis
orthogonal to ~1e-8 without ever refactoring from scratch.

Scoring many candidates against one model goes through a Screen, which
caches each candidate's inner products with the basis and the residual
and scores them all in a few vectorized operations.  Its scores come
with bounds; callers settle with them only what the bounds decide and
take everything else through the exact ModelState arithmetic.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AllColumnsConstant,
    CollinearFeature,
    ConstantResponse,
    SingularSubset,
)

# Columns whose S-adjusted norm falls at or below this are treated as
# lying in span(S): untestable, removable without an alpha charge.
COLLINEARITY_TOL = 1e-8

# A residual norm below this is exhausted: every candidate scores 0.
RESIDUAL_TOL = 1e-15

# Stand-in for an infinite t-statistic when a candidate explains the
# residual exactly (rho^2 == 1).  Larger than any usable threshold.
T_STAT_MAX = 1e18


def _constant(scale, mean, n: int):
    """Whether a column with this centered norm and mean is constant up
    to roundoff: centering n copies of c leaves residuals of a few ulps
    of |c|.  The rule is relative, so rescaling data never changes it."""
    return scale <= 1e-12 * math.sqrt(n) * np.abs(mean)


def _center_rows(work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center each row of `work` in place and return every row's mean
    and centered norm.  Each row is laid out contiguously, so every
    mean and norm is bit for bit what that row gives alone, whatever
    the other rows hold.

    Where a finite row's sum overflowed, as for data near 1e306, its
    mean is taken of row / max|row| and scaled back; where its sum of
    squares overflowed or underflowed, as near 1e160 or 1e-160, so is
    its norm, so that such a row keeps a finite, accurate scale.
    """
    means = work.mean(axis=1)
    for j in np.flatnonzero(~np.isfinite(means)):
        m = float(np.max(np.abs(work[j])))
        if math.isfinite(m):
            means[j] = m * float(np.mean(work[j] / m))
    work -= means[:, None]
    # vecdot takes each row's np.dot, and its square root is
    # np.linalg.norm bit for bit wherever the sum is a finite normal
    ss = np.vecdot(work, work)
    scales = np.sqrt(ss)
    for j in np.flatnonzero(~((ss >= sys.float_info.min) & (ss < math.inf))):
        m = float(np.max(np.abs(work[j])))
        if 0.0 < m < math.inf:
            u = work[j] / m
            scales[j] = m * math.sqrt(float(np.dot(u, u)))
    return means, scales


def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center and scale each row of `rows` to unit norm, in place, and
    return (means, scales).  A constant row is left NaN, and a row
    that is not finite stays so: either is untestable."""
    # _center_rows rescales what overflows, and a constant row divides
    # 0 by 0 before it is set to NaN
    with np.errstate(all="ignore"):
        means, scales = _center_rows(rows)
        rows /= scales[:, None]
    rows[_constant(scales, means, rows.shape[1])] = np.nan
    return means, scales


@dataclass(eq=False)
class Dataset:
    """Immutable standardized design.

    `columns` holds only the surviving (non-constant) predictors; `names`
    maps them back to the caller's labels.  `raw` keeps the matching
    uncentered columns so higher-order terms can be formed on the
    original scale before standardizing.  When no column was dropped it
    is a read-only view of the caller's matrix, not a copy, so the
    caller must not write to that matrix while the dataset is in use.
    """

    columns: np.ndarray          # (n, p), C order, centered, unit norm
    response: np.ndarray         # (n,), centered, unit norm
    names: tuple[str, ...]
    response_mean: float
    response_scale: float
    raw: np.ndarray              # (n, p), original uncentered columns

    def __post_init__(self) -> None:
        for arr in (self.columns, self.response, self.raw):
            arr.setflags(write=False)

    @cached_property
    def correlations(self) -> np.ndarray:
        """Each column's correlation with the response, computed on
        first use and shared by every screen over the dataset."""
        corr = self.columns.T @ self.response
        corr.setflags(write=False)
        return corr

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def p(self) -> int:
        return self.columns.shape[1]


def standardize(raw_matrix: np.ndarray, raw_response: np.ndarray,
                names: list[str] | None = None) -> Dataset:
    """Build a Dataset from an uncentered design and response.

    Constant predictor columns are dropped with a warning.  Raises
    AllColumnsConstant when nothing survives and ConstantResponse when
    the response has no variance.  Every standardized value is the one
    `_unit_rows` gives for its column alone, as a row.
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

    with np.errstate(over="ignore"):    # _center_rows rescales overflows
        means, scales = _center_rows(X.T.copy())
    y_std = np.array(y, ndmin=2)        # the response as a one-row block
    (y_mean,), (y_scale,) = _unit_rows(y_std)
    if np.isnan(y_std).all():
        raise ConstantResponse("response is constant")

    keep = ~_constant(scales, means, n)
    if not keep.any():
        raise AllColumnsConstant("every predictor column is constant")
    if not keep.all():
        dropped = [names[j] for j in np.flatnonzero(~keep)]
        warnings.warn(f"dropped constant columns: {', '.join(dropped)}",
                      stacklevel=2)
        raw, means, scales = X[:, keep], means[keep], scales[keep]
    else:
        raw = X.view()
    columns = np.subtract(raw, means, order="C")
    columns /= scales

    return Dataset(
        columns=columns,
        response=y_std[0],
        names=tuple(names[j] for j in np.flatnonzero(keep)),
        response_mean=float(y_mean),
        response_scale=float(y_scale),
        raw=raw,
    )


def _t_from_rho(rho: float, df: int) -> float:
    if abs(rho) >= 1.0:
        return math.copysign(T_STAT_MAX, rho)
    t = rho * math.sqrt(df) / math.sqrt(1.0 - rho * rho)
    if abs(t) > T_STAT_MAX:
        return math.copysign(T_STAT_MAX, t)
    return t


class ModelState:
    """Selected set, orthonormal basis, residual and R^2 for one model.

    Instances are values: `add_feature`/`add_adjusted` return a new
    state and never mutate the receiver, so a caller may keep earlier ones.
    `selected` is an ordered list of whatever labels the caller adds
    (column indices here, feature terms in the selection engine).
    """

    __slots__ = ("dataset", "selected", "basis", "residual", "r_squared")

    def __init__(self, dataset: Dataset, selected: tuple, basis: tuple,
                 residual: np.ndarray, r_squared: float):
        self.dataset = dataset
        self.selected = selected
        self.basis = basis
        self.residual = residual
        self.r_squared = r_squared

    @classmethod
    def empty(cls, dataset: Dataset) -> "ModelState":
        return cls(dataset, (), (), dataset.response, 0.0)

    @property
    def size(self) -> int:
        return len(self.selected)

    @property
    def df(self) -> int:
        """Residual degrees of freedom for the next candidate test."""
        return self.dataset.n - self.size - 2

    # -- projections ---------------------------------------------------

    def adjusted_vector(self, x: np.ndarray) -> np.ndarray:
        """x minus its projection onto the basis, reorthogonalized once."""
        v = np.array(x, dtype=float)
        for _ in range(2):
            for q in self.basis:
                v -= np.dot(v, q) * q
        return v

    def score(self, x: np.ndarray) -> tuple[np.ndarray, float, float, float]:
        """(adjusted column, its norm, partial correlation, t) for a
        candidate column.

        No df check: callers gate on df themselves.  The correlation and
        t are 0 for a column in span(S) (norm at or below
        COLLINEARITY_TOL) and against an exhausted residual.
        """
        adj = self.adjusted_vector(x)
        nrm = float(np.linalg.norm(adj))
        rnorm = float(np.linalg.norm(self.residual))
        if nrm <= COLLINEARITY_TOL or rnorm < RESIDUAL_TOL:
            return adj, nrm, 0.0, 0.0
        rho = float(np.dot(self.residual, adj) / (rnorm * nrm))
        rho = min(1.0, max(-1.0, rho))
        return adj, nrm, rho, _t_from_rho(rho, self.df)

    # -- updates -------------------------------------------------------

    def add_adjusted(self, adj: np.ndarray, label) -> "ModelState":
        """Extend the basis with an already-adjusted column."""
        nrm = float(np.linalg.norm(adj))
        if nrm <= COLLINEARITY_TOL:
            raise CollinearFeature("adjusted column is numerically zero")
        q = adj / nrm
        c = float(np.dot(self.residual, q))
        residual = self.residual - c * q
        r2 = 1.0 - float(np.dot(residual, residual))
        return ModelState(self.dataset, self.selected + (label,),
                          self.basis + (q,), residual, r2)

    def add_feature(self, j: int) -> "ModelState":
        return self.add_adjusted(
            self.adjusted_vector(self.dataset.columns[:, j]), j)


# -- batched screening ---------------------------------------------------

# Rounding allowance for a cached inner product of unit vectors.  The
# observed error is ~2e-16 after 300 basis updates at n = 3000, so
# intervals this wide hold the exact value with a wide margin.
SCREEN_ERR = 1e-12

# A screened |t| must stay below the threshold by this relative margin
# as well; closer calls are left to the exact path.
SCREEN_MARGIN = 1e-7

# Below this screened adjusted norm^2, 1 - ||Q^T x||^2 has cancelled too
# far to stand in for the explicit Gram-Schmidt norm.
SCREEN_MIN_NORM2 = 1e-4


def _t_of(rho: np.ndarray, df: int) -> np.ndarray:
    """Vectorized |t| of |rho|; rho >= 1 maps to inf."""
    with np.errstate(all="ignore"):
        t = rho * math.sqrt(df) / np.sqrt(1.0 - rho * rho)
    return np.where(rho < 1.0, t, np.inf)


class Screen:
    """Cached inner products that score every candidate slot at once.

    With Q the orthonormal basis of a ModelState and r its residual, a
    unit-norm candidate x has adjusted norm^2 1 - ||Q^T x||^2, and as r
    is orthogonal to Q, its inner product with the adjusted column is
    simply x . r.  The screen keeps ||Q^T x||^2 and x . r for every
    slot, so a whole stream is scored in a few vectorized operations,
    and each new basis vector costs one GEMV over the slots.  Slots
    0..p-1 are the dataset's columns, read in place; `add_columns`
    appends more (interaction columns).

    Screened scores come with intervals that hold the exact scores.
    Callers decide with them only what the intervals settle and send
    the rest through the exact ModelState arithmetic.
    """

    def __init__(self, dataset: Dataset):
        # slots in blocks of rows: the dataset's columns (a transposed
        # view, not a copy), then one block per add_columns call
        self._blocks = [dataset.columns.T]
        self._state = ModelState.empty(dataset)             # last synced
        self.gram = np.zeros(dataset.p)                     # ||Q^T x||^2
        self.inner = dataset.correlations.copy()            # x . r
        self.rnorm = float(np.linalg.norm(dataset.response))

    def _products(self, v: np.ndarray) -> np.ndarray:
        """x . v for every slot, one GEMV per block."""
        return np.concatenate([block @ v for block in self._blocks])

    def sync(self, state: ModelState) -> None:
        """Take in the basis vectors `state` added since the last sync.

        Each costs one GEMV over the slots: r loses its component along
        q, so every x . r drops by (r . q)(x . q) rather than being
        recomputed.
        """
        for q in state.basis[len(self._state.basis):]:
            g = self._products(q)
            self.gram += g * g
            self.inner -= float(np.dot(self._state.residual, q)) * g
        self._state = state
        self.rnorm = float(np.linalg.norm(state.residual))

    def add_columns(self, block: np.ndarray) -> np.ndarray:
        """Append the rows of `block`, unit-norm columns as `realize`
        returns them, as new slots, np.arange(start, start + len(block)),
        and return those.  The screen keeps the block, not a copy, and
        never trusts a row that is not finite."""
        start = len(self.gram)
        gram = np.zeros(len(block))
        for q in self._state.basis:
            gram += (block @ q) ** 2
        self._blocks.append(block)
        self.gram = np.concatenate((self.gram, gram))
        self.inner = np.concatenate((self.inner, block @ self._state.residual))
        return np.arange(start, start + len(block))

    def rho_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(|rho|, low, high) for every slot.

        rho is the partial correlation of the slot with the residual;
        [low, high] holds its exact value, allowing SCREEN_ERR in every
        cached product.  A slot whose adjusted norm is too small to
        resolve, or whose column is not finite, gets [0, inf].
        """
        c = np.abs(self.inner)
        norm2 = 1.0 - self.gram
        floor = max(SCREEN_MIN_NORM2, (2.0 * COLLINEARITY_TOL) ** 2)
        trusted = (norm2 >= floor) & np.isfinite(c)
        with np.errstate(all="ignore"):
            rho = c / (self.rnorm * np.sqrt(norm2))
            low = (np.maximum(c - SCREEN_ERR, 0.0)
                   / (self.rnorm * np.sqrt(norm2 + SCREEN_ERR)))
            high = (c + SCREEN_ERR) / (self.rnorm * np.sqrt(norm2 - SCREEN_ERR))
        low[~trusted] = 0.0
        high[~trusted] = np.inf
        return rho, low, high

    def t_abs(self, df: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(|t|, low, high) for every slot on df degrees of freedom."""
        rho, low, high = self.rho_bounds()
        if self.rnorm < RESIDUAL_TOL:
            # an exhausted residual scores every candidate 0, as the
            # exact path does; only untrusted slots stay open
            zero = np.zeros_like(rho)
            return zero, zero, np.where(np.isinf(high), np.inf, 0.0)
        return tuple(_t_of(np.stack((rho, low, high)), df))


# -- whole-subset operations, by fresh orthogonalization ----------------

def r_squared_of(dataset: Dataset, subset) -> float:
    """R^2 of the subset, recomputed from scratch (no incremental state)."""
    S = list(subset)
    if not S:
        return 0.0
    M = dataset.columns[:, S]
    q, r = np.linalg.qr(M)
    if np.min(np.abs(np.diag(r))) <= COLLINEARITY_TOL:
        raise SingularSubset(f"columns {S} are rank deficient")
    proj = q.T @ dataset.response
    return float(min(1.0, np.dot(proj, proj)))
