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

import bisect
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllColumnsConstant,
    CollinearFeature,
    ConstantResponse,
    InsufficientDf,
    SingularSubset,
)

# Columns whose S-adjusted norm falls at or below this are treated as
# lying in span(S): untestable, removable without an alpha charge.
COLLINEARITY_TOL = 1e-8

# Stand-in for an infinite t-statistic when a candidate explains the
# residual exactly (rho^2 == 1).  Larger than any usable threshold.
T_STAT_MAX = 1e18


def _norm(r: np.ndarray) -> float:
    """Euclidean norm of a contiguous vector.

    Wherever the sum of squares is a finite normal number this is
    np.linalg.norm bit for bit.  Where it overflowed or underflowed, as
    for data near 1e160 or 1e-160, the norm is taken of r / max|r| and
    scaled back, so that such a column keeps a finite, accurate scale.
    """
    ss = float(np.dot(r, r))
    if sys.float_info.min <= ss < math.inf:
        return math.sqrt(ss)
    m = float(np.max(np.abs(r)))
    if m == 0.0 or not math.isfinite(m):
        return math.sqrt(ss)
    u = r / m
    return m * math.sqrt(float(np.dot(u, u)))


def _constant(scale, mean, n: int):
    """Whether a column with this centered norm and mean is constant up
    to roundoff: centering n copies of c leaves residuals of a few ulps
    of |c|.  The rule is relative, so rescaling data never changes it."""
    return scale <= 1e-12 * math.sqrt(n) * np.abs(mean)


def _unit_centered(col: np.ndarray) -> tuple[np.ndarray, float, float] | None:
    """Center and scale one column to unit norm.

    Returns (standardized, mean, scale), or None for a constant column.
    """
    mean = float(col.mean())
    centered = col - mean
    scale = _norm(centered)
    if _constant(scale, mean, col.size):
        return None
    return centered / scale, mean, scale


def _means_and_scales(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and centered norm of every column of X, in one pass over a
    transposed working copy.  Each row of the copy is one column, laid
    out contiguously, so every mean and norm is bit for bit what
    `_unit_centered` gives for that column alone."""
    work = X.T.copy()
    means = work.mean(axis=1)
    work -= means[:, None]
    return means, np.array([_norm(r) for r in work], dtype=float)


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
    raw_means: np.ndarray        # (p,)
    raw_scales: np.ndarray       # (p,)
    response_mean: float
    response_scale: float
    raw: np.ndarray              # (n, p), original uncentered columns

    def __post_init__(self) -> None:
        for arr in (self.columns, self.response, self.raw_means,
                    self.raw_scales, self.raw):
            arr.setflags(write=False)

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
    `_unit_centered` gives for its column alone.
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

    with np.errstate(over="ignore"):    # _norm rescales what overflows
        resp = _unit_centered(y)
        means, scales = _means_and_scales(X)
    if resp is None:
        raise ConstantResponse("response is constant")
    y_std, y_mean, y_scale = resp

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
        response=y_std,
        names=tuple(names[j] for j in np.flatnonzero(keep)),
        raw_means=means,
        raw_scales=scales,
        response_mean=y_mean,
        response_scale=y_scale,
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
    state and never mutate the receiver, so traces can hold snapshots.
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

    def adjusted_column(self, j: int) -> np.ndarray:
        return self.adjusted_vector(self.dataset.columns[:, j])

    def score_vector(self, x: np.ndarray) -> tuple[float, float, float]:
        """(adjusted norm, partial correlation, t) for a candidate column.

        No error checking: callers gate on the norm and on df themselves.
        With an exhausted residual the correlation is defined as 0.
        """
        adj = self.adjusted_vector(x)
        nrm = float(np.linalg.norm(adj))
        if nrm <= 0.0:
            return 0.0, 0.0, 0.0
        return (nrm, *self.score_adjusted(adj, nrm))

    def score_adjusted(self, adj: np.ndarray,
                       nrm: float) -> tuple[float, float]:
        """(partial correlation, t) for an adjusted column of norm nrm > 0;
        both 0 when the residual is exhausted."""
        rnorm = float(np.linalg.norm(self.residual))
        if rnorm < 1e-15:
            return 0.0, 0.0
        rho = float(np.dot(self.residual, adj) / (rnorm * nrm))
        rho = min(1.0, max(-1.0, rho))
        return rho, _t_from_rho(rho, self.df)

    def partial_correlation(self, j: int) -> float:
        """Correlation of the residual with the S-adjusted column j.

        Its square is the R^2 gain of adding j divided by (1 - R^2).
        """
        nrm, rho, _ = self.score_vector(self.dataset.columns[:, j])
        if nrm <= COLLINEARITY_TOL:
            raise CollinearFeature(f"column {j} is collinear with the model")
        return rho

    def t_statistic(self, j: int) -> float:
        """t-statistic for candidate j against the current residual,
        on n - |S| - 2 degrees of freedom."""
        if self.df < 1:
            raise InsufficientDf(f"df = {self.df} with |S| = {self.size}")
        nrm, rho, t = self.score_vector(self.dataset.columns[:, j])
        if nrm <= COLLINEARITY_TOL:
            raise CollinearFeature(f"column {j} is collinear with the model")
        return t

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
        return self.add_adjusted(self.adjusted_column(j), j)


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
    appends more (realized interactions).

    Screened scores come with intervals that hold the exact scores.
    Callers decide with them only what the intervals settle and send
    the rest through the exact ModelState arithmetic.
    """

    def __init__(self, dataset: Dataset):
        # slots in blocks of rows: the dataset's columns (a transposed
        # view, not a copy), then one block per add_columns call
        self._blocks = [dataset.columns.T]
        self._starts = [0]
        self._state = ModelState.empty(dataset)             # last synced
        self.gram = np.zeros(dataset.p)                     # ||Q^T x||^2
        self.inner = dataset.columns.T @ dataset.response   # x . r
        self.rnorm = float(np.linalg.norm(dataset.response))

    def column(self, slot: int) -> np.ndarray:
        b = bisect.bisect_right(self._starts, slot) - 1
        return self._blocks[b][slot - self._starts[b]]

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

    def add_columns(self, columns, count: int) -> list:
        """Append unit-norm columns as new slots; None entries (constant
        terms) get no slot.  Returns each entry's slot or None.

        `columns` yields at most `count` entries and is consumed one at
        a time, so a generator that realizes them lazily never holds
        more than one outside the screen.
        """
        start = len(self.gram)
        block = np.empty((count, self._state.dataset.n))
        slots: list = []
        kept = 0
        for col in columns:
            if col is None:
                slots.append(None)
                continue
            block[kept] = col
            slots.append(start + kept)
            kept += 1
        if kept:
            block = block[:kept]
            gram = np.zeros(kept)
            for q in self._state.basis:
                gram += (block @ q) ** 2
            self._starts.append(start)
            self._blocks.append(block)
            self.gram = np.concatenate((self.gram, gram))
            self.inner = np.concatenate(
                (self.inner, block @ self._state.residual))
        return slots

    def rho_bounds(self, collinearity_tol: float = COLLINEARITY_TOL
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(|rho|, low, high) for every slot.

        rho is the partial correlation of the slot with the residual;
        [low, high] holds its exact value, allowing SCREEN_ERR in every
        cached product.  A slot whose adjusted norm is too small to
        resolve, or whose column is not finite, gets [0, inf].
        """
        c = np.abs(self.inner)
        norm2 = 1.0 - self.gram
        floor = max(SCREEN_MIN_NORM2, (2.0 * collinearity_tol) ** 2)
        trusted = (norm2 >= floor) & np.isfinite(c)
        with np.errstate(all="ignore"):
            rho = c / (self.rnorm * np.sqrt(norm2))
            low = (np.maximum(c - SCREEN_ERR, 0.0)
                   / (self.rnorm * np.sqrt(norm2 + SCREEN_ERR)))
            high = (c + SCREEN_ERR) / (self.rnorm * np.sqrt(norm2 - SCREEN_ERR))
        low[~trusted] = 0.0
        high[~trusted] = np.inf
        return rho, low, high

    def t_abs(self, df: int, collinearity_tol: float = COLLINEARITY_TOL
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(|t|, low, high) for every slot on df degrees of freedom."""
        rho, low, high = self.rho_bounds(collinearity_tol)
        if self.rnorm < 1e-15:
            # an exhausted residual scores every candidate 0, as the
            # exact path does; only untrusted slots stay open
            zero = np.zeros_like(rho)
            return zero, zero, np.where(np.isinf(high), np.inf, 0.0)
        return _t_of(rho, df), _t_of(low, df), _t_of(high, df)


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


def gain(dataset: Dataset, S, A) -> float:
    """R^2(S u A) - R^2(S).  Non-negative up to roundoff."""
    S = list(S)
    union = S + [a for a in A if a not in S]
    return r_squared_of(dataset, union) - r_squared_of(dataset, S)


def coefficients(dataset: Dataset, subset) -> tuple[np.ndarray, float]:
    """Least-squares coefficients for the subset on the original scale.

    Returns (slopes aligned with `subset`, intercept).
    """
    S = list(subset)
    if not S:
        return np.zeros(0), dataset.response_mean
    M = dataset.columns[:, S]
    q, r = np.linalg.qr(M)
    if np.min(np.abs(np.diag(r))) <= COLLINEARITY_TOL:
        raise SingularSubset(f"columns {S} are rank deficient")
    b = np.linalg.solve(r, q.T @ dataset.response)
    slopes = dataset.response_scale * b / dataset.raw_scales[S]
    intercept = dataset.response_mean - float(
        np.dot(slopes, dataset.raw_means[S]))
    return slopes, intercept
