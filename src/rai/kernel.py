"""Standardized regression data and incremental least-squares state.

Everything downstream works on unit rows: `_unit_rows`, the one
standardizer, centers and scales the predictor columns, the response
and realized products to unit Euclidean norm.  On that scale squared
correlations are R^2 increments, so partial correlations, t-statistics
and fit gains all come from plain inner products against an orthonormal
basis of the selected columns.

The orthonormal basis is grown one column at a time by modified
Gram-Schmidt with one reorthogonalization sweep, which keeps the basis
orthogonal to ~1e-8 without ever refactoring from scratch.

A Screen scores many candidates against the ModelState it is handed:
it caches each candidate's inner products with the basis and the
residual and scores them all in a few vectorized operations.  Its
scores come with bounds; callers settle with them only what the bounds
decide and take everything else through the exact ModelState arithmetic.
"""

from __future__ import annotations

import bisect
import math
import sys
import warnings
from dataclasses import dataclass

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


# overflows are rescaled below, and a constant row divides 0 by 0
# before it is set to NaN
@np.errstate(all="ignore")
def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center and scale each row of `rows` to unit norm, in place, and
    return (means, scales).  Each row is laid out contiguously, so every
    row gets the bits it gets alone, whatever the other rows hold.  A
    constant row is left NaN, and a row that is not finite stays so:
    either is untestable.

    Where a finite row's sum overflowed, as for data near 1e306, its
    mean is taken of row / max|row| and scaled back; where its sum of
    squares overflowed or underflowed, as near 1e160 or 1e-160, so is
    its norm, so that such a row keeps a finite, accurate scale.
    """
    means = rows.mean(axis=1)
    for j in np.flatnonzero(~np.isfinite(means)):
        m = float(np.max(np.abs(rows[j])))
        if math.isfinite(m):
            means[j] = m * float(np.mean(rows[j] / m))
    rows -= means[:, None]
    # vecdot takes each row's np.dot, and its square root is
    # np.linalg.norm bit for bit wherever the sum is a finite normal
    ss = np.vecdot(rows, rows)
    scales = np.sqrt(ss)
    for j in np.flatnonzero(~((ss >= sys.float_info.min) & (ss < math.inf))):
        m = float(np.max(np.abs(rows[j])))
        if 0.0 < m < math.inf:
            u = rows[j] / m
            scales[j] = m * math.sqrt(float(np.dot(u, u)))
    rows /= scales[:, None]
    rows[_constant(scales, means, rows.shape[1])] = np.nan
    return means, scales


@dataclass(eq=False)
class Dataset:
    """Immutable standardized design.

    `columns` holds only the surviving (non-constant) predictors, each
    one contiguous row of a C-order block, as realized terms are; `names`
    maps them back to the caller's labels, and `means` and `scales` are
    the centering and scaling constants each column was standardized
    with, so a marginal needs nothing else to be fitted on the original
    scale.  `raw` keeps the matching uncentered columns so that products
    can be formed on the original scale before standardizing.  When no
    column was dropped it is a read-only view of the caller's matrix,
    not a copy, so the caller must not write to that matrix while the
    dataset is in use.  It is None for a dataset built without it
    (`standardize(..., keep_raw=False)`), which can realize no product.
    """

    columns: np.ndarray          # (n, p) view of (p, n) C-order rows
    response: np.ndarray         # (n,), centered, unit norm
    names: tuple[str, ...]
    response_mean: float
    response_scale: float
    raw: np.ndarray | None       # (n, p), original uncentered columns
    means: np.ndarray            # (p,), each column's mean
    scales: np.ndarray           # (p,), each centered column's norm

    def __post_init__(self) -> None:
        for arr in (self.columns, self.response, self.raw, self.means,
                    self.scales):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def p(self) -> int:
        return self.columns.shape[1]


def standardize(raw_matrix: np.ndarray, raw_response: np.ndarray,
                names: list[str] | None = None, *,
                keep_raw: bool = True) -> Dataset:
    """Build a Dataset from an uncentered design and response.

    Constant predictor columns are dropped with a warning.  Raises
    AllColumnsConstant when nothing survives and ConstantResponse when
    the response has no variance.  Every standardized value is the one
    `_unit_rows` gives for its column alone, as a row.

    With `keep_raw=False` the caller hands the design over and will
    realize no product: the dataset keeps no `raw`, and a design whose
    transpose is a writeable C-order block is standardized in place, as
    its own `columns`, so no second n x p block is made.
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

    in_place = not keep_raw and X.T.flags.c_contiguous and X.flags.writeable
    rows = X.T if in_place else X.T.copy()
    means, scales = _unit_rows(rows)
    y_std = np.array(y, ndmin=2)        # the response as a one-row block
    (y_mean,), (y_scale,) = _unit_rows(y_std)
    if np.isnan(y_std).all():
        raise ConstantResponse("response is constant")

    keep = ~_constant(scales, means, n)
    if not keep.any():
        raise AllColumnsConstant("every predictor column is constant")
    raw = X.view() if keep_raw else None
    if not keep.all():
        dropped = [names[j] for j in np.flatnonzero(~keep)]
        warnings.warn(f"dropped constant columns: {', '.join(dropped)}",
                      stacklevel=2)
        rows = _keep_rows(rows, keep)
        means, scales = means[keep], scales[keep]
        if keep_raw:
            raw = X[:, keep]

    return Dataset(
        columns=rows.T,
        response=y_std[0],
        names=tuple(names[j] for j in np.flatnonzero(keep)),
        response_mean=float(y_mean),
        response_scale=float(y_scale),
        raw=raw,
        means=means,
        scales=scales,
    )


def _keep_rows(rows: np.ndarray, keep) -> np.ndarray:
    """The rows that the mask `keep` marks, moved up in place one at a
    time, as the leading rows of `rows`: no second block is made."""
    kept = np.flatnonzero(keep)
    for i, j in enumerate(kept.tolist()):
        if i != j:
            rows[i] = rows[j]
    return rows[:len(kept)]


def _t_of(rho: np.ndarray, df: int) -> np.ndarray:
    """|t| of |rho|: T_STAT_MAX for a finite rho >= 1, inf for inf or NaN."""
    with np.errstate(all="ignore"):
        t = rho * math.sqrt(df) / np.sqrt(1.0 - rho * rho)
    return np.where(rho < 1.0, t, np.where(rho < np.inf, T_STAT_MAX, np.inf))


class ModelState:
    """Selected set, orthonormal basis, residual and R^2 for one model.

    Instances are values: `add_feature`/`add_adjusted` return a new
    state and never mutate the receiver, so a caller may keep earlier ones.
    `selected` is an ordered list of whatever labels the caller adds
    (column indices here, feature terms in the selection engine).
    `coefs[i]` is r . q of `basis[i]` against the residual it was added
    to, and `rnorm` is the norm of `residual`.
    """

    __slots__ = ("dataset", "selected", "basis", "coefs", "residual",
                 "rnorm", "r_squared")

    def __init__(self, dataset: Dataset, selected: tuple, basis: tuple,
                 coefs: tuple, residual: np.ndarray, r_squared: float):
        self.dataset = dataset
        self.selected = selected
        self.basis = basis
        self.coefs = coefs
        self.residual = residual
        self.rnorm = float(np.linalg.norm(residual))
        self.r_squared = r_squared

    @classmethod
    def empty(cls, dataset: Dataset) -> "ModelState":
        return cls(dataset, (), (), (), dataset.response, 0.0)

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

    def score(self, x: np.ndarray) -> tuple | None:
        """(adjusted column, its norm, partial correlation, t) for a
        candidate column, or None if it is untestable: not finite, as a
        constant or overflowing monomial realizes to, or in span(S)
        (adjusted norm at or below COLLINEARITY_TOL).  The correlation
        and t are 0 against an exhausted residual.  No df check: callers
        gate on df themselves."""
        if not np.isfinite(x).all():
            return None
        adj = self.adjusted_vector(x)
        nrm = float(np.linalg.norm(adj))
        if nrm <= COLLINEARITY_TOL:
            return None
        if self.rnorm < RESIDUAL_TOL:
            return adj, nrm, 0.0, 0.0
        rho = float(np.dot(self.residual, adj) / (self.rnorm * nrm))
        rho = min(1.0, max(-1.0, rho))
        return adj, nrm, rho, math.copysign(_t_of(abs(rho), self.df), rho)

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
                          self.basis + (q,), self.coefs + (c,), residual, r2)

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

# A screen chunk holds about this many bytes of rows, so it stays in a
# 2 MiB L2 cache while it takes in every basis vector it has pending.
CHUNK_BYTES = 2 ** 20

# Below this screened adjusted norm^2, 1 - ||Q^T x||^2 has cancelled too
# far to stand in for the explicit Gram-Schmidt norm.
SCREEN_MIN_NORM2 = 1e-4


class Screen:
    """Cached inner products that score every candidate slot at once.

    With Q the orthonormal basis of a ModelState and r its residual, a
    unit-norm candidate x has adjusted norm^2 1 - ||Q^T x||^2, and as r
    is orthogonal to Q, its inner product with the adjusted column is
    simply x . r.  The screen keeps ||Q^T x||^2 and x . r for every
    slot, so a whole stream is scored in a few vectorized operations.
    Slots 0..p-1 are the dataset's columns, read in place as rows;
    `add_columns` appends more (interaction columns).  Every block the
    screen is handed, the design's own rows included, starts from its
    products x . y with the response, one GEMV.  The slots are
    kept in chunks of about CHUNK_BYTES of rows, and a chunk takes in
    the basis vectors it lacks, all at once, only when it is next read.
    The screen keeps no model of its own: it reads the state it is
    handed, and each such state extends the last.

    Screened scores come with intervals that hold the exact scores.
    Callers decide with them only what the intervals settle and send
    the rest through the exact ModelState arithmetic.
    """

    def __init__(self, dataset: Dataset):
        self._rows = max(1, CHUNK_BYTES // (8 * dataset.n))
        self._starts = []   # the first slot of each chunk
        self._chunks = []   # [rows, vectors taken in, ditto when last scored]
        self._response = dataset.response
        self.gram = self.inner = np.zeros(0)    # ||Q^T x||^2 and x . r
        self.t = np.zeros((2, 0))   # (|t|, its upper bound) as last scored
        self.add_columns(dataset.columns.T)

    def _catch_up(self, state: ModelState, k: int) -> slice:
        """Have chunk `k` take in the vectors of `state` it lacks, one
        GEMV each, and return its slots.

        r loses its component along each new q, so every x . r drops by
        (r . q)(x . q), with r . q the state's coefficient, rather than
        being recomputed.
        """
        rows, taken, _ = chunk = self._chunks[k]
        span = slice(self._starts[k], self._starts[k] + len(rows))
        gram, inner = self.gram[span], self.inner[span]
        for q, coef in zip(state.basis[taken:], state.coefs[taken:]):
            g = rows @ q
            gram += g * g
            inner -= coef * g
        chunk[1] = state.size
        return span

    def _walk(self, state: ModelState, slots):
        """For each chunk holding some of `slots` (ascending), in order,
        have it take in what it lacks and yield (chunk, its slots, the
        positions in `slots` it holds as a start and an end)."""
        end = 0
        while end < len(slots):
            k = bisect.bisect(self._starts, int(slots[end])) - 1
            span = self._catch_up(state, k)
            start, end = end, int(np.searchsorted(slots, span.stop))
            yield self._chunks[k], span, start, end

    def settled(self, state: ModelState, slots, tlvl: float) -> np.ndarray:
        """The screened |t| of the leading `slots` (ascending) whose upper
        bound at `state` lies at or below tlvl * (1 - SCREEN_MARGIN).  A
        chunk the walk reaches is rescored if it took anything in since
        it was last scored or never was."""
        below = tlvl * (1.0 - SCREEN_MARGIN)
        for chunk, span, start, end in self._walk(state, slots):
            if chunk[2] != chunk[1]:
                self.t[:, span] = self._t_abs(state, span)
                chunk[2] = chunk[1]
            unsettled = np.flatnonzero(~(self.t[1, slots[start:end]] <= below))
            if len(unsettled):
                return self.t[0, slots[:start + int(unsettled[0])]]
        return self.t[0, slots]

    def contenders(self, state: ModelState, slots) -> np.ndarray:
        """The positions in `slots` (ascending) whose |rho| upper bound at
        `state` reaches their largest lower bound: only these can hold
        the largest exact score.  None at an exhausted residual, where
        every slot scores 0."""
        if state.rnorm < RESIDUAL_TOL:
            return np.zeros(0, dtype=int)
        _, low, high = self.bounds(state, slots)
        return np.flatnonzero(high >= low.max(initial=0.0))

    def add_columns(self, block: np.ndarray) -> np.ndarray:
        """Append the rows of `block`, unit-norm columns as `realize`
        returns them, as new slots, np.arange(start, start + len(block)),
        and return those.  The screen keeps the block, not a copy,
        computes its products with the response, and never trusts a row
        that is not finite."""
        start = len(self.gram)
        self._starts += range(start, start + len(block), self._rows)
        self._chunks += [[block[a:a + self._rows], 0, None]
                         for a in range(0, len(block), self._rows)]
        self.gram = np.concatenate((self.gram, np.zeros(len(block))))
        self.inner = np.concatenate((self.inner, block @ self._response))
        self.t = np.hstack((self.t, np.full((2, len(block)), np.nan)))
        return np.arange(start, start + len(block))

    def bounds(self, state: ModelState, slots) -> tuple[np.ndarray, ...]:
        """(|rho|, low, high) of `slots` (ascending) at `state`, after the
        chunks holding them take in what they lack.  rho is the partial
        correlation with the residual, and [low, high] holds its exact
        value, allowing SCREEN_ERR in every cached product; a slot whose
        adjusted norm is too small to resolve, or whose column is not
        finite, gets [0, inf]."""
        for _ in self._walk(state, slots):
            pass
        return self._rho_bounds(state.rnorm, slots)

    def _rho_bounds(self, rnorm: float, idx):
        """`bounds` of the `idx` slots, from their products as is."""
        c = np.abs(self.inner[idx])
        norm2 = 1.0 - self.gram[idx]
        floor = max(SCREEN_MIN_NORM2, (2.0 * COLLINEARITY_TOL) ** 2)
        trusted = (norm2 >= floor) & np.isfinite(c)
        with np.errstate(all="ignore"):
            rho = c / (rnorm * np.sqrt(norm2))
            low = (np.maximum(c - SCREEN_ERR, 0.0)
                   / (rnorm * np.sqrt(norm2 + SCREEN_ERR)))
            high = (c + SCREEN_ERR) / (rnorm * np.sqrt(norm2 - SCREEN_ERR))
        low[~trusted] = 0.0
        high[~trusted] = np.inf
        return rho, low, high

    def _t_abs(self, state: ModelState, span: slice):
        """(|t|, its upper bound) of the `span` slots at `state`, likewise."""
        rho, _, high = self._rho_bounds(state.rnorm, span)
        if state.rnorm < RESIDUAL_TOL:
            # an exhausted residual scores every candidate 0, as the
            # exact path does; only untrusted slots stay open
            return np.zeros_like(rho), np.where(np.isinf(high), np.inf, 0.0)
        return _t_of(np.stack((rho, high)), state.df)


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
