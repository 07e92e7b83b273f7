"""Shared fixtures and independent reference implementations.

Every helper here solves the same quantities as the package but by a
different route (normal equations, explicit projectors, pseudo-inverse)
so the tests are not circular.
"""

import math

import numpy as np
import pytest

from rai import ModelState, standardize
from rai.wealth import NOT_REJECTED, REJECTED, SKIPPED


def ols_fit(cols, y):
    """Least squares of y on [1, cols]; returns (intercept, slopes, fitted)."""
    cols = np.atleast_2d(np.asarray(cols, dtype=float))
    if cols.shape[0] == len(y):
        A = cols
    else:
        A = cols.T
    design = np.column_stack([np.ones(len(y)), A])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return beta[0], beta[1:], design @ beta


def ols_r2(cols, y):
    """R-squared of the with-intercept fit, straight from residuals."""
    _, _, fitted = ols_fit(cols, y)
    y = np.asarray(y, dtype=float)
    ss_res = np.sum((y - fitted) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    return 1.0 - ss_res / ss_tot


def ols_t_stats(cols, y):
    """Slope t-statistics from the classical covariance formula."""
    cols = np.asarray(cols, dtype=float)
    if cols.ndim == 1:
        cols = cols[:, None]
    n = len(y)
    design = np.column_stack([np.ones(n), cols])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    dof = n - design.shape[1]
    sigma2 = resid @ resid / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    return (beta / se)[1:]


def projector_r2(dataset, subset):
    """1 - ||(I - H_S) y||^2 with H_S built from an explicit pseudo-inverse."""
    if not subset:
        return 0.0
    A = dataset.columns[:, list(subset)]
    H = A @ np.linalg.pinv(A)
    resid = dataset.response - H @ dataset.response
    return 1.0 - float(resid @ resid)


def projected_gain(dataset, T, S):
    """R-squared of y on the S-adjusted T columns, via explicit projectors."""
    y = dataset.response
    if S:
        A = dataset.columns[:, list(S)]
        P = np.eye(dataset.n) - A @ np.linalg.pinv(A)
    else:
        P = np.eye(dataset.n)
    Tm = P @ dataset.columns[:, list(T)]
    H = Tm @ np.linalg.pinv(Tm)
    fitted = H @ y
    return float(fitted @ fitted)


def expected_true_term_t(n, k, target_r2):
    """Centre and spread of a calibrated true term's joint OLS |t|.

    The simulator rescales its k true monomials so the sample signal
    fraction equals target_r2 and every term carries the same share.
    For (nearly) orthogonal columns the squared t-statistics sum to the
    overall F statistic times k:

        sum_i t_i^2 = k * F = (n - k - 1) * R^2 / (1 - R^2),

    so each term's |t| sits near t* = sqrt((n-k-1) R^2 / (k (1-R^2))).
    With t = (b + z) / s, z ~ N(0, 1) and s^2 ~ chi2_{n-k-1} / (n-k-1),
    the delta method gives var(t) ~= 1 + t*^2 / (2 (n-k-1)): the 1 from
    noise in the coefficient, the second term from noise in sigma-hat.
    Returns (t_star, sd).
    """
    dof = n - k - 1
    t_star = math.sqrt(dof * target_r2 / (k * (1.0 - target_r2)))
    sd = math.sqrt(1.0 + t_star ** 2 / (2.0 * dof))
    return t_star, sd


def expected_true_model_r2(n, k, target_r2):
    """Centre and spread of the OLS R^2 of y on the k true monomials.

    The simulator fixes the sample signal variance v of the mean
    surface so that v / (v + 1) = target_r2 (call it R^2); only the
    unit-variance noise e varies.  With mu centered,

        1 - R^2_ols = e'(I - H) e / ((n - 1) v + 2 mu'e + e'C e).

    The noise-variance estimate in the numerator and the e'Ce term in
    the denominator move together (relative sd sqrt(2 / n) each), and
    2 mu'e / (n - 1) has variance 4 v / (n - 1).  The delta method then
    gives a relative variance of 1 - R^2_ols of
    (2 R^4 + 4 R^2 (1 - R^2)) / n, so

        sd(R^2_ols) ~= (1 - R^2) sqrt(2 R^2 (2 - R^2) / n),

    and fitting k columns to the noise lifts the centre by
    (1 - R^2) k / (n - 1).  Returns (centre, sd).
    """
    r2 = target_r2
    centre = r2 + (1.0 - r2) * k / (n - 1)
    sd = (1.0 - r2) * math.sqrt(2.0 * r2 * (2.0 - r2) / n)
    return centre, sd


def random_raw(seed, n, p, correlated=False):
    """Raw design and response with planted signal on the first columns."""
    X, signal, noise = random_parts(seed, n, p, correlated)
    return X, signal + noise


def random_parts(seed, n, p, correlated=False):
    """`random_raw`'s design, and its response as signal and noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    if correlated:
        # common factor mixed into every column
        f = rng.normal(size=(n, 1))
        X = 0.6 * X + 0.8 * f
    k = min(3, p)
    beta = rng.normal(size=k) * 1.5
    return X, X[:, :k] @ beta, rng.normal(size=n)


def counting(products):
    """A function that returns a state like the one it is given, but
    whose basis vectors count each product `rows @ q` a screen chunk
    takes with them, in products[(address of the rows, index of q)].
    The products keep their bits."""

    class Counted(np.ndarray):
        def __rmatmul__(self, rows):
            products[rows.ctypes.data, self.index] += 1
            return rows @ self.view(np.ndarray)

    def counted(state):
        basis = []
        for index, q in enumerate(state.basis):
            basis.append(q.view(Counted))
            basis[-1].index = index
        return ModelState(state.dataset, state.selected, tuple(basis),
                          state.coefs, state.residual, state.r_squared)

    return counted


def charges(ledger):
    """(test id, pass, alpha, rejected) for every charge in a ledger's
    log, read from its runs; tests dropped without a charge are left
    out, as the reference ledger never logs them."""
    return [(test_id, run.pass_index, run.alpha, run.decision == REJECTED)
            for run in ledger.runs
            if run.decision in (NOT_REJECTED, REJECTED, SKIPPED)
            for test_id in run.ids]


def entries(ledger, field):
    """One field of a ledger's runs as a list with an item per log entry:
    `ids`, `before` and `t_abs` hold one item per entry already, and
    `pass_index`, `alpha` and `decision` repeat once per entry."""
    seq = []
    for run in ledger.runs:
        value = getattr(run, field)
        if field in ("ids", "before", "t_abs"):
            seq.extend(value)
        else:
            seq.extend([value] * len(run.ids))
    return seq


@pytest.fixture
def small_dataset():
    X, y = random_raw(101, 60, 6)
    return standardize(X, y)


@pytest.fixture
def correlated_dataset():
    X, y = random_raw(202, 50, 8, correlated=True)
    return standardize(X, y)
