"""Exact references the streaming engine is measured against.

Everything here recomputes from scratch: greedy forward stepwise with
exact gains, best subsets by enumeration, the submodularity ratio of
the fit function, and the closed-form lower bound that ties a selected
model's R^2 to the best k-subset's.  These are desk-scale tools guarded
by an enumeration budget.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (AllSubsetsSingular, BudgetExceeded, SingularStep,
                     SingularSubset)
from .kernel import Dataset, ModelState, Screen, r_squared_of

DEFAULT_ENUM_BUDGET = 2_000_000
ENUM_BUDGET_ENV = "RAI_ENUM_BUDGET"


def enum_budget(budget: int | None = None) -> int:
    """`budget`, or when it is None the RAI_ENUM_BUDGET variable or the
    default; either must be at least 1, or a ValueError names it."""
    if budget is not None:
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget!r}")
        return budget
    env = os.environ.get(ENUM_BUDGET_ENV) or str(DEFAULT_ENUM_BUDGET)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"{ENUM_BUDGET_ENV} must be an integer of at least "
                         f"1, got {env!r}")
    return int(env)


def aic(state: ModelState) -> float:
    """n * ln(ESS/n) + 2 * (|S| + 1) of a model, on the standardized
    scale, with ESS = 1 - R^2 as the state holds it.

    A perfect fit has no finite AIC; -inf stands in so it still orders.
    """
    ess = 1.0 - state.r_squared
    n = state.dataset.n
    if ess <= 0.0:
        return float("-inf")
    return n * math.log(ess / n) + 2.0 * (state.size + 1)


def forward_stepwise(dataset: Dataset, k: int | None = None) -> ModelState:
    """Greedy forward selection by exact R^2 gain.

    With `k` the path stops at that size.  With k=None the path grows
    until no column is addable, or until a perfect fit, and the first
    of its states with the least AIC is returned.  The state's
    `selected` is the path.  Gain ties break toward the lowest column
    index; past an exhausted residual every step takes the lowest-index
    column still addable.
    """
    if k is not None and not 0 <= k <= dataset.p:
        raise ValueError(f"k must lie in [0, {dataset.p}]")
    state = best = ModelState.empty(dataset)
    best_aic = aic(state)
    screen = Screen(dataset)
    live = np.ones(dataset.p, dtype=bool)
    limit = dataset.p if k is None else k
    while state.size < limit:
        # gain = rho^2 ||r||^2, so the screen's contenders are the few
        # columns that can win; their exact gains decide, lowest index on
        # ties.  No contender means an exhausted residual, which gains
        # nothing anywhere, so the lowest addable column is taken
        slots = np.flatnonzero(live)
        picks = screen.contenders(state, slots)
        exhausted = not len(picks)
        best_j, best_gain, best_adj = -1, -np.inf, None
        for j in (slots if exhausted else slots[picks]).tolist():
            if (scored := state.score(dataset.columns[:, j])) is None:
                continue
            adj, nrm, _, _ = scored
            if exhausted:
                best_j, best_adj = j, adj
                break
            g = float(np.dot(state.residual, adj) / nrm) ** 2
            if g > best_gain:
                best_j, best_gain, best_adj = j, g, adj
        if best_j < 0:
            if k is not None:
                raise SingularStep(
                    f"no addable column at step {state.size + 1}")
            break
        state = state.add_adjusted(best_adj, best_j)
        live[best_j] = False
        value = aic(state)
        if value < best_aic:
            best, best_aic = state, value
        if k is None and best_aic == -math.inf:
            break   # a perfect fit: no later state has less AIC
    return best if k is None else state


def brute_force_subset(dataset: Dataset, k: int,
                       budget: int | None = None) -> tuple[tuple[int, ...], float]:
    """Best k-subset by exhaustive enumeration.

    Returns (subset, R^2); ties keep the lexicographically smallest
    subset.  Rank-deficient subsets score the R^2 of their span.
    """
    if not 0 <= k <= dataset.p:
        raise ValueError(f"k must lie in [0, {dataset.p}]")
    budget = enum_budget(budget)
    count = math.comb(dataset.p, k)
    if count > budget:
        raise BudgetExceeded(
            f"C({dataset.p}, {k}) = {count} exceeds budget {budget}")
    best_set: tuple[int, ...] = ()
    best_r2 = 0.0
    y = dataset.response
    for S in combinations(range(dataset.p), k):
        try:
            r2 = r_squared_of(dataset, S)
        except SingularSubset:
            # span still explains something; project onto it
            u, sv, _ = np.linalg.svd(dataset.columns[:, S],
                                     full_matrices=False)
            keep = sv > 1e-10
            proj = u[:, keep].T @ y
            r2 = float(min(1.0, np.dot(proj, proj)))
        if r2 > best_r2:
            best_set, best_r2 = S, r2
    return best_set, best_r2


def submodularity_ratio(dataset: Dataset, S, k: int,
                        budget: int | None = None) -> tuple[float, dict]:
    """min over disjoint T with 1 <= |T| <= k of (r'r) / (r' C^-1 r).

    r holds the correlations of the response with the S-adjusted,
    renormalized candidate columns and C their correlation matrix.
    Numerically singular candidate sets are skipped and counted.
    Returns (ratio, {"argmin": its T, "n_sets", "n_skipped": counts}).
    """
    S = list(S)
    rest = [j for j in range(dataset.p) if j not in S]
    if not rest:
        raise AllSubsetsSingular("no columns outside S")
    if k < 1:
        raise ValueError("k must be at least 1")
    k = min(k, len(rest))
    budget = enum_budget(budget)
    total = sum(math.comb(len(rest), t) for t in range(1, k + 1))
    if total > budget:
        raise BudgetExceeded(f"{total} candidate sets exceed budget {budget}")

    state = ModelState.empty(dataset)
    for j in S:
        state = state.add_feature(j)
    scores = {j: state.score(dataset.columns[:, j]) for j in rest}
    units = {j: s[0] / s[1] for j, s in scores.items() if s is not None}
    gamma = np.inf
    argmin: tuple[int, ...] = ()
    scored = 0
    y = dataset.response
    corr = {j: float(np.dot(y, units[j])) for j in units}
    for t in range(1, k + 1):
        for T in combinations(units, t):
            r = np.array([corr[j] for j in T])
            C = np.array([[float(np.dot(units[a], units[b])) for b in T]
                          for a in T])
            if np.linalg.eigvalsh(C)[0] < 1e-10:
                continue
            denom = float(r @ np.linalg.solve(C, r))
            if denom <= 1e-15:
                # zero joint gain constrains nothing
                continue
            ratio = float(r @ r) / denom
            scored += 1
            if ratio < gamma:
                gamma = ratio
                argmin = T
    if not math.isfinite(gamma):
        raise AllSubsetsSingular("every candidate set was singular")
    return gamma, {"argmin": argmin, "n_sets": scored,
                   "n_skipped": total - scored}


@dataclass(frozen=True)
class BoundInputs:
    """Measured quantities the selected-model guarantee is built from.

    r2_opt is the best k-subset's R^2, l the selected model's size,
    gamma the submodularity ratio at (selected set, k), and s_f the
    pass on which the first rejection happened.
    """

    r2_opt: float
    l: int
    k: int
    gamma: float
    s_f: int

    def __post_init__(self):
        if not 0.0 <= self.r2_opt <= 1.0:
            raise ValueError("r2_opt must lie in [0, 1]")
        if self.l < 1 or self.k < 1 or self.s_f < 1:
            raise ValueError("l, k and s_f must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")


def theorem_bound_branches(b: BoundInputs) -> tuple[float, float]:
    """(additive branch, multiplicative branch) of the R^2 guarantee."""
    c1 = 1.0 - math.exp(-b.l * b.gamma / (1.0 * b.k))
    c2 = 1.0 - math.exp(-b.l * b.gamma / (2.0 * b.k))
    slack = sum(
        math.exp(-(j - 1) * b.gamma / b.k) * 2.0 ** (j - (b.l + b.s_f))
        for j in range(1, b.l + 1))
    return c1 * b.r2_opt - slack, c2 * b.r2_opt


def theorem_bound(b: BoundInputs) -> float:
    """Lower bound on the selected model's R^2.

    Best of an additive-loss branch (near-greedy progress minus the
    geometrically shrinking threshold slack) and a pure multiplicative
    branch.
    """
    return max(theorem_bound_branches(b))
