"""The scalar selection engine, kept as a reference for differential tests.

`run_rai`, `test_candidate` and `forward_stepwise` below are the
one-candidate-at-a-time implementations the batched engine replaced:
every test runs a full modified Gram-Schmidt pass over the basis, and
forward stepwise scores every column that way at every step.  They are
slow but obviously faithful to the selection rules, so the package's
engine must reproduce their selections, decisions, ledgers, skips and
residuals exactly.  Each column is adjusted by the reference's own
Gram-Schmidt (`reference_kernel.adjusted`), not by
`ModelState.adjusted_vector`; the basis update (`add_adjusted`) and the
term-to-column map (`term_column`) are the package's.

The bookkeeping they use is kept here too, as it was before the package
moved to one columnar event log charged in runs: a `WealthLedger` that
charges one test per `spend` call and appends a `LedgerEvent` for each,
a `SelectionTrace` that stores one `TestRecord` per test, the
`FeatureStream` queue and the test-by-test `skip_passes`.  So the
package's ledger is checked against an account it does not share.
Test-only: nothing in `rai` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rai.engine import (HALTED_WEALTH, NOT_REJECTED, REJECTED,
                        REMOVED_COLLINEAR, TERMINATED_PASSES,
                        TERMINATED_STREAM, TERMINATED_WEALTH, RaiConfig)
from rai.errors import RaiError, SingularStep
from rai.kernel import COLLINEARITY_TOL, T_STAT_MAX, Dataset, ModelState
from rai.terms import FeatureTerm, generate_candidates, term_column
from rai.wealth import (DEFAULT_INITIAL_WEALTH, DEFAULT_PAYOUT,
                        pass_parameters)

from reference_kernel import adjusted


class InsufficientWealth(RaiError):
    """A spend was requested that exceeds the current wealth."""


@dataclass(frozen=True)
class LedgerEvent:
    test_id: object
    pass_index: int
    alpha: float
    rejected: bool


class WealthLedger:
    """Mutable spend/earn account for one selection run."""

    def __init__(self, initial_wealth: float = DEFAULT_INITIAL_WEALTH,
                 payout: float = DEFAULT_PAYOUT):
        # NaN fails these checks; a NaN account would never refuse an
        # overdraft
        if not 0 < initial_wealth < math.inf:
            raise ValueError("initial wealth must be positive and finite")
        if not 0 <= payout < math.inf:
            raise ValueError("payout must be non-negative and finite")
        self.initial_wealth = initial_wealth
        self.payout = payout
        self.wealth = initial_wealth
        self._events: list[LedgerEvent] = []
        self.rejections = 0

    @property
    def events(self) -> tuple[LedgerEvent, ...]:
        return tuple(self._events)

    def spend(self, alpha: float, test_id, pass_index: int) -> None:
        """Charge one test.  Requires wealth >= alpha (no overdraft)."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if self.wealth < alpha:
            raise InsufficientWealth(
                f"wealth {self.wealth} cannot cover alpha {alpha}")
        self.wealth -= alpha
        self._events.append(LedgerEvent(test_id, pass_index, alpha, False))

    def earn(self, test_id) -> None:
        """Credit the payout for rejecting the most recent test."""
        if not self._events:
            raise ValueError("earn before any spend")
        last = self._events[-1]
        if last.test_id != test_id or last.rejected:
            raise ValueError("payout must follow its own spend immediately")
        self._events[-1] = LedgerEvent(last.test_id, last.pass_index,
                                       last.alpha, True)
        self.wealth += self.payout
        self.rejections += 1

    def total_spent(self) -> float:
        return math.fsum(e.alpha for e in self._events)

    def replay(self) -> float:
        """Recompute wealth from the event log alone.

        Walks events in order with the same arithmetic as the live
        account, so the result is bitwise equal to `wealth`.
        """
        w = self.initial_wealth
        for event in self._events:
            w -= event.alpha
            if event.rejected:
                w += self.payout
        return w


@dataclass(frozen=True)
class TestRecord:
    pass_index: int
    term: FeatureTerm
    t_abs: float | None
    tlvl: float
    alpha: float
    wealth_before: float
    wealth_after: float
    decision: str


@dataclass
class SelectionTrace:
    tests: list[TestRecord] = field(default_factory=list)
    skips: list[dict] = field(default_factory=list)
    termination: str = ""
    passes_traversed: int = 0
    ledger: WealthLedger | None = None

    def first_rejection_pass(self) -> int | None:
        for rec in self.tests:
            if rec.decision == REJECTED:
                return rec.pass_index
        return None

    def n_rejections(self) -> int:
        return sum(1 for rec in self.tests if rec.decision == REJECTED)


class FeatureStream:
    """Ordered candidate queue with a permanent no-repeat memory."""

    def __init__(self, initial_terms=()):
        self.queue: list[FeatureTerm] = []
        self.seen: set = set()
        for t in initial_terms:
            self.append(t)

    def append(self, term: FeatureTerm) -> bool:
        if term.powers in self.seen:
            return False
        self.seen.add(term.powers)
        self.queue.append(term)
        return True

    def remove_at(self, i: int) -> FeatureTerm:
        return self.queue.pop(i)

    def __len__(self) -> int:
        return len(self.queue)


def skip_passes(known_t, ledger: WealthLedger, s: int, n: int,
                max_passes: int) -> tuple[int, bool, float]:
    """Jump past passes no known |t| can clear, paying for each skipped test.

    `known_t` maps every remaining candidate to its |t| in stream order.
    Returns (next pass, halted, alpha charged); `halted` means wealth
    died mid-charge at the returned pass.  When every |t| is zero no
    threshold is ever cleared, so every pass up to max_passes is
    charged and the next pass is max_passes + 1.
    """
    best = max(known_t.values(), default=0.0)
    if best == 0.0:
        s_prime = max_passes + 1
    else:
        # the first pass after s whose threshold best strictly clears
        s_prime = s + 1
        while math.sqrt(n) * 2.0 ** (-s_prime / 2.0) >= best:
            s_prime += 1
    charged = 0.0
    for u in range(s + 1, min(s_prime, max_passes + 1)):
        _, alpha_u = pass_parameters(n, u)
        # charge in stream order so a literal run replays bit for bit
        for term in known_t:
            if ledger.wealth < alpha_u:
                return u, True, charged
            ledger.spend(alpha_u, term.powers, u)
            charged += alpha_u
    return s_prime, False, charged


_UNRESOLVED = object()


def test_candidate(state: ModelState, ledger: WealthLedger,
                   term: FeatureTerm, tlvl: float, alpha: float,
                   pass_index: int = 0, column=_UNRESOLVED):
    """Run one candidate through the gate-spend-compare sequence.

    Returns (decision, state, |t| or None).  The spend always precedes
    the threshold comparison; a candidate is only attempted when wealth
    covers its alpha, a collinear or constant candidate is dropped
    without spending, and the threshold itself is strict.
    A column that is not finite, as a constant monomial realizes to,
    is dropped the same way.
    """
    if ledger.wealth < alpha:
        return HALTED_WEALTH, state, None
    if column is _UNRESOLVED:
        column = term_column(state.dataset, term)
    if not np.isfinite(column).all():
        return REMOVED_COLLINEAR, state, None
    adj = adjusted(state.basis, column)
    nrm = float(np.linalg.norm(adj))
    if nrm <= COLLINEARITY_TOL:
        return REMOVED_COLLINEAR, state, None
    ledger.spend(alpha, term.powers, pass_index)
    rnorm = float(np.linalg.norm(state.residual))
    if rnorm < 1e-15:
        rho = 0.0
    else:
        rho = float(np.dot(state.residual, adj) / (rnorm * nrm))
        rho = min(1.0, max(-1.0, rho))
    if abs(rho) >= 1.0:
        t = math.copysign(T_STAT_MAX, rho)
    else:
        t = rho * math.sqrt(state.df) / math.sqrt(1.0 - rho * rho)
    if abs(t) > tlvl:
        ledger.earn(term.powers)
        return REJECTED, state.add_adjusted(adj, term), abs(t)
    return NOT_REJECTED, state, abs(t)


# keep pytest from collecting the gate function as a test
test_candidate.__test__ = False


def run_rai(dataset: Dataset, config: RaiConfig | None = None,
            generator=None) -> tuple[ModelState, SelectionTrace]:
    """Run the full multi-pass selection over the dataset's columns.

    `generator(selected_terms, newly_added)` is consulted after every
    rejection and may return extra candidate terms; passing
    config.interactions=True installs the product generator.  Returns
    the final model state (selected entries are FeatureTerms) and the
    full trace.
    """
    if config is None:
        config = RaiConfig()
    n = dataset.n
    max_passes = config.resolve_max_passes(n)
    ledger = WealthLedger(config.initial_wealth, config.payout)
    trace = SelectionTrace(ledger=ledger)
    stream = FeatureStream(FeatureTerm.marginal(j) for j in range(dataset.p))
    state = ModelState.empty(dataset)
    if generator is None and config.interactions:
        def generator(selected, newly_added):
            return generate_candidates(
                selected, newly_added,
                max_order=config.max_interaction_order)

    columns: dict = {}

    def column_for(term: FeatureTerm):
        if term.powers not in columns:
            columns[term.powers] = term_column(dataset, term)
        return columns[term.powers]

    termination = None
    s = 1
    while s <= max_passes:
        trace.passes_traversed = max(trace.passes_traversed, s)
        tlvl, alpha = pass_parameters(n, s)
        known_t: dict[FeatureTerm, float] = {}
        rejected_any = False
        i = 0
        while i < len(stream):
            if state.df < 1:
                # saturated model: nothing further is testable
                termination = TERMINATED_STREAM
                break
            term = stream.queue[i]
            before = ledger.wealth
            decision, state, t_abs = test_candidate(
                state, ledger, term, tlvl, alpha, pass_index=s,
                column=column_for(term))
            trace.tests.append(TestRecord(
                s, term, t_abs, tlvl, alpha, before, ledger.wealth, decision))
            if decision == HALTED_WEALTH:
                termination = TERMINATED_WEALTH
                break
            if decision == REMOVED_COLLINEAR:
                stream.remove_at(i)
                continue
            if decision == REJECTED:
                stream.remove_at(i)
                rejected_any = True
                if generator is not None:
                    for cand in generator(state.selected, term):
                        stream.append(cand)
                continue
            known_t[term] = t_abs
            i += 1
        if termination is not None:
            break
        if not len(stream):
            termination = TERMINATED_STREAM
            break
        if not rejected_any and config.skip_passes and s < max_passes:
            before = ledger.wealth
            s_next, halted, charged = skip_passes(
                known_t, ledger, s, n, max_passes)
            if halted or s_next > s + 1:
                trace.skips.append({
                    "from_pass": s, "to_pass": s_next,
                    "n_candidates": len(known_t), "alpha_charged": charged,
                    "wealth_before": before, "wealth_after": ledger.wealth,
                    "halted": halted})
            if halted:
                trace.passes_traversed = max(trace.passes_traversed, s_next)
                termination = TERMINATED_WEALTH
                break
            trace.passes_traversed = max(
                trace.passes_traversed, min(s_next - 1, max_passes))
            s = s_next
        else:
            s += 1
    if termination is None:
        termination = TERMINATED_PASSES
    trace.termination = termination
    return state, trace


def aic(state: ModelState) -> float:
    """n * ln(ESS/n) + 2 * (|S| + 1) of a path state, with ESS = 1 - R^2
    as the state holds it; -inf for a perfect fit.

    The R^2 is the one the path itself accumulated, not a fresh QR of
    the prefix: on a noiseless p > n design whose generating columns
    are picked first, that prefix's R^2 rounds to exactly 1, so the
    path stops there.  A QR of the same prefix may fall short of 1 by
    rounding and let columns that only fit rounding error in.
    """
    ess = 1.0 - state.r_squared
    if ess <= 0.0:
        return float("-inf")
    n = state.dataset.n
    return n * math.log(ess / n) + 2.0 * (state.size + 1)


def forward_stepwise(dataset: Dataset, k: int | None = None) -> ModelState:
    """Greedy forward selection by exact R^2 gain.

    With `k` the path stops at that size.  With k=None the path grows
    until no column is addable and the state of the prefix minimizing
    AIC (the shortest on ties) is returned.  Gain ties break toward the
    lowest column index.  Once the residual norm falls below 1e-15 (the
    cut ModelState.score uses), no column has a gain above rounding
    error, so each step takes the lowest-index addable column.
    """
    if k is not None and not 0 <= k <= dataset.p:
        raise ValueError(f"k must lie in [0, {dataset.p}]")
    states = [ModelState.empty(dataset)]
    limit = dataset.p if k is None else k
    while len(states) - 1 < limit:
        state = states[-1]
        exhausted = float(np.linalg.norm(state.residual)) < 1e-15
        best_j, best_gain, best_adj = -1, -np.inf, None
        for j in range(dataset.p):
            if j in state.selected:
                continue
            adj = adjusted(state.basis, dataset.columns[:, j])
            nrm = float(np.linalg.norm(adj))
            if nrm <= COLLINEARITY_TOL:
                continue
            if exhausted:
                # no gain left: the lowest addable column
                best_j, best_adj = j, adj
                break
            g = float(np.dot(state.residual, adj) / nrm) ** 2
            if g > best_gain:
                best_j, best_gain, best_adj = j, g, adj
        if best_j < 0:
            if k is not None:
                raise SingularStep(
                    f"no addable column at step {len(states)}")
            break
        states.append(state.add_adjusted(best_adj, best_j))
    if k is not None:
        return states[-1]
    return states[int(np.argmin([aic(state) for state in states]))]
