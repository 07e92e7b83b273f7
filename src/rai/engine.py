"""Multi-pass thresholded selection with alpha-investing.

The engine streams candidate terms repeatedly.  Pass s tests every
remaining candidate against the threshold tlvl = sqrt(n) * 2**(-s/2),
spending that pass's alpha from the wealth ledger before each compare.
A cleared threshold adds the term to the model, earns the payout,
refreshes the residual, and (with interactions on) appends products of
the new term with the model to the tail of the stream, where they are
reachable within the same pass.

A pass that rejects nothing leaves every remaining |t| unchanged, so
the engine can jump straight to the first future pass whose threshold
some candidate clears, as long as it pays for every test it skips over.
The jump charges the ledger candidate by candidate in stream order so
that a skipping run and a literal pass-by-pass run hold identical
wealth at every point.

Runs end when a candidate cannot be paid for, when the pass budget is
exhausted, or when the stream runs dry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstantInteraction, NoFinitePass
from .kernel import (COLLINEARITY_TOL, SCREEN_MARGIN, Dataset, ModelState,
                     Screen)
from .terms import (FeatureTerm, generate_candidates, realize_with_stats,
                    term_column)
from .wealth import (DEFAULT_INITIAL_WEALTH, DEFAULT_PAYOUT, WealthLedger,
                     pass_parameters)

REJECTED = "rejected"
NOT_REJECTED = "not_rejected"
REMOVED_COLLINEAR = "removed_collinear"
HALTED_WEALTH = "halted_wealth"

TERMINATED_WEALTH = "wealth_exhausted"
TERMINATED_PASSES = "max_passes"
TERMINATED_STREAM = "stream_exhausted"

_UNRESOLVED = object()
_PENDING = object()     # a queued term whose column is not realized yet


@dataclass(frozen=True)
class RaiConfig:
    """Knobs for one selection run.

    max_passes of None resolves to ceil(log2(n)) + 2 at run time.  The
    engine draws no random numbers, so a run needs no seed.
    """

    initial_wealth: float = DEFAULT_INITIAL_WEALTH
    payout: float = DEFAULT_PAYOUT
    max_passes: int | None = None
    collinearity_tol: float = COLLINEARITY_TOL
    interactions: bool = False
    max_interaction_order: int | None = None
    skip_passes: bool = True

    def resolve_max_passes(self, n: int) -> int:
        if self.max_passes is not None:
            if self.max_passes < 1:
                raise ValueError("max_passes must be positive")
            return self.max_passes
        return math.ceil(math.log2(n)) + 2


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


@dataclass(frozen=True)
class SkipRecord:
    from_pass: int
    to_pass: int
    n_candidates: int
    alpha_charged: float
    wealth_before: float
    wealth_after: float
    halted: bool


@dataclass
class SelectionTrace:
    tests: list[TestRecord] = field(default_factory=list)
    skips: list[SkipRecord] = field(default_factory=list)
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
        if term.key in self.seen:
            return False
        self.seen.add(term.key)
        self.queue.append(term)
        return True

    def remove_at(self, i: int) -> FeatureTerm:
        return self.queue.pop(i)

    def __len__(self) -> int:
        return len(self.queue)


def test_candidate(state: ModelState, ledger: WealthLedger,
                   term: FeatureTerm, tlvl: float, alpha: float,
                   pass_index: int = 0, column=_UNRESOLVED,
                   collinearity_tol: float = COLLINEARITY_TOL):
    """Run one candidate through the gate-spend-compare sequence.

    Returns (decision, state, |t| or None).  The spend always precedes
    the threshold comparison; a candidate is only attempted when wealth
    covers its alpha, a collinear or constant candidate is dropped
    without spending, and the threshold itself is strict.
    `column=None` marks a term whose realized column is constant; a
    column holding NaN or inf is dropped the same way.
    """
    if ledger.wealth < alpha:
        return HALTED_WEALTH, state, None
    if column is _UNRESOLVED:
        try:
            column = term_column(state.dataset, term)
        except ConstantInteraction:
            column = None
    if column is None or not np.isfinite(column).all():
        return REMOVED_COLLINEAR, state, None
    adj = state.adjusted_vector(column)
    nrm = float(np.linalg.norm(adj))
    if nrm <= collinearity_tol:
        return REMOVED_COLLINEAR, state, None
    ledger.spend(alpha, term.key, pass_index)
    _, t = state.score_adjusted(adj, nrm)
    if abs(t) > tlvl:
        ledger.earn(term.key)
        return REJECTED, state.add_adjusted(adj, term), abs(t)
    return NOT_REJECTED, state, abs(t)


# keep pytest from collecting the public gate function as a test
test_candidate.__test__ = False


def skip_passes(known_t, ledger: WealthLedger, s: int, n: int,
                max_passes: int) -> tuple[int, bool, float]:
    """Jump past passes no known |t| can clear, paying for each skipped test.

    `known_t` maps every remaining candidate to its |t| in stream order.
    Returns (next pass, halted, alpha charged); `halted` means wealth
    died mid-charge at the returned pass.  Raises NoFinitePass when all
    |t| are zero, since no finite threshold is ever cleared.
    """
    if not known_t:
        raise NoFinitePass("no candidates left")
    best = max(known_t.values())
    if best <= 0.0:
        raise NoFinitePass("every remaining |t| is zero")
    root_n = math.sqrt(n)
    target = math.floor(2.0 * math.log2(root_n / best)) + 1
    s_prime = max(s + 1, target)
    while root_n * 2.0 ** (-s_prime / 2.0) >= best:
        s_prime += 1
    charged = 0.0
    for u in range(s + 1, min(s_prime, max_passes + 1)):
        _, alpha_u = pass_parameters(n, u)
        # charge in stream order so a literal run replays bit for bit
        for term in known_t:
            if ledger.wealth < alpha_u:
                return u, True, charged
            ledger.spend(alpha_u, term.key, u)
            charged += alpha_u
    return s_prime, False, charged


def _rescore_top(known_t: dict, slots: list, screened: list, low: list,
                 high: list, state: ModelState, screen: Screen) -> None:
    """Make the largest |t| in known_t exact.

    `slots` holds the screen slot of each known_t entry, in order, and
    `screened[slot]` says whether its |t| came from the screen, with
    bounds low[slot] and high[slot].  skip_passes reads only the largest
    |t|, so exact scores for every screened entry whose bounds reach the
    largest lower bound make the jump exact.  A high bound of 0 is
    already exact.
    """
    floor = max((low[slot] if screened[slot] else t)
                for t, slot in zip(known_t.values(), slots))
    for (term, t), slot in zip(list(known_t.items()), slots):
        if screened[slot] and high[slot] >= floor and high[slot] > 0.0:
            known_t[term] = abs(state.score_vector(screen.column(slot))[2])


def run_rai(dataset: Dataset,
            config: RaiConfig | None = None) -> tuple[ModelState, SelectionTrace]:
    """Run the full multi-pass selection over the dataset's columns.

    With config.interactions set, every rejection appends the products
    of the new term with the model (`generate_candidates`) to the
    stream.  Returns the final model state (selected entries are
    FeatureTerms) and the full trace.

    Each pass is screened in bulk: a Screen scores every remaining
    candidate from cached inner products, and candidates it places
    safely below the threshold are charged and recorded as not
    rejected without further arithmetic.  Every other candidate (near
    or above the threshold, nearly collinear, constant or non-finite)
    goes through `test_candidate`, so each decision, basis vector and
    residual comes from the exact scalar path.
    """
    if config is None:
        config = RaiConfig()
    n = dataset.n
    max_passes = config.resolve_max_passes(n)
    tol = config.collinearity_tol
    ledger = WealthLedger(config.initial_wealth, config.payout)
    trace = SelectionTrace(ledger=ledger)
    stream = FeatureStream(FeatureTerm.marginal(j) for j in range(dataset.p))
    queue = stream.queue
    state = ModelState.empty(dataset)
    screen = Screen(dataset)
    # screen slot of each queued term; None marks a constant column
    slots: list = list(range(dataset.p))

    def realized(term: FeatureTerm):
        try:
            return term_column(dataset, term)
        except ConstantInteraction:
            return None

    termination = None
    s = 1
    while s <= max_passes:
        trace.passes_traversed = max(trace.passes_traversed, s)
        tlvl, alpha = pass_parameters(n, s)
        known_t: dict[FeatureTerm, float] = {}
        rejected_any = False
        safe = None
        i = 0
        while i < len(queue):
            if slots[i] is _PENDING:
                # terms appended since the last realization fill the tail;
                # realize only as many as the wealth pays tests for, so a
                # run that halts never realizes the rest
                count = min(len(queue) - i, int(ledger.wealth / alpha) + 1)
                slots[i:i + count] = screen.add_columns(
                    (realized(term) for term in queue[i:i + count]), count)
                safe = None
            if safe is None:
                # scores change only when the model grows
                if state.df < 1:
                    # saturated model: nothing further is testable
                    termination = TERMINATED_STREAM
                    break
                t_all, t_low, t_high = screen.t_abs(state.df, tol)
                safe = (t_high <= tlvl * (1.0 - SCREEN_MARGIN)).tolist()
                t_all, t_low, t_high = (
                    t_all.tolist(), t_low.tolist(), t_high.tolist())
            term = queue[i]
            slot = slots[i]
            before = ledger.wealth
            if slot is not None and safe[slot] and before >= alpha:
                ledger.spend(alpha, term.key, s)
                decision, t_abs = NOT_REJECTED, t_all[slot]
            else:
                decision, state, t_abs = test_candidate(
                    state, ledger, term, tlvl, alpha, pass_index=s,
                    column=None if slot is None else screen.column(slot),
                    collinearity_tol=tol)
            trace.tests.append(TestRecord(
                s, term, t_abs, tlvl, alpha, before, ledger.wealth, decision))
            if decision == HALTED_WEALTH:
                termination = TERMINATED_WEALTH
                break
            if decision == REMOVED_COLLINEAR:
                stream.remove_at(i)
                del slots[i]
                continue
            if decision == REJECTED:
                stream.remove_at(i)
                del slots[i]
                rejected_any = True
                screen.sync(state)
                if config.interactions:
                    for cand in generate_candidates(
                            state.selected, term,
                            max_order=config.max_interaction_order):
                        if stream.append(cand):
                            slots.append(_PENDING)
                safe = None
                continue
            known_t[term] = t_abs
            i += 1
        if termination is not None:
            break
        if not len(stream):
            termination = TERMINATED_STREAM
            break
        if not rejected_any and config.skip_passes and s < max_passes:
            if known_t:
                # known_t holds the whole queue in order, and no rejection
                # has changed the scores since `safe` was computed
                _rescore_top(known_t, slots, safe, t_low, t_high, state,
                             screen)
            before = ledger.wealth
            try:
                s_next, halted, charged = skip_passes(
                    known_t, ledger, s, n, max_passes)
            except NoFinitePass:
                termination = TERMINATED_STREAM
                break
            if halted or s_next > s + 1:
                trace.skips.append(SkipRecord(
                    s, s_next, len(known_t), charged, before, ledger.wealth,
                    halted))
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


def fit_terms(dataset: Dataset,
              terms) -> tuple[np.ndarray, float]:
    """Least-squares fit of the response on arbitrary terms.

    Returns (slopes, intercept) on the original data scale, with slopes
    aligned to `terms`.  Used to report a selected model in units the
    caller supplied, including interaction terms.
    """
    terms = list(terms)
    if not terms:
        return np.zeros(0), dataset.response_mean
    cols, means, scales = [], [], []
    for term in terms:
        if term.order == 1:
            j = term.powers[0][0]
            cols.append(dataset.columns[:, j])
            means.append(dataset.raw_means[j])
            scales.append(dataset.raw_scales[j])
        else:
            col, mean, scale = realize_with_stats(term, dataset.raw)
            cols.append(col)
            means.append(mean)
            scales.append(scale)
    M = np.column_stack(cols)
    b, *_ = np.linalg.lstsq(M, dataset.response, rcond=None)
    slopes = dataset.response_scale * b / np.asarray(scales)
    intercept = dataset.response_mean - float(
        np.dot(slopes, np.asarray(means)))
    return slopes, intercept
