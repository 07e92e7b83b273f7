"""The scalar selection engine, kept as a reference for differential tests.

`run_rai`, `test_candidate` and `forward_stepwise` below are the
one-candidate-at-a-time implementations the batched engine replaced:
every test runs a full modified Gram-Schmidt pass over the basis, and
forward stepwise scores every column that way at every step.  They are
slow but obviously faithful to the selection rules, so the package's
engine must reproduce their selections, decisions, ledgers, skips and
residuals exactly.  Test-only: nothing in `rai` imports this module.
"""

from __future__ import annotations

import numpy as np

from rai.engine import (HALTED_WEALTH, NOT_REJECTED, REJECTED,
                        REMOVED_COLLINEAR, TERMINATED_PASSES,
                        TERMINATED_STREAM, TERMINATED_WEALTH, FeatureStream,
                        RaiConfig, SelectionTrace, SkipRecord, TestRecord,
                        skip_passes)
from rai.errors import ConstantInteraction, NoFinitePass, SingularStep
from rai.kernel import COLLINEARITY_TOL, Dataset, ModelState, _t_from_rho
from rai.oracles import aic
from rai.terms import FeatureTerm, generate_candidates, term_column
from rai.wealth import WealthLedger, pass_parameters

_UNRESOLVED = object()


def test_candidate(state: ModelState, ledger: WealthLedger,
                   term: FeatureTerm, tlvl: float, alpha: float,
                   pass_index: int = 0, column=_UNRESOLVED,
                   collinearity_tol: float = COLLINEARITY_TOL):
    """Run one candidate through the gate-spend-compare sequence.

    Returns (decision, state, |t| or None).  The spend always precedes
    the threshold comparison; a candidate is only attempted when wealth
    covers its alpha, a collinear or constant candidate is dropped
    without spending, and the threshold itself is strict.
    `column=None` marks a term whose realized column is constant.
    """
    if ledger.wealth < alpha:
        return HALTED_WEALTH, state, None
    if column is _UNRESOLVED:
        try:
            column = term_column(state.dataset, term)
        except ConstantInteraction:
            column = None
    if column is None:
        return REMOVED_COLLINEAR, state, None
    adj = state.adjusted_vector(column)
    nrm = float(np.linalg.norm(adj))
    if nrm <= collinearity_tol:
        return REMOVED_COLLINEAR, state, None
    ledger.spend(alpha, term.key, pass_index)
    rnorm = float(np.linalg.norm(state.residual))
    if rnorm < 1e-15:
        rho = 0.0
    else:
        rho = float(np.dot(state.residual, adj) / (rnorm * nrm))
        rho = min(1.0, max(-1.0, rho))
    t = _t_from_rho(rho, state.df)
    if abs(t) > tlvl:
        ledger.earn(term.key)
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
        if term.key not in columns:
            try:
                columns[term.key] = term_column(dataset, term)
            except ConstantInteraction:
                columns[term.key] = None
        return columns[term.key]

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
                column=column_for(term),
                collinearity_tol=config.collinearity_tol)
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


def forward_stepwise(dataset: Dataset, k: int | None = None,
                     tol: float = COLLINEARITY_TOL) -> list[int]:
    """Greedy forward selection by exact R^2 gain.

    With `k` the path stops at that size.  With k=None the path grows
    until no column is addable and the prefix minimizing AIC is
    returned.  Gain ties break toward the lowest column index.
    """
    if k is not None and not 0 <= k <= dataset.p:
        raise ValueError(f"k must lie in [0, {dataset.p}]")
    state = ModelState.empty(dataset)
    path: list[int] = []
    limit = dataset.p if k is None else k
    while len(path) < limit:
        best_j, best_gain, best_adj = -1, -np.inf, None
        for j in range(dataset.p):
            if j in path:
                continue
            adj = state.adjusted_vector(dataset.columns[:, j])
            nrm = float(np.linalg.norm(adj))
            if nrm <= tol:
                continue
            g = float(np.dot(state.residual, adj) / nrm) ** 2
            if g > best_gain:
                best_j, best_gain, best_adj = j, g, adj
        if best_j < 0:
            if k is not None:
                raise SingularStep(
                    f"no addable column at step {len(path) + 1}")
            break
        state = state.add_adjusted(best_adj, best_j)
        path.append(best_j)
    if k is not None:
        return path
    aics = [aic(dataset, path[:m]) for m in range(len(path) + 1)]
    return path[:int(np.argmin(aics))]
