"""Multi-pass thresholded selection with alpha-investing.

The engine streams candidate terms repeatedly.  Pass s tests every
remaining candidate against the threshold tlvl = sqrt(n) * 2**(-s/2),
spending that pass's alpha from the wealth ledger before each compare.
A cleared threshold adds the term to the model, earns the payout,
refreshes the residual, and (with interactions on) appends products of
the new term with the model to the tail of the stream, where they are
reachable within the same pass.

A pass that rejects nothing leaves every remaining |t| unchanged, so
the engine can jump to the first later pass that some candidate clears,
or past the last pass if none can, paying for every test it skips over.
The jump charges the ledger for every candidate in stream order, one
run per skipped pass, so that a skipping run and a literal pass-by-pass
run hold identical wealth at every point.

Runs end when a candidate cannot be paid for, when the pass budget is
exhausted, or when the stream runs dry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import Dataset, ModelState, Screen
from .terms import FeatureTerm, generate_candidates, realize, term_column
from .wealth import (DEFAULT_INITIAL_WEALTH, DEFAULT_PAYOUT, HALTED_WEALTH,
                     NOT_REJECTED, REJECTED, REMOVED_COLLINEAR, SKIPPED,
                     WealthLedger, check_account, pass_parameters, running)

TERMINATED_WEALTH = "wealth_exhausted"
TERMINATED_PASSES = "max_passes"
TERMINATED_STREAM = "stream_exhausted"

@dataclass(frozen=True)
class RaiConfig:
    """Knobs for one selection run.

    max_passes of None resolves to ceil(log2(n)) + 2 at run time.  The
    engine draws no random numbers, so a run needs no seed.  A
    max_interaction_order of None puts no cap on the order.
    """

    initial_wealth: float = DEFAULT_INITIAL_WEALTH
    payout: float = DEFAULT_PAYOUT
    max_passes: int | None = None
    interactions: bool = False
    max_interaction_order: int | None = None
    skip_passes: bool = True

    def __post_init__(self):
        check_account(self.initial_wealth, self.payout)
        if self.max_passes is not None and self.max_passes < 1:
            raise ValueError("max_passes (--max-passes) must be at least 1, "
                             f"got {self.max_passes}")
        # an order that admits no product would be ignored without a word
        order = self.max_interaction_order
        if order is not None and not self.interactions:
            raise ValueError("max_interaction_order (--max-order) needs "
                             "interactions (--interactions)")
        if order is not None and not order >= 2:
            raise ValueError("max_interaction_order (--max-order) must be "
                             f"None or at least 2, got {order}")

    def resolve_max_passes(self, n: int) -> int:
        if self.max_passes is not None:
            return self.max_passes
        return math.ceil(math.log2(n)) + 2


@dataclass
class SelectionTrace:
    """What a run did: its ledger's event log, the pass skips and how
    the run ended.  Each skip is a dict keyed as its trace record.  `n`
    is the number of observations, which fixes each pass's threshold."""

    ledger: WealthLedger
    n: int
    skips: list[dict] = field(default_factory=list)
    termination: str = ""
    passes_traversed: int = 0

    def records(self, names=None):
        """The `--trace` file's records as dicts, in file order: one per
        test (skip charges are left out), one per skip, then the end.
        Terms are labelled with `names`, as `FeatureTerm.display`."""
        payout = self.ledger.payout
        for run in self.ledger.runs:
            if run.decision == SKIPPED:
                continue
            tlvl = pass_parameters(self.n, run.pass_index)[0]
            for term, t, before, after in zip(
                    run.ids, run.t_abs.tolist(), run.before.tolist(),
                    run.after(payout).tolist()):
                # NaN marks a test with no |t|
                yield {"kind": "test", "pass": run.pass_index,
                       "term": term.display(names),
                       "t_abs": None if t != t else t,
                       "tlvl": tlvl, "alpha": run.alpha,
                       "wealth_before": before, "wealth_after": after,
                       "decision": run.decision}
        for rec in self.skips:
            yield {"kind": "skip", **rec}
        yield {"kind": "end", "termination": self.termination,
               "passes": self.passes_traversed}

    def n_tests(self) -> int:
        return sum(len(run.ids) for run in self.ledger.runs
                   if run.decision != SKIPPED)

    def first_rejection_pass(self) -> int | None:
        return next((run.pass_index for run in self.ledger.runs
                     if run.decision == REJECTED), None)


def test_candidate(state: ModelState, ledger: WealthLedger,
                   term: FeatureTerm, tlvl: float, alpha: float,
                   pass_index: int, *, column):
    """Run one candidate through the gate-spend-compare sequence.

    Returns (decision, state, |t| or None).  The spend always precedes
    the threshold comparison; a candidate is only attempted when wealth
    covers its alpha, a collinear or constant candidate is dropped
    without spending, and the threshold itself is strict.
    `column` is the term's column; one `ModelState.score` finds
    untestable, as a constant or overflowing monomial realizes to, is
    dropped the same way.  Every outcome is logged in the ledger; the
    charge is a run of one test.
    """
    if ledger.wealth < alpha:
        ledger.note(term, pass_index, alpha, HALTED_WEALTH)
        return HALTED_WEALTH, state, None
    if (scored := state.score(column)) is None:
        ledger.note(term, pass_index, alpha, REMOVED_COLLINEAR)
        return REMOVED_COLLINEAR, state, None
    t_abs = abs(scored[3])
    ledger.spend(alpha, [term], pass_index, [t_abs])
    if t_abs > tlvl:
        ledger.earn(term)
        return REJECTED, state.add_adjusted(scored[0], term), t_abs
    return NOT_REJECTED, state, t_abs


# keep pytest from collecting the public gate function as a test
test_candidate.__test__ = False


def skip_passes(terms, best: float, ledger: WealthLedger, s: int, n: int,
                max_passes: int) -> tuple[int, bool, float]:
    """Jump past passes no known |t| can clear, paying for each skipped test.

    `terms` is every remaining candidate in stream order and `best`
    the largest of their |t|.  Returns (next pass, halted, alpha
    charged); `halted` means wealth died mid-charge at the returned
    pass.  A `best` of 0.0 clears no threshold, so every pass up to
    max_passes is charged, as the literal schedule would test them,
    and the next pass is max_passes + 1.
    """
    if best == 0.0:
        s_prime = max_passes + 1
    else:
        s_prime = s + 1
        while pass_parameters(n, s_prime)[0] >= best:
            s_prime += 1
    charged = 0.0
    for u in range(s + 1, min(s_prime, max_passes + 1)):
        _, alpha_u = pass_parameters(n, u)
        # charge in stream order so a literal run replays bit for bit
        paid = ledger.spend(alpha_u, terms, u, decision=SKIPPED)
        charged = float(running(charged, alpha_u, paid, np.add)[-1])
        if paid < len(terms):
            return u, True, charged
    return s_prime, False, charged


def run_rai(dataset: Dataset,
            config: RaiConfig | None = None) -> tuple[ModelState, SelectionTrace]:
    """Run the full multi-pass selection over the dataset's columns.

    With config.interactions set, every rejection appends the products
    of the new term with the model (`generate_candidates`) to the
    stream.  Returns the final model state (selected entries are
    FeatureTerms) and the full trace.

    A pass is one repeated step: settle, spend, exact test.  The
    Screen settles the stretch of candidates from the current one up to
    the first whose screened |t| is not safely below the threshold; the
    stretch is charged and logged as not rejected in one ledger call.
    That first open candidate goes through `test_candidate` with its
    `term_column`, so each decision, basis vector and residual comes
    from the exact scalar path.
    """
    if config is None:
        config = RaiConfig()
    if config.interactions and dataset.raw is None:
        raise ValueError("interactions need the raw columns, and the "
                         "dataset keeps none")
    n = dataset.n
    max_passes = config.resolve_max_passes(n)
    ledger = WealthLedger(config.initial_wealth, config.payout)
    trace = SelectionTrace(ledger, n)
    queue = [FeatureTerm.marginal(j) for j in range(dataset.p)]
    # every product ever queued; products have order >= 2, so no
    # marginal can repeat
    seen: set[FeatureTerm] = set()
    state = ModelState.empty(dataset)
    screen = Screen(dataset)
    # screen slot of each term of the realized prefix queue[:len(slots)]
    slots = np.arange(dataset.p)

    termination = None
    s = 1
    while s <= max_passes:
        tlvl, alpha = pass_parameters(n, s)
        rejected_any = False
        i = 0
        while i < len(queue):
            if i == len(slots):
                # terms appended since the last realization fill the tail;
                # realize only the terms the wealth pays tests for (the
                # ratio may be inf), so a run that halts realizes no more
                count = int(min(ledger.wealth / alpha, len(queue))) + 1
                block, _, _ = realize(queue[i:i + count], dataset.raw)
                slots = np.append(slots, screen.add_columns(block))
            if state.df < 1:
                # saturated model: nothing further is testable
                termination = TERMINATED_STREAM
                break
            # charge the stretch the screen settles below the threshold
            t = screen.settled(state, slots[i:], tlvl)
            if len(t):
                i += ledger.spend(alpha, queue[i:i + len(t)], s, t)
                if i == len(slots):
                    continue
            # the first open candidate, or one the wealth cannot pay for
            term = queue[i]
            decision, state, _ = test_candidate(
                state, ledger, term, tlvl, alpha, pass_index=s,
                column=term_column(dataset, term))
            if decision == HALTED_WEALTH:
                termination = TERMINATED_WEALTH
                break
            if decision == NOT_REJECTED:
                i += 1
                continue
            del queue[i]
            slots = np.delete(slots, i)
            if decision == REJECTED:
                rejected_any = True
                if config.interactions:
                    added = generate_candidates(
                        state.selected, term,
                        max_order=config.max_interaction_order, seen=seen)
                    seen.update(added)
                    queue += added
        if termination is not None:
            break
        if not queue:
            termination = TERMINATED_STREAM
            break
        if not rejected_any and config.skip_passes and s < max_passes:
            # the largest exact |t| left, scored only where it can be; each
            # candidate left was tested or settled at this state, so testable
            best = max((abs(state.score(term_column(dataset, queue[k]))[3])
                        for k in screen.contenders(state, slots).tolist()),
                       default=0.0)
            before = ledger.wealth
            s_next, halted, charged = skip_passes(
                queue, best, ledger, s, n, max_passes)
            if halted or s_next > s + 1:
                trace.skips.append({
                    "from_pass": s, "to_pass": s_next,
                    "n_candidates": len(queue), "alpha_charged": charged,
                    "wealth_before": before, "wealth_after": ledger.wealth,
                    "halted": halted})
            s = s_next
            if halted:
                termination = TERMINATED_WEALTH
                break
        else:
            s += 1
    trace.passes_traversed = min(s, max_passes)
    if termination is None:
        termination = TERMINATED_PASSES
    trace.termination = termination
    return state, trace


def fit_terms(dataset: Dataset,
              terms) -> tuple[np.ndarray, float]:
    """Least-squares fit of the response on arbitrary terms.

    Returns (slopes, intercept) on the original data scale, with slopes
    aligned to `terms`.  Used to report a selected model in units the
    caller supplied, including interaction terms.  A marginal is the
    dataset's own column, mean and scale, the bits `realize` gives it;
    only a product is realized from `raw`.  Raises ValueError naming
    each product of a dataset without `raw`, and each term whose
    monomial is constant or not finite.
    """
    terms = list(terms)
    products = [k for k, t in enumerate(terms) if t.order > 1]
    if products and dataset.raw is None:
        raise ValueError("; ".join(
            f"term {terms[k].display()} is a product, and the dataset "
            "keeps no raw columns to realize it" for k in products))
    rows = np.empty((len(terms), dataset.n))
    means, scales = np.empty(len(terms)), np.empty(len(terms))
    for k, term in enumerate(terms):
        if term.order == 1:
            j = term.powers[0][0]
            rows[k] = dataset.columns[:, j]
            means[k], scales[k] = dataset.means[j], dataset.scales[j]
    if products:
        rows[products], means[products], scales[products] = realize(
            [terms[k] for k in products], dataset.raw)
    if bad := [t.display() for t, row in zip(terms, rows)
               if not np.isfinite(row).all()]:
        raise ValueError("; ".join(f"term {name} is constant or not finite"
                                   for name in bad))
    b, *_ = np.linalg.lstsq(rows.T, dataset.response, rcond=None)
    slopes = dataset.response_scale * b / scales
    intercept = dataset.response_mean - float(np.dot(slopes, means))
    return slopes, intercept
