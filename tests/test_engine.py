import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rai
from rai import (FeatureTerm, ModelState, RaiConfig, WealthLedger,
                 pass_parameters, realize, run_rai, skip_passes, standardize,
                 test_candidate)
from rai.engine import (HALTED_WEALTH, NOT_REJECTED, REJECTED,
                        REMOVED_COLLINEAR, TERMINATED_PASSES,
                        TERMINATED_STREAM, TERMINATED_WEALTH)
from rai.kernel import RESIDUAL_TOL, Screen
from rai.terms import term_column

import reference_engine as ref
from conftest import charges, counting, entries, random_raw

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def signal_dataset(seed=0, n=120, p=6):
    X, y = random_raw(seed, n, p)
    return standardize(X, y)


def trace_tests(trace):
    """The trace's test records, in file order."""
    return [rec for rec in trace.records() if rec["kind"] == "test"]


def marginal_names(p):
    """Display name -> column index of the p marginal terms."""
    return {FeatureTerm.marginal(j).display(): j for j in range(p)}


class TestTestCandidate:

    def setup_method(self):
        self.ds = signal_dataset()
        self.state = ModelState.empty(self.ds)
        self.term = FeatureTerm.marginal(0)

    def probe_t(self):
        led = WealthLedger()
        decision, _, t_abs = test_candidate(
            self.state, led, self.term, tlvl=1e17, alpha=0.01, pass_index=1,
            column=self.ds.columns[:, 0])
        assert decision == NOT_REJECTED
        return t_abs

    def test_wealth_gate_blocks_without_event(self):
        led = WealthLedger(initial_wealth=0.005)
        decision, state, t = test_candidate(
            self.state, led, self.term, tlvl=1.0, alpha=0.01, pass_index=1,
            column=self.ds.columns[:, 0])
        assert decision == HALTED_WEALTH
        assert t is None
        assert led.total_spent() == 0.0
        assert led.wealth == pytest.approx(0.005)

    def test_spend_precedes_comparison(self):
        led = WealthLedger()
        decision, _, _ = test_candidate(
            self.state, led, self.term, tlvl=1e17, alpha=0.02, pass_index=1,
            column=self.ds.columns[:, 0])
        assert decision == NOT_REJECTED
        assert led.wealth == pytest.approx(0.23)
        assert entries(led, "decision") == [NOT_REJECTED]

    def test_boundary_is_strict(self):
        t_abs = self.probe_t()
        led = WealthLedger()
        decision, _, _ = test_candidate(
            self.state, led, self.term, tlvl=t_abs, alpha=0.01, pass_index=1,
            column=self.ds.columns[:, 0])
        assert decision == NOT_REJECTED

    def test_wealth_equal_to_alpha_pays_and_a_tie_does_not_reject(self):
        """At wealth exactly alpha the test is still paid, to exactly 0,
        and only the next one halts; a threshold exactly at |t| rejects
        nothing, so no payout blurs the boundary."""
        t_abs = self.probe_t()
        led = WealthLedger(0.5, 0.0)
        decisions = [test_candidate(
            self.state, led, self.term, tlvl=t_abs, alpha=0.25,
            pass_index=1, column=self.ds.columns[:, 0])[0]
            for _ in range(3)]
        assert decisions == [NOT_REJECTED, NOT_REJECTED, HALTED_WEALTH]
        assert entries(led, "before") == [0.5, 0.25, 0.0]
        assert led.wealth == 0.0

    def test_rejection_just_below_boundary(self):
        t_abs = self.probe_t()
        led = WealthLedger()
        decision, state, _ = test_candidate(
            self.state, led, self.term, tlvl=t_abs * (1 - 1e-9),
            alpha=0.01, pass_index=1, column=self.ds.columns[:, 0])
        assert decision == REJECTED
        assert led.wealth == pytest.approx(0.25 - 0.01 + 0.05)
        assert entries(led, "decision") == [REJECTED]
        assert list(state.selected) == [self.term]

    def test_collinear_removed_without_spend(self):
        state = self.state.add_feature(0)
        led = WealthLedger()
        decision, _, t = test_candidate(
            state, led, self.term, tlvl=1.0, alpha=0.01, pass_index=1,
            column=self.ds.columns[:, 0])
        assert decision == REMOVED_COLLINEAR
        assert t is None
        assert led.total_spent() == 0.0
        assert led.wealth == pytest.approx(0.25)

    def test_constant_interaction_removed_without_spend(self):
        # a column of -1s and 1s varies, but its square does not, and
        # realizes to a NaN column, as every constant monomial does
        X = np.column_stack([np.tile([-1.0, 1.0], 10), np.arange(20.0)])
        ds = standardize(X, np.arange(20.0) + 1.0)
        term = FeatureTerm.from_exponents({0: 2})
        column = term_column(ds, term)
        assert np.isnan(column).all()
        led = WealthLedger()
        decision, _, _ = test_candidate(
            ModelState.empty(ds), led, term,
            tlvl=1.0, alpha=0.01, pass_index=1, column=column)
        assert decision == REMOVED_COLLINEAR
        assert led.total_spent() == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_removed_without_spend(self, bad):
        state = self.state.add_feature(1)
        column = self.ds.columns[:, 0].copy()
        column[3] = bad
        led = WealthLedger()
        decision, after, t = test_candidate(
            state, led, self.term, tlvl=1.0, alpha=0.01, pass_index=1,
            column=column)
        assert decision == REMOVED_COLLINEAR
        assert t is None
        assert led.total_spent() == 0.0 and led.wealth == 0.25
        assert after is state
        assert all(np.all(np.isfinite(q)) for q in after.basis)

    def test_non_finite_interaction_never_rejected(self, monkeypatch):
        # the batched screen must hand a non-finite column to the exact
        # path, which drops it; realization is patched to produce one,
        # under both names it is called by: the engine's, for the
        # screen's blocks, and the terms module's, for term_column
        rng = np.random.default_rng(8)
        X = rng.normal(1.0, 1.0, size=(200, 3))
        y = X[:, 0] + 3.0 * X[:, 0] * X[:, 1] + rng.normal(size=200)
        ds = standardize(X, y)

        def poisoned(terms, raw):
            rows, means, scales = realize(terms, raw)
            rows[[t.order > 1 for t in terms]] = np.nan
            return rows, means, scales

        monkeypatch.setattr(rai.engine, "realize", poisoned)
        monkeypatch.setattr(rai.terms, "realize", poisoned)
        state, trace = run_rai(ds, RaiConfig(interactions=True))
        marginals = marginal_names(ds.p)
        recs = [rec for rec in trace_tests(trace) if rec["term"] not in marginals]
        assert recs
        assert all(rec["decision"] == REMOVED_COLLINEAR for rec in recs)
        assert all(rec["wealth_after"] == rec["wealth_before"]
                   for rec in recs)
        assert all(t.order == 1 for t in state.selected)
        assert np.all(np.isfinite(state.residual))


class TestSkipPasses:

    def test_lands_on_first_clearable_pass(self):
        # max |t| sits 1% above the pass-5 threshold
        n = 400
        t_star = math.sqrt(n) * 2.0 ** (-5 / 2.0) * 1.01
        terms = [FeatureTerm.marginal(0), FeatureTerm.marginal(1)]
        led = WealthLedger(initial_wealth=5.0)
        s_next, halted, charged = skip_passes(terms, t_star, led, 1, n, 20)
        assert s_next == 5
        assert not halted
        expected = sum(2 * pass_parameters(n, u)[1] for u in (2, 3, 4))
        assert charged == pytest.approx(expected, abs=1e-15)
        assert led.wealth == pytest.approx(5.0 - expected, abs=1e-12)

    def test_exact_threshold_needs_one_more_pass(self):
        # |t| equal to the pass-5 threshold fails the strict compare there
        n = 400
        t_star = math.sqrt(n) * 2.0 ** (-5 / 2.0)
        led = WealthLedger(initial_wealth=5.0)
        s_next, halted, _ = skip_passes(
            [FeatureTerm.marginal(0)], t_star, led, 1, n, 20)
        assert s_next == 6

    def test_best_at_a_threshold_is_charged_through_that_pass(self):
        # the literal schedule tests and charges every term in the pass
        # whose threshold best only equals, and rejects in the next
        n = 400
        terms = [FeatureTerm.marginal(0), FeatureTerm.marginal(1)]
        led = WealthLedger(initial_wealth=5.0)
        s_next, halted, _ = skip_passes(
            terms, pass_parameters(n, 4)[0], led, 1, n, 20)
        assert (s_next, halted) == (5, False)
        assert [c[:2] for c in charges(led)] == [
            (term, u) for u in (2, 3, 4) for term in terms]

    @pytest.mark.parametrize("n", [100, 400, 2000, 4321])
    def test_lands_on_first_clearable_pass_at_every_threshold(self, n):
        # best at a threshold or one ulp either side: the literal
        # schedule rejects in the first pass whose threshold best
        # strictly clears, so the skip must land there, not one past it
        for k in range(2, 40):
            tlvl = pass_parameters(n, k)[0]
            for best, want in ((math.nextafter(tlvl, 0.0), k + 1),
                               (tlvl, k + 1),
                               (math.nextafter(tlvl, math.inf), k)):
                got = skip_passes([], best, WealthLedger(), 1, n, 40)
                assert got == (want, False, 0.0), (k, best)

    def test_zero_best_charges_every_remaining_pass(self):
        # no threshold is ever cleared, so passes s+1..max_passes are
        # charged as the literal schedule tests them
        n = 100
        terms = [FeatureTerm.marginal(j) for j in range(3)]
        led = WealthLedger(initial_wealth=5.0)
        s_next, halted, charged = skip_passes(terms, 0.0, led, 2, n, 7)
        assert (s_next, halted) == (8, False)
        assert sorted(set(entries(led, "pass_index"))) == [3, 4, 5, 6, 7]
        assert entries(led, "ids") == terms * 5
        want = WealthLedger(initial_wealth=5.0)
        for u in range(3, 8):
            for term in terms:
                want.spend(pass_parameters(n, u)[1], [term], u)
        assert led.wealth.hex() == want.wealth.hex()
        assert charged == pytest.approx(5.0 - led.wealth, abs=1e-15)

    def test_zero_best_halts_mid_charge(self):
        n = 100
        terms = [FeatureTerm.marginal(j) for j in range(3)]
        # passes 2-5 cost about 0.27; pass 6 (alpha 0.21) pays one test
        led = WealthLedger(initial_wealth=0.5)
        s_next, halted, charged = skip_passes(terms, 0.0, led, 1, n, 20)
        assert (s_next, halted) == (6, True)
        assert entries(led, "pass_index") == (
            [2] * 3 + [3] * 3 + [4] * 3 + [5] * 3 + [6])
        assert led.wealth < pass_parameters(n, 6)[1]
        assert charged == pytest.approx(0.5 - led.wealth, abs=1e-15)

    def test_zero_best_with_no_terms_charges_nothing(self):
        led = WealthLedger()
        assert skip_passes([], 0.0, led, 1, 100, 10) == (11, False, 0.0)
        assert led.wealth == led.initial_wealth
        assert led.runs == []

    def test_halts_mid_charge_with_partial_commit(self):
        n = 100
        terms = [FeatureTerm.marginal(j) for j in range(4)]
        # the largest |t| first clears pass 6 (tlvl 1.25)
        led = WealthLedger(initial_wealth=0.08)
        s_next, halted, charged = skip_passes(terms, 1.3, led, 1, n, 12)
        assert halted
        assert charged > 0
        assert led.wealth == pytest.approx(0.08 - charged, abs=1e-15)
        assert led.wealth < pass_parameters(n, s_next)[1]

    def test_charge_capped_at_max_passes(self):
        n = 400
        led = WealthLedger(initial_wealth=5.0)
        s_next, halted, charged = skip_passes(
            [FeatureTerm.marginal(0)], 0.9, led, 1, n, max_passes=3)
        assert s_next > 3
        assert not halted
        expected = sum(pass_parameters(n, u)[1] for u in (2, 3))
        assert charged == pytest.approx(expected, abs=1e-15)


def exact_t(state, term):
    """The exact |t| of `term` at `state`, 0 for an untestable one, which
    `run_rai` would have dropped before a skip."""
    scored = state.score(term_column(state.dataset, term))
    return 0.0 if scored is None else abs(scored[3])


def contended_max_t(state, screen, terms, slots):
    """The largest exact |t| over `terms`, scored only at the screen's
    contenders among `slots`, as `run_rai` takes it before a skip."""
    return max((exact_t(state, terms[k])
                for k in screen.contenders(state, slots).tolist()),
               default=0.0)


class TestExactMaxT:

    @given(seeds, st.sampled_from(["gaussian", "duplicates", "exact_fit"]),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_largest_exact_score(self, seed, design, data):
        """Bit for bit the largest exact |t| over any set of slots,
        including untrusted [0, inf] slots and an exhausted residual,
        whether or not a settle caught the chunks up first."""
        rng = np.random.default_rng(seed)
        n, p = 60, 8
        X = rng.normal(size=(n, p))
        y = X[:, :3] @ rng.normal(size=3) + rng.normal(size=n)
        if design == "duplicates":
            X[:, 5:] = X[:, :3]
        elif design == "exact_fit":
            y = X[:, 0] - 2.0 * X[:, 1]
        ds = standardize(X, y)
        screen = Screen(ds)
        # a second block of slots, as interaction columns get: X3 again,
        # a NaN row as a constant monomial realizes to, which the engine
        # has always tested and dropped before a skip, and a product
        extra = [FeatureTerm.marginal(2),
                 FeatureTerm.from_exponents({0: 1, 3: 1})]
        block, _, _ = realize(extra, ds.raw)
        screen.add_columns(np.insert(block, 1, np.nan, axis=0))
        pool = [FeatureTerm.marginal(j) for j in range(p)] + [
            extra[0], None, extra[1]]
        state = ModelState.empty(ds)
        for j in range(data.draw(st.integers(0, 3))):
            state = state.add_feature(j)
        if data.draw(st.booleans(), label="settle first"):
            # no bound is above inf, so every slot is scored
            screen.settled(state, np.arange(p + 3), np.inf)
        finite = [j for j in range(p + 3) if j != p + 1]
        # ascending, as the engine's queue keeps its slots
        slots = np.array(sorted(data.draw(st.lists(
            st.sampled_from(finite), min_size=1, max_size=p + 2,
            unique=True))))
        terms = [pool[j] for j in slots]
        want = max(exact_t(state, t) for t in terms)
        got = contended_max_t(state, screen, terms, slots)
        assert got.hex() == want.hex()
        if design == "exact_fit" and state.size >= 2:
            assert got == 0.0

    @given(seeds, st.sampled_from(["duplicates", "signs", "exact_fit"]),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_contenders_hold_every_tied_maximum(self, seed, design, data):
        """Every slot whose exact |rho| ties the largest is a contender,
        copies and sign flips of the strongest column included, and at
        an exhausted residual no slot is."""
        rng = np.random.default_rng(seed)
        n, p = 60, 8
        X = rng.normal(size=(n, p))
        X[:, 5:] = -X[:, :3] if design == "signs" else X[:, :3]
        y = X[:, :3] @ rng.normal(3.0, 1.0, size=3) + rng.normal(size=n)
        if design == "exact_fit":
            y = X[:, 0] - 2.0 * X[:, 1]
        ds = standardize(X, y)
        screen = Screen(ds)
        state = ModelState.empty(ds)
        for j in range(data.draw(st.integers(0, 3))):
            state = state.add_feature(j)
        slots = np.array(sorted(data.draw(st.sets(
            st.integers(0, p - 1), min_size=1))))
        # an untestable slot has exact |rho| 0
        rho = np.array([0.0 if (scored := state.score(ds.columns[:, j]))
                        is None else abs(scored[2]) for j in slots.tolist()])
        got = screen.contenders(state, slots)
        if state.rnorm < RESIDUAL_TOL:
            assert len(got) == 0
        else:
            assert set(np.flatnonzero(rho == rho.max()).tolist()) \
                <= set(got.tolist())
        if design == "exact_fit" and state.size >= 2:
            assert len(got) == 0


class TestRunRai:

    def test_exact_fit_selected_first_pass(self):
        x = np.linspace(0, 1, 50)
        ds = standardize(x[:, None], 2.0 * x - 0.3)
        state, trace = run_rai(ds)
        assert [t.display() for t in state.selected] == ["X1"]
        assert state.r_squared == pytest.approx(1.0, abs=1e-12)
        first = trace_tests(trace)[0]
        assert first["pass"] == 1
        assert first["decision"] == REJECTED
        assert trace.termination == TERMINATED_STREAM

    def test_null_data_selects_nothing(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(100, 10))
        y = rng.normal(size=100)
        ds = standardize(X, y)
        state, trace = run_rai(ds)
        assert list(state.selected) == []
        assert trace.termination == TERMINATED_WEALTH
        assert trace.ledger.rejections == 0

    def test_signal_recovered(self):
        ds = signal_dataset(seed=5, n=200, p=8)
        state, trace = run_rai(ds)
        picked = {t.powers[0][0] for t in state.selected}
        # planted signal lives on the first three columns
        assert picked <= {0, 1, 2}
        assert len(picked) >= 2

    def test_pass_bound_respected(self, correlated_dataset):
        state, trace = run_rai(correlated_dataset)
        limit = math.ceil(math.log2(correlated_dataset.n)) + 2
        assert trace.passes_traversed <= limit

    def test_max_passes_override(self):
        ds = signal_dataset(seed=9, n=150, p=5)
        _, trace = run_rai(ds, RaiConfig(max_passes=2))
        assert trace.passes_traversed <= 2
        for rec in trace_tests(trace):
            assert rec["pass"] <= 2

    def test_determinism(self):
        ds = signal_dataset(seed=3, n=90, p=7)
        s1, t1 = run_rai(ds, RaiConfig(interactions=True))
        s2, t2 = run_rai(ds, RaiConfig(interactions=True))
        assert s1.selected == s2.selected
        assert list(t1.records()) == list(t2.records())
        assert t1.skips == t2.skips
        assert t1.termination == t2.termination
        assert t1.ledger.wealth == t2.ledger.wealth

    def test_trace_replays_against_ledger(self):
        ds = signal_dataset(seed=7, n=130, p=9)
        _, trace = run_rai(ds)
        w = trace.ledger.initial_wealth
        events = iter(charges(trace.ledger))
        for rec in trace_tests(trace):
            assert rec["wealth_before"] == pytest.approx(w, abs=1e-15)
            if rec["decision"] in (REJECTED, NOT_REJECTED):
                _, _, alpha, rejected = next(events)
                w -= alpha
                assert alpha == rec["alpha"]
                if rec["decision"] == REJECTED:
                    assert rejected
                    w += trace.ledger.payout
            if rec["decision"] in (HALTED_WEALTH, REMOVED_COLLINEAR):
                assert rec["wealth_after"] == rec["wealth_before"]
            assert rec["wealth_after"] == pytest.approx(w, abs=1e-15)
            # skip charges interleave; fold them in when the cursor moved
            w = rec["wealth_after"]
        for _ in events:
            pass
        assert trace.ledger.replay() == trace.ledger.wealth

    def test_wealth_identity_at_end(self):
        ds = signal_dataset(seed=21, n=110, p=8)
        _, trace = run_rai(ds)
        led = trace.ledger
        assert led.wealth == pytest.approx(
            led.initial_wealth - led.total_spent()
            + led.payout * led.rejections, abs=1e-12)

    def test_threshold_r2_link(self):
        """Each acceptance gains at least the share its pass threshold
        implies: rho^2 > tlvl^2 / (tlvl^2 + df)."""
        for seed in (1, 4, 8, 15):
            ds = signal_dataset(seed=seed, n=100, p=8)
            state, trace = run_rai(ds)
            rebuilt = ModelState.empty(ds)
            column = marginal_names(ds.p)
            for rec in trace_tests(trace):
                if rec["decision"] != REJECTED:
                    continue
                before = rebuilt.r_squared
                df = ds.n - rebuilt.size - 2
                floor = rec["tlvl"] ** 2 / (rec["tlvl"] ** 2 + df)
                j = column[rec["term"]]
                rebuilt = rebuilt.add_feature(j)
                gained = rebuilt.r_squared - before
                assert gained >= floor * (1.0 - before) - 1e-8

    def test_interaction_candidate_tested_same_pass(self):
        rng = np.random.default_rng(30)
        n = 300
        X = rng.normal(1.5, 1.0, size=(n, 4))
        y = (X[:, 0] + X[:, 1] + 2.0 * X[:, 0] * X[:, 1]
             + 0.1 * rng.normal(size=n))
        ds = standardize(X, y)
        state, trace = run_rai(ds, RaiConfig(interactions=True))
        prod = FeatureTerm.from_exponents({0: 1, 1: 1})
        assert prod in state.selected
        first_marginal_pass = min(
            rec["pass"] for rec in trace_tests(trace)
            if rec["decision"] == REJECTED)
        prod_rec = next(rec for rec in trace_tests(trace)
                        if rec["term"] == prod.display())
        assert prod_rec["pass"] == first_marginal_pass

    def test_interactions_off_never_streams_products(self):
        ds = signal_dataset(seed=2, n=150, p=6)
        _, trace = run_rai(ds)
        marginals = marginal_names(ds.p)
        assert all(rec["term"] in marginals for rec in trace_tests(trace))

    def test_no_term_streamed_twice_per_pass(self):
        ds = signal_dataset(seed=6, n=140, p=7)
        _, trace = run_rai(ds, RaiConfig(interactions=True))
        seen = set()
        for rec in trace_tests(trace):
            key = (rec["pass"], rec["term"])
            if rec["decision"] == HALTED_WEALTH:
                continue
            assert key not in seen
            seen.add(key)

    def test_selected_terms_never_retested(self):
        ds = signal_dataset(seed=13, n=160, p=8)
        state, trace = run_rai(ds)
        for term in state.selected:
            hits = [rec["decision"] for rec in trace_tests(trace)
                    if rec["term"] == term.display()]
            assert hits[-1] == REJECTED
            assert REJECTED not in hits[:-1]

    def test_settled_terms_never_return(self):
        # X3 is binary, so X3^2 equals X3 and any product holding X3^2
        # repeats one holding X3; X1*X2*X3 can be generated three ways
        removed_products = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n = 400
            X = rng.normal(1.0, 1.0, size=(n, 5))
            X[:, 2] = rng.integers(0, 2, n)
            x1, x2, b = X[:, 0], X[:, 1], X[:, 2]
            y = (x1 + x2 + b + x1 * b + x1 * x2 + x1 * x2 * b
                 + rng.normal(size=n))
            _, trace = run_rai(standardize(X, y),
                               RaiConfig(interactions=True))
            led = trace.ledger
            settled = set()
            # every log entry, skip charges included
            for term, decision in zip(entries(led, "ids"),
                                      entries(led, "decision")):
                assert term not in settled, (seed, term.display())
                if decision in (REJECTED, REMOVED_COLLINEAR):
                    settled.add(term)
                removed_products += (decision == REMOVED_COLLINEAR
                                     and term.order > 1)
        assert removed_products > 0

    @staticmethod
    def duplicate_and_sign_design():
        """X5 duplicates X1 and X6 is +-1, so X6^2 is a constant
        monomial; the planted X1*X2 is realized only after X1 and X2.
        X7 is X2 plus a little noise, too close to X2 for the screen to
        settle once X2 is in the model, so it is tested exactly."""
        rng = np.random.default_rng(3)
        n = 300
        X = rng.normal(1.0, 1.0, size=(n, 7))
        X[:, 4] = X[:, 0]
        X[:, 5] = rng.choice([-1.0, 1.0], n)
        X[:, 6] = X[:, 1] + 1e-3 * rng.normal(size=n)
        y = (X[:, 0] + X[:, 1] + 1.5 * X[:, 0] * X[:, 1] + 0.8 * X[:, 5]
             + rng.normal(size=n))
        return standardize(X, y)

    def test_screen_takes_in_each_vector_once_per_chunk(self, monkeypatch):
        """Each chunk of two slots takes in each basis vector exactly
        once, through a run with rejections, realizations and exact
        tests that change nothing."""
        monkeypatch.setattr(rai.kernel, "CHUNK_BYTES", 8 * 300 * 2)
        log, screens, chunks = [], [], set()
        # (address of a chunk's rows, basis index) -> products taken
        products = Counter()
        counted = counting(products)

        def caught_up(screen, state, chunk):
            before = sum(products.values())
            span = catch_up(screen, counted(state), chunk)
            log.append(("catch_up", span.start,
                        sum(products.values()) > before))
            return span

        def tested(*args, **kwargs):
            out = test_candidate(*args, **kwargs)
            log.append(out[0])
            return out

        def appended(screen, block):
            log.append("add_columns")
            chunks.update(block[a:].ctypes.data
                          for a in range(0, len(block), 2))
            return add_columns(screen, block)

        init, add_columns, catch_up = (
            Screen.__init__, Screen.add_columns, Screen._catch_up)
        test_candidate = rai.engine.test_candidate
        monkeypatch.setattr(Screen, "__init__", lambda screen, ds: (
            screens.append(screen), init(screen, ds))[-1])
        monkeypatch.setattr(Screen, "add_columns", appended)
        monkeypatch.setattr(Screen, "_catch_up", caught_up)
        monkeypatch.setattr(rai.engine, "test_candidate", tested)
        state, _ = run_rai(self.duplicate_and_sign_design(),
                           RaiConfig(interactions=True))
        # the screen's first block is the design, appended as it is built
        assert log[:2] == ["add_columns", ("catch_up", 0, False)]
        # exact tests that changed nothing, each with more of the pass
        # to come
        for decision in (NOT_REJECTED, REMOVED_COLLINEAR):
            assert decision in log[:-1], log
        # the run took in no vector twice; a full catch-up then takes in
        # each vector in every chunk that still lacked it
        assert products and max(products.values()) == 1
        screens[0].bounds(state, np.arange(len(screens[0].gram)))
        assert len(chunks) > 2
        assert products == Counter(
            {(a, i): 1 for a in chunks for i in range(state.size)})

    def test_duplicate_and_constant_monomial_dropped_without_charge(self):
        _, trace = run_rai(self.duplicate_and_sign_design(),
                           RaiConfig(interactions=True))
        dropped = [rec for rec in trace_tests(trace)
                   if rec["decision"] == REMOVED_COLLINEAR]
        assert {rec["term"] for rec in dropped} == {"X5", "X6^2"}
        for rec in dropped:
            assert rec["t_abs"] is None
            assert rec["wealth_after"] == rec["wealth_before"]

    def test_saturation_stops_cleanly(self):
        # tiny n: the model runs out of degrees of freedom, not wealth
        rng = np.random.default_rng(40)
        X = rng.normal(size=(6, 8))
        y = X[:, 0] - X[:, 1] + X[:, 2] + 0.01 * rng.normal(size=6)
        ds = standardize(X, y)
        state, trace = run_rai(ds, RaiConfig(initial_wealth=10.0))
        # tests require df = n - |S| - 2 >= 1, so at most n - 3 = 3
        # features are in the model when the last test runs
        assert len(state.selected) <= 4
        assert trace.termination in (TERMINATED_STREAM, TERMINATED_PASSES)


class TestRaiConfig:

    @pytest.fixture(scope="class")
    def product_data(self):
        # the a*b data of test_cli's test_interactions_flag_reaches_config
        rng = np.random.default_rng(4)
        X = rng.normal(loc=1.5, size=(300, 4))
        y = (X[:, 0] + X[:, 1] + 2.0 * X[:, 0] * X[:, 1]
             + 0.1 * rng.normal(size=300))
        return standardize(X, y)

    @pytest.mark.parametrize("order", [-1, 0, 1])
    def test_order_below_two_rejected(self, order):
        # such an order would search no product without a word
        with pytest.raises(ValueError, match="max_interaction_order"):
            RaiConfig(interactions=True, max_interaction_order=order)

    def test_order_without_interactions_rejected(self):
        # no product is generated, so the order would be ignored
        with pytest.raises(ValueError, match="--max-order.*--interactions"):
            RaiConfig(max_interaction_order=3)

    @pytest.mark.parametrize("order", [None, 2])
    def test_valid_order_finds_the_product(self, product_data, order):
        state, _ = run_rai(product_data, RaiConfig(
            interactions=True, max_interaction_order=order))
        assert "X1*X2" in [t.display() for t in state.selected]


class TestSkipEquivalence:

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_skip_on_off_identical(self, seed):
        """Skipping is a pure shortcut: same model, same final wealth."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 120))
        p = int(rng.integers(3, 10))
        X, y = random_raw(seed, n, p, correlated=bool(seed % 3 == 0))
        if seed % 4 == 0:
            y = rng.normal(size=n)  # null instance
        ds = standardize(X, y)
        s_on, t_on = run_rai(ds, RaiConfig(skip_passes=True))
        s_off, t_off = run_rai(ds, RaiConfig(skip_passes=False))
        assert s_on.selected == s_off.selected
        assert abs(t_on.ledger.wealth - t_off.ledger.wealth) <= 1e-12
        assert t_on.termination == t_off.termination

    @given(seeds, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_exact_fit_charges_the_literal_schedule(self, seed, interactions):
        """Once an exact fit leaves every |t| at zero, no pass can reject;
        the skip must still pay what the literal passes pay."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 150))
        p = int(rng.integers(2, 9))
        X = rng.normal(1.0, 1.0, size=(n, p))
        cols = rng.choice(p, int(rng.integers(1, min(p, 3) + 1)),
                          replace=False)
        y = X[:, cols] @ rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], cols.size)
        ds = standardize(X, y)
        config = dict(interactions=interactions,
                      initial_wealth=float(rng.choice([0.25, 5.0])))
        runs = [run_rai(ds, RaiConfig(skip_passes=True, **config)),
                run_rai(ds, RaiConfig(skip_passes=False, **config)),
                ref.run_rai(ds, RaiConfig(skip_passes=False, **config))]
        outcomes = {(tuple(state.selected), trace.termination,
                     trace.passes_traversed, trace.ledger.wealth.hex())
                    for state, trace in runs}
        assert len(outcomes) == 1, outcomes

    def test_late_passes_charge_a_clamped_alpha(self):
        """Passes late enough that erfc rounds alpha to 1 are charged
        just below it: the run ends `max_passes`, skip on and off, with
        the reference's wealth bits."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 3))
        ds = standardize(X, X[:, 0] + X[:, 1])
        config = dict(initial_wealth=1000.0, max_passes=300)
        runs = [run_rai(ds, RaiConfig(skip_passes=True, **config)),
                run_rai(ds, RaiConfig(skip_passes=False, **config)),
                ref.run_rai(ds, RaiConfig(skip_passes=False, **config))]
        outcomes = {(len(state.selected), trace.termination,
                     trace.passes_traversed, trace.ledger.wealth.hex())
                    for state, trace in runs}
        assert len(outcomes) == 1, outcomes
        (size, termination, passes, _), = outcomes
        assert (size, termination, passes) == (2, TERMINATED_PASSES, 300)

    def test_skip_with_interactions_equivalent(self):
        for seed in (11, 23, 35):
            rng = np.random.default_rng(seed)
            n = 250
            X = rng.normal(1.0, 1.0, size=(n, 6))
            y = X[:, 0] * X[:, 1] + rng.normal(size=n)
            ds = standardize(X, y)
            s_on, t_on = run_rai(
                ds, RaiConfig(interactions=True, skip_passes=True))
            s_off, t_off = run_rai(
                ds, RaiConfig(interactions=True, skip_passes=False))
            assert s_on.selected == s_off.selected
            assert abs(t_on.ledger.wealth - t_off.ledger.wealth) <= 1e-12


class TestFitTerms:

    def test_reproduces_engine_fit(self):
        rng = np.random.default_rng(17)
        n = 200
        X = rng.normal(1.0, 1.0, size=(n, 5))
        y = 2.0 * X[:, 0] - X[:, 1] * X[:, 2] + rng.normal(size=n)
        ds = standardize(X, y)
        state, _ = run_rai(ds, RaiConfig(interactions=True))
        slopes, intercept = rai.fit_terms(ds, state.selected)
        cols = []
        for term in state.selected:
            col = np.ones(n)
            for j, k in term.powers:
                col = col * X[:, j] ** k
            cols.append(col)
        pred = np.column_stack(cols) @ slopes + intercept if cols else \
            np.full(n, intercept)
        design = np.column_stack([np.ones(n)] + cols)
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        ref = design @ beta
        np.testing.assert_allclose(pred, ref, atol=1e-8)

    def test_marginal_realizes_to_its_dataset_column(self):
        # fit_terms realizes marginals too; that is the dataset's own
        # standardization bit for bit, at any column scale
        rng = np.random.default_rng(8)
        X = rng.normal(3.0, 1.0, size=(50, 4)) * [1e-150, 1.0, 1e7, 1e150]
        ds = standardize(X, rng.normal(size=50))
        marginals = [FeatureTerm.marginal(j) for j in range(ds.p)]
        cols, means, scales = realize(marginals, ds.raw)
        # one block of every marginal is the design's rows, in their layout
        assert np.array_equal(cols, ds.columns.T)
        assert ds.columns.T.flags.c_contiguous
        for j, (col, mean, scale) in enumerate(zip(cols, means, scales)):
            assert np.array_equal(col, ds.columns[:, j])
            # the mean and scale standardize used: they rebuild its column
            assert np.array_equal((ds.raw[:, j] - mean) / scale,
                                  ds.columns[:, j])

    @pytest.mark.parametrize("scales", [(1.0,) * 5,
                                        (1e-150, 1.0, 1e7, 1e150, 3e-3)])
    def test_dataset_without_raw_fits_the_same_bits(self, scales):
        # marginals come from the dataset's own rows, means and scales,
        # which are the bits `realize` gives them from `raw`
        rng = np.random.default_rng(31)
        X = rng.normal(3.0, 1.0, size=(80, 5)) * scales
        X[:, 2] = 4.0                       # dropped as constant
        y = X[:, 0] / scales[0] - X[:, 3] / scales[3] + rng.normal(size=80)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            library = standardize(X, y)
            handed = standardize(np.asfortranarray(X), y, keep_raw=False)
        assert handed.raw is None and handed.p == library.p == 4
        # the kept constants are those `realize` gives each raw column
        marginals = [FeatureTerm.marginal(j) for j in range(4)]
        _, means, scales = realize(marginals, library.raw)
        for ds in (library, handed):
            assert np.array_equal(ds.means.view(np.uint64),
                                  means.view(np.uint64))
            assert np.array_equal(ds.scales.view(np.uint64),
                                  scales.view(np.uint64))
        terms = [FeatureTerm.marginal(j) for j in (3, 0, 1)]
        for chosen in (terms, terms[:1], []):
            slopes, intercept = rai.fit_terms(library, chosen)
            own_slopes, own_intercept = rai.fit_terms(handed, chosen)
            assert np.array_equal(own_slopes.view(np.uint64),
                                  slopes.view(np.uint64))
            assert (np.float64(own_intercept).view(np.uint64)
                    == np.float64(intercept).view(np.uint64))

    def test_product_needs_raw_columns(self):
        X, y = random_raw(2, 60, 3)
        ds = standardize(X.copy(order="F"), y, keep_raw=False)
        with pytest.raises(ValueError, match=r"^term X1\*X3 is a product"):
            rai.fit_terms(ds, [FeatureTerm.marginal(1),
                               FeatureTerm.from_exponents({0: 1, 2: 1})])
        with pytest.raises(ValueError, match="interactions need the raw"):
            run_rai(ds, RaiConfig(interactions=True))

    def test_constant_term_rejected(self):
        # a column of -1s and 1s varies, but its square does not
        X = np.column_stack([np.tile([-1.0, 1.0], 5), np.arange(10.0)])
        ds = standardize(X, np.arange(10.0) ** 2)
        with pytest.raises(ValueError, match="X1\\^2 is constant"):
            rai.fit_terms(ds, [FeatureTerm.from_exponents({0: 2})])

    def test_overflowing_term_rejected_silently(self, capfd):
        # X2^4 of data near 1e80 overflows to inf: the fit names it
        # before any solver sees the column, and nothing is printed
        rng = np.random.default_rng(4)
        X = rng.normal(1.0, 1.0, size=(40, 3)) * 1e80
        ds = standardize(X, rng.normal(size=40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="X2\\^4 is constant"):
                rai.fit_terms(ds, [FeatureTerm.marginal(0),
                                   FeatureTerm.from_exponents({1: 4})])
        assert capfd.readouterr() == ("", "")

    def test_empty_selection(self):
        ds = signal_dataset()
        slopes, intercept = rai.fit_terms(ds, [])
        assert slopes.size == 0
        assert intercept == pytest.approx(
            float(ds.response_mean), abs=1e-10)


class TestExtremeScales:

    @pytest.mark.parametrize("factor", [1e-160, 1e160])
    def test_selection_unchanged_by_rescaling_the_data(self, factor):
        """Sums of squares of data near 1e+-160 under- or overflow; the
        standardized run must still be the one made at scale 1."""
        X, y = random_raw(5, 200, 8)
        unit_ds = standardize(X, y)
        ds = standardize(X * factor, y * factor)
        assert ds.p == unit_ds.p
        unit_state, unit_trace = run_rai(unit_ds, RaiConfig())
        state, trace = run_rai(ds, RaiConfig())
        assert len(unit_state.selected) >= 2
        assert [t.powers for t in state.selected] == [
            t.powers for t in unit_state.selected]
        assert [(r["term"], r["decision"]) for r in trace_tests(trace)] == [
            (r["term"], r["decision"]) for r in trace_tests(unit_trace)]
        assert trace.termination == unit_trace.termination
        assert state.r_squared == pytest.approx(unit_state.r_squared,
                                                rel=1e-12)
        slopes, intercept = rai.fit_terms(ds, state.selected)
        unit_slopes, unit_intercept = rai.fit_terms(unit_ds,
                                                    unit_state.selected)
        np.testing.assert_allclose(slopes, unit_slopes, rtol=1e-9)
        assert intercept == pytest.approx(unit_intercept * factor, rel=1e-9)

    @pytest.mark.parametrize("scale_x, scale_y", [(1e306, 1.0),
                                                  (1.0, 1e306)])
    def test_overflowing_column_sums_keep_their_columns(self, scale_x,
                                                        scale_y):
        """Columns near 1e306 with mean 1e306 have sums past the double
        range; their means must not overflow, so none is dropped as
        constant and the selection is the one made at scale 1."""
        rng = np.random.default_rng(0)
        X = rng.normal(1.0, 1.0, (200, 4))
        y = 1.0 + X[:, 0] + rng.normal(size=200)
        unit_ds = standardize(X, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = standardize(X * scale_x, y * scale_y)
        assert ds.p == 4
        marginals = [FeatureTerm.marginal(j) for j in range(4)]
        np.testing.assert_allclose(realize(marginals, ds.raw)[1],
                                   realize(marginals, unit_ds.raw)[1]
                                   * scale_x, rtol=1e-12)
        assert ds.response_mean == pytest.approx(
            unit_ds.response_mean * scale_y, rel=1e-12)
        np.testing.assert_allclose(ds.columns, unit_ds.columns, atol=1e-12)
        unit_state, _ = run_rai(unit_ds, RaiConfig())
        state, _ = run_rai(ds, RaiConfig())
        assert [t.powers for t in unit_state.selected] == [((0, 1),)]
        assert [t.powers for t in state.selected] == [
            t.powers for t in unit_state.selected]

    # order-4 products of such data overflow to inf; those candidates
    # are removed as non-finite, without a warning
    @pytest.mark.filterwarnings("error")
    def test_interaction_of_large_data_keeps_its_scale(self):
        """X1^2 of data near 1e80 has a sum of squares past the double
        range; it must still be realized and selected as at scale 1,
        not zeroed and dropped as collinear."""
        rng = np.random.default_rng(0)
        X = rng.normal(1.0, 1.0, (300, 4))
        y = X[:, 0] + X[:, 0] ** 2 + rng.normal(size=300)
        config = RaiConfig(interactions=True)
        unit, _ = run_rai(standardize(X, y), config)
        big, _ = run_rai(standardize(X * 1e80, y), config)
        assert [t.powers for t in unit.selected] == [((0, 1),), ((0, 2),)]
        assert ([t.powers for t in big.selected]
                == [t.powers for t in unit.selected])

    @staticmethod
    def scalable_design(seed, interactions):
        """Gaussian columns around 1 and a response with planted
        marginal, and optionally product, signal; a random wealth and
        skip setting."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 200))
        p = int(rng.integers(3, 8))
        X = rng.normal(1.0, 1.0, size=(n, p))
        y = X[:, 0] - 0.5 * X[:, -1] + rng.normal(size=n)
        if interactions:
            y += X[:, 1] * X[:, -1] + 0.5 * X[:, 0] ** 2 * rng.normal()
        config = RaiConfig(
            initial_wealth=float(rng.choice([0.25, 1.0, 5.0])),
            skip_passes=bool(rng.integers(2)), interactions=interactions,
            max_interaction_order=3 if interactions else None)
        return X, y, config

    @given(seeds, st.booleans(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_power_of_two_scaling_changes_no_record(self, seed,
                                                    interactions, data):
        """Scaling columns by 2^k scales every raw sum, mean, norm and
        product exactly, so the standardized columns, realized products
        and every trace record keep their bits: |k| <= 250 alone, and
        |k| <= 60 with products of up to three factors, whose squares
        stay inside the double range."""
        X, y, config = self.scalable_design(seed, interactions)
        bound = 60 if interactions else 250
        powers = data.draw(st.lists(st.integers(-bound, bound),
                                    min_size=X.shape[1],
                                    max_size=X.shape[1]), label="k")
        scaled = X * np.ldexp(1.0, powers)
        _, trace = run_rai(standardize(X, y), config)
        _, scaled_trace = run_rai(standardize(scaled, y), config)
        assert list(scaled_trace.records()) == list(trace.records())

    @given(seeds, st.data())
    @settings(max_examples=180, deadline=None)
    def test_positive_scaling_keeps_selection_and_wealth(self, seed, data):
        """Scaling columns by 10^u, u in [-150, 150], moves standardized
        columns in their last bits only: without interactions the
        selection, the number of tests and the final wealth are the
        ones made at scale 1, bit for bit."""
        X, y, config = self.scalable_design(seed, False)
        exponents = data.draw(st.lists(
            st.floats(-150.0, 150.0), min_size=X.shape[1],
            max_size=X.shape[1]), label="u")
        scaled = X * 10.0 ** np.array(exponents)
        state, trace = run_rai(standardize(X, y), config)
        scaled_state, scaled_trace = run_rai(standardize(scaled, y), config)
        assert scaled_state.selected == state.selected
        assert scaled_trace.n_tests() == trace.n_tests()
        assert scaled_trace.ledger.wealth == trace.ledger.wealth
