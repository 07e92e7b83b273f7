import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rai
from rai import (FeatureTerm, ModelState, RaiConfig, WealthLedger,
                 pass_parameters, run_rai, skip_passes, standardize,
                 test_candidate)
from rai.engine import (HALTED_WEALTH, NOT_REJECTED, REJECTED,
                        REMOVED_COLLINEAR, TERMINATED_PASSES,
                        TERMINATED_STREAM, TERMINATED_WEALTH)
from rai.errors import NoFinitePass

from conftest import random_raw

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def signal_dataset(seed=0, n=120, p=6):
    X, y = random_raw(seed, n, p)
    return standardize(X, y)


class TestTestCandidate:

    def setup_method(self):
        self.ds = signal_dataset()
        self.state = ModelState.empty(self.ds)
        self.term = FeatureTerm.marginal(0)

    def probe_t(self):
        led = WealthLedger()
        decision, _, t_abs = test_candidate(
            self.state, led, self.term, tlvl=1e17, alpha=0.01, pass_index=1)
        assert decision == NOT_REJECTED
        return t_abs

    def test_wealth_gate_blocks_without_event(self):
        led = WealthLedger(initial_wealth=0.005)
        decision, state, t = test_candidate(
            self.state, led, self.term, tlvl=1.0, alpha=0.01, pass_index=1)
        assert decision == HALTED_WEALTH
        assert t is None
        assert led.events == ()
        assert led.wealth == pytest.approx(0.005)

    def test_spend_precedes_comparison(self):
        led = WealthLedger()
        decision, _, _ = test_candidate(
            self.state, led, self.term, tlvl=1e17, alpha=0.02, pass_index=1)
        assert decision == NOT_REJECTED
        assert led.wealth == pytest.approx(0.23)
        assert len(led.events) == 1 and not led.events[0].rejected

    def test_boundary_is_strict(self):
        t_abs = self.probe_t()
        led = WealthLedger()
        decision, _, _ = test_candidate(
            self.state, led, self.term, tlvl=t_abs, alpha=0.01, pass_index=1)
        assert decision == NOT_REJECTED

    def test_rejection_just_below_boundary(self):
        t_abs = self.probe_t()
        led = WealthLedger()
        decision, state, _ = test_candidate(
            self.state, led, self.term, tlvl=t_abs * (1 - 1e-9),
            alpha=0.01, pass_index=1)
        assert decision == REJECTED
        assert led.wealth == pytest.approx(0.25 - 0.01 + 0.05)
        assert led.events[0].rejected
        assert list(state.selected) == [self.term]

    def test_collinear_removed_without_spend(self):
        state = self.state.add_feature(0)
        led = WealthLedger()
        decision, _, t = test_candidate(
            state, led, self.term, tlvl=1.0, alpha=0.01, pass_index=1)
        assert decision == REMOVED_COLLINEAR
        assert t is None
        assert led.events == ()
        assert led.wealth == pytest.approx(0.25)

    def test_constant_interaction_removed_without_spend(self):
        raw = np.column_stack([np.full(20, 2.0) + 0.0,
                               np.arange(20.0)])
        raw[0, 0] = 2.0
        ds = standardize(np.column_stack([np.arange(20.0) ** 2,
                                          np.arange(20.0)]),
                         np.arange(20.0) + 1.0)
        led = WealthLedger()
        # a term whose realized column is constant: X1^0 impossible, so
        # feed the resolved column directly as the engine does
        decision, _, _ = test_candidate(
            ModelState.empty(ds), led, FeatureTerm.marginal(0),
            tlvl=1.0, alpha=0.01, pass_index=1, column=None)
        assert decision == REMOVED_COLLINEAR
        assert led.events == ()

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
        assert led.events == () and led.wealth == 0.25
        assert after is state
        assert all(np.all(np.isfinite(q)) for q in after.basis)

    def test_non_finite_interaction_never_rejected(self, monkeypatch):
        # the batched screen must hand a non-finite column to the exact
        # path, which drops it; realization is patched to produce one
        rng = np.random.default_rng(8)
        X = rng.normal(1.0, 1.0, size=(200, 3))
        y = X[:, 0] + 3.0 * X[:, 0] * X[:, 1] + rng.normal(size=200)
        ds = standardize(X, y)
        realize = rai.engine.term_column

        def poisoned(dataset, term):
            col = realize(dataset, term)
            return np.full_like(col, np.nan) if term.order > 1 else col

        monkeypatch.setattr(rai.engine, "term_column", poisoned)
        state, trace = run_rai(ds, RaiConfig(interactions=True))
        recs = [rec for rec in trace.tests if rec.term.order > 1]
        assert recs
        assert all(rec.decision == REMOVED_COLLINEAR for rec in recs)
        assert all(rec.wealth_after == rec.wealth_before for rec in recs)
        assert all(t.order == 1 for t in state.selected)
        assert np.all(np.isfinite(state.residual))


class TestSkipPasses:

    def test_lands_on_first_clearable_pass(self):
        # max |t| sits 1% above the pass-5 threshold
        n = 400
        t_star = math.sqrt(n) * 2.0 ** (-5 / 2.0) * 1.01
        known = {FeatureTerm.marginal(0): 0.4,
                 FeatureTerm.marginal(1): t_star}
        led = WealthLedger(initial_wealth=5.0)
        s_next, halted, charged = skip_passes(known, led, 1, n, 20)
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
            {FeatureTerm.marginal(0): t_star}, led, 1, n, 20)
        assert s_next == 6

    def test_all_zero_raises(self):
        led = WealthLedger()
        with pytest.raises(NoFinitePass):
            skip_passes({FeatureTerm.marginal(0): 0.0}, led, 1, 100, 10)

    def test_halts_mid_charge_with_partial_commit(self):
        n = 100
        known = {FeatureTerm.marginal(j): 0.9 for j in range(3)}
        known[FeatureTerm.marginal(3)] = 1.3  # clears pass 7
        led = WealthLedger(initial_wealth=0.08)
        s_next, halted, charged = skip_passes(known, led, 1, n, 12)
        assert halted
        assert charged > 0
        assert led.wealth == pytest.approx(0.08 - charged, abs=1e-15)
        assert led.wealth < pass_parameters(n, s_next)[1]

    def test_charge_capped_at_max_passes(self):
        n = 400
        led = WealthLedger(initial_wealth=5.0)
        s_next, halted, charged = skip_passes(
            {FeatureTerm.marginal(0): 0.9}, led, 1, n, max_passes=3)
        assert s_next > 3
        assert not halted
        expected = sum(pass_parameters(n, u)[1] for u in (2, 3))
        assert charged == pytest.approx(expected, abs=1e-15)


class TestRunRai:

    def test_exact_fit_selected_first_pass(self):
        x = np.linspace(0, 1, 50)
        ds = standardize(x[:, None], 2.0 * x - 0.3)
        state, trace = run_rai(ds)
        assert [t.display() for t in state.selected] == ["X1"]
        assert state.r_squared == pytest.approx(1.0, abs=1e-12)
        assert trace.tests[0].pass_index == 1
        assert trace.tests[0].decision == REJECTED
        assert trace.termination == TERMINATED_STREAM

    def test_null_data_selects_nothing(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(100, 10))
        y = rng.normal(size=100)
        ds = standardize(X, y)
        state, trace = run_rai(ds)
        assert list(state.selected) == []
        assert trace.termination == TERMINATED_WEALTH
        assert trace.n_rejections() == 0

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
        for rec in trace.tests:
            assert rec.pass_index <= 2

    def test_determinism(self):
        ds = signal_dataset(seed=3, n=90, p=7)
        s1, t1 = run_rai(ds, RaiConfig(interactions=True))
        s2, t2 = run_rai(ds, RaiConfig(interactions=True))
        assert s1.selected == s2.selected
        assert t1.tests == t2.tests
        assert t1.skips == t2.skips
        assert t1.termination == t2.termination
        assert t1.ledger.wealth == t2.ledger.wealth

    def test_trace_replays_against_ledger(self):
        ds = signal_dataset(seed=7, n=130, p=9)
        _, trace = run_rai(ds)
        w = trace.ledger.initial_wealth
        events = iter(trace.ledger.events)
        for rec in trace.tests:
            assert rec.wealth_before == pytest.approx(w, abs=1e-15)
            if rec.decision in (REJECTED, NOT_REJECTED):
                ev = next(events)
                w -= ev.alpha
                assert ev.alpha == rec.alpha
                if rec.decision == REJECTED:
                    assert ev.rejected
                    w += trace.ledger.payout
            if rec.decision in (HALTED_WEALTH, REMOVED_COLLINEAR):
                assert rec.wealth_after == rec.wealth_before
            assert rec.wealth_after == pytest.approx(w, abs=1e-15)
            # skip charges interleave; fold them in when the cursor moved
            w = rec.wealth_after
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
            for rec in trace.tests:
                if rec.decision != REJECTED:
                    continue
                before = rebuilt.r_squared
                df = ds.n - rebuilt.size - 2
                floor = rec.tlvl ** 2 / (rec.tlvl ** 2 + df)
                j = rec.term.powers[0][0]
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
            rec.pass_index for rec in trace.tests
            if rec.decision == REJECTED)
        prod_rec = next(rec for rec in trace.tests if rec.term == prod)
        assert prod_rec.pass_index == first_marginal_pass

    def test_interactions_off_never_streams_products(self):
        ds = signal_dataset(seed=2, n=150, p=6)
        _, trace = run_rai(ds)
        assert all(rec.term.order == 1 for rec in trace.tests)

    def test_no_term_streamed_twice_per_pass(self):
        ds = signal_dataset(seed=6, n=140, p=7)
        _, trace = run_rai(ds, RaiConfig(interactions=True))
        seen = set()
        for rec in trace.tests:
            key = (rec.pass_index, rec.term.key)
            if rec.decision == HALTED_WEALTH:
                continue
            assert key not in seen
            seen.add(key)

    def test_selected_terms_never_retested(self):
        ds = signal_dataset(seed=13, n=160, p=8)
        state, trace = run_rai(ds)
        for term in state.selected:
            hits = [rec for rec in trace.tests if rec.term == term]
            assert hits[-1].decision == REJECTED
            assert all(r.decision != REJECTED for r in hits[:-1])

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
        assert [t.key for t in state.selected] == [
            t.key for t in unit_state.selected]
        assert [(r.term.key, r.decision) for r in trace.tests] == [
            (r.term.key, r.decision) for r in unit_trace.tests]
        assert trace.termination == unit_trace.termination
        assert state.r_squared == pytest.approx(unit_state.r_squared,
                                                rel=1e-12)
        slopes, intercept = rai.fit_terms(ds, state.selected)
        unit_slopes, unit_intercept = rai.fit_terms(unit_ds,
                                                    unit_state.selected)
        np.testing.assert_allclose(slopes, unit_slopes, rtol=1e-9)
        assert intercept == pytest.approx(unit_intercept * factor, rel=1e-9)

    # order-4 products of such data overflow to inf; those candidates
    # are removed as non-finite, with warnings
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        assert [t.key for t in unit.selected] == [((0, 1),), ((0, 2),)]
        assert [t.key for t in big.selected] == [t.key for t in unit.selected]
