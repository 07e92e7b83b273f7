import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rai import (RaiConfig, WealthLedger, pass_parameters, run_rai,
                 simulate, standardize)
from rai.simulate import SimSpec, recovery_targets, run_experiment
from rai.terms import FeatureTerm
from rai.wealth import (ACCOUNT_MAX, ALPHA_CEILING, ALPHA_FLOOR,
                        HALTED_WEALTH, REJECTED, REMOVED_COLLINEAR)

import reference_engine as ref
from conftest import charges, entries


class TestPassParameters:

    def test_threshold_formula(self):
        tlvl, _ = pass_parameters(2000, 1)
        assert tlvl == pytest.approx(31.622776601683796, abs=1e-12)

    def test_first_pass_alpha_underflows_gracefully(self):
        _, alpha = pass_parameters(2000, 1)
        # 2*Phi(-31.62) is astronomically small but must stay positive
        assert 0 < alpha < 1e-100
        assert alpha == pytest.approx(1.7958327848009244e-219, rel=1e-12)

    def test_alpha_floor(self):
        _, alpha = pass_parameters(10**6, 1)
        assert alpha == ALPHA_FLOOR

    def test_alpha_ceiling(self):
        # at n = 100, pass 114's threshold is ~7e-17, where erfc rounds
        # to 1, a level no ledger accepts; every later pass is clamped too
        tlvl, alpha = pass_parameters(100, 114)
        assert math.erfc(tlvl / math.sqrt(2.0)) == 1.0
        assert alpha == ALPHA_CEILING == math.nextafter(1.0, 0.0)
        assert pass_parameters(100, 10**4)[1] == ALPHA_CEILING
        ledger = WealthLedger(2.0)
        assert ledger.spend(alpha, ["x"], 114, [0.0]) == 1

    def test_standard_level_at_critical_t(self):
        # whatever (n, s) lands the threshold at 1.96 must price it at 0.05
        tlvl = 1.959964
        n = 100
        s = 2 * math.log2(math.sqrt(n) / tlvl)
        t2, alpha = pass_parameters(n, s)
        assert t2 == pytest.approx(tlvl, rel=1e-12)
        assert alpha == pytest.approx(0.05, abs=1e-6)

    def test_two_passes_halve_threshold(self):
        for s in (1, 2, 3):
            t1, _ = pass_parameters(500, s)
            t2, _ = pass_parameters(500, s + 2)
            assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)

    def test_frozen_values(self):
        tlvl, alpha = pass_parameters(100, 4)
        assert tlvl == pytest.approx(2.5, abs=1e-12)
        assert alpha == pytest.approx(0.012419330651552278, rel=1e-12)
        tlvl, alpha = pass_parameters(100, 6)
        assert tlvl == pytest.approx(1.25, abs=1e-12)
        assert alpha == pytest.approx(0.21129954733371056, rel=1e-12)

    @given(st.integers(10, 100000), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_pass_index(self, n, s):
        t1, a1 = pass_parameters(n, s)
        t2, a2 = pass_parameters(n, s + 1)
        assert t2 < t1
        assert 0 < a1 < 1
        # alpha strictly increases until both sides hit the clamp
        assert a2 > a1 or a1 == a2 == ALPHA_FLOOR

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pass_parameters(0, 1)
        with pytest.raises(ValueError):
            pass_parameters(100, 0)


class TestWealthLedger:

    def test_spend_reduces_wealth(self):
        led = WealthLedger()
        assert led.spend(0.01, test_ids=[0], pass_index=1) == 1
        assert led.wealth == pytest.approx(0.24)

    def test_overdraft_refused_and_commits_nothing(self):
        led = WealthLedger(initial_wealth=0.005)
        assert led.spend(0.01, test_ids=[0], pass_index=1) == 0
        assert led.wealth == 0.005
        assert led.total_spent() == 0.0
        assert led.runs == []

    def test_run_stops_before_the_first_unaffordable_charge(self):
        led = WealthLedger(initial_wealth=0.25)
        assert led.spend(0.1, [0, 1, 2, 3], 1, [0.5, 0.6, 0.7, 0.8]) == 2
        assert led.wealth == 0.25 - 0.1 - 0.1
        assert entries(led, "ids") == [0, 1]
        assert entries(led, "t_abs") == [0.5, 0.6]
        assert entries(led, "before") == [0.25, 0.25 - 0.1]

    def test_two_spends(self):
        led = WealthLedger()
        led.spend(0.1, [0], 1)
        led.spend(0.1, [1], 1)
        assert led.wealth == pytest.approx(0.05)

    def test_earn_after_spend(self):
        led = WealthLedger()
        led.spend(0.01, [0], 1)
        led.earn(0)
        assert led.wealth == pytest.approx(0.29)
        assert led.rejections == 1
        assert entries(led, "decision")[-1] == REJECTED

    def test_earn_requires_matching_last_spend(self):
        led = WealthLedger()
        led.spend(0.01, [0], 1)
        with pytest.raises(ValueError):
            led.earn(99)
        led.earn(0)
        with pytest.raises(ValueError):
            led.earn(0)  # already settled

    def test_earn_before_any_spend(self):
        led = WealthLedger()
        with pytest.raises(ValueError, match="earn before any spend"):
            led.earn(0)
        assert led.wealth == 0.25

    def test_earn_refused_after_multi_test_run(self):
        led = WealthLedger()
        led.spend(0.01, [0, 1], 1)
        with pytest.raises(ValueError):
            led.earn(1)
        assert led.rejections == 0
        assert led.wealth == 0.25 - 0.01 - 0.01

    def test_identity_with_k_rejections(self):
        led = WealthLedger()
        spends = [0.02, 0.01, 0.03, 0.015]
        for i, a in enumerate(spends):
            led.spend(a, [i], 1)
            if i % 2 == 0:
                led.earn(i)
        expected = 0.25 - sum(spends) + 0.05 * 2
        assert led.wealth == pytest.approx(expected, abs=1e-12)

    def test_replay_reconstructs_exactly(self):
        led = WealthLedger(initial_wealth=0.4, payout=0.07)
        led.spend(0.05, [0], 1)
        led.earn(0)
        led.spend(0.02, [1], 2)
        led.spend(0.11, [2], 2)
        led.earn(2)
        assert led.replay() == led.wealth

    def test_replay_passes_over_uncharged_entries(self):
        # a +-1 column, whose square is constant, and a 0/1 column, whose
        # square is itself, put removed_collinear entries in the log, and
        # the run ends on a halted_wealth entry
        rng = np.random.default_rng(20151)
        X = rng.normal(1.0, 1.0, size=(300, 12))
        X[:, 10] = rng.choice([-1.0, 1.0], 300)
        X[:, 11] = rng.integers(0, 2, 300)
        y = (X[:, 0] + X[:, 1] + 1.5 * X[:, 0] * X[:, 1] + 0.8 * X[:, 10]
             + 0.8 * X[:, 11] + rng.normal(size=300))
        _, trace = run_rai(standardize(X, y), RaiConfig(interactions=True))
        led = trace.ledger
        assert {REMOVED_COLLINEAR, HALTED_WEALTH} <= set(entries(led,
                                                                 "decision"))
        assert led.replay() == led.wealth

    @given(st.lists(st.tuples(st.floats(1e-6, 0.2), st.booleans()),
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_ledger_invariants_under_random_traffic(self, moves):
        """Wealth identity, no overdraft, replay exactness."""
        led = WealthLedger()
        for i, (alpha, hit) in enumerate(moves):
            if led.wealth < alpha:
                assert led.spend(alpha, [i], 1) == 0
                break
            assert led.spend(alpha, [i], 1) == 1
            if hit:
                led.earn(i)
        identity = (led.initial_wealth - led.total_spent()
                    + led.payout * led.rejections)
        assert led.wealth == pytest.approx(identity, abs=1e-12)
        assert led.wealth >= 0
        assert led.replay() == led.wealth
        assert led.rejections == entries(led, "decision").count(REJECTED)
        assert led.total_spent() <= (led.initial_wealth
                                     + led.payout * led.rejections + 1e-12)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            WealthLedger(initial_wealth=0.0)
        with pytest.raises(ValueError):
            WealthLedger(payout=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_wealth_and_payout_rejected(self, value):
        # a NaN account would never refuse an overdraft
        with pytest.raises(ValueError):
            WealthLedger(initial_wealth=value)
        with pytest.raises(ValueError):
            WealthLedger(payout=value)

    @pytest.mark.parametrize("field,value", [
        ("initial_wealth", 1e308), ("initial_wealth", 1.0000000001e300),
        ("payout", 1e308), ("payout", math.nextafter(ACCOUNT_MAX, math.inf))])
    def test_an_account_that_could_overflow_is_refused(self, field, value):
        # an infinite account could never overdraw; the error names the
        # field, the flag and the value
        flag = {"initial_wealth": "--wealth", "payout": "--payout"}[field]
        message = f"{field} ({flag}) must be at most 1e+300, got {value}"
        for make in (WealthLedger, RaiConfig):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(**{field: value})

    def test_invalid_alpha(self):
        led = WealthLedger()
        with pytest.raises(ValueError):
            led.spend(0.0, [0], 1)
        with pytest.raises(ValueError):
            led.spend(1.5, [0], 1)


@st.composite
def charge_plans(draw):
    """(w0, [(alpha, run length, test and earn after the run), ...]).

    Alphas include the floor and, with some w0, a power of two that w0
    is an exact multiple of, so a run can end on wealth exactly equal to
    alpha (still payable) and then exactly 0."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 30))
        exact = 2.0 ** -k
        w0 = exact * draw(st.integers(1, 5000))
        pool = st.sampled_from([exact, exact * 2.0, ALPHA_FLOOR])
    else:
        w0 = draw(st.floats(1e-6, 50.0))
        pool = st.one_of(st.just(ALPHA_FLOOR),
                         st.floats(1e-300, 0.999),
                         st.floats(w0 / 5000.0, min(w0, 0.999)))
    runs = draw(st.lists(
        st.tuples(pool, st.integers(0, 5000), st.booleans()),
        min_size=1, max_size=6))
    return w0, runs


class TestRunCharging:
    """Charging runs must match a loop of scalar charges on the scalar
    ledger in tests/reference_engine.py, bit for bit."""

    @given(charge_plans())
    @settings(max_examples=60, deadline=None)
    def test_runs_match_scalar_loop(self, plan):
        w0, runs = plan
        led = WealthLedger(initial_wealth=w0, payout=0.05)
        want = ref.WealthLedger(initial_wealth=w0, payout=0.05)
        next_id = 0
        for s, (alpha, length, earn) in enumerate(runs, start=1):
            ids = list(range(next_id, next_id + length))
            next_id += length
            halt = length
            for k, test_id in enumerate(ids):
                if want.wealth < alpha:
                    halt = k
                    break
                want.spend(alpha, test_id, s)
            assert led.spend(alpha, ids, s) == halt
            assert led.wealth.hex() == want.wealth.hex()
            if earn and want.wealth >= alpha:
                # a rejection is one test charged alone, as on the
                # engine's exact path
                assert led.spend(alpha, [next_id], s) == 1
                want.spend(alpha, next_id, s)
                led.earn(next_id)
                want.earn(next_id)
                next_id += 1
        assert charges(led) == [astuple(e) for e in want.events]
        assert led.replay().hex() == want.replay().hex() == led.wealth.hex()
        assert led.total_spent().hex() == want.total_spent().hex()
        assert led.rejections == want.rejections


def scripted_study(monkeypatch, selections):
    """Run a single-interaction study whose replication `rep` selects
    `selections[rep]`, so its false rejection and rejection totals are
    set by hand: support is {X1, X2}, any term touching X3..X5 is false.
    """
    picks = iter(selections)

    def scripted(method, dataset, y, true_fit):
        selected = list(next(picks))
        yhat = np.full(y.size, float(y.mean()))
        return yhat, selected, 1, 0.0, len(selected)

    monkeypatch.setattr(simulate, "_run_method", scripted)
    spec = SimSpec(n=50, p=5, scenario="single_interaction",
                   replications=len(selections), base_seed=0)
    return run_experiment(spec, "rai")["summary"]


class TestMfdr:
    """The plug-in marginal FDR estimate of a study summary,
    (V/m) / (R/m + 1) over its m replications."""

    def test_zero_false_rejections(self, monkeypatch):
        spec = SimSpec(n=50, p=5, scenario="single_interaction",
                       replications=1)
        true_terms = recovery_targets(spec)  # X1, X2 and X1*X2
        summary = scripted_study(
            monkeypatch, [true_terms[:rep % 4] for rep in range(10)])
        assert summary["false_rejections_total"] == 0
        assert summary["rejections_total"] == 13
        assert summary["mfdr_estimate"] == 0.0

    def test_plugin_formula(self, monkeypatch):
        false, true = FeatureTerm.marginal(2), FeatureTerm.marginal(0)
        selections = [[false]] * 3 + [[true]] * 7 + [[]] * 10
        summary = scripted_study(monkeypatch, selections)
        assert summary["false_rejections_total"] == 3
        assert summary["rejections_total"] == 10
        assert summary["failed"] == 0
        expected = (3 / 20) / ((10 / 20) + 1.0)
        assert summary["mfdr_estimate"] == pytest.approx(expected)
