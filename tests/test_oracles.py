import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rai
from rai import (BoundInputs, ModelState, aic, brute_force_subset,
                 forward_stepwise, r_squared_of, standardize,
                 submodularity_ratio, theorem_bound, theorem_bound_branches)
from rai.errors import (AllSubsetsSingular, BudgetExceeded, SingularStep)

import reference_engine as ref
from conftest import ols_r2, random_raw
from reference_kernel import gain

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def orthogonal_dataset(seed=0, n=40, p=6, y=None):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, p))
    Q, _ = np.linalg.qr(M - M.mean(axis=0))
    if y is None:
        y = rng.normal(size=n)
    return standardize(Q, y), Q


def greedy_oracle(X, y, k):
    """Exhaustive-gain greedy coded straight from R^2 evaluations."""
    chosen = []
    for _ in range(k):
        best_j, best_r2 = None, -1.0
        for j in range(X.shape[1]):
            if j in chosen:
                continue
            r2 = ols_r2(X[:, chosen + [j]], y)
            if r2 > best_r2 + 1e-12:
                best_r2, best_j = r2, j
        chosen.append(best_j)
    return chosen


class TestForwardStepwise:

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_first_pick_is_best_single(self, seed):
        X, y = random_raw(seed, 40, 9, correlated=bool(seed % 2))
        ds = standardize(X, y)
        path = forward_stepwise(ds, 1).selected
        best, _ = brute_force_subset(ds, 1)
        assert path == best

    def test_orthogonal_design_sorts_by_correlation(self):
        ds, _ = orthogonal_dataset(seed=4, n=50, p=6)
        corr = np.abs(ds.columns.T @ ds.response)
        path = forward_stepwise(ds, 4).selected
        assert list(path) == list(np.argsort(-corr)[:4])

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_matches_exhaustive_greedy(self, seed):
        X, y = random_raw(seed, 40, 10)
        ds = standardize(X, y)
        assert list(forward_stepwise(ds, 3).selected) == greedy_oracle(
            X, y, 3)

    def test_tie_breaks_low_index(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        X = np.column_stack([b, a, a.copy()])
        y = a + 0.1 * rng.normal(size=30)
        ds = standardize(X, y)
        assert forward_stepwise(ds, 1).selected == (1,)

    def test_aic_mode_matches_recomputation(self):
        for seed in (3, 9, 27):
            X, y = random_raw(seed, 60, 8)
            ds = standardize(X, y)
            path = forward_stepwise(ds).selected
            full = forward_stepwise(ds, min(ds.p, ds.n - 3)).selected
            # each prefix's AIC from a fresh QR, not from the path's states
            aics = [ds.n * math.log((1.0 - r_squared_of(ds, full[:m])) / ds.n)
                    + 2.0 * (m + 1) for m in range(len(full) + 1)]
            best_len = int(np.argmin(aics))
            assert path == full[:best_len]

    def test_noiseless_wide_path_stops_at_generating_columns(self):
        # p > n designs of the differential test's `wide` family with the
        # noiseless response y = X1 + X2 + X3: wherever the greedy path
        # picks those three first, their fit is exact and nothing may
        # follow them, whatever R^2 rounding leaves to the columns after
        qualifying = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 40))
            p = int(rng.integers(n + 1, 3 * n + 2))
            X = rng.normal(size=(n, p))
            ds = standardize(X, X[:, :3].sum(axis=1))
            if set(forward_stepwise(ds, 3).selected) != {0, 1, 2}:
                continue
            qualifying += 1
            assert sorted(forward_stepwise(ds).selected) == [0, 1, 2], seed
        assert qualifying == 174

    def test_exhausted_residual_takes_lowest_addable_column(self):
        # past an exact fit every gain is rounding error, so a fixed-k
        # path goes on in column order, as the scalar reference's does
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 400))
        ds = standardize(X, X[:, :3].sum(axis=1))
        path = forward_stepwise(ds, 40).selected
        assert path == (2, 0, 1, *range(3, 40))
        assert ref.forward_stepwise(ds, 40).selected == path

    def test_singular_step(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=20)
        X = np.column_stack([a, 2 * a, -a])
        ds = standardize(X, rng.normal(size=20))
        with pytest.raises(SingularStep):
            forward_stepwise(ds, 2)

    @pytest.mark.parametrize("k", [-1, 7])
    def test_k_out_of_range(self, small_dataset, k):
        with pytest.raises(ValueError, match=r"k must lie in \[0, 6\]"):
            forward_stepwise(small_dataset, k)


class TestAic:

    def test_empty_model_value(self, small_dataset):
        n = small_dataset.n
        assert aic(ModelState.empty(small_dataset)) == pytest.approx(
            n * math.log(1.0 / n) + 2.0)

    def test_zero_gain_feature_adds_two(self):
        rng = np.random.default_rng(11)
        M = rng.normal(size=(40, 5))
        Q, _ = np.linalg.qr(M - M.mean(axis=0))
        y = Q[:, 0] + 0.3 * Q[:, 1]  # orthogonal to columns 2..4
        ds = standardize(Q, y)
        state = ModelState.empty(ds).add_feature(0)
        assert aic(state.add_feature(3)) == pytest.approx(aic(state) + 2.0,
                                                          abs=1e-8)

    def test_perfect_fit_sentinel(self):
        x = np.arange(20.0)
        ds = standardize(x[:, None], 2 * x + 1)
        assert aic(ModelState.empty(ds).add_feature(0)) == -math.inf


class TestBruteForce:

    def test_exact_single_column(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(25, 5))
        y = X[:, 3] * 2.0
        ds = standardize(X, y)
        subset, r2 = brute_force_subset(ds, 1)
        assert subset == (3,)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_full_model(self, small_dataset):
        subset, r2 = brute_force_subset(small_dataset, small_dataset.p)
        assert subset == tuple(range(small_dataset.p))
        assert r2 == pytest.approx(
            rai.r_squared_of(small_dataset, list(subset)), abs=1e-12)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_matches_pairwise_enumeration(self, seed):
        X, y = random_raw(seed, 30, 8, correlated=True)
        ds = standardize(X, y)
        subset, r2 = brute_force_subset(ds, 2)
        best = max(
            (ols_r2(X[:, list(pair)], y), pair)
            for pair in itertools.combinations(range(8), 2))
        np.testing.assert_allclose(r2, best[0], atol=1e-10)
        assert r2 >= best[0] - 1e-10

    def test_tie_prefers_lexicographic(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=30)
        X = np.column_stack([a, a.copy(), rng.normal(size=30)])
        y = a + rng.normal(size=30) * 0.2
        ds = standardize(X, y)
        subset, _ = brute_force_subset(ds, 1)
        assert subset == (0,)

    def test_singular_pairs_use_span(self):
        # duplicated column: the {0,1} pair is rank one but still scored
        rng = np.random.default_rng(19)
        a = rng.normal(size=30)
        X = np.column_stack([a, a.copy(), rng.normal(size=30)])
        y = a + 0.3 * rng.normal(size=30)
        ds = standardize(X, y)
        subset, r2 = brute_force_subset(ds, 2)
        expected = max(ols_r2(X[:, [0, 2]], y), ols_r2(X[:, [0]], y))
        assert r2 == pytest.approx(expected, abs=1e-10)

    def test_budget_guard(self, small_dataset):
        with pytest.raises(BudgetExceeded):
            brute_force_subset(small_dataset, 3, budget=2)

    def test_env_budget(self, small_dataset, monkeypatch):
        monkeypatch.setenv("RAI_ENUM_BUDGET", "1")
        with pytest.raises(BudgetExceeded):
            brute_force_subset(small_dataset, 2)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_refused_by_name(self, small_dataset,
                                                 budget):
        with pytest.raises(ValueError,
                           match=f"^budget must be at least 1, got {budget}$"):
            brute_force_subset(small_dataset, 2, budget=budget)

    @pytest.mark.parametrize("k", [-1, 7])
    def test_k_out_of_range(self, small_dataset, k):
        with pytest.raises(ValueError, match=r"k must lie in \[0, 6\]"):
            brute_force_subset(small_dataset, k)


def gamma_oracle(ds, S, k):
    """Direct enumeration with explicit projectors and a dense solve."""
    y = ds.response
    if S:
        A = ds.columns[:, list(S)]
        P = np.eye(ds.n) - A @ np.linalg.pinv(A)
    else:
        P = np.eye(ds.n)
    rest = [j for j in range(ds.p) if j not in set(S)]
    best = math.inf
    for size in range(1, k + 1):
        for T in itertools.combinations(rest, size):
            Z = P @ ds.columns[:, list(T)]
            norms = np.linalg.norm(Z, axis=0)
            if np.any(norms <= 1e-12):
                continue
            Z = Z / norms
            r = Z.T @ y
            C = Z.T @ Z
            if np.linalg.eigvalsh(C)[0] < 1e-10:
                continue
            denom = r @ np.linalg.solve(C, r)
            if denom <= 1e-15:
                continue
            best = min(best, float(r @ r) / float(denom))
    return best


class TestSubmodularityRatio:

    def test_orthogonal_design_gives_one(self):
        ds, _ = orthogonal_dataset(seed=23, n=40, p=6)
        gamma, _ = submodularity_ratio(ds, [0, 1], 3)
        assert gamma == pytest.approx(1.0, abs=1e-8)

    def test_k_one_is_always_one(self, correlated_dataset):
        gamma, _ = submodularity_ratio(correlated_dataset, [2], 1)
        assert gamma == pytest.approx(1.0, abs=1e-12)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_matches_direct_enumeration(self, seed):
        X, y = random_raw(seed, 30, 6, correlated=True)
        ds = standardize(X, y)
        gamma, _ = submodularity_ratio(ds, [], 3)
        np.testing.assert_allclose(gamma, gamma_oracle(ds, [], 3),
                                   atol=1e-10)

    def test_with_base_set(self):
        X, y = random_raw(77, 35, 7, correlated=True)
        ds = standardize(X, y)
        gamma, _ = submodularity_ratio(ds, [1, 4], 2)
        np.testing.assert_allclose(gamma, gamma_oracle(ds, [1, 4], 2),
                                   atol=1e-10)
        assert gamma > 0

    def test_skipped_sets_reported(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=30)
        X = np.column_stack([a, a.copy(), rng.normal(size=30),
                             rng.normal(size=30)])
        y = a + rng.normal(size=30)
        ds = standardize(X, y)
        gamma, info = submodularity_ratio(ds, [], 2)
        assert info["n_skipped"] >= 1  # the duplicated pair is singular
        assert info["n_sets"] + info["n_skipped"] == 4 + 6

    def test_all_singular_raises(self):
        # response orthogonal to every column: all numerators are zero
        rng = np.random.default_rng(31)
        M = rng.normal(size=(30, 7))
        Q, _ = np.linalg.qr(M - M.mean(axis=0))
        y = Q[:, 6]
        ds = standardize(Q[:, :3], y)
        with pytest.raises(AllSubsetsSingular):
            submodularity_ratio(ds, [], 2)

    def test_budget_guard(self, correlated_dataset):
        with pytest.raises(BudgetExceeded):
            submodularity_ratio(correlated_dataset, [], 3, budget=3)

    @pytest.mark.parametrize("S, k, budget, error, message", [
        (range(8), 2, None, AllSubsetsSingular, "no columns outside S"),
        ([2], 0, None, ValueError, "k must be at least 1"),
        ([2], 2, 0, ValueError, "budget must be at least 1, got 0"),
    ])
    def test_invalid_arguments(self, correlated_dataset, S, k, budget,
                               error, message):
        with pytest.raises(error, match=message):
            submodularity_ratio(correlated_dataset, S, k, budget=budget)

    def test_columns_in_span_of_s_are_left_out(self):
        # a copy of a column in S adjusts to nothing: the ratio is that
        # of the design without the copy, and the copy's 4 sets (alone
        # and with each of the 3 others) count as skipped
        X, y = random_raw(41, 30, 4, correlated=True)
        with_copy = standardize(np.column_stack([X, X[:, 0]]), y)
        gamma, want = submodularity_ratio(standardize(X, y), [0], 2)
        assert submodularity_ratio(with_copy, [0], 2) == (
            gamma, {**want, "n_skipped": want["n_skipped"] + 4})

    def test_submodular_case_on_orthogonal_design(self):
        """gamma >= 1 comes with the defining inequality of submodular
        gains on all enumerated disjoint pairs."""
        ds, _ = orthogonal_dataset(seed=37, n=45, p=6)
        assert submodularity_ratio(ds, [0], 2)[0] >= 1.0 - 1e-10
        idx = list(range(ds.p))
        for T in ([], [0]):
            rest = [j for j in idx if j not in T]
            for A, B in itertools.combinations(rest, 2):
                lhs = (gain(ds, T, [A]) + gain(ds, T, [B]))
                rhs = gain(ds, T, [A, B])
                assert lhs >= rhs - 1e-8


class TestTheoremBound:

    def test_l_equals_k_constants(self):
        b = BoundInputs(r2_opt=1.0, l=3, k=3, gamma=1.0, s_f=1)
        additive, multiplicative = theorem_bound_branches(b)
        # c1 = 1 - 1/e, c2 = 1 - e^{-1/2}
        assert multiplicative == pytest.approx(0.3934693402873666,
                                               rel=1e-12)
        slack = sum(math.exp(-(j - 1) / 3.0) * 2.0 ** (j - 4)
                    for j in range(1, 4))
        assert additive == pytest.approx(
            0.6321205588285577 - slack, rel=1e-12)

    def test_frozen_minimal_case(self):
        b = BoundInputs(r2_opt=1.0, l=1, k=1, gamma=1.0, s_f=1)
        additive, multiplicative = theorem_bound_branches(b)
        assert additive == pytest.approx(0.13212055882855767, rel=1e-12)
        assert multiplicative == pytest.approx(0.3934693402873666,
                                               rel=1e-12)
        assert theorem_bound(b) == pytest.approx(0.3934693402873666,
                                                 rel=1e-12)

    def test_additive_branch_dominates_for_deep_runs(self):
        # long selection, late first rejection: the paid-off slack
        # vanishes and c1 > c2 takes over
        b = BoundInputs(r2_opt=0.9, l=8, k=2, gamma=1.0, s_f=6)
        additive, multiplicative = theorem_bound_branches(b)
        assert additive > multiplicative
        assert theorem_bound(b) == additive

    def test_scales_with_r2_opt(self):
        base = BoundInputs(r2_opt=1.0, l=2, k=2, gamma=0.8, s_f=1)
        half = BoundInputs(r2_opt=0.5, l=2, k=2, gamma=0.8, s_f=1)
        assert theorem_bound(half) <= theorem_bound(base)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(r2_opt=1.2, l=1, k=1, gamma=1.0, s_f=1)
        with pytest.raises(ValueError):
            BoundInputs(r2_opt=0.5, l=0, k=1, gamma=1.0, s_f=1)
        with pytest.raises(ValueError):
            BoundInputs(r2_opt=0.5, l=1, k=1, gamma=0.0, s_f=1)
        with pytest.raises(ValueError):
            BoundInputs(r2_opt=0.5, l=1, k=1, gamma=1.0, s_f=0)


class TestLemmaRsbnd:

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_gain_bounded_by_scaled_singletons(self, seed):
        """gain(S,T) <= sum of singleton gains / gamma(S,|T|)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(25, 51))
        X, y = random_raw(seed, n, 7, correlated=bool(seed % 2))
        ds = standardize(X, y)
        perm = [int(j) for j in rng.permutation(7)]
        S, T = perm[:2], perm[2:4]
        try:
            gamma, _ = submodularity_ratio(ds, S, len(T))
        except AllSubsetsSingular:
            return
        total = gain(ds, S, T)
        singles = sum(gain(ds, S, [x]) for x in T)
        assert total <= singles / gamma + 1e-8
