import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rai
from rai import FeatureTerm, ModelState, fit_terms, standardize
from rai.errors import (AllColumnsConstant, CollinearFeature,
                        ConstantResponse, SingularSubset)
from rai.kernel import COLLINEARITY_TOL, T_STAT_MAX, Screen

from conftest import (ols_fit, ols_r2, ols_t_stats, projected_gain,
                      projector_r2, random_raw)
from reference_kernel import (InsufficientDf, adjusted_column, gain,
                              partial_correlation, t_statistic)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestStandardize:

    def test_single_column_center_normalize(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([3.0, 1.0, 2.0])
        ds = standardize(X, y)
        np.testing.assert_allclose(
            ds.columns[:, 0], [-1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)],
            atol=1e-12)

    def test_dataset_invariants(self, small_dataset):
        ds = small_dataset
        for col in list(ds.columns.T) + [ds.response]:
            assert abs(col.sum()) <= 1e-8 * ds.n
            assert abs(np.linalg.norm(col) - 1.0) <= 1e-10

    def test_constant_column_removed_with_warning(self):
        X = np.column_stack([np.full(10, 5.0), np.arange(10.0)])
        y = np.arange(10.0) ** 2
        with pytest.warns(UserWarning):
            ds = standardize(X, y)
        assert ds.p == 1
        assert ds.names == ("X2",)

    def test_all_columns_constant(self):
        X = np.full((8, 3), 2.0)
        with pytest.raises(AllColumnsConstant):
            standardize(X, np.arange(8.0))

    def test_constant_response(self):
        X = np.arange(12.0).reshape(6, 2)
        with pytest.raises(ConstantResponse):
            standardize(X, np.full(6, 1.0))

    def test_rejects_nonfinite(self):
        X = np.ones((5, 2)) + np.arange(10).reshape(5, 2)
        X[2, 1] = np.nan
        with pytest.raises(ValueError):
            standardize(X, np.arange(5.0))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            standardize(np.ones((2, 2)), np.array([0.0, 1.0]))

    def test_immutability(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.columns[0, 0] = 99.0


class TestAdjustedColumn:

    def test_empty_model_returns_column(self, small_dataset):
        state = ModelState.empty(small_dataset)
        np.testing.assert_allclose(
            adjusted_column(state, 3), small_dataset.columns[:, 3],
            atol=1e-12)

    def test_span_member_vanishes(self):
        # column 2 = column 0 + column 1 exactly in the raw data
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 30))
        X = np.column_stack([a, b, a + b])
        y = rng.normal(size=30)
        ds = standardize(X, y)
        state = ModelState.empty(ds).add_feature(0).add_feature(1)
        assert np.linalg.norm(adjusted_column(state, 2)) <= 1e-8

    def test_orthogonal_design_unchanged(self):
        # exactly orthogonal columns via QR
        rng = np.random.default_rng(1)
        M = rng.normal(size=(40, 5))
        Q, _ = np.linalg.qr(M - M.mean(axis=0))
        y = rng.normal(size=40)
        ds = standardize(Q, y)
        state = ModelState.empty(ds).add_feature(0).add_feature(1)
        np.testing.assert_allclose(
            adjusted_column(state, 4), ds.columns[:, 4], atol=1e-6)

    def test_orthogonal_to_basis(self, correlated_dataset):
        state = ModelState.empty(correlated_dataset)
        for j in (0, 3, 5):
            state = state.add_feature(j)
        adj = adjusted_column(state, 6)
        for q in state.basis:
            assert abs(q @ adj) <= 1e-8


class TestPartialCorrelation:

    def test_exact_fit_gives_one(self):
        x = np.arange(20.0)
        ds = standardize(x[:, None], x.copy())
        state = ModelState.empty(ds)
        assert partial_correlation(state, 0) == pytest.approx(1.0)

    def test_orthogonal_noise_gives_zero(self):
        n = 16
        x = np.zeros(n)
        x[:2] = (1.0, -1.0)
        y = np.zeros(n)
        y[2:4] = (1.0, -1.0)
        ds = standardize(x[:, None], y)
        state = ModelState.empty(ds)
        assert abs(partial_correlation(state, 0)) <= 1e-12

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_matches_ols_oracle(self, seed):
        """rho^2 equals the R^2 gain ratio from an independent solve."""
        X, y = random_raw(seed, 40, 5)
        ds = standardize(X, y)
        state = ModelState.empty(ds).add_feature(0).add_feature(2)
        rho = partial_correlation(state, 4)
        r2_with = ols_r2(X[:, [0, 2, 4]], y)
        r2_without = ols_r2(X[:, [0, 2]], y)
        expected = (r2_with - r2_without) / (1.0 - r2_without)
        np.testing.assert_allclose(rho ** 2, expected, atol=1e-8)

    def test_collinear_raises(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=25)
        X = np.column_stack([a, 2.0 * a])
        ds = standardize(X, rng.normal(size=25))
        state = ModelState.empty(ds).add_feature(0)
        with pytest.raises(CollinearFeature):
            partial_correlation(state, 1)


class TestTStatistic:

    def test_zero_rho_zero_t(self):
        n = 16
        x = np.zeros(n)
        x[:2] = (1.0, -1.0)
        y = np.zeros(n)
        y[2:4] = (1.0, -1.0)
        ds = standardize(x[:, None], y)
        assert t_statistic(ModelState.empty(ds), 0) == 0.0

    def test_perfect_fit_sentinel(self):
        x = np.arange(10.0)
        ds = standardize(x[:, None], 3.0 * x + 1.0)
        assert t_statistic(ModelState.empty(ds), 0) == T_STAT_MAX

    def test_sign_matches_rho(self):
        x = np.arange(30.0)
        rng = np.random.default_rng(3)
        y = -2.0 * x + rng.normal(size=30)
        ds = standardize(x[:, None], y)
        assert t_statistic(ModelState.empty(ds), 0) < 0

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_matches_ols_t_within_1e6(self, seed):
        """t for the candidate equals its OLS coefficient t-test."""
        X, y = random_raw(seed, 45, 6)
        ds = standardize(X, y)
        state = ModelState.empty(ds).add_feature(1).add_feature(3)
        t_engine = t_statistic(state, 5)
        t_oracle = ols_t_stats(X[:, [1, 3, 5]], y)[-1]
        np.testing.assert_allclose(t_engine, t_oracle, rtol=1e-6)

    def test_insufficient_df(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(4, 3))
        ds = standardize(X, rng.normal(size=4))
        state = ModelState.empty(ds).add_feature(0)
        # n - |S| - 2 = 4 - 1 - 2 = 1 is fine; one more selection kills it
        state = state.add_feature(1)
        with pytest.raises(InsufficientDf):
            t_statistic(state, 2)


class TestAddFeature:

    def test_marginal_r2_is_corr_squared(self, small_dataset):
        ds = small_dataset
        c = float(ds.columns[:, 2] @ ds.response)
        state = ModelState.empty(ds).add_feature(2)
        np.testing.assert_allclose(state.r_squared, c ** 2, atol=1e-10)

    def test_spanning_set_gives_r2_one(self):
        rng = np.random.default_rng(5)
        n = 8
        X = rng.normal(size=(n, n))
        y = rng.normal(size=n)
        ds = standardize(X, y)
        state = ModelState.empty(ds)
        for j in range(ds.p):
            if np.linalg.norm(adjusted_column(state, j)) > COLLINEARITY_TOL:
                state = state.add_feature(j)
        # centered columns span the centered space once n-1 independent ones are in
        np.testing.assert_allclose(state.r_squared, 1.0, atol=1e-8)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_three_adds_match_batch_ols(self, seed):
        X, y = random_raw(seed, 50, 7)
        ds = standardize(X, y)
        state = ModelState.empty(ds)
        for j in (4, 0, 6):
            state = state.add_feature(j)
        np.testing.assert_allclose(
            state.r_squared, ols_r2(X[:, [4, 0, 6]], y), atol=1e-8)

    def test_gain_identity_at_add_time(self, correlated_dataset):
        ds = correlated_dataset
        state = ModelState.empty(ds).add_feature(1)
        rho = partial_correlation(state, 4)
        before = state.r_squared
        after = state.add_feature(4).r_squared
        np.testing.assert_allclose(
            after - before, rho ** 2 * (1.0 - before), atol=1e-10)

    def test_basis_stays_orthonormal(self, correlated_dataset):
        state = ModelState.empty(correlated_dataset)
        for j in (0, 1, 2, 3, 4):
            state = state.add_feature(j)
        B = np.array(state.basis)
        G = B @ B.T
        np.testing.assert_allclose(G, np.eye(len(B)), atol=1e-8)
        for q in state.basis:
            assert abs(q @ state.residual) <= 1e-8

    def test_residual_identity(self, correlated_dataset):
        state = ModelState.empty(correlated_dataset)
        for j in (2, 5):
            state = state.add_feature(j)
        np.testing.assert_allclose(
            state.r_squared, 1.0 - state.residual @ state.residual,
            atol=1e-10)


class TestRSquaredOf:

    def test_empty_subset(self, small_dataset):
        assert rai.r_squared_of(small_dataset, []) == 0.0

    def test_response_in_span(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 3))
        y = X @ np.array([1.0, -2.0, 0.5])
        ds = standardize(X, y)
        np.testing.assert_allclose(
            rai.r_squared_of(ds, [0, 1, 2]), 1.0, atol=1e-10)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_matches_projector_oracle(self, seed):
        X, y = random_raw(seed, 35, 6, correlated=True)
        ds = standardize(X, y)
        subset = [1, 3, 5]
        np.testing.assert_allclose(
            rai.r_squared_of(ds, subset), projector_r2(ds, subset),
            atol=1e-10)

    def test_singular_subset_raises(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=30)
        X = np.column_stack([a, -a, rng.normal(size=30)])
        ds = standardize(X, rng.normal(size=30))
        with pytest.raises(SingularSubset):
            rai.r_squared_of(ds, [0, 1])


class TestGain:

    def test_subset_of_selected_is_zero(self, small_dataset):
        assert gain(small_dataset, [0, 1, 2], [1]) == pytest.approx(
            0.0, abs=1e-12)

    def test_empty_base(self, small_dataset):
        np.testing.assert_allclose(
            gain(small_dataset, [], [2, 4]),
            rai.r_squared_of(small_dataset, [2, 4]), atol=1e-12)

    def test_orthogonal_addition_decomposes(self):
        # QR columns are exactly orthogonal, so gains add
        rng = np.random.default_rng(8)
        M = rng.normal(size=(40, 6))
        Q, _ = np.linalg.qr(M - M.mean(axis=0))
        y = rng.normal(size=40)
        ds = standardize(Q, y)
        both = gain(ds, [0], [2, 4])
        single = gain(ds, [0], [2]) + gain(ds, [0], [4])
        np.testing.assert_allclose(both, single, atol=1e-8)


class TestCoefficients:

    def test_empty_model_intercept_is_mean(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(25, 3))
        y = rng.normal(loc=7.0, size=25)
        ds = standardize(X, y)
        slopes, intercept = fit_terms(ds, [])
        assert slopes.size == 0
        assert intercept == pytest.approx(y.mean())

    def test_exact_linear_data(self):
        x = np.linspace(-3, 5, 40)
        X = np.column_stack([x, np.sin(x)])
        y = 2.0 * x + 3.0
        ds = standardize(X, y)
        slopes, intercept = fit_terms(ds, [FeatureTerm.marginal(0)])
        np.testing.assert_allclose(slopes, [2.0], atol=1e-8)
        np.testing.assert_allclose(intercept, 3.0, atol=1e-8)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_matches_raw_normal_equations(self, seed):
        X, y = random_raw(seed, 45, 5)
        ds = standardize(X, y)
        subset = [0, 2, 3]
        slopes, intercept = fit_terms(
            ds, [FeatureTerm.marginal(j) for j in subset])
        ic_oracle, sl_oracle, fitted = ols_fit(X[:, subset], y)
        np.testing.assert_allclose(slopes, sl_oracle, atol=1e-8)
        np.testing.assert_allclose(intercept, ic_oracle, atol=1e-8)
        pred = X[:, subset] @ slopes + intercept
        np.testing.assert_allclose(pred, fitted, atol=1e-8)


class TestKernelProperties:

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_lemma_r2_separation(self, seed):
        """R^2(S u T) = R^2(S) + R^2 of y on S-adjusted T columns."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 51))
        p = int(rng.integers(4, 9))
        X, y = random_raw(seed, n, p, correlated=bool(seed % 2))
        ds = standardize(X, y)
        perm = rng.permutation(ds.p)
        S = sorted(int(j) for j in perm[:2])
        T = sorted(int(j) for j in perm[2:4])
        lhs = rai.r_squared_of(ds, S + T)
        rhs = rai.r_squared_of(ds, S) + projected_gain(ds, T, S)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        X, y = random_raw(seed, 30, 7)
        ds = standardize(X, y)
        perm = rng.permutation(ds.p)
        S = [int(j) for j in perm[:2]]
        T = [int(j) for j in perm[2:5]]
        assert (rai.r_squared_of(ds, S)
                <= rai.r_squared_of(ds, S + T) + 1e-10)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_incremental_matches_batch_any_order(self, seed):
        rng = np.random.default_rng(seed)
        X, y = random_raw(seed, 40, 6, correlated=True)
        ds = standardize(X, y)
        subset = [0, 2, 5]
        target = rai.r_squared_of(ds, subset)
        order = list(rng.permutation(subset))
        state = ModelState.empty(ds)
        for j in order:
            state = state.add_feature(int(j))
        np.testing.assert_allclose(state.r_squared, target, atol=1e-8)


class TestScreen:

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_bounds_hold_exact_scores(self, seed):
        """Screened |rho| and |t| bracket the Gram-Schmidt values, for
        dataset columns and for appended columns alike."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        p = int(rng.integers(3, 12))
        X, y = random_raw(seed, n, p, correlated=bool(seed % 2))
        ds = standardize(X, y)
        state = ModelState.empty(ds)
        screen = Screen(ds)
        extra = rng.normal(size=(3, n))
        extra -= extra.mean(axis=1, keepdims=True)
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        half = int(rng.integers(0, 3))
        screen.add_columns(extra[:half])
        for j in rng.permutation(ds.p)[:min(3, ds.p - 1)]:
            state = state.add_feature(int(j))
            screen.sync(state)
        screen.add_columns(extra[half:])
        rho, low, high = screen.rho_bounds()
        t, t_low, t_high = screen.t_abs(state.df)
        for slot, column in enumerate(np.vstack((ds.columns.T, extra))):
            _, nrm, exact_rho, exact_t = state.score(column)
            if nrm ** 2 < 1e-3:
                continue   # in the span: the screen need not resolve it
            assert low[slot] <= abs(exact_rho) <= high[slot]
            assert t_low[slot] <= abs(exact_t) <= t_high[slot]
            assert rho[slot] == pytest.approx(abs(exact_rho), rel=1e-9,
                                              abs=1e-12)
            assert t[slot] == pytest.approx(abs(exact_t), rel=1e-9,
                                            abs=1e-12)

    def test_unresolvable_and_non_finite_slots_stay_open(self, small_dataset):
        state = ModelState.empty(small_dataset).add_feature(0)
        screen = Screen(small_dataset)
        screen.sync(state)
        bad = small_dataset.columns[:, 1].copy()
        bad[0] = np.nan
        p = small_dataset.p
        # a constant term's row is all NaN, a non-finite one partly so
        block = np.vstack((np.full(small_dataset.n, np.nan), bad))
        slots = screen.add_columns(block)
        assert slots.tolist() == [p, p + 1]
        # both slots score NaN, as the screen's products with a NaN do
        assert np.isnan(screen.inner[p:]).all()
        _, low, high = screen.rho_bounds()
        # column 0 is in the model's span; the NaN columns are unscorable
        for slot in (0, p, p + 1):
            assert low[slot] == 0.0 and high[slot] == np.inf
        _, _, t_high = screen.t_abs(state.df)
        assert (t_high[[0, p, p + 1]] == np.inf).all()
