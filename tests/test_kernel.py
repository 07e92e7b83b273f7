import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rai
from rai import FeatureTerm, ModelState, fit_terms, standardize
from rai.errors import (AllColumnsConstant, CollinearFeature,
                        ConstantResponse, SingularSubset)
from rai.kernel import (COLLINEARITY_TOL, RESIDUAL_TOL, SCREEN_ERR,
                        SCREEN_MARGIN, T_STAT_MAX, Screen, _t_of)

from conftest import (counting, ols_fit, ols_r2, ols_t_stats, projected_gain,
                      projector_r2, random_parts, random_raw)
from reference_kernel import (InsufficientDf, adjusted_column, gain,
                              partial_correlation, t_of_rho, t_statistic)

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

    @pytest.mark.parametrize("shape, n_y, names, message", [
        ((5,), 5, None, "raw_matrix must be 2-dimensional"),
        ((5, 2), 4, None, "response length does not match the design"),
        ((5, 2), 5, ["a"], "names length does not match the design"),
    ])
    def test_rejects_mismatched_shapes(self, shape, n_y, names, message):
        X = np.arange(float(np.prod(shape))).reshape(shape) ** 2
        with pytest.raises(ValueError, match=message):
            standardize(X, np.arange(float(n_y)), names)

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

    def test_perfect_fit_sentinel_screened(self):
        # the screen's |t| of a column that explains the response
        # exactly is the exact path's stand-in, not inf; an unbounded or
        # NaN |rho| bound stays inf, so no threshold settles it
        x = np.arange(10.0)
        ds = standardize(x[:, None], 3.0 * x + 1.0)
        t = Screen(ds).settled(ModelState.empty(ds), np.arange(1), np.inf)
        assert t.tolist() == [T_STAT_MAX]
        assert _t_of(np.array([1.0, np.inf, np.nan]), 8).tolist() == [
            T_STAT_MAX, np.inf, np.inf]

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


class TestScore:

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_is_untestable(self, small_dataset, bad):
        # checked before any arithmetic, so nothing warns
        state = ModelState.empty(small_dataset).add_feature(0)
        column = small_dataset.columns[:, 1].copy()
        column[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert state.score(column) is None
            assert state.score(np.full(small_dataset.n, bad)) is None

    def test_column_in_span_is_untestable(self, correlated_dataset):
        ds = correlated_dataset
        state = ModelState.empty(ds).add_feature(2).add_feature(5)
        assert state.score(ds.columns[:, 2]) is None
        combined = ds.columns[:, 2] - 3.0 * ds.columns[:, 5]
        assert state.score(combined / np.linalg.norm(combined)) is None
        assert state.score(ds.columns[:, 1]) is not None

    def test_exhausted_residual_scores_zero(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 4))
        ds = standardize(X, X[:, 0] - 2.0 * X[:, 1])
        state = ModelState.empty(ds).add_feature(0).add_feature(1)
        assert state.rnorm < RESIDUAL_TOL
        for j in (2, 3):
            adj, nrm, rho, t = state.score(ds.columns[:, j])
            assert nrm == float(np.linalg.norm(adj)) > COLLINEARITY_TOL
            assert (rho, t) == (0.0, 0.0)


class TestAddFeature:

    @pytest.mark.parametrize("selected", [False, True])
    def test_add_adjusted_refuses_a_vanishing_column(self, small_dataset,
                                                     selected):
        # a zero column, or a selected column adjusted against itself
        state = ModelState.empty(small_dataset)
        adj = np.zeros(small_dataset.n)
        if selected:
            state = state.add_feature(1)
            adj = state.adjusted_vector(small_dataset.columns[:, 1])
        with pytest.raises(CollinearFeature):
            state.add_adjusted(adj, 1)

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


def resolvable_score(state, column):
    """`state.score(column)`, or None where the screen need not resolve
    the column: untestable, or with adjusted norm^2 below 1e-3."""
    scored = state.score(column)
    return None if scored is None or scored[1] ** 2 < 1e-3 else scored


def column_stream(seed):
    """The generator a test draws its appended columns from.  It is a
    stream of its own: `random_raw(seed, ...)` draws the response noise
    from `default_rng(seed)`, and columns drawn from that stream were
    sometimes the noise itself (see TestScreen.test_noise_column)."""
    return np.random.default_rng([seed, 1])


def unit_rows(rng, k, n):
    """k random centred rows of unit norm, as `realize` returns them."""
    rows = rng.normal(size=(k, n))
    rows -= rows.mean(axis=1, keepdims=True)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


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
        extra = unit_rows(column_stream(seed), 3, n)
        half = int(rng.integers(0, 3))
        screen.add_columns(extra[:half])
        for j in rng.permutation(ds.p)[:min(3, ds.p - 1)]:
            state = state.add_feature(int(j))
        screen.add_columns(extra[half:])
        rho, low, high = screen.bounds(state, np.arange(ds.p + 3))
        # no bound is above inf, so every slot settles and is scored
        t = screen.settled(state, np.arange(ds.p + 3), np.inf)
        assert len(t) == ds.p + 3
        t_low, t_high = t_of_rho(low, state.df), screen.t[1]
        for slot, column in enumerate(np.vstack((ds.columns.T, extra))):
            scored = resolvable_score(state, column)
            if scored is None:
                continue   # in the span: the screen need not resolve it
            _, _, exact_rho, exact_t = scored
            assert low[slot] <= abs(exact_rho) <= high[slot]
            assert t_low[slot] <= abs(exact_t) <= t_high[slot]
            assert rho[slot] == pytest.approx(abs(exact_rho), rel=1e-9,
                                              abs=1e-12)
            assert t[slot] == pytest.approx(abs(exact_t), rel=1e-9,
                                            abs=1e-12)

    def test_noise_column(self):
        """A column equal to the response noise explains the residual
        exactly once the three planted columns and one more are in the
        model: the exact path and the screen both score it T_STAT_MAX.
        Seed 9277769 of `test_chunked_catch_up_holds_exact_scores` drew
        this case by chance while its columns shared random_raw's stream."""
        seed, n, p = 9277769, 51, 5
        X, signal, noise = random_parts(seed, n, p, correlated=True)
        ds = standardize(X, signal + noise)
        column = (noise - noise.mean())[None, :]   # a one-row block
        column /= np.linalg.norm(column)
        state = ModelState.empty(ds)
        for j in range(4):
            state = state.add_feature(j)
        screen = Screen(ds)
        slots = screen.add_columns(column)
        _, _, rho, t = state.score(column[0])
        assert (abs(rho), abs(t)) == (1.0, T_STAT_MAX)
        assert screen.settled(state, slots, np.inf).tolist() == [T_STAT_MAX]

    @given(seeds, st.data())
    @settings(max_examples=40, deadline=None)
    def test_chunked_catch_up_holds_exact_scores(self, seed, data):
        """With chunks of a few rows, any interleaving of model growth,
        appended columns, settles and full catch-ups leaves every slot a
        settle scores bracketing the exact |t|, and a full catch-up
        matches a fresh Q^T x and x . r."""
        rng = np.random.default_rng(seed)
        appended = column_stream(seed)
        n = int(rng.integers(20, 80))
        X, y = random_raw(seed, n, int(rng.integers(3, 25)),
                          correlated=bool(seed % 2))
        ds = standardize(X, y)
        rows = data.draw(st.integers(1, 4), label="rows per chunk")
        with mock.patch.object(rai.kernel, "CHUNK_BYTES", 8 * n * rows):
            screen = Screen(ds)
        columns = list(ds.columns.T)
        state = ModelState.empty(ds)
        ops = data.draw(st.lists(st.sampled_from(
            ["add", "columns", "settle", "full"]), max_size=16))
        for op in ops:
            if op == "add" and state.size < min(ds.p - 1, 5):
                j = data.draw(st.sampled_from(
                    sorted(set(range(ds.p)) - set(state.selected))))
                state = state.add_feature(j)
            elif op == "columns":
                extra = unit_rows(appended, int(rng.integers(1, 6)), n)
                start = len(columns)
                assert screen.add_columns(extra).tolist() == list(
                    range(start, start + len(extra)))
                columns += list(extra)
            elif op == "settle":
                slots = np.array(sorted(data.draw(st.sets(
                    st.integers(0, len(columns) - 1), min_size=1))))
                t = screen.settled(state, slots, np.inf)
                assert len(t) == len(slots)
                # the lower bound of `bounds`, on the settled slots
                # alone, so no other chunk is caught up
                _, low, _ = screen._rho_bounds(state.rnorm, slots)
                for slot, t_slot, t_low in zip(
                        slots.tolist(), t.tolist(),
                        t_of_rho(low, state.df).tolist()):
                    scored = resolvable_score(state, columns[slot])
                    if scored is not None:
                        exact = scored[3]
                        assert t_low <= abs(exact) <= screen.t[1, slot]
                        assert t_slot == pytest.approx(
                            abs(exact), rel=1e-9, abs=1e-12)
            elif op == "full":
                _, low, high = screen.bounds(state, np.arange(len(columns)))
                x = np.array(columns)
                fresh = x @ np.array(state.basis).reshape(state.size, n).T
                assert np.abs(screen.gram - (fresh ** 2).sum(axis=1)).max() \
                    <= SCREEN_ERR
                assert np.abs(screen.inner - x @ state.residual).max() \
                    <= SCREEN_ERR
                for slot, column in enumerate(columns):
                    scored = resolvable_score(state, column)
                    if scored is not None:
                        assert low[slot] <= abs(scored[2]) <= high[slot]

    @given(seeds, st.data())
    @settings(max_examples=40, deadline=None)
    def test_settled_is_the_prefix_of_a_fresh_scoring(self, seed, data):
        """With chunks of 1-4 rows and any interleaving of model growth,
        appended columns and settles: `settled` returns, bit for bit,
        the prefix that a fresh scoring of every slot at the handed
        model settles; each chunk takes in each basis vector once; and
        a chunk is rescored exactly when the walk reaches it after it
        took something in or was appended."""
        rng = np.random.default_rng(seed)
        appended = column_stream(seed)
        n = int(rng.integers(20, 80))
        X, y = random_raw(seed, n, int(rng.integers(3, 25)),
                          correlated=bool(seed % 2))
        ds = standardize(X, y)
        rows = data.draw(st.integers(1, 4), label="rows per chunk")
        products, rescored = Counter(), []
        counted = counting(products)
        score = Screen._t_abs

        def logged(screen, state, span):
            rescored.append(span.start)
            return score(screen, state, span)

        with mock.patch.object(rai.kernel, "CHUNK_BYTES", 8 * n * rows):
            # the twin takes the same states and columns and is only
            # read through a full catch-up: the fresh scoring
            screen, twin = Screen(ds), Screen(ds)
        # first slot -> [address of its rows, end, model size when last
        # scored] of every chunk
        chunks = {a: [ds.columns.T[a:].ctypes.data, min(a + rows, ds.p),
                      None] for a in range(0, ds.p, rows)}
        columns = list(ds.columns.T)
        state = ModelState.empty(ds)
        ops = data.draw(st.lists(st.sampled_from(
            ["add", "columns", "settle"]), max_size=16))
        for op in ops:
            if op == "add" and state.size < min(ds.p - 1, 5):
                j = data.draw(st.sampled_from(
                    sorted(set(range(ds.p)) - set(state.selected))))
                state = state.add_feature(j)
            elif op == "columns":
                extra = unit_rows(appended, int(rng.integers(1, 6)), n)
                start = len(columns)
                screen.add_columns(extra)
                twin.add_columns(extra)
                columns += list(extra)
                chunks.update({a: [extra[a - start:].ctypes.data,
                                   min(a + rows, len(columns)), None]
                               for a in range(start, len(columns), rows)})
            elif op == "settle":
                slots = np.array(sorted(data.draw(st.sets(
                    st.integers(0, len(columns) - 1), min_size=1))))
                fresh = t_of_rho(np.stack(twin.bounds(
                    state, np.arange(len(columns)))), state.df)
                fresh = fresh[:, slots]
                # a threshold at each upper bound, less the margin
                tlvl = data.draw(st.sampled_from(
                    [*(fresh[2] / (1.0 - SCREEN_MARGIN)).tolist(), np.inf]),
                    label="tlvl")
                below = tlvl * (1.0 - SCREEN_MARGIN)
                with mock.patch.object(Screen, "_t_abs", logged):
                    t = screen.settled(counted(state), slots, tlvl)
                opened = np.flatnonzero(~(fresh[2] <= below))
                k = int(opened[0]) if len(opened) else len(slots)
                assert t.tobytes() == fresh[0, :k].tobytes()
                # the walk reaches the chunk of every settled slot and
                # of the first open one, and rescores the stale ones
                reached = sorted({a for a, (_, end, _) in chunks.items()
                                  for slot in slots[:k + 1].tolist()
                                  if a <= slot < end})
                assert rescored == [a for a in reached
                                    if chunks[a][2] != state.size]
                rescored.clear()
                for a in reached:
                    chunks[a][2] = state.size
                    assert all(products[chunks[a][0], i] == 1
                               for i in range(state.size))
            assert max(products.values(), default=0) <= 1
        # a full catch-up takes in each vector in every chunk lacking it
        screen.bounds(counted(state), np.arange(len(columns)))
        assert products == Counter({(address, i): 1
                                    for address, _, _ in chunks.values()
                                    for i in range(state.size)})

    @given(seeds, st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_query_cadence_does_not_change_the_bits(self, seed, k):
        """A screen asked once after k additions holds the same gram,
        inner and bound bits as one asked after each addition, and a
        state's rnorm and coefs are the ones its residuals give, bit
        for bit."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 80))
        X, y = random_raw(seed, n, int(rng.integers(k + 1, 12)),
                          correlated=bool(seed % 2))
        ds = standardize(X, y)
        once, each = Screen(ds), Screen(ds)
        states = [ModelState.empty(ds)]
        slots = np.arange(ds.p)
        for j in rng.permutation(ds.p)[:k].tolist():
            states.append(states[-1].add_feature(j))
            each.bounds(states[-1], slots)
        state = states[-1]
        bounds = [np.stack(screen.bounds(state, slots)).tobytes()
                  for screen in (once, each)]
        assert bounds[0] == bounds[1]
        settled = [screen.settled(state, slots, np.inf).tobytes()
                   for screen in (once, each)]
        assert settled[0] == settled[1]
        assert once.gram.tobytes() == each.gram.tobytes()
        assert once.inner.tobytes() == each.inner.tobytes()
        assert once.t.tobytes() == each.t.tobytes()
        for i, (before, after) in enumerate(zip(states, states[1:])):
            assert after.coefs[:i] == before.coefs
            assert after.coefs[i] == float(
                np.dot(before.residual, after.basis[i]))
        for s in states:
            assert s.rnorm == float(np.linalg.norm(s.residual))
        # and the cached products hold the exact ones
        _, low, high = once.bounds(state, slots)
        assert np.abs(once.inner - ds.columns.T @ state.residual).max() \
            <= SCREEN_ERR
        for slot, column in enumerate(ds.columns.T):
            scored = resolvable_score(state, column)
            if scored is not None:
                assert low[slot] <= abs(scored[2]) <= high[slot]

    def test_design_rows_are_read_in_place(self, small_dataset):
        # slots 0..p-1 score the design's own rows, not a copy: a write
        # to row 0 shows in the products of the next catch-up
        ds = small_dataset
        rows = ds.columns.T.copy()
        own = rai.Dataset(rows.T, ds.response, ds.names, ds.response_mean,
                          ds.response_scale, ds.raw, ds.means, ds.scales)
        screen = Screen(own)
        rows[0] = rows[1]
        screen.bounds(ModelState.empty(own).add_feature(1), np.arange(own.p))
        assert screen.gram[0] == pytest.approx(1.0)
        assert screen.gram[2] == pytest.approx(
            float(np.dot(rows[2], rows[1])) ** 2)

    def test_settled_applies_the_margin(self, correlated_dataset):
        """`settled(state, slots, tlvl)` settles exactly the leading slots
        whose |t| upper bound is at or below tlvl * (1 - SCREEN_MARGIN),
        so a bound between that and tlvl stays open."""
        ds = correlated_dataset
        state = ModelState.empty(ds).add_feature(4)
        slots = np.delete(np.arange(ds.p), 4)
        high = t_of_rho(Screen(ds).bounds(state, slots)[2], state.df)
        assert np.isfinite(high).all()
        for bound in high.tolist():
            at = bound / (1.0 - SCREEN_MARGIN)
            for tlvl in (bound, at, np.nextafter(at, 0.0),
                         np.nextafter(at, np.inf), bound * (1.0 + 2e-7)):
                settled = high <= tlvl * (1.0 - SCREEN_MARGIN)
                k = len(slots) if settled.all() else int(np.argmin(settled))
                t = Screen(ds).settled(state, slots, tlvl)
                assert len(t) == k, (bound, tlvl)
            # the margin keeps the slot holding this bound open at tlvl
            assert np.flatnonzero(high == bound)[0] >= len(
                Screen(ds).settled(state, slots, bound))

    def test_unresolvable_and_non_finite_slots_stay_open(self, small_dataset):
        state = ModelState.empty(small_dataset).add_feature(0)
        screen = Screen(small_dataset)
        bad = small_dataset.columns[:, 1].copy()
        bad[0] = np.nan
        p = small_dataset.p
        # a constant term's row is all NaN, a non-finite one partly so
        block = np.vstack((np.full(small_dataset.n, np.nan), bad))
        slots = screen.add_columns(block)
        assert slots.tolist() == [p, p + 1]
        # both slots score NaN, as the screen's products with a NaN do
        assert np.isnan(screen.inner[p:]).all()
        _, low, high = screen.bounds(state, np.arange(p + 2))
        # column 0 is in the model's span; the NaN columns are unscorable
        for slot in (0, p, p + 1):
            assert low[slot] == 0.0 and high[slot] == np.inf
        # and no threshold settles them
        for slot in (0, p, p + 1):
            assert len(screen.settled(state, np.array([slot]),
                                      T_STAT_MAX)) == 0
            assert screen.t[1, slot] == np.inf
