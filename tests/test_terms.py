import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rai import (FeatureTerm, generate_candidates, monomial, realize,
                 standardize)
from rai.terms import term_column

exponent_maps = st.dictionaries(
    st.integers(0, 11), st.integers(1, 4), min_size=1, max_size=4)


class TestFeatureTerm:

    def test_marginal(self):
        t = FeatureTerm.marginal(3)
        assert t.order == 1
        assert t.powers == ((3, 1),)
        assert t.display() == "X4"

    def test_marginal_terms_are_shared(self):
        assert FeatureTerm.marginal(3) is FeatureTerm.marginal(3)
        assert FeatureTerm.marginal(3) == FeatureTerm(((3, 1),))

    def test_display_with_powers(self):
        t = FeatureTerm.from_exponents({2: 1, 3: 2})
        assert t.display() == "X3*X4^2"

    def test_display_with_names(self):
        t = FeatureTerm.from_exponents({0: 2, 4: 1})
        assert t.display(("age", "b", "c", "d", "water")) == "age^2*water"

    def test_canonical_ordering(self):
        a = FeatureTerm.from_exponents({5: 1, 1: 2})
        b = FeatureTerm(((1, 2), (5, 1)))
        assert a == b
        assert a.powers == b.powers

    def test_product_merges_exponents(self):
        a = FeatureTerm.from_exponents({0: 1, 1: 1})
        b = FeatureTerm.from_exponents({1: 1, 2: 1})
        assert a.product(b) == FeatureTerm.from_exponents({0: 1, 1: 2, 2: 1})

    def test_product_order_adds(self):
        a = FeatureTerm.from_exponents({3: 2})
        b = FeatureTerm.marginal(3)
        assert a.product(b).order == 3
        assert a.product(b).display() == "X4^3"

    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureTerm(())
        with pytest.raises(ValueError):
            FeatureTerm(((0, 0),))
        with pytest.raises(ValueError):
            FeatureTerm(((2, 1), (0, 1)))  # unsorted
        with pytest.raises(ValueError):
            FeatureTerm(((1, 1), (1, 2)))  # duplicate index

    @given(exponent_maps, exponent_maps)
    @settings(max_examples=100, deadline=None)
    def test_product_commutes(self, ea, eb):
        a, b = FeatureTerm.from_exponents(ea), FeatureTerm.from_exponents(eb)
        assert a.product(b) == b.product(a)
        assert a.product(b).order == a.order + b.order

    @given(exponent_maps)
    @settings(max_examples=100, deadline=None)
    def test_key_round_trips(self, exps):
        t = FeatureTerm.from_exponents(exps)
        assert FeatureTerm(t.powers) == t
        assert set(t.indices) == set(exps)


class TestGenerateCandidates:

    def test_self_product_square(self):
        x1 = FeatureTerm.marginal(0)
        out = generate_candidates([x1], x1)
        assert out == [FeatureTerm.from_exponents({0: 2})]

    def test_pairwise_and_square(self):
        x1, x2 = FeatureTerm.marginal(0), FeatureTerm.marginal(1)
        out = generate_candidates([x1, x2], x2)
        assert set(out) == {FeatureTerm.from_exponents({0: 1, 1: 1}),
                            FeatureTerm.from_exponents({1: 2})}

    def test_four_way_product_reachable(self):
        sel = [FeatureTerm.marginal(6), FeatureTerm.marginal(7),
               FeatureTerm.from_exponents({6: 1, 7: 1}),
               FeatureTerm.marginal(8), FeatureTerm.marginal(9),
               FeatureTerm.from_exponents({8: 1, 9: 1})]
        out = generate_candidates(sel, sel[-1])
        assert FeatureTerm.from_exponents({6: 1, 7: 1, 8: 1, 9: 1}) in out

    def test_excludes_selected_and_seen(self):
        x1, x2 = FeatureTerm.marginal(0), FeatureTerm.marginal(1)
        sq = FeatureTerm.from_exponents({1: 2})
        out = generate_candidates([x1, x2], x2, seen=[sq])
        assert sq not in out

    def test_order_cap(self):
        x1 = FeatureTerm.marginal(0)
        cube = FeatureTerm.from_exponents({0: 3})
        out = generate_candidates([x1, cube], cube, max_order=3)
        assert out == []  # every product would exceed order 3

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            generate_candidates([FeatureTerm.marginal(0)],
                                FeatureTerm.marginal(1))

    def test_selection_order_preserved(self):
        terms = [FeatureTerm.marginal(j) for j in (4, 0, 2)]
        new = FeatureTerm.marginal(2)
        out = generate_candidates(terms, new)
        assert out == [FeatureTerm.from_exponents({2: 1, 4: 1}),
                       FeatureTerm.from_exponents({0: 1, 2: 1}),
                       FeatureTerm.from_exponents({2: 2})]


def realize_one(term, raw):
    """realize on a block of one term: (column, mean, scale)."""
    rows, means, scales = realize([term], raw)
    return rows[0], means[0], scales[0]


class TestRealize:

    def test_marginal_matches_standardized_column(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(2.0, 1.0, size=(30, 3))
        col, _, _ = realize_one(FeatureTerm.marginal(1), raw)
        ref = raw[:, 1] - raw[:, 1].mean()
        ref /= np.linalg.norm(ref)
        np.testing.assert_allclose(col, ref, atol=1e-12)

    def test_constant_factor_cancels(self):
        raw = np.column_stack([np.array([1.0, 2.0, 3.0]),
                               np.full(3, 2.0)])
        prod, _, _ = realize_one(FeatureTerm.from_exponents({0: 1, 1: 1}), raw)
        alone, _, _ = realize_one(FeatureTerm.marginal(0), raw)
        np.testing.assert_allclose(prod, alone, atol=1e-12)

    def test_matches_direct_product(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(1.0, 1.0, size=(40, 4))
        term = FeatureTerm.from_exponents({0: 1, 2: 2})
        col, mean, scale = realize_one(term, raw)
        ref = raw[:, 0] * raw[:, 2] ** 2
        assert mean == pytest.approx(ref.mean(), rel=1e-12)
        ref = ref - ref.mean()
        assert scale == pytest.approx(np.linalg.norm(ref), rel=1e-12)
        ref /= np.linalg.norm(ref)
        np.testing.assert_allclose(col, ref, atol=1e-12)
        assert abs(col.sum()) <= 1e-10
        assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)

    def test_monomial_is_raw_product(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(1.0, 1.0, size=(40, 4))
        term = FeatureTerm.from_exponents({1: 3, 3: 1})
        np.testing.assert_array_equal(monomial(term, raw),
                                      raw[:, 1] ** 3 * raw[:, 3])

    def test_constant_interaction(self):
        raw = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        col, _, _ = realize_one(FeatureTerm.from_exponents({0: 2}), raw)
        assert np.isnan(col).all()

    def test_overflowing_sum_of_squares_is_rescaled_silently(self):
        # X1*X2 of data near 1e80 is finite, but its sum of squares
        # overflows; the norm is taken rescaled, without a warning
        raw = np.random.default_rng(3).normal(1.0, 1.0, size=(40, 2)) * 1e80
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            col, mean, scale = realize_one(
                FeatureTerm.from_exponents({0: 1, 1: 1}), raw)
        prod = raw[:, 0] * raw[:, 1]
        assert mean == prod.mean()
        centered = prod - mean
        top = np.max(np.abs(centered))
        assert scale == top * np.sqrt(np.dot(centered / top, centered / top))
        assert col.tobytes() == (centered / scale).tobytes()

    def test_block_rows_match_each_term_alone(self):
        # ordinary, constant (the +-1 column squared) and overflowing
        # (1e80^4) terms in one block: each row keeps its own bits
        rng = np.random.default_rng(5)
        raw = rng.normal(1.0, 1.0, size=(50, 3))
        raw[:, 1] = np.tile([-1.0, 1.0], 25)
        raw[:, 2] *= 1e80
        terms = [FeatureTerm.from_exponents(e) for e in (
            {0: 1}, {1: 2}, {0: 1, 1: 1}, {2: 4}, {0: 2, 2: 1})]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, means, scales = realize(terms, raw)
        for term, row, mean, scale in zip(terms, rows, means, scales):
            alone = realize_one(term, raw)
            assert row.tobytes() == alone[0].tobytes(), term
            assert (np.array([mean, scale]).tobytes()
                    == np.array(alone[1:]).tobytes()), term
        assert np.isnan(rows[1]).all()
        assert not np.isfinite(rows[3]).any()
        assert np.isfinite(rows[[0, 2, 4]]).all()

    def test_term_column_is_nan_for_constant_monomial(self):
        # a column of -1s and 1s varies, but its square does not
        X = np.column_stack([np.tile([-1.0, 1.0], 5), np.arange(10.0)])
        ds = standardize(X, np.arange(10.0) ** 2)
        assert np.isnan(
            term_column(ds, FeatureTerm.from_exponents({0: 2}))).all()
        np.testing.assert_array_equal(
            term_column(ds, FeatureTerm.marginal(1)), ds.columns[:, 1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_realized_columns_standardized(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(rng.normal(0, 2, 3), 1.0, size=(25, 3))
        term = FeatureTerm.from_exponents({0: 1, 1: 1, 2: 1})
        col, _, _ = realize_one(term, raw)
        assert abs(col.sum()) <= 1e-8 * 25
        assert abs(np.linalg.norm(col) - 1.0) <= 1e-10


class TestMarginalityInvariant:

    def test_stream_closure_under_recursion(self):
        """Anything generated has all its factors among selected terms."""
        sel = [FeatureTerm.marginal(0)]
        seen = set(sel)
        for add in (FeatureTerm.marginal(1),
                    FeatureTerm.from_exponents({0: 1, 1: 1})):
            sel.append(add)
            for cand in generate_candidates(sel, add, seen=seen):
                assert set(cand.indices) <= {i for t in sel
                                             for i in t.indices}
                assert cand not in seen
                seen.add(cand)
