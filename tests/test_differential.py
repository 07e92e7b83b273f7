"""Differential tests: the batched engine against the scalar reference.

`reference_engine` holds the one-candidate-at-a-time engine the screen
replaced.  On every design family below the two must agree exactly on
the selected terms, the test records, the ledger, the skips, the final
residual and the forward stepwise paths.  The only allowed difference
is the |t| of a screened `not_rejected` test, which comes from cached
inner products rather than an explicit Gram-Schmidt pass.  It must
agree within 1e-9 relative, or within 1e-10 absolute: a |t| near 0
carries an absolute rounding error of ~1e-14 in both engines, which
no relative bound can hold (|t| = 1.5e-5 differed by 2e-9 relative),
and 1e-10 is still nine orders below the smallest threshold, 0.5.

Each test prints how many tests ran and how many went through the
exact path (`test_candidate`), split by decision; the exact
confirmations that did not reject are the screen's false alarms.
"""

import math
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rai.engine
from rai import RaiConfig, forward_stepwise, run_rai, standardize
from rai.engine import NOT_REJECTED, REJECTED
from rai.errors import SingularStep

import reference_engine as ref
from conftest import charges

seeds = st.integers(min_value=0, max_value=2**32 - 1)
T_REL_TOL = 1e-9
T_ABS_TOL = 1e-10


class Tally:
    def __init__(self):
        self.runs = self.tests = 0
        self.exact = Counter()
        self.worst_t_rel = self.worst_t_abs = 0.0

    def line(self, family):
        exact = sum(self.exact.values())
        return (f"{family}: {self.runs} runs, {self.tests} tests, {exact} "
                f"exact confirmations ({self.exact[REJECTED]} rejected, "
                f"{self.exact[NOT_REJECTED]} not rejected, "
                f"{exact - self.exact[REJECTED] - self.exact[NOT_REJECTED]} "
                f"removed or halted); worst screened |t| difference "
                f"{self.worst_t_rel:.1e} relative, {self.worst_t_abs:.1e} "
                f"absolute")


@contextmanager
def counting_exact_path(tally):
    """Count the engine's calls of test_candidate and their decisions."""
    original = rai.engine.test_candidate

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        tally.exact[out[0]] += 1
        return out

    rai.engine.test_candidate = counted
    try:
        yield
    finally:
        rai.engine.test_candidate = original


def as_record(rec):
    """A reference TestRecord as the package's trace writes a test."""
    return {"kind": "test", "pass": rec.pass_index,
            "term": rec.term.display(), "t_abs": rec.t_abs,
            "tlvl": rec.tlvl, "alpha": rec.alpha,
            "wealth_before": rec.wealth_before,
            "wealth_after": rec.wealth_after, "decision": rec.decision}


def assert_same_run(dataset, config, tally):
    with counting_exact_path(tally):
        state, trace = run_rai(dataset, config)
    want_state, want = ref.run_rai(dataset, config)

    assert [t.powers for t in state.selected] == [
        t.powers for t in want_state.selected]
    got = [rec for rec in trace.records() if rec["kind"] == "test"]
    assert len(got) == len(want.tests)
    for got_rec, want_rec in zip(got, map(as_record, want.tests)):
        # every field but t_abs is exact
        assert {**got_rec, "t_abs": None} == {**want_rec, "t_abs": None}, (
            got_rec, want_rec)
        got_t, want_t = got_rec["t_abs"], want_rec["t_abs"]
        if got_rec["decision"] == NOT_REJECTED:
            assert math.isclose(got_t, want_t, rel_tol=T_REL_TOL,
                                abs_tol=T_ABS_TOL), (got_rec, want_rec)
            diff = abs(got_t - want_t)
            tally.worst_t_abs = max(tally.worst_t_abs, diff)
            if want_t:
                tally.worst_t_rel = max(tally.worst_t_rel, diff / want_t)
        else:
            assert got_t == want_t
    # the package logs each test under its term, the reference its powers
    assert [(term.powers, s, alpha, rejected)
            for term, s, alpha, rejected in charges(trace.ledger)
            ] == [astuple(e) for e in want.ledger.events]
    assert trace.ledger.wealth == want.ledger.wealth
    assert trace.skips == want.skips
    assert trace.termination == want.termination
    assert trace.passes_traversed == want.passes_traversed
    assert np.array_equal(state.residual, want_state.residual)
    assert state.r_squared == want_state.r_squared
    tally.runs += 1
    tally.tests += len(got)


def path_or_error(stepwise, dataset, k):
    try:
        return stepwise(dataset, k).selected
    except SingularStep as exc:
        return str(exc)


def assert_same_stepwise(dataset, k):
    for size in (None, k):
        assert (path_or_error(forward_stepwise, dataset, size)
                == path_or_error(ref.forward_stepwise, dataset, size))


def planted_response(rng, X, strength):
    """Signal on a random few columns with strengths that spread the
    rejections over several passes, plus unit noise."""
    n, p = X.shape
    k = int(rng.integers(1, min(p, 8) + 1))
    support = rng.choice(p, k, replace=False)
    beta = rng.normal(0.0, strength, k)
    return X[:, support] @ beta + rng.normal(size=n)


def random_config(rng, **extra):
    return RaiConfig(initial_wealth=float(rng.choice([0.25, 1.0, 5.0])),
                     skip_passes=bool(rng.integers(2)), **extra)


def run_family(capsys, family, make, examples=40):
    """Check `make(rng) -> (X, y, config)` designs on both engines."""
    tally = Tally()

    @given(seeds)
    @settings(max_examples=examples, deadline=None)
    def check(seed):
        rng = np.random.default_rng(seed)
        X, y, config = make(rng)
        try:
            dataset = standardize(X, y)
        except rai.errors.RaiError:
            return
        assert_same_run(dataset, config, tally)
        if not config.interactions:
            assert_same_stepwise(dataset, min(3, dataset.p))

    with warnings.catch_warnings():
        # dropped constant columns are expected in some families
        warnings.simplefilter("ignore")
        check()
    with capsys.disabled():
        print("\n" + tally.line(family))
    assert tally.runs > 0


def gaussian(rng):
    n = int(rng.integers(30, 250))
    p = int(rng.integers(2, 40))
    X = rng.normal(size=(n, p))
    return X, planted_response(rng, X, 0.6), random_config(rng)


def common_factor(rng):
    # pairwise correlations around 0.99: adjusted norms get small
    n = int(rng.integers(30, 200))
    p = int(rng.integers(2, 30))
    f = rng.normal(size=(n, 1))
    X = 0.1 * rng.normal(size=(n, p)) + f
    return X, planted_response(rng, X, 1.0), random_config(rng)


def duplicates(rng):
    # exact copies and affine copies, which standardize to the same
    # column up to rounding
    n = int(rng.integers(30, 200))
    p = int(rng.integers(2, 20))
    X = rng.normal(size=(n, p))
    copies = rng.integers(0, p, size=int(rng.integers(1, p + 1)))
    extra = [X[:, j] if rng.integers(2) else 3.0 * X[:, j] - 7.0
             for j in copies]
    X = np.column_stack([X] + extra)
    X = X[:, rng.permutation(X.shape[1])]
    return X, planted_response(rng, X, 1.0), random_config(rng)


def binary(rng):
    n = int(rng.integers(30, 250))
    p = int(rng.integers(2, 30))
    X = (rng.random((n, p)) < rng.uniform(0.1, 0.9, p)).astype(float)
    return X, planted_response(rng, X, 1.5), random_config(rng)


def wide(rng):
    # p > n, sometimes with a noiseless response the model can exhaust
    n = int(rng.integers(8, 40))
    p = int(rng.integers(n + 1, 3 * n + 2))
    X = rng.normal(size=(n, p))
    y = planted_response(rng, X, 2.0)
    if rng.integers(3) == 0:
        y = X[:, :min(p, 3)].sum(axis=1)
    return X, y, random_config(rng)


def with_interactions(rng):
    n = int(rng.integers(40, 250))
    p = int(rng.integers(2, 8))
    X = rng.normal(1.0, 1.0, size=(n, p))
    if rng.integers(2):
        X[:, 0] = (X[:, 0] > 1.0).astype(float)   # binary factor
    y = (X[:, 0] * X[:, -1] + X[:, -1] ** 2 * rng.normal()
         + rng.normal(size=n))
    order = None if rng.integers(2) else int(rng.integers(2, 4))
    return X, y, random_config(rng, interactions=True,
                               max_interaction_order=order)


def sign_factor(rng):
    # a +-1 column: its even powers are constant monomials, which the
    # screen holds as NaN rows and the exact path drops uncharged
    n = int(rng.integers(40, 250))
    p = int(rng.integers(2, 8))
    X = rng.normal(1.0, 1.0, size=(n, p))
    X[:, 0] = rng.choice([-1.0, 1.0], n)
    y = (X[:, 0] * (1.0 + X[:, -1]) + X[:, -1] * rng.normal()
         + rng.normal(size=n))
    order = None if rng.integers(2) else int(rng.integers(2, 5))
    return X, y, random_config(rng, interactions=True,
                               max_interaction_order=order)


@pytest.mark.parametrize("family, make", [
    ("gaussian", gaussian),
    ("common factor", common_factor),
    ("duplicate columns", duplicates),
    ("binary columns", binary),
    ("p > n", wide),
    ("interactions", with_interactions),
    ("sign factor", sign_factor),
])
def test_engines_agree(capsys, family, make):
    run_family(capsys, family, make)


def signed_design(rng):
    # interactions over gaussian columns, a +-1 column and a 0/1 column
    n = int(rng.integers(40, 250))
    p = int(rng.integers(3, 8))
    X = rng.normal(1.0, 1.0, size=(n, p))
    X[:, 0] = rng.choice([-1.0, 1.0], n)
    X[:, 1] = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
    y = (X[:, 1] * X[:, -1] + X[:, 0] * X[:, -1] * rng.normal()
         + X[:, -1] ** 2 * rng.normal() + rng.normal(size=n))
    order = None if rng.integers(2) else int(rng.integers(2, 5))
    return X, y, random_config(rng, interactions=True,
                               max_interaction_order=order)


@given(seeds, st.data())
@settings(max_examples=80, deadline=None)
def test_sign_flips_change_nothing(seed, data):
    """Flipping the sign of any columns negates their standardized
    columns and the odd monomials over them, which no |t| can see: the
    selection, every decision and every wealth value stay bit for bit,
    and the |t| and the residual within the screened |t| bound.  The
    square of the 0/1 column is that column again, so it is never
    selected."""
    X, y, config = signed_design(np.random.default_rng(seed))
    flips = data.draw(st.lists(st.booleans(), min_size=X.shape[1],
                               max_size=X.shape[1]))
    runs = [run_rai(standardize(X * np.where(signs, -1.0, 1.0), y), config)
            for signs in ([False] * X.shape[1], flips)]
    (state, trace), (flipped, flipped_trace) = runs
    assert state.selected == flipped.selected
    for rec, got in zip(trace.records(), flipped_trace.records(),
                        strict=True):
        assert {**rec, "t_abs": None} == {**got, "t_abs": None}
        if rec.get("t_abs") is not None:
            assert math.isclose(got["t_abs"], rec["t_abs"],
                                rel_tol=T_REL_TOL, abs_tol=T_ABS_TOL)
    assert flipped_trace.ledger.wealth == trace.ledger.wealth
    np.testing.assert_allclose(flipped.residual, state.residual,
                               rtol=T_REL_TOL, atol=T_ABS_TOL)
    for selected in (state.selected, flipped.selected):
        assert all(dict(term.powers).get(1, 0) < 2 for term in selected)
