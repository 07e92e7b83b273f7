import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rai
from rai import simulate
from rai.errors import DegenerateTerms, LengthMismatch, RaiError
from rai.simulate import (METHODS, SCENARIOS, SimSpec, _brentq, _ols,
                          _rng, _signal_scale, calibrate_beta,
                          gen_design, gen_response, recovery_targets, risk,
                          run_experiment, signal_support, true_terms)
from rai.terms import FeatureTerm, monomial

from conftest import (expected_true_model_r2, expected_true_term_t, ols_fit,
                      ols_r2, ols_t_stats)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def spec_for(scenario, n=200, p=12, reps=2, seed=0, r2=0.83):
    return SimSpec(n=n, p=p, scenario=scenario, replications=reps,
                   base_seed=seed, target_r2=r2)


def truth_matrix(spec, X):
    return np.column_stack([monomial(t, X) for t in true_terms(spec)])


def term_columns(terms, X):
    return [monomial(t, X) for t in terms]


class TestSimSpec:

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            SimSpec(n=100, p=10, scenario="bootstrap", replications=1)

    @pytest.mark.parametrize("field,value", [
        ("n", 2), ("replications", 0), ("base_seed", -1)])
    def test_bad_size_or_seed_is_named(self, field, value):
        spec = dict(n=50, p=5, scenario="global_null", replications=1)
        with pytest.raises(ValueError, match=f"^{field} "):
            SimSpec(**{**spec, field: value})

    def test_four_interactions_needs_ten_columns(self):
        with pytest.raises(ValueError):
            spec_for("four_interactions", p=9)
        spec_for("four_interactions", p=10)

    @pytest.mark.parametrize("scenario,need", [
        ("four_interactions", 6), ("single_interaction", 3),
        ("global_null", 3)])
    def test_n_leaves_the_true_model_a_residual_df(self, scenario, need):
        # the true model's OLS t-statistics divide by n - |terms| - 1
        with pytest.raises(ValueError,
                           match=rf"^n \(--n\) must be at least {need}, "
                                 rf"got {need - 1}$"):
            spec_for(scenario, n=need - 1, p=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_experiment(spec_for(scenario, n=need, p=10),
                                    "rai_interactions")
        json.dumps(result, allow_nan=False)
        assert all(math.isfinite(t) for row in result["rows"]
                   for t in row.get("true_term_t", []))

    def test_target_r2_must_be_interior(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                spec_for("global_null", r2=bad)

    def test_replications_positive(self):
        with pytest.raises(ValueError):
            spec_for("global_null", reps=0)

    def test_scenario_metadata_consistent(self):
        for scenario in SCENARIOS:
            spec = spec_for(scenario, p=12)
            support = signal_support(spec)
            assert support == frozenset(
                j for t in true_terms(spec) for j in t.indices)
            # every target is buildable from support columns
            for t in recovery_targets(spec):
                assert set(t.indices) <= support or not support


class TestGenDesign:

    def test_rerun_is_bit_identical(self):
        spec = spec_for("global_null", n=300, p=15, seed=42)
        A = gen_design(spec, rep=3)
        B = gen_design(spec, rep=3)
        assert A.tobytes() == B.tobytes()

    def test_replications_differ(self):
        spec = spec_for("global_null", n=100, p=5)
        assert not np.array_equal(gen_design(spec, 0), gen_design(spec, 1))

    def test_base_seeds_differ(self):
        a = gen_design(spec_for("global_null", n=80, p=4, seed=1), 0)
        b = gen_design(spec_for("global_null", n=80, p=4, seed=2), 0)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("scenario, n, p, seed, rep", [
        ("global_null", 200, 100, 0, 0), ("global_null", 3, 1, 7, 299),
        ("four_interactions", 2000, 100, 1, 2),
        ("four_interactions", 1000, 60, 15, 1),
        ("single_interaction", 61, 2, 2**32 - 1, 5)])
    def test_bits_of_a_normal_draw_about_tau(self, scenario, n, p, seed, rep):
        """The design is drawn in place, with the bits of the one-call
        draw rng.normal(tau, 1.0, (n, p)) on the same stream."""
        spec = spec_for(scenario, n=n, p=p, seed=seed)
        rng = _rng(spec, rep, 0)
        want = rng.normal(rng.normal(0.0, 2.0, p), 1.0, (n, p))
        assert gen_design(spec, rep).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed,rep", [(0, 0), (3, 1), (11, 2)])
    def test_column_means_track_tau(self, seed, rep):
        # design stream draws tau first, then the entries, per the
        # documented (base seed, rep, purpose) scheme
        n, p = 4000, 8
        spec = spec_for("global_null", n=n, p=p, seed=seed)
        tau = _rng(spec, rep, 0).normal(0.0, 2.0, p)
        X = gen_design(spec, rep)
        assert np.all(np.abs(X.mean(axis=0) - tau) < 4.0 / np.sqrt(n))

    @pytest.mark.parametrize("seed,rep", [(0, 0), (3, 1), (11, 2)])
    def test_within_column_variance_near_one(self, seed, rep):
        n = 4000
        X = gen_design(spec_for("global_null", n=n, p=8, seed=seed), rep)
        assert np.all(np.abs(X.var(axis=0, ddof=1) - 1.0) < 5.0 / np.sqrt(n))

    def test_tau_spread_matches_variance_four(self):
        # many columns: the column means themselves have variance ~ 4 + 1/n
        spec = spec_for("global_null", n=500, p=400, seed=9)
        means = gen_design(spec, 0).mean(axis=0)
        assert 3.0 < means.var() < 5.2


class TestGenResponse:

    def test_global_null_is_pure_noise(self):
        spec = spec_for("global_null", n=150, p=4, seed=8)
        X = gen_design(spec, 2)
        y, mu, cols = gen_response(X, spec, 2)
        assert np.all(mu == 0.0)
        assert cols == []
        eps = _rng(spec, 2, 1).normal(0.0, 1.0, spec.n)
        assert np.array_equal(y, eps)

    def test_rerun_is_bit_identical(self):
        spec = spec_for("single_interaction", n=120, p=6, seed=5)
        X = gen_design(spec, 1)
        y1, mu1, c1 = gen_response(X, spec, 1)
        y2, mu2, c2 = gen_response(X, spec, 1)
        assert y1.tobytes() == y2.tobytes()
        assert mu1.tobytes() == mu2.tobytes()
        assert np.array_equal(calibrate_beta(c1, spec.target_r2),
                              calibrate_beta(c2, spec.target_r2))

    def test_mean_surface_matches_coefficients(self):
        spec = spec_for("four_interactions", n=250, p=10, seed=3)
        X = gen_design(spec, 0)
        y, mu, cols = gen_response(X, spec, 0)
        beta = calibrate_beta(cols, spec.target_r2)
        np.testing.assert_allclose(mu, truth_matrix(spec, X) @ beta,
                                   rtol=1e-12)

    def test_true_model_r2_near_calibration_target(self):
        # OLS of y on the four monomials lands within four sampling sds
        # of the R^2 the calibration implies at n=2000
        spec = spec_for("four_interactions", n=2000, p=10, seed=7)
        centre, sd = expected_true_model_r2(spec.n, len(true_terms(spec)),
                                            spec.target_r2)
        for rep in range(3):
            X = gen_design(spec, rep)
            y, _, _ = gen_response(X, spec, rep)
            cols = [c for c in truth_matrix(spec, X).T]
            r2 = ols_r2(cols, y)
            assert abs(r2 - centre) <= 4.0 * sd, (
                f"rep {rep}: R^2 {r2:.4f}, expected {centre:.4f} "
                f"+/- {4.0 * sd:.4f}")

    def test_true_term_t_stats_within_stated_band(self):
        # joint OLS t-statistics of the four true monomials at n=2000 lie
        # within four sds of the |t| the R^2 calibration implies; a second
        # target shows the band follows the calibration, not one number
        for r2 in (0.83, 0.6):
            spec = spec_for("four_interactions", n=2000, p=10, seed=7, r2=r2)
            k = len(true_terms(spec))
            t_star, sd = expected_true_term_t(spec.n, k, r2)
            band = (t_star - 4.0 * sd, t_star + 4.0 * sd)
            ts = []
            for rep in range(3):
                X = gen_design(spec, rep)
                y, _, cols = gen_response(X, spec, rep)
                ts += [abs(t) for t in _ols(cols, y)[1]]
            assert all(band[0] <= t <= band[1] for t in ts), (
                f"target_r2={r2}: t*={t_star:.2f}, band "
                f"[{band[0]:.1f}, {band[1]:.1f}], observed |t| spans "
                f"[{min(ts):.1f}, {max(ts):.1f}]")


class TestCalibrateBeta:

    def test_single_term_half_target_gives_unit_signal_variance(self):
        spec = spec_for("single_interaction", n=500, p=3, seed=1)
        X = gen_design(spec, 0)
        terms = true_terms(spec)
        beta = calibrate_beta(term_columns(terms, X), 0.5)
        mu = truth_matrix(spec, X) @ beta
        centered = mu - mu.mean()
        assert abs(centered @ centered / (spec.n - 1) - 1.0) < 1e-6

    @given(seed=st.integers(0, 10**6),
           target=st.floats(0.05, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_sample_signal_fraction_hits_target_exactly(self, seed, target):
        spec = spec_for("single_interaction", n=300, p=4, seed=seed)
        X = gen_design(spec, 0)
        beta = calibrate_beta(term_columns(true_terms(spec), X), target)
        mu = truth_matrix(spec, X) @ beta
        v = float(np.var(mu, ddof=1))
        assert abs(v / (v + 1.0) - target) < 1e-6

    def test_equal_norm_terms_get_equal_coefficients(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(200, 2)) + np.array([1.0, -2.0])
        n0 = np.linalg.norm(X[:, 0] - X[:, 0].mean())
        n1 = np.linalg.norm(X[:, 1] - X[:, 1].mean())
        X[:, 1] *= n0 / n1
        terms = (FeatureTerm.marginal(0), FeatureTerm.marginal(1))
        beta = calibrate_beta(term_columns(terms, X), 0.5)
        np.testing.assert_allclose(beta[0], beta[1], rtol=1e-10)

    @pytest.mark.parametrize("target", [0.83, 0.6])
    def test_fitted_r2_within_two_points_at_scale(self, target):
        spec = spec_for("four_interactions", n=2000, p=10, seed=5,
                        r2=target)
        X = gen_design(spec, 0)
        y, _, _ = gen_response(X, spec, 0)
        cols = [c for c in truth_matrix(spec, X).T]
        assert abs(ols_r2(cols, y) - target) < 0.02

    def test_constant_term_column_rejected(self):
        X = np.ones((50, 2))
        X[:, 1] = np.arange(50.0)
        with pytest.raises(DegenerateTerms):
            calibrate_beta(term_columns((FeatureTerm.marginal(0),), X), 0.5)

    def test_constant_mean_surface_rejected(self):
        # neither column is constant, but their unit-scaled sum is
        cols = [np.array([0.0, 1, 0, 1]), np.array([1.0, 0, 1, 0])]
        with pytest.raises(DegenerateTerms, match="mean surface"):
            calibrate_beta(cols, 0.5)

    def test_underflowing_bracket_rejected(self):
        # (1 - target_r2) * v underflows to 0, so no finite bracket exists
        with pytest.raises(DegenerateTerms):
            _signal_scale(1e-310, 1.0 - 1e-16)


class TestRisk:

    def test_perfect_fit_is_zero(self):
        mu = np.arange(30.0)
        assert risk(mu, mu.copy()) == 0.0

    def test_unit_shift_costs_n(self):
        mu = np.random.default_rng(0).normal(size=75)
        np.testing.assert_allclose(risk(mu, mu + 1.0), 75.0, rtol=1e-12)

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatch):
            risk(np.zeros(10), np.zeros(11))

    def test_mean_model_risk_is_distance_to_response_mean(self):
        spec = spec_for("four_interactions", n=400, p=10, reps=2, seed=21)
        result = run_experiment(spec, "mean_model")
        for rep, row in enumerate(result["rows"]):
            X = gen_design(spec, rep)
            y, mu, _ = gen_response(X, spec, rep)
            diff = mu - y.mean()
            np.testing.assert_allclose(row["risk"], diff @ diff, rtol=1e-12)
            # upper reference level: about n * Var(mu)
            np.testing.assert_allclose(row["risk"], spec.n * mu.var(),
                                       rtol=0.05)


class TestRunExperiment:

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(spec_for("global_null"), "lasso")

    def test_result_structure(self):
        spec = spec_for("global_null", n=120, p=10, reps=3, seed=2)
        result = run_experiment(spec, "rai")
        assert set(result) == {"manifest", "rows", "summary"}
        manifest = result["manifest"]
        assert manifest["kind"] == "manifest"
        assert manifest["method"] == "rai"
        assert manifest["spec"]["n"] == 120
        assert manifest["version"] == rai.__version__
        assert len(manifest["spec_hash"]) == 16
        assert len(result["rows"]) == 3
        for rep, row in enumerate(result["rows"]):
            assert row["kind"] == "replication"
            assert row["rep"] == rep
            for field in ("risk", "model_size", "selected", "passes",
                          "wealth_spent", "rejections", "false_rejections"):
                assert field in row
            assert "wall_time_s" not in row
        summary = result["summary"]
        assert summary["kind"] == "summary"
        assert summary["replications"] == 3
        assert summary["failed"] == 0
        for field in ("risk_mean", "risk_median", "risk_q1", "risk_q3",
                      "model_size_mean", "passes_mean", "wealth_spent_mean",
                      "recovery_rate", "rejections_total",
                      "false_rejections_total", "mfdr_estimate"):
            assert field in summary

    def test_rerun_gives_identical_table(self):
        spec = spec_for("single_interaction", n=250, p=8, reps=3, seed=4)
        assert (run_experiment(spec, "rai_interactions")
                == run_experiment(spec, "rai_interactions"))

    def test_replication_rows_do_not_depend_on_total_count(self):
        short = spec_for("global_null", n=120, p=10, reps=2, seed=6)
        long = spec_for("global_null", n=120, p=10, reps=4, seed=6)
        assert (run_experiment(short, "rai")["rows"]
                == run_experiment(long, "rai")["rows"][:2])

    def test_true_model_beats_mean_model_every_replication(self):
        spec = spec_for("four_interactions", n=300, p=10, reps=4, seed=11)
        truth = run_experiment(spec, "true_model")["rows"]
        mean = run_experiment(spec, "mean_model")["rows"]
        for t_row, m_row in zip(truth, mean):
            assert t_row["risk"] < m_row["risk"]

    def test_null_rejections_all_count_as_false(self):
        spec = spec_for("global_null", n=100, p=60, reps=5, seed=3)
        result = run_experiment(spec, "rai")
        for row in result["rows"]:
            assert row["false_rejections"] == row["rejections"]
        assert (result["summary"]["false_rejections_total"]
                == result["summary"]["rejections_total"])

    def test_signal_scenario_counts_support_terms_as_genuine(self):
        spec = spec_for("single_interaction", n=400, p=8, reps=3, seed=1)
        result = run_experiment(spec, "rai_interactions")
        support = signal_support(spec)
        for row in result["rows"]:
            named = set(row["selected"])
            expected_false = sum(
                1 for t in row["selected"]
                if not self._indices_of(t) <= support)
            assert row["false_rejections"] == expected_false
            assert row["all_targets_selected"] == (
                {"X1", "X2", "X1*X2"} <= named)
            assert row["n_true_selected"] == int("X1*X2" in named)

    @staticmethod
    def _indices_of(display):
        out = set()
        for factor in display.split("*"):
            out.add(int(factor.split("^")[0].lstrip("X")) - 1)
        return out

    def test_stepwise_method_reports_marginal_terms(self):
        spec = spec_for("single_interaction", n=200, p=6, reps=2, seed=9)
        result = run_experiment(spec, "stepwise_aic")
        for row in result["rows"]:
            assert row["passes"] == 0
            assert row["wealth_spent"] == 0.0
            assert row["model_size"] == len(row["selected"])
            for name in row["selected"]:
                assert "*" not in name and "^" not in name

    def test_stepwise_risk_is_that_of_an_ols_refit(self):
        # the fitted values come from the path's own state; they must be
        # the least-squares fit, with intercept, on the selected columns
        spec = spec_for("four_interactions", n=300, p=12, reps=4, seed=2)
        result = run_experiment(spec, "stepwise_aic")
        assert any(row["model_size"] for row in result["rows"])
        for rep, row in enumerate(result["rows"]):
            X = gen_design(spec, rep)
            y, mu, _ = gen_response(X, spec, rep)
            cols = [int(name.lstrip("X")) - 1 for name in row["selected"]]
            A = np.column_stack([np.ones(spec.n), X[:, cols]])
            coef, *_ = np.linalg.lstsq(A, y, rcond=None)
            assert row["risk"] == pytest.approx(risk(mu, A @ coef),
                                                rel=1e-9, abs=0.0)

    def test_timing_fields_are_opt_in(self):
        spec = spec_for("global_null", n=100, p=5, reps=2, seed=0)
        timed = run_experiment(spec, "mean_model", include_timing=True)
        for row in timed["rows"]:
            assert row["wall_time_s"] >= 0.0

    def test_results_file_round_trips_and_is_stable(self, tmp_path):
        spec = spec_for("single_interaction", n=150, p=6, reps=2, seed=13)
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        result = run_experiment(spec, "rai", out_path=path_a)
        run_experiment(spec, "rai", out_path=path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        lines = [json.loads(line)
                 for line in path_a.read_text().splitlines()]
        assert len(lines) == 2 + spec.replications
        assert lines[0] == result["manifest"]
        assert lines[1:-1] == result["rows"]
        assert lines[-1] == result["summary"]

    def test_spec_hash_separates_methods_and_specs(self):
        spec = spec_for("global_null", n=100, p=5, reps=1)
        h = {run_experiment(spec, m)["manifest"]["spec_hash"]
             for m in ("rai", "mean_model")}
        assert len(h) == 2
        other = spec_for("global_null", n=101, p=5, reps=1)
        assert (run_experiment(other, "rai")["manifest"]["spec_hash"]
                not in h)

    def test_failed_replication_is_recorded_not_fatal(self, monkeypatch):
        import rai.simulate as sim
        real = sim._run_method
        calls = {"n": 0}

        def flaky(method, dataset, y, true_fit):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RaiError("injected failure")
            return real(method, dataset, y, true_fit)

        monkeypatch.setattr(sim, "_run_method", flaky)
        spec = spec_for("global_null", n=100, p=5, reps=3, seed=1)
        result = run_experiment(spec, "rai")
        assert len(result["rows"]) == 3
        assert "error" in result["rows"][1]
        assert "injected failure" in result["rows"][1]["error"]
        assert result["summary"]["failed"] == 1
        assert result["summary"]["replications"] == 3
        # aggregates computed over the surviving replications
        assert "risk_mean" in result["summary"]

    def test_every_replication_failing_still_writes_a_summary(
            self, monkeypatch, tmp_path):
        def broken(*args):
            raise RaiError("injected failure")

        monkeypatch.setattr(simulate, "_run_method", broken)
        spec = spec_for("global_null", n=100, p=5, reps=2, seed=1)
        out = tmp_path / "rows.jsonl"
        summary = run_experiment(spec, "rai", out_path=out)["summary"]
        assert summary["failed"] == 2
        assert summary["rejections_total"] == 0
        # no replication to average over, so no estimate
        assert "mfdr_estimate" not in summary
        assert json.loads(out.read_text().splitlines()[-1]) == summary

    @pytest.mark.parametrize("scenario, method, seed", [
        ("single_interaction", "rai_interactions", 0),
        ("single_interaction", "rai_interactions", 2),  # no false ones
        ("global_null", "rai", 3),                       # all false
    ])
    def test_mfdr_estimate_is_the_plugin_ratio_of_the_rows(
            self, monkeypatch, scenario, method, seed):
        # one replication fails; the averages are over the other four
        real = simulate._run_method

        calls = []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RaiError("injected failure")
            return real(*args)

        monkeypatch.setattr(simulate, "_run_method", fail_second)
        spec = spec_for(scenario, n=150, p=40, reps=5, seed=seed)
        result = run_experiment(spec, method)
        rows = [row for row in result["rows"] if "error" not in row]
        m = len(rows)
        assert m == 4
        v = sum(row["false_rejections"] for row in rows)
        r = sum(row["rejections"] for row in rows)
        summary = result["summary"]
        assert summary["false_rejections_total"] == v
        assert summary["rejections_total"] == r
        assert 0 < r and v <= r
        expected = (v / m) / (r / m + 1.0)
        assert summary["mfdr_estimate"].hex() == expected.hex()

    @pytest.mark.parametrize("scenario", ["four_interactions",
                                          "single_interaction"])
    @pytest.mark.parametrize("method", ["true_model", "rai_interactions"])
    def test_each_true_term_is_built_once_per_replication(
            self, monkeypatch, scenario, method):
        # the response, the calibration, the true model and the true
        # terms' t-statistics all share one set of columns
        built = []
        real = simulate.monomial

        def counted(term, X):
            built.append(term)
            return real(term, X)

        monkeypatch.setattr(simulate, "monomial", counted)
        spec = spec_for(scenario, n=150, p=10, reps=3, seed=4)
        rows = run_experiment(spec, method)["rows"]
        assert all("error" not in row for row in rows)
        assert built == list(true_terms(spec)) * spec.replications

    def test_method_list_is_complete(self):
        assert set(METHODS) == {"rai", "rai_interactions", "stepwise_aic",
                                "mean_model", "true_model"}


class TestOlsTStatHelper:

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_computation(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3))
        y = X @ np.array([1.0, -0.5, 0.0]) + rng.normal(size=60)
        fitted, ours = _ols(list(X.T), y)
        np.testing.assert_allclose(ours, ols_t_stats(X, y), rtol=1e-8)
        np.testing.assert_allclose(fitted, ols_fit(X, y)[2], rtol=1e-12)


def scipy_brentq():
    return pytest.importorskip("scipy.optimize").brentq


def outcome(solver, *args, **kwargs):
    """The bits of the root found, or the type of exception raised."""
    try:
        return float(solver(*args, **kwargs)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def scale_outcomes(v, target_r2):
    """calibrate_beta's root for (v, target_r2) from _brentq and from
    scipy's brentq, each run on the same frac and bracket."""
    brentq = scipy_brentq()
    ours = outcome(_signal_scale, v, target_r2)
    with mock.patch.object(simulate, "_brentq", brentq):
        theirs = outcome(_signal_scale, v, target_r2)
    return ours, theirs


# Bracketed test functions, each made from a location k: several roots,
# steps and plateaus whose equal values zero the interpolation's
# denominators, values whose products underflow, and NaN.
GENERIC_FAMILIES = {
    "three_roots": lambda k: lambda x: (x - 0.1) * (x - 0.5) * (x - k),
    "sine": lambda k: lambda x: math.sin(7.0 * k * x),
    "step": lambda k: lambda x: -1.0 if x < k else 1.0,
    "plateaus": lambda k: lambda x: round((x - k) * 8.0) / 8.0,
    "clamped": lambda k: lambda x: min(max(x - k, -0.25), 0.25),
    "cubic": lambda k: lambda x: (x - k) ** 3,
    "underflowing": lambda k: lambda x: (x - k) * 1e-200,
    "nan_above": lambda k: lambda x: math.nan if x > k else -1.0,
}


class TestBrentq:
    """_brentq must return scipy's brentq bit for bit, or raise the same
    exception type."""

    @given(v=st.one_of(st.floats(1e-300, 1e300),
                       st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                       st.floats(1e-5, 10.0)),
           target_r2=st.one_of(st.floats(5e-324, 1.0 - 1e-16),
                               st.floats(0.01, 0.99)))
    @example(v=1e-300, target_r2=0.83)
    @example(v=1e300, target_r2=0.83)
    @example(v=1e-300, target_r2=5e-324)
    @example(v=1e300, target_r2=5e-324)
    @example(v=1e-300, target_r2=1.0 - 1e-16)
    @example(v=1e300, target_r2=1.0 - 1e-16)
    @settings(max_examples=400, deadline=None)
    def test_calibration_roots_match_scipy(self, v, target_r2):
        ours, theirs = scale_outcomes(v, target_r2)
        assert ours == theirs

    def test_typical_calibration_roots_match_scipy(self):
        rng = np.random.default_rng(0)
        vs = 10.0 ** rng.uniform(-5.0, 1.0, 3000)
        targets = rng.uniform(0.01, 0.99, 3000)
        mismatches = [(v, t) for v, t in zip(vs.tolist(), targets.tolist())
                      if len(set(scale_outcomes(v, t))) != 1]
        assert mismatches == []

    @pytest.mark.parametrize("scenario", ["four_interactions",
                                          "single_interaction"])
    def test_calibrate_beta_matches_scipy(self, scenario):
        brentq = scipy_brentq()
        for seed in range(5):
            spec = spec_for(scenario, n=150, p=10, seed=seed)
            cols = term_columns(true_terms(spec), gen_design(spec, 0))
            ours = calibrate_beta(cols, 0.83)
            with mock.patch.object(simulate, "_brentq", brentq):
                theirs = calibrate_beta(cols, 0.83)
            assert ours.tobytes() == theirs.tobytes()

    def test_generic_functions_match_scipy(self):
        brentq = scipy_brentq()
        rng = np.random.default_rng(1)
        kinds = set()
        zero_denominators = 0
        real_div = simulate._div

        def div(num, den):
            nonlocal zero_denominators
            zero_denominators += den == 0.0
            return real_div(num, den)

        mismatches = []
        # the zero divisions are IEEE's, and no numpy warning escapes
        with (mock.patch.object(simulate, "_div", div),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            for name, family in GENERIC_FAMILIES.items():
                for _ in range(300):
                    k = float(rng.uniform(-2.0, 3.0))
                    a, b = sorted(rng.uniform(-3.0, 4.0, 2).tolist())
                    if rng.random() < 0.15:
                        a = k           # a root exactly at an endpoint
                    args = (family(k), a, b)
                    kwargs = dict(
                        xtol=float(10.0 ** rng.uniform(-15.0, -1.0)),
                        rtol=float(rng.choice([8.9e-16, 1e-6])),
                        maxiter=int(rng.choice([0, 1, 3, 100])))
                    ours = outcome(_brentq, *args, **kwargs)
                    theirs = outcome(brentq, *args, **kwargs)
                    kinds.add(theirs if theirs.endswith("Error") else "root")
                    if ours != theirs:
                        mismatches.append((name, k, a, b, kwargs))
        assert mismatches == []
        assert kinds == {"root", "ValueError", "RuntimeError"}
        assert zero_denominators > 0

    @pytest.mark.parametrize("f, a, b, maxiter, error", [
        (lambda x: x * x + 1.0, -1.0, 1.0, 100, ValueError),
        (lambda x: math.nan, -1.0, 1.0, 100, ValueError),
        (lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0, 100,
         ValueError),
        (math.sin, 2.0, 4.0, 2, RuntimeError),
        (math.sin, 2.0, 4.0, 0, RuntimeError),
    ])
    def test_failures_raise_as_scipy_does(self, f, a, b, maxiter, error):
        brentq = scipy_brentq()
        for solver in (_brentq, brentq):
            with pytest.raises(error):
                solver(f, a, b, xtol=1e-15, rtol=8.9e-16, maxiter=maxiter)

    @pytest.mark.parametrize("num, den", [
        (6.0, 3.0), (1.0, 0.0), (-1.0, 0.0), (1.0, -0.0), (-2.5, -0.0),
        (0.0, 0.0), (-0.0, -0.0), (math.nan, 0.0), (math.inf, -0.0)])
    def test_division_gives_the_ieee_result(self, num, den):
        with np.errstate(divide="ignore", invalid="ignore"):
            want = float(np.float64(num) / np.float64(den))
            got = simulate._div(num, den)     # as _brentq calls it
        assert got == want or (math.isnan(got) and math.isnan(want))
