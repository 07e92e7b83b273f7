"""Synthetic benchmark scenarios and the replication runner.

Designs are gaussian with column means redrawn every replication, so
interactions carry signal into their own factors at strengths that vary
from replication to replication.  True-model coefficients are rescaled
per replication so the sample signal fraction hits the requested R^2
exactly, which keeps the scenarios comparable across n and p.

Per-replication RNG streams are derived from (base seed, replication,
purpose), so any replication can be regenerated alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .engine import RaiConfig, run_rai
from .errors import DegenerateTerms, LengthMismatch, RaiError
from .kernel import Dataset, standardize
from .oracles import forward_stepwise
from .terms import FeatureTerm, monomial

SCENARIOS = ("four_interactions", "single_interaction", "global_null")
METHODS = ("rai", "rai_interactions", "stepwise_aic", "mean_model",
           "true_model")

_FOUR_TERMS = (
    FeatureTerm.from_exponents({0: 1, 1: 1}),            # X1*X2
    FeatureTerm.from_exponents({2: 1, 3: 2}),            # X3*X4^2
    FeatureTerm.from_exponents({4: 1, 5: 3}),            # X5*X6^3
    FeatureTerm.from_exponents({6: 1, 7: 1, 8: 1, 9: 1}),  # X7*X8*X9*X10
)
_SINGLE_TERM = (FeatureTerm.from_exponents({0: 1, 1: 1}),)


@dataclass(frozen=True)
class SimSpec:
    """One benchmark configuration."""

    n: int
    p: int
    scenario: str
    replications: int
    base_seed: int = 0
    target_r2: float = 0.83

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError("scenario (--scenario) must be one of "
                             f"{', '.join(SCENARIOS)}, got {self.scenario!r}")
        # the true model's t-statistics need a residual degree of freedom
        need = max(3, len(true_terms(self)) + 2)
        if self.n < need:
            raise ValueError(f"n (--n) must be at least {need}, got {self.n}")
        if self.replications < 1:
            raise ValueError("replications (--reps) must be at least 1, "
                             f"got {self.replications}")
        if self.base_seed < 0:
            raise ValueError("base_seed (--seed) must be non-negative, "
                             f"got {self.base_seed}")
        need = 1 + max(signal_support(self), default=0)
        if self.p < need:
            raise ValueError(f"p (--p) must be at least {need} for scenario "
                             f"{self.scenario}, got {self.p}")
        if not 0.0 < self.target_r2 < 1.0:
            raise ValueError("target_r2 (--target-r2) must lie in (0, 1), "
                             f"got {self.target_r2}")


def true_terms(spec: SimSpec) -> tuple[FeatureTerm, ...]:
    """Monomials carrying coefficients in the scenario's mean surface."""
    if spec.scenario == "four_interactions":
        return _FOUR_TERMS
    if spec.scenario == "single_interaction":
        return _SINGLE_TERM
    return ()


def recovery_targets(spec: SimSpec) -> tuple[FeatureTerm, ...]:
    """Terms a full recovery must select.

    For the single-interaction scenario that is the interaction plus
    both of its factors, since factors must enter before their product
    can even be streamed.
    """
    if spec.scenario == "single_interaction":
        return (FeatureTerm.marginal(0), FeatureTerm.marginal(1),
                _SINGLE_TERM[0])
    return true_terms(spec)


def signal_support(spec: SimSpec) -> frozenset[int]:
    """Feature indices the mean surface depends on.

    Columns outside the support are independent of mu, so any rejected
    term touching one is a false rejection.  Terms built only from
    support columns correlate with mu through the nonzero column means
    and are not counted against the procedure.
    """
    return frozenset(j for t in true_terms(spec) for j in t.indices)


def _rng(spec: SimSpec, rep: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((spec.base_seed, rep, purpose)))


def gen_design(spec: SimSpec, rep: int) -> np.ndarray:
    """Raw design: column j is N(tau_j, 1) with tau_j ~ N(0, 4)."""
    rng = _rng(spec, rep, 0)
    tau = rng.normal(0.0, 2.0, spec.p)
    X = rng.standard_normal((spec.n, spec.p))
    X += tau        # the bits of rng.normal(tau, 1.0, (n, p)), in place
    return X


_div = np.divide    # gives inf or nan on a zero denominator, as C does


def _brentq(f, a, b, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in [a, b] by Brent's method, bit for bit what scipy's
    brentq (scipy/optimize/Zeros/brentq.c) returns.

    A line-for-line port of the C routine.  Its divisions are numpy's,
    so a zero denominator yields inf or nan and falls through to
    bisection as in C, and each step is taken back as a Python float,
    so f sees floats only.  Like scipy's wrapper it raises ValueError on
    a same-sign bracket or a NaN value of f, and RuntimeError when
    maxiter iterations do not converge.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and np.signbit(fpre) != np.signbit(fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            with np.errstate(all="ignore"):
                if xpre == xblk:
                    # interpolate
                    stry = float(_div(-fcur * (xcur - xpre), fcur - fpre))
                else:
                    # extrapolate
                    dpre = _div(fpre - fcur, xpre - xcur)
                    dblk = _div(fblk - fcur, xblk - xcur)
                    stry = float(_div(-fcur * (fblk * dblk - fpre * dpre),
                                      dblk * dpre * (fblk - fpre)))
            # C's MIN(a, b), which takes b when a is nan
            lim, alt = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (lim if lim < alt else alt):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(
        f"failed to converge after {maxiter} iterations, value is {xcur!r}")


def calibrate_beta(cols, target_r2: float) -> np.ndarray:
    """Coefficients c / ||centered column|| for the true terms' `cols`, c
    tuned so the signal fraction Var(mu) / (Var(mu) + 1) is target_r2."""
    norms = np.array([np.linalg.norm(c - c.mean()) for c in cols])
    if np.any(norms <= 1e-12):
        raise DegenerateTerms("a true-model term column is constant")
    base = np.sum([c / nm for c, nm in zip(cols, norms)], axis=0)
    v = float(np.var(base, ddof=1))
    if v <= 0.0:
        raise DegenerateTerms("true-model mean surface is constant")
    return _signal_scale(v, target_r2) / norms


def _signal_scale(v: float, target_r2: float) -> float:
    """The c > 0 with c^2 v / (c^2 v + 1) = target_r2, by Brent's method
    on [0, hi], hi being twice the closed-form root plus one.  Raises
    DegenerateTerms when (1 - target_r2) v underflows to 0, which leaves
    no finite bracket."""
    def frac(c):
        return c * c * v / (c * c * v + 1.0) - target_r2

    denom = (1.0 - target_r2) * v
    if denom == 0.0:
        raise DegenerateTerms(f"signal variance {v} is too small to "
                              f"calibrate to R^2 {target_r2}")
    hi = 2.0 * np.sqrt(target_r2 / denom) + 1.0
    return _brentq(frac, 0.0, hi, xtol=1e-12, rtol=8.9e-16)


def gen_response(X: np.ndarray, spec: SimSpec,
                 rep: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Response, mean surface and true-term columns of one replication."""
    rng = _rng(spec, rep, 1)
    eps = rng.normal(0.0, 1.0, X.shape[0])
    cols = [monomial(t, X) for t in true_terms(spec)]
    if not cols:
        return eps, np.zeros(X.shape[0]), cols
    mu = np.column_stack(cols) @ calibrate_beta(cols, spec.target_r2)
    return mu + eps, mu, cols


def risk(mu: np.ndarray, yhat: np.ndarray) -> float:
    """Squared distance between the fitted values and the true mean."""
    if mu.shape != yhat.shape:
        raise LengthMismatch(f"{mu.shape} vs {yhat.shape}")
    diff = mu - yhat
    return float(np.dot(diff, diff))


def _ols(cols: list, y: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Fitted values of the OLS fit of y on an intercept and `cols`, and
    the t-statistic of each column."""
    A = np.column_stack([np.ones(y.size), *cols])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    resid = y - fitted
    sigma2 = float(np.dot(resid, resid)) / (y.size - A.shape[1])
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(A.T @ A)))
    return fitted, [float(t) for t in (coef / se)[1:]]


def _fitted_from_state(dataset: Dataset, state) -> np.ndarray:
    # yhat_std = y_std - residual, mapped back to the original scale
    return (dataset.response_mean
            + dataset.response_scale * (dataset.response - state.residual))


def _run_method(method: str, dataset: Dataset, y, truth_cols: list):
    """Returns (yhat, selected_terms, passes, wealth_spent, rejections)."""
    if method in ("rai", "rai_interactions"):
        config = RaiConfig(interactions=(method == "rai_interactions"))
        state, trace = run_rai(dataset, config)
        return (_fitted_from_state(dataset, state), list(state.selected),
                trace.passes_traversed, trace.ledger.total_spent(),
                trace.ledger.rejections)
    if method == "stepwise_aic":
        state = forward_stepwise(dataset, None)
        terms = [FeatureTerm.marginal(j) for j in state.selected]
        return _fitted_from_state(dataset, state), terms, 0, 0.0, state.size
    if method == "mean_model":
        yhat = np.full(y.size, float(y.mean()))
        return yhat, [], 0, 0.0, 0
    if method == "true_model":
        return _ols(truth_cols, y)[0], [], 0, 0.0, 0
    raise ValueError(f"unknown method {method!r}")


def _quartiles(values) -> dict:
    arr = np.asarray(values, dtype=float)
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return {"mean": float(arr.mean()), "median": float(med),
            "q1": float(q1), "q3": float(q3)}


def _spec_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_experiment(spec: SimSpec, method: str, out_path=None,
                   include_timing: bool = False) -> dict:
    """Run every replication of a scenario under one method.

    Returns {"manifest", "rows", "summary"}; with `out_path` the same
    records are written as line-delimited JSON, manifest first.  Timing
    fields are opt-in so reruns of the same study are byte-identical.
    """
    truth = true_terms(spec)
    targets = recovery_targets(spec)
    support = signal_support(spec)
    names = [f"X{j + 1}" for j in range(spec.p)]

    rows = []
    for rep in range(spec.replications):
        t0 = time.perf_counter()
        X = gen_design(spec, rep)
        y, mu, cols = gen_response(X, spec, rep)
        dataset = standardize(X, y, names)
        try:
            yhat, selected, passes, spent, rejections = _run_method(
                method, dataset, y, cols)
        except (RaiError, np.linalg.LinAlgError) as exc:
            # a broken replication must not sink the rest of the study
            rows.append({"kind": "replication", "rep": rep,
                         "error": f"{type(exc).__name__}: {exc}"})
            continue
        chosen = set(selected)
        false_rej = sum(1 for t in selected if not set(t.indices) <= support)
        row = {
            "kind": "replication",
            "rep": rep,
            "risk": risk(mu, yhat),
            "model_size": len(selected),
            "selected": [t.display(names) for t in selected],
            "n_true_selected": len(chosen.intersection(truth)),
            "all_targets_selected": chosen.issuperset(targets),
            "passes": passes,
            "wealth_spent": spent,
            "rejections": rejections,
            "false_rejections": false_rej,
            "true_term_t": _ols(cols, y)[1] if cols else [],
        }
        if include_timing:
            row["wall_time_s"] = time.perf_counter() - t0
        rows.append(row)

    ok_rows = [r for r in rows if "error" not in r]
    m = len(ok_rows)
    summary = {"kind": "summary", "replications": spec.replications,
               "failed": len(rows) - m}
    if m:
        for field_name in ("risk", "model_size", "passes", "wealth_spent"):
            stats = _quartiles([r[field_name] for r in ok_rows])
            for stat_name, value in stats.items():
                summary[f"{field_name}_{stat_name}"] = value
        summary["recovery_rate"] = float(
            np.mean([r["all_targets_selected"] for r in ok_rows]))
    total_r = sum(r["rejections"] for r in ok_rows)
    total_v = sum(r["false_rejections"] for r in ok_rows)
    summary.update(rejections_total=total_r, false_rejections_total=total_v)
    if m:
        # plug-in marginal FDR, E(V) / (E(R) + 1), from per-rep averages
        summary["mfdr_estimate"] = (total_v / m) / (total_r / m + 1.0)

    spec_payload = {**asdict(spec), "method": method}
    manifest = {
        "kind": "manifest",
        "spec": asdict(spec),
        "method": method,
        "version": __version__,
        "spec_hash": _spec_hash(spec_payload),
    }
    result = {"manifest": manifest, "rows": rows, "summary": summary}
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(json.dumps(manifest) + "\n")
            for row in rows:
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps(summary) + "\n")
    return result
