"""Output checks for benchmark calls.  Each returns a list of problems;
an empty list means the output passed."""

from __future__ import annotations

import json
import math

import numpy as np

# r_squared and final wealth may move by reassociated floating point
# arithmetic in a faster kernel; anything larger is a different model.
FLOAT_TOL = 1e-9
EXACT_KEYS = ("selected", "tests", "rejections", "passes", "termination")
CLOSE_KEYS = ("r_squared", "wealth.final")
CHARGED = ("rejected", "not_rejected")
UNCHARGED = ("halted_wealth", "removed_collinear")


def select_outcome(report: dict) -> dict:
    """The parts of a `select --json` report that references pin."""
    return {
        "selected": [s["term"] for s in report["selected"]],
        "tests": report["tests"],
        "rejections": report["rejections"],
        "passes": report["passes"],
        "termination": report["termination"],
        "r_squared": report["r_squared"],
        "wealth.final": report["wealth"]["final"],
    }


def compare_select(got: dict, ref: dict) -> list[str]:
    problems = []
    for key in EXACT_KEYS:
        if got[key] != ref[key]:
            problems.append(f"{key}: got {got[key]!r}, reference "
                            f"{ref[key]!r}")
    for key in CLOSE_KEYS:
        if not abs(got[key] - ref[key]) <= FLOAT_TOL:
            problems.append(f"{key}: got {got[key]!r}, reference "
                            f"{ref[key]!r} (tolerance {FLOAT_TOL})")
    return problems


def refit_r_squared(X: np.ndarray, y: np.ndarray, names: list[str],
                    selected: list[str], reported: float) -> list[str]:
    """R^2 of an OLS refit on the selected columns must match the report."""
    index = {name: j for j, name in enumerate(names)}
    unknown = [t for t in selected if t not in index]
    if unknown:
        return [f"selected terms not in the input: {unknown}"]
    A = np.column_stack([np.ones(y.size)]
                        + [X[:, index[t]] for t in selected])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    centered = y - y.mean()
    r2 = 1.0 - float(resid @ resid) / float(centered @ centered)
    if not abs(r2 - reported) <= 1e-8:
        return [f"r_squared {reported!r} but the refit gives {r2!r}"]
    return []


def audit_trace(lines: list[str], report: dict) -> list[str]:
    """Replay the ledger rules on a `select --trace` file, record by record.

    A charged test must be affordable and cost exactly its alpha (less
    the payout when it rejects), reject exactly when |t| clears the
    threshold; a halted or collinear test spends nothing; the closing
    record agrees with the report.
    """
    payout = report["config"]["payout"]
    problems: list[str] = []
    tests = rejections = 0
    end = None
    for lineno, line in enumerate(lines, start=1):
        rec = json.loads(line)
        kind = rec["kind"]
        where = f"trace line {lineno}"
        if kind == "test":
            tests += 1
            decision = rec["decision"]
            before, after = rec["wealth_before"], rec["wealth_after"]
            if decision in CHARGED:
                expected = before - rec["alpha"]
                if decision == "rejected":
                    rejections += 1
                    expected += payout
                if not before >= rec["alpha"]:
                    problems.append(f"{where}: overdraft, wealth {before} "
                                    f"< alpha {rec['alpha']}")
                if after != expected:
                    problems.append(f"{where}: wealth_after {after}, "
                                    f"expected {expected}")
                if (decision == "rejected") != (rec["t_abs"] > rec["tlvl"]):
                    problems.append(f"{where}: decision {decision} with "
                                    f"|t| {rec['t_abs']} and threshold "
                                    f"{rec['tlvl']}")
            elif decision in UNCHARGED:
                if after != before:
                    problems.append(f"{where}: {decision} spent "
                                    f"{before - after}")
            else:
                problems.append(f"{where}: unknown decision {decision!r}")
        elif kind == "skip":
            if not (math.isfinite(rec["wealth_after"])
                    and rec["wealth_after"] >= 0.0):
                problems.append(f"{where}: skip left wealth "
                                f"{rec['wealth_after']}")
        elif kind == "end":
            end = rec
        else:
            problems.append(f"{where}: unknown record kind {kind!r}")
    if end is None:
        problems.append("trace has no end record")
    else:
        for key, report_key in (("termination", "termination"),
                                ("passes", "passes")):
            if end[key] != report[report_key]:
                problems.append(f"trace end {key} {end[key]!r}, report "
                                f"{report[report_key]!r}")
    if tests != report["tests"]:
        problems.append(f"trace has {tests} tests, report {report['tests']}")
    if rejections != report["rejections"]:
        problems.append(f"trace has {rejections} rejections, report "
                        f"{report['rejections']}")
    return problems
