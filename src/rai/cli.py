"""Command line front end: select, simulate, diagnose.

Exit codes: 0 success, 1 internal error, 2 usage or parse failure,
3 degenerate data, 4 enumeration budget exceeded.  Error paths print a
one-line message to stderr, never a stack trace.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import warnings
from collections import Counter

import numpy as np

from . import __version__
from .engine import RaiConfig, fit_terms, run_rai
from .errors import BudgetExceeded, RaiError
from .kernel import standardize
from .oracles import (BoundInputs, brute_force_subset, forward_stepwise,
                      r_squared_of, submodularity_ratio, theorem_bound,
                      theorem_bound_branches)
from .simulate import METHODS, SCENARIOS, SimSpec, run_experiment

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_BUDGET = 4


class ParseFailure(Exception):
    pass


def _read_table(path: str) -> tuple[list[str], np.ndarray]:
    """Delimited text with a header row; comma or tab, sniffed from the
    header.  A UTF-8 byte order mark is skipped.  Duplicate column names
    and any non-numeric or missing cell are hard errors.

    The body is parsed in one pass by np.loadtxt.  A body it does not
    take as a non-empty, all-finite table of the header's width (blank
    cells, quotes, ragged rows, bad cells, ...) is read again by the csv
    reader, which accepts, rejects and words its errors as it always
    has; the values both accept are bit for bit the same."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            first = fh.readline()
            if not first.strip():
                raise ParseFailure(f"{path}: empty file")
            delim = "\t" if "\t" in first else ","
            fh.seek(0)
            reader = csv.reader(fh, delimiter=delim)
            header = [h.strip() for h in next(reader)]
            repeated = sorted(h for h, k in Counter(header).items() if k > 1)
            if repeated:
                raise ParseFailure(
                    f"{path}: duplicate column names: {', '.join(repeated)}")
            data = _load_body(fh, delim, len(header))
            if data is None:
                fh.seek(0)
                reader = csv.reader(fh, delimiter=delim)
                next(reader)
                data = _csv_body(path, reader, len(header))
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}")
    return header, data


def _load_body(fh, delim: str, width: int) -> np.ndarray | None:
    """The rest of `fh` as a float table, or None unless np.loadtxt takes
    it as at least one row of `width` finite values.  comments=None,
    because a '#' cell is an error, not the start of a comment."""
    try:
        with warnings.catch_warnings():
            # an empty body warns; the csv reader reports it
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=delim, comments=None,
                              dtype=float, ndmin=2)
    except ValueError:
        return None
    if data.shape[0] == 0 or data.shape[1] != width:
        return None
    if not np.isfinite(data).all():
        return None
    return data


def _csv_body(path: str, reader, width: int) -> np.ndarray:
    """The data rows of `reader`, one float() per cell, with errors that
    name the offending line."""
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise ParseFailure(
                f"{path}:{lineno}: expected {width} fields, "
                f"got {len(row)}")
        try:
            rows.append([float(c) for c in row])
        except ValueError:
            raise ParseFailure(
                f"{path}:{lineno}: non-numeric or missing value")
    if not rows:
        raise ParseFailure(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ParseFailure(f"{path}: non-finite value in table")
    return data


def _read_design(path: str, response: str):
    """(names, X, y) from a data file, the response split off.  Only X
    and a copy of y outlive the call, not the whole parsed table."""
    header, data = _read_table(path)
    if response not in header:
        raise ParseFailure(f"response column {response!r} not in header")
    ridx = header.index(response)
    keep = [j for j in range(len(header)) if j != ridx]
    if not keep:
        raise ParseFailure("no predictor columns besides the response")
    return [header[j] for j in keep], data[:, keep], data[:, ridx].copy()


def _config_from_args(args) -> RaiConfig:
    return RaiConfig(
        initial_wealth=args.wealth,
        payout=args.payout,
        max_passes=args.max_passes,
        interactions=getattr(args, "interactions", False),
        max_interaction_order=getattr(args, "max_order", None),
    )


def _selection_report(dataset, state, trace, config, source, elapsed) -> dict:
    slopes, intercept = fit_terms(dataset, state.selected)
    ledger = trace.ledger
    return {
        "input": source,
        "n": dataset.n,
        "p": dataset.p,
        "config": {
            "initial_wealth": config.initial_wealth,
            "payout": config.payout,
            "max_passes": config.resolve_max_passes(dataset.n),
            "interactions": config.interactions,
            "max_interaction_order": config.max_interaction_order,
        },
        "selected": [
            {"term": term.display(dataset.names), "coefficient": float(c)}
            for term, c in zip(state.selected, slopes)
        ],
        "intercept": float(intercept),
        "r_squared": state.r_squared,
        "passes": trace.passes_traversed,
        "tests": len(trace.tests),
        "rejections": trace.n_rejections(),
        "wealth": {
            "initial": ledger.initial_wealth,
            "spent": ledger.total_spent(),
            "earned": ledger.payout * ledger.rejections,
            "final": ledger.wealth,
        },
        "termination": trace.termination,
        "elapsed_s": round(elapsed, 3),
    }


def _print_selection_report(report: dict) -> None:
    out = []
    out.append("selection report")
    out.append("=" * 16)
    out.append(f"input: {report['input']} "
               f"(n={report['n']}, p={report['p']})")
    cfg = report["config"]
    out.append("config: " + " ".join(
        f"{k}={v}" for k, v in cfg.items()))
    sel = report["selected"]
    out.append(f"selected terms: {len(sel)}")
    if sel:
        width = max(len(s["term"]) for s in sel) + 2
        for s in sel:
            out.append(f"  {s['term']:<{width}}{s['coefficient']:.6g}")
    out.append(f"intercept: {report['intercept']:.6g}")
    out.append(f"r_squared: {report['r_squared']:.6g}")
    out.append(f"passes: {report['passes']}  tests: {report['tests']}  "
               f"rejections: {report['rejections']}")
    w = report["wealth"]
    out.append(f"wealth: initial={w['initial']:.6g} spent={w['spent']:.6g} "
               f"earned={w['earned']:.6g} final={w['final']:.6g}")
    out.append(f"termination: {report['termination']}")
    out.append(f"elapsed: {report['elapsed_s']}s")
    print("\n".join(out))


def _write_trace(path: str, trace) -> None:
    with open(path, "w") as fh:
        for rec in trace.tests:
            fh.write(json.dumps({
                "kind": "test", "pass": rec.pass_index,
                "term": rec.term.display(), "t_abs": rec.t_abs,
                "tlvl": rec.tlvl, "alpha": rec.alpha,
                "wealth_before": rec.wealth_before,
                "wealth_after": rec.wealth_after,
                "decision": rec.decision}) + "\n")
        for rec in trace.skips:
            fh.write(json.dumps({
                "kind": "skip", "from_pass": rec.from_pass,
                "to_pass": rec.to_pass, "n_candidates": rec.n_candidates,
                "alpha_charged": rec.alpha_charged,
                "wealth_before": rec.wealth_before,
                "wealth_after": rec.wealth_after,
                "halted": rec.halted}) + "\n")
        fh.write(json.dumps({
            "kind": "end", "termination": trace.termination,
            "passes": trace.passes_traversed}) + "\n")


def cmd_select(args) -> int:
    names, X, y = _read_design(args.input, args.response)
    config = _config_from_args(args)
    t0 = time.perf_counter()
    dataset = standardize(X, y, names)
    state, trace = run_rai(dataset, config)
    elapsed = time.perf_counter() - t0
    report = _selection_report(dataset, state, trace, config,
                               args.input, elapsed)
    _print_selection_report(report)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.trace:
        _write_trace(args.trace, trace)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = SimSpec(n=args.n, p=args.p, scenario=args.scenario,
                   replications=args.reps, base_seed=args.seed,
                   target_r2=args.target_r2)
    result = run_experiment(spec, args.method, out_path=args.out,
                            include_timing=args.timing)
    summary = result["summary"]
    print(f"scenario={args.scenario} method={args.method} n={args.n} "
          f"p={args.p} reps={args.reps} seed={args.seed}")
    for key in sorted(summary):
        if key == "kind":
            continue
        value = summary[key]
        if isinstance(value, float):
            print(f"{key:<24}{value:.6g}")
        else:
            print(f"{key:<24}{value}")
    if args.out:
        print(f"rows written to {args.out}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    names, X, y = _read_design(args.input, args.response)
    config = _config_from_args(args)
    dataset = standardize(X, y, names)
    state, trace = run_rai(dataset, config)
    marginal_only = all(t.order == 1 for t in state.selected)
    selected_idx = [t.powers[0][0] for t in state.selected if t.order == 1]
    k = args.k
    path = forward_stepwise(dataset, min(k, dataset.p))
    best_set, best_r2 = brute_force_subset(dataset, min(k, dataset.p))
    report = {
        "input": args.input,
        "n": dataset.n,
        "p": dataset.p,
        "k": k,
        "selected": [t.display(dataset.names) for t in state.selected],
        "r_squared": state.r_squared,
        "passes": trace.passes_traversed,
        "termination": trace.termination,
        "stepwise_path": [dataset.names[j] for j in path],
        "stepwise_r_squared": r_squared_of(dataset, path),
        "best_subset": [dataset.names[j] for j in best_set],
        "best_subset_r_squared": best_r2,
    }
    l = len(state.selected)
    s_f = trace.first_rejection_pass()
    if l >= 1 and marginal_only and len(selected_idx) < dataset.p:
        gamma, details = submodularity_ratio(dataset, selected_idx, k,
                                             full_output=True)
        inputs = BoundInputs(r2_opt=best_r2, l=l, k=min(k, dataset.p),
                             gamma=gamma, s_f=s_f)
        additive, multiplicative = theorem_bound_branches(inputs)
        bound = theorem_bound(inputs)
        report.update({
            "gamma": gamma,
            "gamma_sets": details["n_sets"],
            "gamma_skipped": details["n_skipped"],
            "s_f": s_f,
            "bound_additive": additive,
            "bound_multiplicative": multiplicative,
            "bound": bound,
            "bound_holds": bool(state.r_squared >= bound - 1e-10),
            "bound_slack": state.r_squared - bound,
        })
    else:
        # empty or interaction-bearing model: guarantee is vacuous here
        report.update({"gamma": None, "s_f": s_f, "bound": 0.0,
                       "bound_holds": True,
                       "bound_slack": state.r_squared})
    for key, value in report.items():
        if isinstance(value, float):
            print(f"{key:<24}{value:.6g}")
        else:
            print(f"{key:<24}{value}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rai",
        description="streaming feature selection with alpha-investing")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, interactions=True):
        p.add_argument("--wealth", type=float, default=0.25,
                       help="initial alpha-wealth (default 0.25)")
        p.add_argument("--payout", type=float, default=0.05,
                       help="wealth earned per rejection (default 0.05)")
        p.add_argument("--max-passes", type=int, default=None,
                       help="pass budget (default ceil(log2 n) + 2)")
        if interactions:
            p.add_argument("--interactions", action="store_true",
                           help="search products of selected terms")
            p.add_argument("--max-order", type=int, default=None,
                           help="largest monomial order to generate")

    ps = sub.add_parser("select", help="select features from a data file")
    ps.add_argument("input", help="delimited text with a header row")
    ps.add_argument("--response", required=True,
                    help="name of the response column")
    add_config_flags(ps)
    ps.add_argument("--json", default=None,
                    help="write the report as JSON to this path")
    ps.add_argument("--trace", default=None,
                    help="write the per-test trace as JSON lines")
    ps.set_defaults(func=cmd_select)

    pm = sub.add_parser("simulate", help="run a synthetic benchmark")
    pm.add_argument("--scenario", required=True, choices=SCENARIOS)
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--p", type=int, required=True)
    pm.add_argument("--reps", type=int, required=True)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--method", default="rai", choices=METHODS)
    pm.add_argument("--target-r2", type=float, default=0.83)
    pm.add_argument("--timing", action="store_true",
                    help="include wall times (breaks byte-identical reruns)")
    pm.add_argument("--out", default=None,
                    help="write line-delimited JSON rows to this path")
    pm.set_defaults(func=cmd_simulate)

    pd = sub.add_parser(
        "diagnose",
        help="compare a selection run against exact small-data oracles")
    pd.add_argument("input", help="delimited text with a header row")
    pd.add_argument("--response", required=True)
    pd.add_argument("--k", type=int, default=3,
                    help="subset size for the exact references (default 3)")
    add_config_flags(pd, interactions=False)
    pd.add_argument("--json", default=None)
    pd.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RaiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # pragma: no cover - last resort, no traceback
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
