"""Command line front end: select, simulate, diagnose.

Exit codes: 0 success, 1 internal error, 2 usage or parse failure,
3 degenerate data, 4 enumeration budget exceeded.  Error paths print a
one-line message to stderr, never a stack trace.  Output paths are
checked before any input is read, output files are written before
stdout, and a reader that closes stdout early is no error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager

import numpy as np

from . import __version__
from .engine import RaiConfig, fit_terms, run_rai
from .errors import BudgetExceeded, RaiError
from .kernel import _keep_rows, standardize
from .oracles import (BoundInputs, brute_force_subset, enum_budget,
                      forward_stepwise, r_squared_of, submodularity_ratio,
                      theorem_bound, theorem_bound_branches)
from .simulate import METHODS, SCENARIOS, SimSpec, run_experiment
from .wealth import DEFAULT_INITIAL_WEALTH, DEFAULT_PAYOUT

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_BUDGET = 4


class ParseFailure(ValueError):
    pass


# bytes of parsed values per np.loadtxt call: the one transient beside
# the table's block
CHUNK_BYTES = 1 << 18


def _read_table(path: str) -> tuple[list[str], np.ndarray]:
    """Delimited text with a header row; comma or tab, sniffed from the
    header.  A UTF-8 byte order mark is skipped.  An unnamed column,
    duplicate column names and any non-numeric or missing cell are hard
    errors.

    The table comes back as the (n, width) F-order view of one (width,
    n) C-order block: each column is one contiguous row.  np.loadtxt
    parses the body chunk by chunk into that block.  A body it does not
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
            if "" in header:
                raise ParseFailure(
                    f"{path}: column {header.index('') + 1} has no name")
            repeated = sorted(h for h, k in Counter(header).items() if k > 1)
            if repeated:
                raise ParseFailure(
                    f"{path}: duplicate column names: {', '.join(repeated)}")
            data = _load_body(fh, delim, len(header), _row_bound(path))
            if data is None:
                fh.seek(0)
                reader = csv.reader(fh, delimiter=delim)
                next(reader)
                data = _csv_body(path, reader, len(header))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}")
    return header, data


def _row_bound(path: str) -> int:
    """An upper bound on the data rows of a file: its lines less the
    header's.  Lines end at '\n', '\r\n' or a lone '\r', so the larger
    of the file's LF and CR counts is its line ends, in a LF, CRLF or
    CR-only file alike.  A file that mixes LF with lone CR ends may be
    under-counted; `_load_body` then gives it to the csv reader."""
    lf, cr, last = 0, 0, b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            # numpy counts a byte several times faster than bytes.count
            lf += int(np.count_nonzero(np.frombuffer(chunk, np.uint8)
                                       == ord("\n")))
            if b"\r" in chunk:
                cr += chunk.count(b"\r")
            last = chunk[-1:]
    # line ends less the header's, plus a last line that has none
    return max(lf, cr) - (last in (b"\n", b"\r"))


def _load_body(fh, delim: str, width: int,
               bound: int) -> np.ndarray | None:
    """The rest of `fh`, at most `bound` rows, as the (n, width) view of
    one (width, n) block, or None unless np.loadtxt takes it as at least
    one row of `width` finite values.  Each call parses about
    CHUNK_BYTES of values and writes their transpose into the block.
    comments=None, because a '#' cell is an error, not the start of a
    comment."""
    block = np.empty((width, bound))
    step = max(1, CHUNK_BYTES // (8 * width))
    n = 0
    with warnings.catch_warnings():
        # an empty body warns; the csv reader reports it
        warnings.simplefilter("ignore", UserWarning)
        while True:
            try:
                chunk = np.loadtxt(fh, delimiter=delim, comments=None,
                                   dtype=float, ndmin=2, max_rows=step)
            except ValueError:
                return None
            if len(chunk) == 0:
                break
            if (chunk.shape[1] != width or n + len(chunk) > bound
                    or not np.isfinite(chunk).all()):
                return None
            block[:, n:n + len(chunk)] = chunk.T
            n += len(chunk)
            if len(chunk) < step:
                break
    if n == 0:
        return None
    if n < bound:
        # blank lines: move each row to its place in a (width, n) block
        flat = block.reshape(-1)
        for j in range(1, width):
            flat[j * n:(j + 1) * n] = block[j, :n]
        block = flat[:width * n].reshape(width, n)
    return block.T


def _csv_body(path: str, reader, width: int) -> np.ndarray:
    """The data rows of `reader`, one float() per cell, with errors that
    name the offending line, laid out as `_load_body`'s."""
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
    data = np.array(rows, dtype=float, order="F")
    if not np.all(np.isfinite(data)):
        raise ParseFailure(f"{path}: non-finite value in table")
    return data


def _read_design(path: str, response: str):
    """(names, X, y) from a data file, the response split off.  X is the
    (n, p) F-order view of the table's own block, its rows after the
    response's moved up one, and y a copy: no second block is made."""
    header, data = _read_table(path)
    if response not in header:
        raise ParseFailure(f"response column {response!r} not in header")
    if len(header) == 1:
        raise ParseFailure("no predictor columns besides the response")
    ridx = header.index(response)
    rows = data.T
    y = rows[ridx].copy()
    keep = np.arange(len(header)) != ridx
    X = _keep_rows(rows, keep).T
    return [h for h, k in zip(header, keep) if k], X, y


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
        "tests": trace.n_tests(),
        "rejections": ledger.rejections,
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


@contextmanager
def _writing(path: str):
    """An OSError raised inside, opening or writing `path`, becomes a
    ParseFailure that names the path."""
    try:
        yield
    except OSError as exc:
        raise ParseFailure(f"cannot write {path}: {exc}")


def _identity(path: str):
    """What every name of one file shares, hard links included: the
    device and inode of an existing file, else the resolved path."""
    st = os.stat(path) if os.path.exists(path) else None
    return (st.st_dev, st.st_ino) if st else os.path.realpath(path)


def _check_writable(source, **outputs) -> None:
    """Fail as writing each output flag's path would, or when one names
    the input `source` or an earlier flag's file, by any path or hard
    link, before any input is read or any work is done.  An existing
    path is opened for appending, so nothing is truncated; a new one is
    created and removed again."""
    named = {_identity(source): "the input"} if source else {}
    for flag, path in outputs.items():
        if path is None:
            continue
        key, flag = _identity(path), f"--{flag}"
        if named.setdefault(key, flag) != flag:
            raise ParseFailure(f"{named[key]} and {flag} both name {path}")
        with _writing(path):
            if os.path.lexists(path):
                open(path, "a").close()
            else:
                open(path, "x").close()
                os.remove(path)


def _write_json(path: str, report: dict) -> None:
    with _writing(path), open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _write_trace(path: str, trace, names) -> None:
    with _writing(path), open(path, "w") as fh:
        for rec in trace.records(names):
            fh.write(json.dumps(rec) + "\n")


def _print_values(items) -> None:
    """One line per (key, value) pair, floats to six significant digits."""
    for key, value in items:
        spec = ".6g" if isinstance(value, float) else ""
        print(f"{key:<24}{value:{spec}}")


def cmd_select(args) -> int:
    _check_writable(args.input, json=args.json, trace=args.trace)
    config = _config_from_args(args)
    names, X, y = _read_design(args.input, args.response)
    t0 = time.perf_counter()
    # without products no term needs the raw columns: standardize the
    # design in place and keep one copy of it
    dataset = standardize(X, y, names, keep_raw=config.interactions)
    state, trace = run_rai(dataset, config)
    elapsed = time.perf_counter() - t0
    report = _selection_report(dataset, state, trace, config,
                               args.input, elapsed)
    # files first, so a reader that closes stdout early loses none
    if args.json:
        _write_json(args.json, report)
    if args.trace:
        _write_trace(args.trace, trace, dataset.names)
    _print_selection_report(report)
    return EXIT_OK


def cmd_simulate(args) -> int:
    _check_writable(None, out=args.out)
    spec = SimSpec(n=args.n, p=args.p, scenario=args.scenario,
                   replications=args.reps, base_seed=args.seed,
                   target_r2=args.target_r2)
    # the study's only file access is writing --out
    with _writing(args.out):
        result = run_experiment(spec, args.method, out_path=args.out,
                                include_timing=args.timing)
    summary = result["summary"]
    print(f"scenario={args.scenario} method={args.method} n={args.n} "
          f"p={args.p} reps={args.reps} seed={args.seed}")
    _print_values((key, summary[key]) for key in sorted(summary)
                  if key != "kind")
    if args.out:
        print(f"rows written to {args.out}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    budget = enum_budget()
    _check_writable(args.input, json=args.json)
    config = _config_from_args(args)
    names, X, y = _read_design(args.input, args.response)
    dataset = standardize(X, y, names, keep_raw=config.interactions)
    state, trace = run_rai(dataset, config)
    # diagnose searches no interactions, so every term is a marginal
    selected_idx = [t.powers[0][0] for t in state.selected]
    k = args.k
    path = forward_stepwise(dataset, min(k, dataset.p)).selected
    best_set, best_r2 = brute_force_subset(dataset, min(k, dataset.p),
                                           budget=budget)
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
    if 1 <= l < dataset.p:
        gamma, details = submodularity_ratio(dataset, selected_idx, k,
                                             budget=budget)
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
        # an empty model, or one holding every column, which leaves no
        # column to take gamma over: the guarantee is vacuous here
        report.update({"gamma": None, "s_f": s_f, "bound": 0.0,
                       "bound_holds": True,
                       "bound_slack": state.r_squared})
    if args.json:
        _write_json(args.json, report)
    _print_values(report.items())
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type for an integer flag with a lower bound."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "integer"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rai",
        description="streaming feature selection with alpha-investing")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, interactions=True):
        p.add_argument("--wealth", type=float, default=DEFAULT_INITIAL_WEALTH,
                       help="initial alpha-wealth (default %(default)s)")
        p.add_argument("--payout", type=float, default=DEFAULT_PAYOUT,
                       help="wealth earned per rejection (default "
                            "%(default)s)")
        p.add_argument("--max-passes", type=int, default=None,
                       help="pass budget (default ceil(log2 n) + 2)")
        if interactions:
            p.add_argument("--interactions", action="store_true",
                           help="search products of selected terms")
            p.add_argument("--max-order", type=_int_at_least(2),
                           default=None,
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
    pd.add_argument("--k", type=_int_at_least(1), default=3,
                    help="subset size for the exact references (default 3)")
    add_config_flags(pd, interactions=False)
    pd.add_argument("--json", default=None)
    pd.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left; send the exit-time flush of stdout to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
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
