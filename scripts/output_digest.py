#!/usr/bin/env python3
"""One sha256 per CLI output, for comparing two source trees.

Writes fixed-seed inputs to a temporary directory, runs the `rai` found
under the given `src` path on them, and prints one digest per output
file or standard output.  Lines that mention `elapsed` are dropped
before hashing, so two runs of the same code print the same digests:

    python3 scripts/output_digest.py src > after.txt
    python3 scripts/output_digest.py /path/to/other/src > before.txt
    diff before.txt after.txt

or in one call, which prints only the digests that differ:

    python3 scripts/output_digest.py src --against /path/to/other/src

With `--against`, each differing line shows the digest of both trees,
and each differing `--trace` file gets one more line: how many records
differ, whether every difference is the `t_abs` of a `not_rejected`
test record, and the largest relative difference in |t|.

The inputs are a gaussian design with a planted product plus a +-1
column (whose square is constant) and a 0/1 column (whose square is
itself), so that `--trace` files hold collinear and constant monomials,
a p > n design, a pure-noise design for `diagnose` on an empty model,
and a noiseless y = x1 + x2, whose exact fit leaves no |t| that any
pass can clear.  Three runs that must fail (an unwritable `--trace`, a
missing response column, `--max-order` without `--interactions`) come
last, each digested by its standard error and exit code.  Every run
uses one BLAS thread.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIMULATE_METHODS = ("rai", "rai_interactions", "stepwise_aic", "mean_model",
                    "true_model")


def write_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    names = [f"x{j + 1}" for j in range(X.shape[1])] + ["y"]
    np.savetxt(path, np.column_stack([X, y]), delimiter=",",
               header=",".join(names), comments="", fmt="%.17g")


def make_inputs(work: Path) -> dict[str, Path]:
    rng = np.random.default_rng(20151)
    n = 300
    X = rng.normal(1.0, 1.0, size=(n, 12))
    X[:, 10] = rng.choice([-1.0, 1.0], n)
    X[:, 11] = rng.integers(0, 2, n)
    y = (X[:, 0] + X[:, 1] + 1.5 * X[:, 0] * X[:, 1] + 0.8 * X[:, 10]
         + 0.8 * X[:, 11] + rng.normal(size=n))
    product = work / "product.csv"
    write_csv(product, X, y)

    n, p = 40, 80
    X = rng.normal(size=(n, p))
    y = X[:, :3].sum(1) + 0.5 * rng.normal(size=n)
    wide = work / "wide.csv"
    write_csv(wide, X, y)

    X = rng.normal(size=(100, 6))
    null = work / "null.csv"
    write_csv(null, X, rng.normal(size=100))

    X = rng.normal(size=(100, 5))
    exact = work / "exact.csv"
    write_csv(exact, X, X[:, 0] + X[:, 1])
    return {"product": product, "wide": wide, "null": null, "exact": exact}


def commands(inputs: dict[str, Path], work: Path):
    """(name, argv, output files) for every run."""
    flag_sets = {
        "plain": [],
        "interactions": ["--interactions"],
        "order2": ["--interactions", "--max-order", "2", "--wealth", "0.5"],
    }
    selects = [(data, flags_name) for data in ("product", "wide")
               for flags_name in flag_sets]
    selects += [("exact", "plain"), ("exact", "interactions")]
    for data, flags_name in selects:
        name = f"select-{data}-{flags_name}"
        report, trace = work / f"{name}.json", work / f"{name}.jsonl"
        yield name, ["select", str(inputs[data]), "--response", "y",
                     *flag_sets[flags_name], "--json", str(report),
                     "--trace", str(trace)], [report, trace]
    for data, k in (("product", "3"), ("wide", "2"), ("null", "3")):
        name = f"diagnose-{data}"
        report = work / f"{name}.json"
        yield name, ["diagnose", str(inputs[data]), "--response", "y",
                     "--k", k, "--json", str(report)], [report]
    for method in SIMULATE_METHODS:
        name = f"simulate-{method}"
        out = work / f"{name}.jsonl"
        yield name, ["simulate", "--scenario", "single_interaction",
                     "--n", "200", "--p", "20", "--reps", "3", "--seed", "5",
                     "--method", method, "--out", str(out)], [out]


def failing_commands(inputs: dict[str, Path], work: Path):
    """(name, argv) for every run that must exit with an error."""
    select = ["select", str(inputs["product"]), "--response"]
    yield "select-unwritable-trace", [
        *select, "y", "--trace", str(work / "absent" / "trace.jsonl")]
    yield "select-missing-response", [*select, "nope"]
    yield "select-order-without-interactions", [
        *select, "y", "--max-order", "3"]


def run(argv: list[str], env: dict, work: Path):
    """(exit code, stdout, stderr) of one rai run, with the work
    directory written as <work>."""
    done = subprocess.run([sys.executable, "-m", "rai", *argv], env=env,
                          capture_output=True)
    mask = str(work).encode()
    return (done.returncode, done.stdout.replace(mask, b"<work>"),
            done.stderr.replace(mask, b"<work>"))


def digest(data: bytes) -> str:
    kept = [line for line in data.splitlines() if b"elapsed" not in line]
    return hashlib.sha256(b"\n".join(kept)).hexdigest()


def outputs(src: str) -> list[tuple[str, str, bytes]]:
    """(key, label, data) for every output of every run of the `rai`
    under `src`, with the work directory written as <work>.  `key`
    names the output; `label` adds the exit code of a stream."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               OPENBLAS_NUM_THREADS="1")
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = make_inputs(work)
        for name, argv, paths in commands(inputs, work):
            code, stdout, _ = run(argv, env, work)
            found.append((f"{name} stdout", f"{name} stdout (exit {code})",
                          stdout))
            for path in paths:
                data = path.read_bytes() if path.exists() else b"<missing>"
                data = data.replace(str(work).encode(), b"<work>")
                key = f"{name} {path.suffix[1:]}"
                found.append((key, key, data))
        for name, argv in failing_commands(inputs, work):
            code, _, stderr = run(argv, env, work)
            found.append((f"{name} stderr", f"{name} stderr (exit {code})",
                          stderr))
    return found


def trace_difference(ours: bytes, theirs: bytes) -> str:
    """How two `--trace` files differ, record by record."""
    a = [json.loads(line) for line in ours.splitlines()]
    b = [json.loads(line) for line in theirs.splitlines()]
    differing = abs(len(a) - len(b))
    only_t = differing == 0
    worst = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        differing += 1
        tx, ty = x.get("t_abs"), y.get("t_abs")
        if ({**x, "t_abs": None} != {**y, "t_abs": None}
                or x["kind"] != "test" or x["decision"] != "not_rejected"
                or tx is None or ty is None):
            only_t = False
            continue
        worst = max(worst, abs(tx - ty) / max(abs(tx), abs(ty)))
    return (f"{differing} records differ; only not_rejected t_abs: "
            f"{'yes' if only_t else 'no'}; largest relative |t| "
            f"difference {worst:.3g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the src directory holding the rai "
                                    "package to run")
    parser.add_argument("--against", metavar="OTHER_SRC", default=None,
                        help="a second src directory; print only the "
                             "digests that differ between the two")
    args = parser.parse_args()
    ours = outputs(args.src)
    if args.against is None:
        for _, label, data in ours:
            print(f"{digest(data)}  {label}")
        return 0
    theirs = {key: (label, data) for key, label, data in
              outputs(args.against)}
    for key, label, data in ours:
        other_label, other = theirs.get(key, (key, b"<missing>"))
        if digest(data) == digest(other) and label == other_label:
            continue
        print(f"{digest(data)}  {label}")
        print(f"{digest(other)}  {other_label}  (against)")
        if key.startswith("select-") and key.endswith(" jsonl"):
            try:
                print(f"    {trace_difference(data, other)}")
            except ValueError:   # a missing or unparsable file
                print("    not comparable as trace records")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left, as `| head` does; send the exit-time flush of
        # stdout to devnull and exit 0, as `rai` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
