#!/usr/bin/env python3
"""Check that the tests catch a fixed list of one-line mutations.

Copies the given `src` tree to a temporary directory, and for each
mutation in MUTATIONS rewrites one line of the copy, runs that
mutation's pytest selection of this repository's tests against it, and
prints whether the selection failed (`killed`) or passed (`survived`):

    python3 scripts/mutants.py              # this repository's src
    python3 scripts/mutants.py /path/to/other/src

The unmutated copy is run through every selection first, and must pass
each one, or no verdict would mean anything.  The given tree is only
read: the mutated copy, pytest's temporary files and Hypothesis'
database live in the temporary directory, and no bytecode is written.
The exit status is 0 when every mutation is killed, 1 when any
survives, and 2 when the unmutated copy fails a selection or a
mutation's line is not found exactly once in its file.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CORE = ("tests/test_differential.py", "tests/test_kernel.py",
        "tests/test_engine.py")

# (name, file under src, the line as it is, the line mutated, selection)
MUTATIONS = [
    ("adjusted_vector sweeps once", "rai/kernel.py",
     "        for _ in range(2):\n            for q in self.basis:",
     "        for _ in range(1):\n            for q in self.basis:",
     ("tests/test_differential.py",)),
    ("SCREEN_MARGIN negated", "rai/kernel.py",
     "SCREEN_MARGIN = 1e-7", "SCREEN_MARGIN = -1e-7", CORE),
    ("settled takes one slot past the first open one", "rai/kernel.py",
     "t.append(t_abs[:int(unsettled[0])])",
     "t.append(t_abs[:int(unsettled[0]) + 1])", CORE),
    ("catch-up takes x . r with the response", "rai/kernel.py",
     "self.inner[span] = rows @ state.residual",
     "self.inner[span] = rows @ state.dataset.response", CORE),
    ("a fresh chunk takes in no basis vector", "rai/kernel.py",
     "for q in state.basis[taken or 0:]:",
     "for q in state.basis[taken or state.size:]:", CORE),
    ("a chunk catches up only once", "rai/kernel.py",
     "if taken != state.size:", "if taken is None:", CORE),
    ("the halt gate stops at wealth equal to alpha", "rai/engine.py",
     "if ledger.wealth < alpha:", "if ledger.wealth <= alpha:",
     ("tests/test_engine.py",)),
    ("a |t| equal to the threshold rejects", "rai/engine.py",
     "if t_abs > tlvl:", "if t_abs >= tlvl:", ("tests/test_engine.py",)),
    ("spend refuses a charge equal to the wealth", "rai/wealth.py",
     "wealth[:count] >= alpha", "wealth[:count] > alpha",
     ("tests/test_wealth.py",)),
    ("a skip lands on the pass whose threshold equals best",
     "rai/engine.py", "while pass_parameters(n, s_prime)[0] >= best:",
     "while pass_parameters(n, s_prime)[0] > best:",
     ("tests/test_engine.py",)),
    ("_row_bound one row short", "rai/cli.py",
     'return max(lf, cr) - (last in (b"\\n", b"\\r"))',
     'return max(lf, cr) - (last in (b"\\n", b"\\r")) - 1',
     ("tests/test_ingest.py",)),
    ("standardize copies the kept rows", "rai/kernel.py",
     "rows = _keep_rows(rows, keep)", "rows = rows[keep]",
     ("tests/test_ingest.py",)),
    ("ParseFailure is no ValueError", "rai/cli.py",
     "class ParseFailure(ValueError):", "class ParseFailure(Exception):",
     ("tests/test_cli.py",)),
]


def passes(src: Path, work: Path, selection) -> bool:
    """Whether the pytest selection passes against the package in `src`,
    run from `work`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    args = [str(ROOT / a) if a.startswith("tests/") else a
            for a in selection]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--basetemp", str(work / "pytest"), *args],
        cwd=work, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"),
                        help="the source tree to mutate (default: src)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        src = work / "src"
        shutil.copytree(args.src, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for selection in dict.fromkeys(m[4] for m in MUTATIONS):
            if not passes(src, work, selection):
                print(f"unmutated copy fails {' '.join(selection)}")
                return 2
        survived = 0
        for name, rel, line, mutated, selection in MUTATIONS:
            path = src / rel
            text = path.read_text()
            if text.count(line) != 1:
                print(f"{name}: its line is not found once in {rel}")
                return 2
            path.write_text(text.replace(line, mutated))
            try:
                killed = not passes(src, work, selection)
            finally:
                path.write_text(text)
            survived += not killed
            print(f"{'killed' if killed else 'survived':<9}{name}  "
                  f"({' '.join(selection)})")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
