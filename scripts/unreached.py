#!/usr/bin/env python3
"""List every statement in `src/rai` that the test suite never runs.

Runs the test suite in this process under a `sys.settrace` line
tracer limited to the package's files, then prints one `file:line`
statement per line for each statement no test reached, and a summary
line on standard error:

    python3 scripts/unreached.py            # the whole suite
    python3 scripts/unreached.py tests/test_kernel.py -k Screen

Arguments are passed to pytest as they are; its report goes to
standard error.  A statement counts as reached when its first line
runs.  Code the tests reach only through a subprocess (`python -m rai`)
is not traced and is listed.  Hypothesis deadlines are off, since
tracing slows every traced line; timing gates may still fail under the
tracer, so the suite's own exit status is printed but does not change
the listing.  The exit status is 0 when every statement ran and 1
otherwise.
"""
import ast
import contextlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rai"


def statements(path: Path) -> set[int]:
    """First lines of the statements of `path` that hold code, that is,
    that a line event can report."""
    source = path.read_text()
    lines = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in lines}


def main(argv: list[str]) -> int:
    files = {str(p): statements(p) for p in sorted(PACKAGE.glob("*.py"))}
    missing = {f: set(lines) for f, lines in files.items()}

    def local(frame, event, arg):
        if event == "line":
            left = missing[frame.f_code.co_filename]
            left.discard(frame.f_lineno)
            if not left:
                return None
        return local

    def global_(frame, event, arg):
        # trace only package frames, and only files with lines left
        return local if missing.get(frame.f_code.co_filename) else None

    # the suite's own `python -m rai` runs find the package too
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest
    from hypothesis import settings
    settings.register_profile("unreached", deadline=None)
    settings.load_profile("unreached")

    sys.settrace(global_)
    try:
        # the listing alone goes to standard output
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  "--continue-on-collection-errors",
                                  *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)

    total = sum(len(lines) for lines in files.values())
    left = 0
    for f, lines in missing.items():
        rel = Path(f).relative_to(ROOT)
        for line in sorted(lines):
            print(f"{rel}:{line}")
        left += len(lines)
    print(f"{left} of {total} statements never ran; pytest exit status "
          f"{int(status)}", file=sys.stderr)
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
