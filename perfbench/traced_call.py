"""Run one rai CLI call in this process with layer wrappers installed.

    python traced_call.py SPANS.npz ARG...

is `python -m rai ARG...` with every name in spans.TARGETS wrapped.  The
spans and the names found missing are written to SPANS.npz when the
call ends.  The exit code is rai's, or 1 when a wrapper could not be
removed.
"""

import sys

from spans import MAIN, Recorder, save


def main(out_path: str, argv: list[str]) -> int:
    import rai.cli

    recorder = Recorder()
    recorder.install()
    try:
        code = recorder.span(MAIN, rai.cli.main)(argv)
    finally:
        restored = recorder.remove()
    save(out_path, recorder.spans, recorder.missing)
    if not restored:
        print("error: timing wrappers were not removed", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
