"""The benchmark's timing wrappers must find every name they wrap.

perfbench/spans.py wraps rai functions by module and attribute name.  A
name that has gone is reported there as missing, and the per-layer
metrics it feeds drop out of the benchmark.  This test fails instead,
so renaming or removing a wrapped function cannot go unnoticed.  The
benchmark's files are only read.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapper_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    missing = [f"{module}.{attribute}"
               for _, module, attribute, _ in spans.TARGETS
               if spans._resolve(module, attribute) is None]
    assert missing == []
