"""The benchmark's wrappers and pinned outputs must match the package.

perfbench/spans.py wraps rai functions by module and attribute name.  A
name that has gone is reported there as missing, and the per-layer
metrics it feeds drop out of the benchmark.  perfbench/references.json
pins the sha256 of every `rai simulate` output the benchmark makes, and
a run whose bytes drift is counted as wrong.  These tests fail instead,
at test time, so neither a renamed function nor a changed output byte
goes unnoticed until the benchmark runs.  The benchmark's files are
only read.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import rai

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch=None):
    """perfbench/<name>.py as a module named perfbench_<name>; with
    `monkeypatch`, in sys.modules under that name for the test, where
    the dataclasses it defines look their module up."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrapper_target_resolves():
    spans = load("spans")
    assert spans.TARGETS
    missing = [f"{module}.{attribute}"
               for _, module, attribute, _ in spans.TARGETS
               if spans._resolve(module, attribute) is None]
    assert missing == []


def test_simulate_outputs_match_the_pinned_sha256s(tmp_path, monkeypatch):
    """The simulate_study workload's calls, run as the benchmark runs
    them (`python -m rai simulate`, one BLAS thread), write for its
    first two instances the bytes references.json pins."""
    # workloads.py imports its sibling checks.py by that name
    monkeypatch.setitem(sys.modules, "checks", load("checks"))
    workload = load("workloads", monkeypatch).WORKLOADS["simulate_study"]
    with open(PERFBENCH / "references.json") as fh:
        references = json.load(fh)["simulate_study"]
    src = os.path.dirname(os.path.dirname(rai.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    for instance in (0, 1):
        work = tmp_path / str(instance)
        work.mkdir()
        prepared = workload.prepare(instance, work)
        pinned = references[str(instance)]["calls"]
        assert len(prepared.calls) == len(pinned)
        for index, call in enumerate(prepared.calls):
            proc = subprocess.run([sys.executable, "-m", "rai", *call],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert workload.check(prepared, index, pinned[index]) == []
