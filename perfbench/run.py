"""Benchmark of the rai command line: one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; rai is imported from ./src.  Every
rai call is a fresh `python -m rai` child process, and the next call is
spawned only after the previous one has exited.  The children run BLAS
on one thread (see BLAS_THREADS).  A workload run is the workload's
calls in order; runs repeat for about S seconds and each is timed from
spawning its first child to the exit of its last.  One `rai --version`
child, timed for setup_s, runs before each workload run, so both
metrics sample the same stretch of time.  wall_s and setup_s are these
times at a reference speed of the host (see CALIBRATION).  Every call's
output is checked.  The metrics and their units are those BENCHMARK.json
lists.

--trace 0 prints the end-to-end metrics.  --trace 1 makes the same
untraced runs, then one traced run whose CLI children go through
traced_call.py, and prints the per-layer metrics from its spans and the
tracing overhead against the untraced runs.  The last line of output is
one JSON object: correct, attempted, failed, metrics.  error_rate is
failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from spans import (NON_MARGINAL, PROCESS, REJECTED, RUN, aggregate,
                   layers_of, load, nesting_problems)
from workloads import INSTANCES, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
DECLARED = HERE.parent / "BENCHMARK.json"
MIN_RUNS = 5            # workload runs per measurement, whatever S is
CALL_TIMEOUT_S = 150
# On a 2-vCPU host OpenBLAS's second thread saves nothing on these
# workloads, whose BLAS calls are mostly dot products, yet it spins after
# each call: at its default it added a third to the children's CPU time,
# made each workload 10-15% slower and widened the run-to-run spread.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# The host's speed is not steady.  It shares its cores with other tenants
# and moves between a fast state and one about 1.5 times slower, for
# seconds or for minutes; two sets of runs of the same code, taken
# minutes apart, differed by 30% in median wall time.  This calibration
# child does the kinds of work a rai call does (interpreter start, numpy
# import, CSV parsing, Gram-Schmidt sweeps of small numpy calls from
# Python) and runs before and after every workload run to gauge the
# host's speed.  wall_s and setup_s divide each time by the mean of the
# calibration times around it and scale the median ratio by
# CALIBRATION_REFERENCE_S, the calibration's time in the host's fast
# state, so they are seconds at that speed.  In two sets of ten 40-second
# runs per workload, 20 minutes apart, raw median wall times moved by 9%,
# 22% and 18% (tall, wide, simulate) and these by 3% or less.  The raw
# times are printed too.
CALIBRATION = """
import csv, io
import numpy as np
rng = np.random.default_rng(0)
text = "\\n".join(",".join(f"{v:.9g}" for v in row)
                  for row in rng.standard_normal((1000, 60)))
data = np.array([[float(c) for c in row]
                 for row in csv.reader(io.StringIO(text))])
X = rng.standard_normal((2000, 300))
basis = list(np.linalg.qr(X[:, :60])[0].T)
for j in range(60, 160):
    v = np.array(X[:, j])
    for _ in range(2):
        for q in basis:
            v -= np.dot(v, q) * q
"""
CALIBRATION_REFERENCE_S = 0.24


def at_reference_speed(times: list[float], calibrations: list[float]):
    """Median of times[i] scaled by CALIBRATION_REFERENCE_S over the mean
    of calibrations[i] and calibrations[i + 1], taken before and after."""
    return median(t * 2.0 * CALIBRATION_REFERENCE_S / (before + after)
                  for t, before, after
                  in zip(times, calibrations, calibrations[1:]))


def declared_metrics(kind: str) -> dict[str, str]:
    """name -> unit of the `end_to_end` or `per_layer` metrics in
    BENCHMARK.json, in its order."""
    with open(DECLARED) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class Child:
    code: int
    start: float
    end: float
    rss_mb: float
    log: Path


class Bench:
    """Spawns rai children from one checkout and counts their failures."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        paths = [str(root / "src")]
        if self.env.get("PYTHONPATH"):
            paths.append(self.env["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.env.update(BLAS_THREADS)
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str], log: Path) -> Child:
        """Run one child to its exit; output goes to `log`."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    if not select.select([pidfd], [], [], CALL_TIMEOUT_S)[0]:
                        proc.kill()
                finally:
                    os.close(pidfd)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, start, end, usage.ru_maxrss / 1024.0,
                     log)

    def calibrate(self) -> float:
        """Seconds the CALIBRATION child takes now."""
        child = self.spawn([sys.executable, "-c", CALIBRATION],
                           self.work / "calibration.log")
        if child.code != 0:
            raise RuntimeError("calibration child failed: "
                               + child.log.read_text()[-500:])
        return child.end - child.start

    def tally(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}:", file=sys.stderr)
            for line in problems[:10]:
                print(f"  {line}", file=sys.stderr)

    def exit_problems(self, child: Child) -> list[str]:
        if child.code == 0:
            return []
        tail = child.log.read_text(errors="replace").strip()[-500:]
        return [f"exit code {child.code}: {tail}"]


@contextmanager
def work_dir(root: Path, prefix: str):
    """A scratch directory under the checkout's .perfbench_work, removed
    afterwards."""
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=base))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(bench: Bench, workload, prepared, refs: list[dict],
                 traced: bool = False) -> list[Child]:
    """One workload run: its calls in order, then every output checked."""
    children = []
    for i, call in enumerate(prepared.calls):
        for path in prepared.outputs[i]:
            path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "traced_call.py"),
                    str(bench.work / f"spans{i}.npz"), *call]
        else:
            argv = [sys.executable, "-m", "rai", *call]
        children.append(bench.spawn(argv, bench.work / f"call{i}.log"))
    for i, child in enumerate(children):
        problems = bench.exit_problems(child)
        if not problems:
            problems = workload.check(prepared, i, refs[i])
        bench.tally(f"{workload.name} call {i} {' '.join(prepared.calls[i])}",
                    problems)
    return children


def measure_setup(bench: Bench, expected_version: str) -> float:
    """Time of one fresh `python -m rai --version`, checked."""
    child = bench.spawn([sys.executable, "-m", "rai", "--version"],
                        bench.work / "version.log")
    problems = bench.exit_problems(child)
    printed = child.log.read_text().strip()
    if not problems and printed != expected_version:
        problems = [f"--version printed {printed!r}"]
    bench.tally("rai --version", problems)
    return child.end - child.start


# -- per-layer metrics from a traced run ------------------------------

def traced_spans(bench: Bench, children: list[Child]):
    """All spans of a traced run, under one RUN span and a PROCESS span
    per CLI child; also the wrapper targets found missing."""
    spans = [[RUN, children[0].start, children[-1].end, -1, 0]]
    missing: set[str] = set()
    for i, child in enumerate(children):
        process = len(spans)
        spans.append([PROCESS, child.start, child.end, 0, 0])
        try:
            child_spans, child_missing = load(bench.work / f"spans{i}.npz")
        except (OSError, ValueError, KeyError) as exc:
            if child.code == 0:   # else already counted as failed
                bench.failed += 1
                print(f"FAILED traced call {i}: no spans: {exc}",
                      file=sys.stderr)
            continue
        missing.update(child_missing)
        base = len(spans)
        for layer, start, end, parent, count in child_spans:
            spans.append([layer, start, end,
                          process if parent < 0 else parent + base, count])
    return spans, missing


def _ratio(a, b):
    return a / b if b else 0.0


def _row(table, layer):
    return table.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0,
                             "count": 0, "under_skip": 0})


# How a per-layer metric is computed.  A name "<layer>.<stat>" reads
# one column of the layer's row in the span table (see spans.aggregate);
# the names in DERIVED are computed.  stat -> column:
STATS = {"s": "s", "self_s": "self_s", "calls": "calls", "bytes": "count",
         "records": "count", "dots": "count", "emitted": "count"}

# name -> (layers it needs, value from (span table, test counts))
DERIVED = {
    "engine.rejections": (
        ["engine.test_candidate"], lambda t, c: c["rejected"]),
    "engine.reject_ratio": (
        ["engine.test_candidate"],
        lambda t, c: _ratio(c["rejected"], c["tests"])),
    "wealth.skip_spend_share": (
        ["wealth.spend", "engine.skip_passes"],
        lambda t, c: _ratio(_row(t, "wealth.spend")["under_skip"],
                            _row(t, "wealth.spend")["calls"])),
    "terms.realize_per_test": (
        ["terms.realize", "engine.test_candidate"],
        lambda t, c: _ratio(_row(t, "terms.realize")["calls"],
                            c["non_marginal"])),
    "trace.overhead_s": ([], lambda t, c: c["overhead_s"]),
}


def _metric_spec(name: str):
    """(layers it needs, value function) of a per-layer metric."""
    if name in DERIVED:
        return DERIVED[name]
    layer, stat = name.rsplit(".", 1)
    column = STATS[stat]
    return [layer], lambda t, c: _row(t, layer)[column]


def layer_metrics(spans: list[list], missing: set[str],
                  untraced_wall: float) -> tuple[dict, dict]:
    """(per-layer metrics, the full per-layer table) of a traced run."""
    table = aggregate(spans)
    tests = [s[4] for s in spans if s[0] == "engine.test_candidate"]
    counts = {
        "tests": len(tests),
        "rejected": sum(1 for c in tests if c is not None and c & REJECTED),
        "non_marginal": sum(1 for c in tests
                            if c is not None and c & NON_MARGINAL),
        "overhead_s": table[RUN]["s"] - untraced_wall,
    }
    sources = layers_of()
    gone = {layer for layer, names in sources.items()
            if any(name in missing for name in names)}
    gone |= {layer for layer, row in table.items() if row["count"] is None}
    if any(c is None for c in tests):
        gone.add("engine.test_candidate")
    metrics = {}
    for name, unit in declared_metrics("per_layer").items():
        needs, value = _metric_spec(name)
        if any(layer in gone for layer in needs):
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[name] = {"value": value(table, counts), "unit": unit}
    return metrics, table


# -- facts ------------------------------------------------------------

def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_children": BLAS_THREADS,
        "blas_threads_inherited": {
            name: os.environ.get(name) for name in BLAS_THREADS},
    }


def rai_version(root: Path) -> str | None:
    """The version in the checkout's src/rai, read without importing it."""
    init = root / "src" / "rai" / "__init__.py"
    if not init.is_file():
        return None
    for line in init.read_text().splitlines():
        if line.startswith("__version__"):
            return line.split("=", 1)[1].strip().strip("\"'")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a TERM becomes SystemExit, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    root = Path.cwd()
    version = rai_version(root)
    if version is None:
        print(f"error: no rai package under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    instance = args.seed % INSTANCES
    with open(REFERENCES) as fh:
        refs = json.load(fh)[workload.name][str(instance)]

    with work_dir(root, f"{workload.name}-") as work:
        return measure(args, root, work, workload, instance, refs, version)


def measure(args, root, work, workload, instance, refs, version) -> int:
    bench = Bench(root, work)
    probe = bench.spawn([sys.executable, "-c",
                         "import rai; print(rai.__file__)"],
                        work / "probe.log")
    where = probe.log.read_text().strip()
    if probe.code != 0 or not where.startswith(str(root / "src")):
        print(f"error: children do not import rai from {root / 'src'}: "
              f"{where[-500:]}", file=sys.stderr)
        return 2

    prepared = workload.prepare(instance, work)
    inputs_ok = prepared.facts["inputs"] == refs["inputs"]
    if not inputs_ok:
        print(f"FAILED inputs differ from the reference for instance "
              f"{instance}: {prepared.facts['inputs']} vs {refs['inputs']}",
              file=sys.stderr)
    facts = {"workload": workload.name, "seed": args.seed,
             **prepared.facts, "machine": machine_facts()}

    setup, walls, rss = [], [], []
    calibrations = [bench.calibrate()]
    began = time.perf_counter()
    while True:
        setup.append(measure_setup(bench, version))
        children = run_workload(bench, workload, prepared, refs["calls"])
        walls.append(children[-1].end - children[0].start)
        rss.append(max(c.rss_mb for c in children))
        calibrations.append(bench.calibrate())
        elapsed = time.perf_counter() - began
        if (len(walls) >= MIN_RUNS and elapsed + median(walls)
                + median(setup) + median(calibrations) > args.seconds):
            break
    values = {"wall_s": at_reference_speed(walls, calibrations),
              "setup_s": at_reference_speed(setup, calibrations),
              "peak_rss_mb": median(rss)}

    print(f"workload {workload.name}  seed {args.seed}  instance {instance}")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"calibration: median {median(calibrations):.4f} s of "
          f"{len(calibrations)}, range {min(calibrations):.4f}-"
          f"{max(calibrations):.4f}; reference {CALIBRATION_REFERENCE_S} s")
    print(f"wall_s = {values['wall_s']:.4f} s at reference speed  (median "
          f"of {len(walls)} runs; raw median {median(walls):.4f} s, range "
          f"{min(walls):.4f}-{max(walls):.4f})")
    print(f"setup_s = {values['setup_s']:.4f} s at reference speed  "
          f"(median of {len(setup)}; raw median {median(setup):.4f} s)")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB  (median of "
          f"{len(rss)})")
    if args.trace:
        children = run_workload(bench, workload, prepared, refs["calls"],
                                traced=True)
        spans, missing = traced_spans(bench, children)
        bench.tally("traced span nesting", nesting_problems(spans))
        metrics, table = layer_metrics(spans, missing, median(walls))
        if missing:
            print(f"missing wrapper targets: {sorted(missing)}",
                  file=sys.stderr)
        print(f"traced run: {len(spans)} spans")
        print(f"{'layer':<28}{'calls':>9}{'s':>10}{'self_s':>10}")
        for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["s"]):
            print(f"{layer:<28}{row['calls']:>9}{row['s']:>10.4f}"
                  f"{row['self_s']:>10.4f}")
        for name, m in metrics.items():
            print(f"{name} = {m['value']} {m['unit']}")
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared_metrics("end_to_end").items()}
    print(f"error_rate = {bench.failed}/{bench.attempted}")
    result = {"correct": inputs_ok and bench.failed == 0,
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
