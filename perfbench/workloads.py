"""The benchmark's workloads: generated inputs, the rai calls made on
them, and what each call's output is checked against.

A workload seed selects one of INSTANCES generated instances (seed mod
INSTANCES), each made from its own generator seed; references.json
holds each instance's input hashes and
reference outputs, recorded by record.py at the commit that defined the
benchmark.  The program sees only the generated files and the flags.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (audit_trace, compare_select, refit_r_squared,
                    select_outcome)

INSTANCES = 16


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def file_facts(path: Path) -> dict:
    return {"bytes": path.stat().st_size, "sha256": sha256_file(path)}


@dataclass
class Prepared:
    """One instance of a workload, generated into a work directory."""

    calls: list[list[str]]          # rai arguments, one list per CLI call
    outputs: list[list[Path]]       # files each call writes
    facts: dict                     # n, p, sizes and hashes of the inputs
    data: tuple = field(default=())  # (X, y, names) for the refit check


@dataclass(frozen=True)
class SelectWorkload:
    """`rai select` on a gaussian design with planted linear signals of
    equal strength and random sign."""

    name: str
    why: str
    n: int
    p: int
    signals: int
    r2: float
    trace: bool
    # generator seed of each instance
    seeds: tuple[int, ...] = tuple(range(INSTANCES))

    def prepare(self, instance: int, work: Path) -> Prepared:
        seed = self.seeds[instance]
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, self.n, self.p]))
        X = rng.standard_normal((self.n, self.p))
        support = rng.choice(self.p, self.signals, replace=False)
        # equal strengths keep the pass structure, and so the work, alike
        # across instances; unequal ones add a whole pass on some
        beta = rng.choice([-1.0, 1.0], self.signals)
        signal = X[:, support] @ beta
        sigma = np.sqrt(np.var(signal) * (1.0 / self.r2 - 1.0))
        y = signal + sigma * rng.standard_normal(self.n)
        names = [f"X{j + 1}" for j in range(self.p)]
        csv = work / "data.csv"
        np.savetxt(csv, np.column_stack([X, y]), fmt="%.9g", delimiter=",",
                   header=",".join(names + ["y"]), comments="")
        report = work / "report.json"
        call = ["select", str(csv), "--response", "y", "--json", str(report)]
        outputs = [report]
        if self.trace:
            trace = work / "trace.jsonl"
            call += ["--trace", str(trace)]
            outputs.append(trace)
        facts = {"instance": instance, "generator_seed": seed,
                 "n": self.n, "p": self.p,
                 "signals": self.signals, "r2": self.r2,
                 "inputs": {"data.csv": file_facts(csv)}}
        return Prepared([call], [outputs], facts, (X, y, names))

    def outcome(self, prepared: Prepared, index: int) -> dict:
        with open(prepared.outputs[index][0]) as fh:
            return select_outcome(json.load(fh))

    def check(self, prepared: Prepared, index: int, ref: dict) -> list[str]:
        outputs = prepared.outputs[index]
        try:
            with open(outputs[0]) as fh:
                report = json.load(fh)
            got = select_outcome(report)
            problems = compare_select(got, ref)
            X, y, names = prepared.data
            problems += refit_r_squared(X, y, names, got["selected"],
                                        got["r_squared"])
            if self.trace:
                with open(outputs[1]) as fh:
                    problems += audit_trace(fh.readlines(), report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return problems


@dataclass(frozen=True)
class SimulateWorkload:
    """`rai simulate --out` studies at the instance's seed."""

    name: str
    why: str
    # (scenario, n, p, reps, method) per call
    studies: tuple[tuple[str, int, int, int, str], ...]

    def prepare(self, instance: int, work: Path) -> Prepared:
        calls, outputs = [], []
        for i, (scenario, n, p, reps, method) in enumerate(self.studies):
            out = work / f"study{i}.jsonl"
            calls.append(["simulate", "--scenario", scenario, "--n", str(n),
                          "--p", str(p), "--reps", str(reps), "--method",
                          method, "--seed", str(instance), "--out", str(out)])
            outputs.append([out])
        facts = {"instance": instance,
                 "studies": [list(s) for s in self.studies], "inputs": {}}
        return Prepared(calls, outputs, facts)

    def outcome(self, prepared: Prepared, index: int) -> dict:
        return {"sha256": sha256_file(prepared.outputs[index][0])}

    def check(self, prepared: Prepared, index: int, ref: dict) -> list[str]:
        # reruns of a study are byte-identical by contract
        try:
            got = self.outcome(prepared, index)["sha256"]
            with open(prepared.outputs[index][0]) as fh:
                summary = json.loads(fh.readlines()[-1])
        except (OSError, ValueError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems = []
        if got != ref["sha256"]:
            problems.append(f"--out sha256 {got}, reference {ref['sha256']}")
        if summary.get("failed") != 0:
            problems.append(f"{summary.get('failed')} replications failed")
        return problems


WORKLOADS = {w.name: w for w in (
    SelectWorkload(
        "select_tall",
        "20000x300 CSV (~73 MB), 10 signals: parse and standardize bound, "
        "so ingest work shows most here and scoring work least",
        n=20000, p=300, signals=10, r2=0.5, trace=False,
        # At p=300 a false rejection's payout often buys one more scoring
        # pass of ~300 tests, so a seed's selection work depends on its
        # false rejections.  These are the first 16 generator seeds on
        # which rai selects exactly the 10 planted signals (899 tests);
        # of the first 43, the others make 901-1196 tests.
        seeds=(1, 3, 5, 7, 9, 16, 17, 18, 22, 23, 24, 25, 28, 30, 31, 32)),
    SelectWorkload(
        "select_wide",
        "2000x2000 CSV (~49 MB), 100 signals at R^2 0.9, --trace: |S| grows "
        "to ~100 so per-test scoring dominates; the only trace writer",
        n=2000, p=2000, signals=100, r2=0.9, trace=True),
    SimulateWorkload(
        "simulate_study",
        "three simulate studies, no file input: interactions, stepwise, "
        "and 300 tiny null runs bound by per-call bookkeeping",
        # fewer replications of the first two studies than a full study
        # would use: shorter runs give more runs per measurement
        studies=(("four_interactions", 2000, 100, 3, "rai_interactions"),
                 ("four_interactions", 1000, 60, 2, "stepwise_aic"),
                 ("global_null", 200, 100, 300, "rai"))),
)}
