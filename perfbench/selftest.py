"""Self-test of the benchmark on tiny workloads; takes seconds.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that the output checks reject
a perturbed reference, that the spans of a traced run nest and their
self times add up to its wall time, that every per-layer metric is
reported, and that a wrapper target that has gone is reported as
missing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import (Bench, declared_metrics, layer_metrics, run_workload,
                 traced_spans, work_dir)
from spans import PROCESS, RUN, Recorder, load, nesting_problems, save
from workloads import SelectWorkload, SimulateWorkload

TINY_SELECT = SelectWorkload("tiny_select", "", n=300, p=20, signals=3,
                             r2=0.8, trace=True)
TINY_SIMULATE = SimulateWorkload(
    "tiny_simulate", "",
    studies=(("four_interactions", 200, 12, 1, "rai_interactions"),
             ("four_interactions", 100, 12, 1, "stepwise_aic"),
             ("global_null", 50, 10, 5, "rai")))

# Every per-layer metric the benchmark must report, by name.
NAMED = (
    "cli.read_table.s", "cli.read_table.bytes", "cli.write_trace.s",
    "cli.write_trace.records", "kernel.standardize.s",
    "kernel.standardize.bytes", "kernel.adjusted_vector.calls",
    "kernel.adjusted_vector.s", "kernel.adjusted_vector.dots",
    "kernel.add_adjusted.calls", "kernel.add_adjusted.s",
    "engine.run_rai.s", "engine.run_rai.self_s",
    "engine.test_candidate.calls", "engine.test_candidate.self_s",
    "engine.rejections", "engine.reject_ratio", "engine.skip_passes.calls",
    "engine.skip_passes.s", "engine.fit_terms.s", "wealth.spend.calls",
    "wealth.spend.s", "wealth.skip_spend_share", "terms.realize.calls",
    "terms.realize.s", "terms.realize_per_test",
    "terms.generate_candidates.calls", "terms.generate_candidates.emitted",
    "terms.generate_candidates.s", "oracles.forward_stepwise.s",
    "oracles.forward_stepwise.self_s", "oracles.r_squared_of.calls",
    "oracles.r_squared_of.s", "simulate.gen_design.s",
    "simulate.gen_response.s", "simulate.run_experiment.self_s",
    "trace.overhead_s",
)


def run_calls(bench: Bench, workload, prepared, traced=False):
    """Run a workload's calls once and take its own outputs as references;
    with `traced`, then make a checked traced run against them."""
    children = [bench.spawn([sys.executable, "-m", "rai", *call],
                            bench.work / "call.log")
                for call in prepared.calls]
    assert all(c.code == 0 for c in children), "a call failed"
    refs = [workload.outcome(prepared, i) for i in range(len(prepared.calls))]
    if traced:
        children = run_workload(bench, workload, prepared, refs, traced=True)
    return children, refs


def test_check_rejects_changed_selected_term(bench: Bench):
    prepared = TINY_SELECT.prepare(0, bench.work)
    _, refs = run_calls(bench, TINY_SELECT, prepared)
    ref = refs[0]
    assert TINY_SELECT.check(prepared, 0, ref) == [], "clean output failed"
    others = [f"X{j + 1}" for j in range(TINY_SELECT.p)
              if f"X{j + 1}" not in ref["selected"]]
    changed = dict(ref, selected=[others[0]] + ref["selected"][1:])
    problems = TINY_SELECT.check(prepared, 0, changed)
    assert any(p.startswith("selected:") for p in problems), problems


def test_audit_rejects_flipped_decision(bench: Bench):
    prepared = TINY_SELECT.prepare(1, bench.work)
    _, refs = run_calls(bench, TINY_SELECT, prepared)
    trace = prepared.outputs[0][1]
    lines = trace.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec.get("decision") == "not_rejected":
            rec["decision"] = "rejected"
            lines[i] = json.dumps(rec) + "\n"
            break
    else:
        raise AssertionError("no not_rejected test to flip")
    trace.write_text("".join(lines))
    problems = TINY_SELECT.check(prepared, 0, refs[0])
    assert any("decision rejected" in p for p in problems), problems


def test_nesting_check_rejects_misnested_spans(bench: Bench):
    spans = [[RUN, 0.0, 10.0, -1, 0], [PROCESS, 1.0, 9.0, 0, 0],
             ["engine.run_rai", 2.0, 8.0, 1, 0]]
    assert nesting_problems(spans) == []
    past_parent = [row[:] for row in spans]
    past_parent[2][2] = 9.5
    assert len(nesting_problems(past_parent)) == 1
    backwards = [row[:] for row in spans]
    backwards[2][1:3] = [8.0, 2.0]
    assert len(nesting_problems(backwards)) == 1


def test_traced_runs_account_for_wall_and_report_every_metric(bench: Bench):
    units = declared_metrics("per_layer")
    assert set(NAMED) <= set(units), set(NAMED) - set(units)
    for workload in (TINY_SELECT, TINY_SIMULATE):
        prepared = workload.prepare(2, bench.work)
        before = bench.failed
        children, _ = run_calls(bench, workload, prepared, traced=True)
        assert bench.failed == before, f"{workload.name}: traced call failed"
        spans, missing = traced_spans(bench, children)
        assert not missing, missing
        # the self-time sum below equals RUN's time for any span tree;
        # it is accounting only when the spans nest in time
        assert nesting_problems(spans) == [], nesting_problems(spans)[:3]
        metrics, table = layer_metrics(spans, missing, untraced_wall=0.0)
        assert all(row["self_s"] >= 0.0 for row in table.values()), table
        wall = table[RUN]["s"]
        self_sum = sum(row["self_s"] for row in table.values())
        assert abs(self_sum - wall) < 1e-6 * max(1.0, wall), (self_sum, wall)
        assert list(metrics) == list(units)
        assert all(m["value"] is not None and m["unit"] == units[name]
                   for name, m in metrics.items())
        assert metrics["engine.test_candidate.calls"]["value"] > 0


def test_missing_target_is_reported_missing(bench: Bench):
    recorder = Recorder()
    recorder.install([("engine.gone", "rai.engine", "no_such_name", None),
                      ("kernel.gone", "rai.kernel", "NoSuchClass.method",
                       None)])
    assert recorder.remove()
    save(bench.work / "missing.npz", recorder.spans, recorder.missing)
    _, missing = load(bench.work / "missing.npz")
    assert missing == ["rai.engine.no_such_name",
                       "rai.kernel.NoSuchClass.method"], missing
    spans = [[RUN, 0.0, 1.0, -1, 0]]
    metrics, _ = layer_metrics(spans, {"rai.kernel.ModelState.adjusted_vector"},
                               untraced_wall=1.0)
    gone = metrics["kernel.adjusted_vector.s"]
    assert gone["value"] is None and gone["missing"], gone
    assert metrics["engine.run_rai.s"] == {"value": 0, "unit": "s"}


def test_wrappers_are_removed(bench: Bench):
    import rai.engine
    import rai.kernel

    originals = (rai.engine.test_candidate, rai.kernel.ModelState.__dict__[
        "adjusted_vector"])
    recorder = Recorder()
    recorder.install()
    assert rai.engine.test_candidate is not originals[0]
    assert recorder.remove()
    assert rai.engine.test_candidate is originals[0]
    assert rai.kernel.ModelState.__dict__["adjusted_vector"] is originals[1]


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    failures = 0
    with work_dir(root, "selftest-") as work:
        for name, test in list(globals().items()):
            if not name.startswith("test_"):
                continue
            try:
                test(Bench(root, work))
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
