"""Record references.json: input hashes and reference outputs for every
instance of every workload.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a checkout whose outputs are to become the
reference.  References change only in a change to the benchmark that
says why.  Each recorded output must pass the workload's own checks
against itself (the refit, the ledger audit), so a broken program
cannot be recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import REFERENCES, Bench, work_dir
from workloads import INSTANCES, WORKLOADS


def record(bench: Bench, workload, instance: int) -> dict:
    prepared = workload.prepare(instance, bench.work)
    calls = []
    for i, call in enumerate(prepared.calls):
        child = bench.spawn([sys.executable, "-m", "rai", *call],
                            bench.work / "record.log")
        problems = bench.exit_problems(child)
        if not problems:
            ref = workload.outcome(prepared, i)
            problems = workload.check(prepared, i, ref)
        if problems:
            raise SystemExit(f"{workload.name} instance {instance} call {i}:"
                             f" {problems}")
        calls.append(ref)
    return {"inputs": prepared.facts["inputs"], "calls": calls}


def main(names: list[str]) -> int:
    root = Path.cwd()
    refs = {}
    if REFERENCES.exists():
        refs = json.loads(REFERENCES.read_text())
    with work_dir(root, "record-") as work:
        bench = Bench(root, work)
        for name in names or list(WORKLOADS):
            refs[name] = {str(k): record(bench, WORKLOADS[name], k)
                          for k in range(INSTANCES)}
            print(f"recorded {name}: {INSTANCES} instances")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
