"""Timing wrappers installed on rai's public names, and span aggregation.

A traced CLI call (see traced_call.py) replaces each name in TARGETS with
a wrapper that records one span per call: layer, start, end, parent span
and an optional work count.  The wrappers sit on the names callers look
up (`rai.cli.standardize`, not `rai.kernel.standardize`), so they see
exactly the calls the CLI makes.  Nothing in rai is edited; a name that
has gone is reported as missing and its metrics are never read as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

import numpy as np


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _design_bytes(args, kwargs, result):
    X = args[0] if args else kwargs["raw_matrix"]
    n, p = X.shape
    return n * p * 8


def _lines_written(args, kwargs, result):
    with open(args[0] if args else kwargs["path"]) as fh:
        return sum(1 for _ in fh)


def _result_len(args, kwargs, result):
    return len(result)


def _dots(args, kwargs, result):
    # two Gram-Schmidt sweeps, one dot product per basis vector each
    return 2 * len(args[0].basis)


# test_candidate counts are flags: the decision and the term's order
REJECTED = 1
NON_MARGINAL = 2


def _test_flags(args, kwargs, result):
    term = args[2] if len(args) > 2 else kwargs["term"]
    return ((REJECTED if result[0] == "rejected" else 0)
            | (NON_MARGINAL if term.order > 1 else 0))


# (layer, module, attribute, count).  `count(args, kwargs, result)` gives
# the span's work count.  A layer may be reached through several names.
TARGETS = (
    ("cli.read_table", "rai.cli", "_read_table", _file_bytes),
    ("kernel.standardize", "rai.cli", "standardize", _design_bytes),
    ("kernel.standardize", "rai.simulate", "standardize", _design_bytes),
    ("engine.run_rai", "rai.cli", "run_rai", None),
    ("engine.run_rai", "rai.simulate", "run_rai", None),
    ("engine.fit_terms", "rai.cli", "fit_terms", None),
    ("cli.write_trace", "rai.cli", "_write_trace", _lines_written),
    ("simulate.run_experiment", "rai.cli", "run_experiment", None),
    ("engine.test_candidate", "rai.engine", "test_candidate", _test_flags),
    ("engine.term_column", "rai.engine", "term_column", None),
    ("terms.generate_candidates", "rai.engine", "generate_candidates",
     _result_len),
    ("engine.skip_passes", "rai.engine", "skip_passes", None),
    ("terms.realize", "rai.terms", "realize", None),
    ("kernel.adjusted_vector", "rai.kernel", "ModelState.adjusted_vector",
     _dots),
    ("kernel.add_adjusted", "rai.kernel", "ModelState.add_adjusted", None),
    ("wealth.spend", "rai.wealth", "WealthLedger.spend", None),
    ("oracles.forward_stepwise", "rai.simulate", "forward_stepwise", None),
    ("simulate.gen_design", "rai.simulate", "gen_design", None),
    ("simulate.gen_response", "rai.simulate", "gen_response", None),
    ("oracles.r_squared_of", "rai.oracles", "r_squared_of", None),
)

# Spans the benchmark itself records around the wrapped layers.
RUN = "run"            # the whole traced workload, measured by the parent
PROCESS = "process"    # one CLI child: interpreter start, imports, exit
MAIN = "cli.main"      # rai.cli.main(argv) inside the child


def _resolve(module: str, attribute: str):
    """(owner, name, original) for a target, or None when it has gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Recorder:
    """Spans kept in memory as [layer, start, end, parent, count] lists.

    `parent` indexes the enclosing span in `spans`, or is -1 at the top.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._installed: list[tuple] = []
        self.missing: list[str] = []

    def span(self, layer: str, fn, count=None):
        """`fn` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            record = [layer, clock(), 0.0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    record[4] = count(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError,
                        OSError):
                    record[4] = None   # count unreadable: reported missing
            return result

        return timed

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; note the rest in `missing`."""
        for layer, module, attribute, count in targets:
            found = _resolve(module, attribute)
            if found is None:
                self.missing.append(f"{module}.{attribute}")
                continue
            owner, name, original = found
            setattr(owner, name, self.span(layer, original, count))
            self._installed.append((owner, name, original))

    def remove(self) -> bool:
        """Put every original back; True when all are in place again."""
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        restored = all(getattr(owner, name) is original
                       for owner, name, original in self._installed)
        self._installed.clear()
        return restored


def save(path, spans: list[list], missing: list[str]) -> None:
    """Write spans column by column to an .npz file; a JSON dump of a
    few hundred thousand spans would take seconds."""
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    np.savez(path, names=np.array(names, dtype=str),
             missing=np.array(missing, dtype=str),
             layer=np.array([index[span[0]] for span in spans], dtype=int),
             start=np.array([span[1] for span in spans], dtype=float),
             end=np.array([span[2] for span in spans], dtype=float),
             parent=np.array([span[3] for span in spans], dtype=int),
             count=np.array([np.nan if span[4] is None else span[4]
                             for span in spans], dtype=float))


def load(path) -> tuple[list[list], list[str]]:
    """(spans, missing) as written by save()."""
    with np.load(path) as data:
        names = data["names"].tolist()
        columns = zip(data["layer"].tolist(), data["start"].tolist(),
                      data["end"].tolist(), data["parent"].tolist(),
                      data["count"].tolist())
        spans = [[names[layer], start, end, parent,
                  None if count != count else int(count)]
                 for layer, start, end, parent, count in columns]
        return spans, data["missing"].tolist()


def layers_of(targets=TARGETS) -> dict[str, list[str]]:
    """Layer name -> the `module.attribute` names that feed it."""
    out: dict[str, list[str]] = {}
    for layer, module, attribute, _ in targets:
        out.setdefault(layer, []).append(f"{module}.{attribute}")
    return out


def nesting_problems(spans: list[list]) -> list[str]:
    """Spans that end before they start or stick out of their parent.

    Self times are only meaningful for well-nested spans; every span,
    including the spans a CLI child recorded on its own clock, must lie
    within its parent's [start, end].
    """
    problems = []
    for i, (layer, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {layer} ends before it starts")
        if parent >= 0:
            p_layer, p_start, p_end = spans[parent][:3]
            if start < p_start or end > p_end:
                problems.append(f"span {i} {layer} [{start}, {end}] outside "
                                f"its parent {p_layer} [{p_start}, {p_end}]")
    return problems


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per-layer totals from a list of well-nested spans.

    For each layer: calls, s (time inside the layer, not counting a span
    nested in another span of the same layer), self_s (span time minus
    the time its direct child spans cover), count (sum of work counts,
    None when any count was unreadable) and under_skip (spans that ran
    inside engine.skip_passes).
    """
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (layer, start, end, parent, count) in enumerate(spans):
        row = out.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "count": 0, "under_skip": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        if count is None or row["count"] is None:
            row["count"] = None
        else:
            row["count"] += count
        outer_same = under_skip = False
        a = parent
        while a >= 0:
            outer_same = outer_same or spans[a][0] == layer
            under_skip = under_skip or spans[a][0] == "engine.skip_passes"
            a = spans[a][3]
        if not outer_same:
            row["s"] += end - start
        row["under_skip"] += under_skip
    return out
