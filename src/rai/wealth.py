"""Alpha-investing wealth ledger and pass-level test parameters.

Each test spends its level alpha from a wealth account before the
threshold comparison; each rejection pays a fixed payout back in.  The
ledger keeps one event log, with an entry for every test and every
charge a pass skip makes, so a run's wealth trajectory can be replayed
and audited exactly.  Tests are charged and logged in runs: a run of
equal-alpha charges is one vectorized step and one log item, not one
call per test.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

DEFAULT_INITIAL_WEALTH = 0.25
DEFAULT_PAYOUT = 0.05

# Far-tail levels underflow double precision, and the levels of far-late
# passes round to 1, which is no level either; alpha is clamped to
# [ALPHA_FLOOR, ALPHA_CEILING], so every pass charges a valid amount.
ALPHA_FLOOR = 1e-300
ALPHA_CEILING = math.nextafter(1.0, 0.0)

# A model makes fewer rejections than it has rows, so a wealth and a
# payout of at most this keep the account finite for n below about 1e8.
ACCOUNT_MAX = 1e300

# Decisions, as the event log stores them.  A test is charged unless it
# was dropped as collinear or could not be paid for; SKIPPED marks a
# charge that a pass skip made for a test it jumped over.
REJECTED = "rejected"
NOT_REJECTED = "not_rejected"
REMOVED_COLLINEAR = "removed_collinear"
HALTED_WEALTH = "halted_wealth"
SKIPPED = "skipped"
_CHARGED = frozenset((NOT_REJECTED, REJECTED, SKIPPED))


def pass_parameters(n: int, s: int) -> tuple[float, float]:
    """Threshold and alpha for pass s on n observations.

    The threshold halves every two passes, tlvl = sqrt(n) * 2**(-s/2),
    and alpha is the two-sided normal tail mass beyond it.  The tail is
    evaluated with erfc because the naive CDF underflows long before the
    thresholds early passes use.
    """
    if n < 1 or s < 1:
        raise ValueError("n and s must be positive")
    tlvl = math.sqrt(n) * 2.0 ** (-s / 2.0)
    alpha = math.erfc(tlvl / math.sqrt(2.0))
    return tlvl, min(max(alpha, ALPHA_FLOOR), ALPHA_CEILING)


def running(start: float, step: float, count: int, op) -> np.ndarray:
    """[start, start op step, (start op step) op step, ...], count steps.

    ufunc.accumulate works strictly left to right, so every entry has
    the bits a loop of `x = x op step` gives.
    """
    seq = np.full(count + 1, step)
    seq[0] = start
    return op.accumulate(seq)


class Run(NamedTuple):
    """One log entry per item of `ids`, all at one pass and alpha with
    one decision: `before` holds the wealth before each entry and
    `t_abs` each test's |t| (NaN where none was computed)."""

    ids: list
    pass_index: int
    alpha: float
    before: np.ndarray
    t_abs: np.ndarray
    decision: str

    def after(self, payout: float) -> np.ndarray:
        """Wealth right after each entry, by the live account's
        arithmetic: before - alpha, plus the payout on a rejection."""
        if self.decision not in _CHARGED:
            return self.before
        after = self.before - self.alpha
        if self.decision == REJECTED:
            after = after + payout
        return after


def check_account(initial_wealth: float, payout: float) -> None:
    """Raise ValueError unless the wealth is positive and the payout
    non-negative, each finite and at most ACCOUNT_MAX.  NaN fails both
    checks, as it must: a NaN account would never refuse an overdraft."""
    if not 0 < initial_wealth < math.inf:
        raise ValueError("initial_wealth (--wealth) must be positive and "
                         f"finite, got {initial_wealth}")
    if not 0 <= payout < math.inf:
        raise ValueError("payout (--payout) must be non-negative and "
                         f"finite, got {payout}")
    for key, v in (("initial_wealth (--wealth)", initial_wealth),
                   ("payout (--payout)", payout)):
        if v > ACCOUNT_MAX:
            raise ValueError(f"{key} must be at most {ACCOUNT_MAX:g}, got {v}")


class WealthLedger:
    """Mutable spend/earn account for one selection run.

    `runs` is the event log: one Run per spend that charged anything and
    one per test logged without a charge, in the order they happened.
    """

    def __init__(self, initial_wealth: float = DEFAULT_INITIAL_WEALTH,
                 payout: float = DEFAULT_PAYOUT):
        check_account(initial_wealth, payout)
        self.initial_wealth = initial_wealth
        self.payout = payout
        self.wealth = initial_wealth
        self.rejections = 0
        self.runs: list[Run] = []

    def spend(self, alpha: float, test_ids, pass_index: int, t_abs=None,
              decision: str = NOT_REJECTED) -> int:
        """Charge alpha for each of `test_ids`, in order, as one run.

        The run stops before the first test the wealth cannot cover (no
        overdraft).  Returns the number of tests charged.  `t_abs` gives
        each test's |t|; `decision` is NOT_REJECTED for tests (`earn`
        records a rejection) or SKIPPED.
        """
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        count = len(test_ids)
        wealth = running(self.wealth, alpha, count, np.subtract)
        # wealth[k] is the wealth before charge k.  It never increases,
        # so the charges it covers are exactly those before the first
        # that it does not
        paid = int(np.count_nonzero(wealth[:count] >= alpha))
        self.wealth = float(wealth[paid])
        if paid:
            self.runs.append(Run(
                list(test_ids[:paid]), pass_index, alpha, wealth[:paid],
                np.full(paid, np.nan) if t_abs is None
                else np.asarray(t_abs[:paid], dtype=float), decision))
        return paid

    def note(self, test_id, pass_index: int, alpha: float,
             decision: str) -> None:
        """Log a test that charged nothing: REMOVED_COLLINEAR or
        HALTED_WEALTH."""
        self.runs.append(Run([test_id], pass_index, alpha,
                             np.array([self.wealth]), np.array([np.nan]),
                             decision))

    def earn(self, test_id) -> None:
        """Credit the payout for rejecting the most recent test, which
        must have been charged as a run of one."""
        if not self.runs:
            raise ValueError("earn before any spend")
        last = self.runs[-1]
        if last.ids != [test_id] or last.decision != NOT_REJECTED:
            raise ValueError("payout must follow its own one-test spend "
                             "immediately")
        self.runs[-1] = last._replace(decision=REJECTED)
        self.wealth += self.payout
        self.rejections += 1

    def total_spent(self) -> float:
        return math.fsum(chain.from_iterable(
            repeat(run.alpha, len(run.ids)) for run in self.runs
            if run.decision in _CHARGED))

    def replay(self) -> float:
        """Recompute wealth from alphas and decisions alone.

        Walks the log entry by entry with the same arithmetic as the
        live account, so the result is bitwise equal to `wealth`.
        """
        w = self.initial_wealth
        for run in self.runs:
            if run.decision not in _CHARGED:
                continue
            for _ in run.ids:
                w -= run.alpha
                if run.decision == REJECTED:
                    w += self.payout
        return w
