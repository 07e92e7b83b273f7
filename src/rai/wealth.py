"""Alpha-investing wealth ledger and pass-level test parameters.

Each test spends its level alpha from a wealth account before the
threshold comparison; each rejection pays a fixed payout back in.  The
ledger records every event so a run's wealth trajectory can be replayed
and audited exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InsufficientWealth

DEFAULT_INITIAL_WEALTH = 0.25
DEFAULT_PAYOUT = 0.05

# Far-tail levels underflow double precision; anything smaller than this
# is clamped so early passes always charge a positive amount.
ALPHA_FLOOR = 1e-300


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
    return tlvl, max(alpha, ALPHA_FLOOR)


@dataclass(frozen=True)
class LedgerEvent:
    test_id: object
    pass_index: int
    alpha: float
    rejected: bool


class WealthLedger:
    """Mutable spend/earn account for one selection run."""

    def __init__(self, initial_wealth: float = DEFAULT_INITIAL_WEALTH,
                 payout: float = DEFAULT_PAYOUT):
        # NaN fails these checks; a NaN account would never refuse an
        # overdraft
        if not 0 < initial_wealth < math.inf:
            raise ValueError("initial wealth must be positive and finite")
        if not 0 <= payout < math.inf:
            raise ValueError("payout must be non-negative and finite")
        self.initial_wealth = initial_wealth
        self.payout = payout
        self.wealth = initial_wealth
        self._events: list[LedgerEvent] = []
        self.rejections = 0

    @property
    def events(self) -> tuple[LedgerEvent, ...]:
        return tuple(self._events)

    def spend(self, alpha: float, test_id, pass_index: int) -> None:
        """Charge one test.  Requires wealth >= alpha (no overdraft)."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if self.wealth < alpha:
            raise InsufficientWealth(
                f"wealth {self.wealth} cannot cover alpha {alpha}")
        self.wealth -= alpha
        self._events.append(LedgerEvent(test_id, pass_index, alpha, False))

    def earn(self, test_id) -> None:
        """Credit the payout for rejecting the most recent test."""
        if not self._events:
            raise ValueError("earn before any spend")
        last = self._events[-1]
        if last.test_id != test_id or last.rejected:
            raise ValueError("payout must follow its own spend immediately")
        self._events[-1] = LedgerEvent(last.test_id, last.pass_index,
                                       last.alpha, True)
        self.wealth += self.payout
        self.rejections += 1

    def total_spent(self) -> float:
        return math.fsum(e.alpha for e in self._events)

    def replay(self) -> float:
        """Recompute wealth from the event log alone.

        Walks events in order with the same arithmetic as the live
        account, so the result is bitwise equal to `wealth`.
        """
        w = self.initial_wealth
        for event in self._events:
            w -= event.alpha
            if event.rejected:
                w += self.payout
        return w


@dataclass(frozen=True)
class MfdrCounts:
    """False rejection / rejection / replication tallies.

    Associative under merge, so shards of a study can be combined in any
    order.
    """

    false_rejections: int = 0
    rejections: int = 0
    replications: int = 0

    def __post_init__(self):
        if min(self.false_rejections, self.rejections,
               self.replications) < 0:
            raise ValueError("counts must be non-negative")
        if self.false_rejections > self.rejections:
            raise ValueError("false rejections cannot exceed rejections")

    def merge(self, other: "MfdrCounts") -> "MfdrCounts":
        return MfdrCounts(
            self.false_rejections + other.false_rejections,
            self.rejections + other.rejections,
            self.replications + other.replications,
        )


def mfdr_estimate(counts: MfdrCounts) -> float:
    """Plug-in marginal FDR estimate, E(V) / (E(R) + 1), from averages."""
    if counts.replications <= 0:
        raise ValueError("need at least one replication")
    v_bar = counts.false_rejections / counts.replications
    r_bar = counts.rejections / counts.replications
    return v_bar / (r_bar + 1.0)
