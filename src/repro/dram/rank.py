"""Per-rank DRAM timing: tRRD, tFAW, and the shared data bus.

The rank enforces inter-bank activation constraints and models the data
bus (one column burst at a time per channel).  The paper's RowBlocker-HB
sizing relies on tFAW bounding the rank activation rate to four ACTs per
tFAW window (Section 3.1.2), which this class enforces.
"""

from __future__ import annotations

from collections import deque

from repro.dram.bank import Bank
from repro.dram.spec import DramSpec


class Rank:
    """A rank: a set of banks plus rank-wide timing state."""

    def __init__(self, spec: DramSpec, rank_id: int) -> None:
        self.spec = spec
        self.rank_id = rank_id
        self.banks = [Bank(spec, rank_id, b) for b in range(spec.banks_per_rank)]
        self._act_times: deque[float] = deque(maxlen=4)
        self._last_act = -1.0e18
        # Denormalized timing constants: earliest_act runs once per
        # scheduling step, where the spec attribute hops are measurable.
        self._tRRD = spec.tRRD
        self._tFAW = spec.tFAW
        #: Rank ACT readiness independent of ``now``: max(last ACT +
        #: tRRD, tFAW-window close).  Only ACTs move it, so it is
        #: maintained in :meth:`record_act` and the scheduler's hot
        #: path reads it directly instead of calling
        #: :meth:`earliest_act` every step.
        self._act_ready = -1.0e18

    # ------------------------------------------------------------------
    # Rank-level constraints.
    # ------------------------------------------------------------------
    def earliest_act(self, now: float) -> float:
        """Earliest time any ACT may issue in this rank (tRRD + tFAW)."""
        t = self._act_ready
        return t if t > now else now

    def record_act(self, now: float) -> None:
        """Record an ACT (or VREF, which embeds an ACT) at ``now``."""
        acts = self._act_times
        acts.append(now)
        self._last_act = now
        t = now + self._tRRD
        if len(acts) == 4:
            # The 4th-most-recent ACT opens a tFAW window; a 5th ACT must
            # wait until that window closes.
            w = acts[0] + self._tFAW
            if w > t:
                t = w
        self._act_ready = t

    def all_banks_precharged(self) -> bool:
        """True when every bank has a closed row (needed for REF)."""
        return all(bank.open_row is None for bank in self.banks)
