"""Auto-refresh management.

The controller must issue one all-bank REF per rank every tREFI (8192
REFs walk the whole array once per tREFW).  When a REF becomes due the
controller stops activating the rank, precharges all banks, and issues
the REF; the rank is unavailable for tRFC.

``interval_scale`` < 1 models the "increased refresh rate" mitigation
approach (Section 9), which refreshes rows more often to shrink the
window an attacker has to accumulate activations.
"""

from __future__ import annotations

from repro.dram.spec import DramSpec
from repro.utils.validation import require


class RefreshManager:
    """Tracks per-rank REF deadlines.

    ``phase_offset_ns`` shifts every deadline by a fixed amount; the
    MemorySystem staggers per-channel offsets (deterministically from
    the experiment seed) so a multi-channel system does not refresh all
    channels in lockstep — lockstep refresh is unrealistic and hides
    bank-conflict effects during the refresh shadow.
    """

    def __init__(
        self,
        spec: DramSpec,
        interval_scale: float = 1.0,
        phase_offset_ns: float = 0.0,
    ) -> None:
        require(interval_scale > 0.0, "refresh interval scale must be positive")
        require(phase_offset_ns >= 0.0, "refresh phase offset must be >= 0")
        self.spec = spec
        self.interval = spec.tREFI * interval_scale
        self.phase_offset_ns = phase_offset_ns
        # Stagger rank deadlines so multi-rank channels do not refresh
        # simultaneously.
        self.next_due = [
            phase_offset_ns + self.interval * (1.0 + r / max(1, spec.ranks))
            for r in range(spec.ranks)
        ]
        self.refreshes_issued = [0] * spec.ranks
        #: Cached ``min(next_due)``, maintained on every REF issue so
        #: the controller's hot loop reads one attribute instead of
        #: recomputing the min every scheduling step (O(1) per epoch
        #: rather than per step).
        self.earliest = min(self.next_due)

    def pending(self, rank: int, now: float) -> bool:
        """True when rank ``rank`` has a REF due at or before ``now``."""
        return now >= self.next_due[rank]

    def on_ref_issued(self, rank: int, now: float) -> None:
        """Advance the deadline after a REF issues.

        The deadline advances by a fixed interval (not ``now`` +
        interval) so the long-run refresh *rate* is preserved even when
        individual REFs slip behind heavy traffic.
        """
        self.next_due[rank] += self.interval
        # Never let deadlines fall unrecoverably behind the clock.
        if self.next_due[rank] < now - 8 * self.interval:
            self.next_due[rank] = now
        self.refreshes_issued[rank] += 1
        self.earliest = min(self.next_due)
