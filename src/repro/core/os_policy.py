"""OS-level RHLI policies (Section 3.2.3).

The paper proposes exposing per-<thread, bank> RHLI to the operating
system, which "might kill or deschedule an attacking thread", and leaves
the study of such policies to future work.  This module keeps the
original ``blockhammer-os`` mechanism name but is now a thin adapter
over the first-class governor subsystem (:mod:`repro.os`):
:class:`BlockHammerWithOsPolicy` embeds one mechanism-coupled
:class:`~repro.os.governor.Governor` running a
:class:`~repro.os.policies.KillPolicy`, reviewed from
``advance_to`` so kill timing is bit-identical to the original
hardwired implementation (one instance per channel, each watching its
own channel's RHLI).

The governor port also normalizes two review-cadence edges of the old
code: the review clock anchors to the first observed time instead of
assuming attach happens at t=0, and strike state is dropped for killed
threads instead of retained forever.

Compared to plain AttackThrottler quotas, descheduling removes even the
attacker's tDelay-paced trickle of blacklisted activations.  For
system-level deployments — telemetry aggregated across channels,
actions on cores (kill / quota / migrate) — attach a governor to the
:class:`~repro.sim.system.System` instead (the harness's
``GovernorSpec`` plumbing; see the ``ossweep`` experiment).
"""

from __future__ import annotations

from repro.core.blockhammer import BlockHammer
from repro.core.config import BlockHammerConfig
from repro.mitigations.base import MitigationContext
from repro.os.governor import Governor
from repro.os.policies import KillPolicy


class BlockHammerWithOsPolicy(BlockHammer):
    """BlockHammer plus an OS governor that kills persistent attackers."""

    name = "blockhammer-os"

    def __init__(
        self,
        config: BlockHammerConfig | None = None,
        kill_rhli: float = 0.8,
        patience_epochs: int = 1,
        review_interval_ns: float | None = None,
    ) -> None:
        super().__init__(config=config, observe_only=False)
        self.kill_rhli = kill_rhli
        self.patience_epochs = patience_epochs
        # Default: review once per epoch (the RHLI counter cadence); an
        # OS could poll faster at the cost of more scheduler work.
        self.review_interval_ns = review_interval_ns
        # Parameter validation lives in the policy (ConfigError on bad
        # thresholds/patience, same contract as the original).
        self.governor = Governor(
            [KillPolicy(kill_rhli=kill_rhli, patience_epochs=patience_epochs)],
            epoch_ns=review_interval_ns,
        )

    def attach(self, context: MitigationContext) -> None:
        super().attach(context)
        if self.review_interval_ns is None:
            self.review_interval_ns = self.config.epoch_ns
        self.governor.bind_mechanism(self, epoch_ns=self.review_interval_ns)

    def advance_to(self, now: float) -> float:
        # Fold the governor's next review deadline into the quiescence
        # horizon so mechanism-coupled reviews keep their exact timing
        # (the first controller step at or past the deadline) even when
        # the controller leaps across review boundaries.
        horizon = super().advance_to(now)
        next_review = self.governor.advance(now)
        return horizon if horizon < next_review else next_review

    @property
    def killed_threads(self) -> set[int]:
        """Threads the governor has descheduled (read-only view)."""
        return self.governor.killed

    def max_inflight_total(self, thread: int) -> int | None:
        if thread in self.governor.killed:
            return 0  # descheduled: no further memory requests
        return super().max_inflight_total(thread)
