"""The BlockHammer mitigation mechanism (RowBlocker + AttackThrottler).

Implements the standard :class:`MitigationMechanism` interface so it
plugs into the memory controller exactly like every baseline.  Two modes
(Section 3.2.1):

* **full-functional** (default) — delays RowHammer-unsafe activations
  and applies AttackThrottler quotas.
* **observe-only** — computes blacklists and RHLI but never interferes,
  which is how the paper measures un-throttled attack RHLI (≈10.9).

BlockHammer needs no row mapping and issues no victim refreshes: it
is implemented entirely controller-side from publicly-available chip
parameters, which is what makes it commodity-DRAM compatible (Table 6).
"""

from __future__ import annotations

from repro.core.config import BlockHammerConfig
from repro.core.rowblocker import RowBlocker
from repro.core.throttler import AttackThrottler
from repro.mitigations.base import MitigationContext, MitigationMechanism


class BlockHammer(MitigationMechanism):
    """BlockHammer, configured per Table 1/Table 7."""

    name = "blockhammer"
    comprehensive_protection = True
    commodity_compatible = True
    scales_with_vulnerability = True
    deterministic_protection = True

    def __init__(
        self,
        config: BlockHammerConfig | None = None,
        observe_only: bool = False,
    ) -> None:
        super().__init__()
        self._explicit_config = config
        self.observe_only = observe_only
        if observe_only:
            self.name = "blockhammer-observe"
        self.config: BlockHammerConfig | None = config
        self.rowblocker: RowBlocker | None = None
        self.throttler: AttackThrottler | None = None

    # ------------------------------------------------------------------
    def attach(self, context: MitigationContext) -> None:
        super().attach(context)
        if self._explicit_config is not None:
            self.config = self._explicit_config
        else:
            # Derive a Table 7-style configuration from the public chip
            # parameters carried by the context.
            self.config = BlockHammerConfig.for_nrh(
                context.nrh,
                context.spec,
                blast_radius=context.blast_radius,
                blast_decay=context.blast_decay,
            )
        spec = context.spec
        self.rowblocker = RowBlocker(
            self.config,
            num_ranks=spec.ranks,
            banks_per_rank=spec.banks_per_rank,
            rows_per_bank=spec.rows_per_bank,
            rng=context.rng.fork("rowblocker"),
        )
        self.throttler = AttackThrottler(
            self.config,
            num_threads=context.num_threads,
            num_banks=spec.ranks * spec.banks_per_rank,
            counter_cap=(1 << 30) if self.observe_only else None,
        )
        if not self.observe_only:
            # The ACT gate runs once per scheduler candidate per step —
            # bind it straight to the RowBlocker method so the hot path
            # skips this wrapper's dispatch (signatures are identical).
            self.act_allowed_at = self.rowblocker.allowed_at

    # ------------------------------------------------------------------
    def advance_to(self, now: float) -> float:
        # Between CBF rotations and throttler epoch clears, BlockHammer
        # state only changes through ACTs the controller itself issues.
        self.rowblocker.maybe_rotate(now)
        self.throttler.maybe_rotate(now)
        return min(self.rowblocker.next_rotate, self.throttler.next_clear)

    def act_allowed_at(self, rank: int, bank: int, row: int, thread: int, now: float) -> float:
        if self.observe_only:
            return now
        return self.rowblocker.allowed_at(rank, bank, row, thread, now)

    @property
    def act_block_stable(self) -> float:
        """Verdicts hold until the next CBF epoch rotation: the
        blacklist only loses entries at rotation, a blocked row's
        history entry cannot be re-stamped while its ACTs are delayed,
        and a safe row can only become unsafe through an ACT on its own
        bank (per-bank Bloom inserts), which dirties that bank anyway.
        Observe-only mode never blocks, so its verdicts are stable
        forever."""
        if self.observe_only:
            return float("inf")
        return self.rowblocker.next_rotate

    def bind_probe(self, probe) -> None:
        """Forward the probe into the RowBlocker (rotations can trigger
        from inside its own query paths, so it emits them itself) with
        this instance's channel as the Perfetto track."""
        super().bind_probe(probe)
        if self.rowblocker is not None:
            self.rowblocker.probe = probe
            self.rowblocker.obs_track = self.obs_track

    def blacklist_occupancy(self) -> int:
        """Exact rows currently at/above NBL across this channel's
        banks (epoch-metrics sampling hook)."""
        return self.rowblocker.blacklist_occupancy()

    def on_activate(self, rank: int, bank: int, row: int, thread: int, now: float) -> None:
        was_blacklisted = self.rowblocker.on_activate(rank, bank, row, now)
        if was_blacklisted:
            bank_index = rank * self.context.spec.banks_per_rank + bank
            self.throttler.record_blacklisted_act(thread, bank_index)
            if self.probe is not None:
                self.probe(
                    now,
                    "blacklist_act",
                    self.obs_track,
                    thread=thread,
                    rank=rank,
                    bank=bank,
                    row=row,
                )

    def max_inflight(self, thread: int, rank: int, bank: int) -> int | None:
        if self.observe_only:
            return None
        bank_index = rank * self.context.spec.banks_per_rank + bank
        return self.throttler.max_inflight(thread, bank_index)

    def max_inflight_total(self, thread: int) -> int | None:
        if self.observe_only:
            return None
        return self.throttler.max_inflight_total(thread)

    # ------------------------------------------------------------------
    # Introspection used by experiments and the OS-exposure example.
    # ------------------------------------------------------------------
    def rhli(self, thread: int, rank: int, bank: int) -> float:
        bank_index = rank * self.context.spec.banks_per_rank + bank
        return self.throttler.rhli(thread, bank_index)

    def thread_max_rhli(self, thread: int) -> float:
        return self.throttler.thread_max_rhli(thread)

    def delay_stats(self):
        """Section 8.4 statistics (false positives, delay percentiles)."""
        return self.rowblocker.stats
