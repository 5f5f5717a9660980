"""PRoHIT: Probabilistic management of a row-history table
(Son et al., DAC 2017).

PRoHIT extends PARA with a small probabilistically-managed history
table split into *hot* and *cold* sides.  Activated rows enter the cold
table with a small probability; re-activations promote entries toward
the hot table; on every auto-refresh tick the mechanism refreshes the
neighbors of the hottest entry.

The original paper provides empirically-determined fixed parameters for
NRH = 2K and — as the BlockHammer paper notes — "does not provide a
concrete discussion on how to adjust" them for other thresholds, so this
implementation keeps the published design point (insert probability
1/16, 4 hot + 16 cold entries) regardless of the configured NRH and is
marked non-scalable in the Table 6 matrix.
"""

from __future__ import annotations

from repro.mitigations.base import MitigationContext, MitigationMechanism


class ProHit(MitigationMechanism):
    """PRoHIT at its published (NRH = 2K) design point."""

    name = "prohit"
    comprehensive_protection = True
    commodity_compatible = False
    scales_with_vulnerability = False
    deterministic_protection = False

    def __init__(
        self,
        hot_entries: int = 4,
        cold_entries: int = 16,
        insert_probability: float = 1.0 / 16.0,
    ) -> None:
        super().__init__()
        self.hot_entries = hot_entries
        self.cold_entries = cold_entries
        self.insert_probability = insert_probability
        # Per-bank tables: ordered lists of (row, score); index 0 hottest.
        self._hot: dict[tuple[int, int], list[int]] = {}
        self._cold: dict[tuple[int, int], list[int]] = {}
        self._next_tick = 0.0
        self.refreshes_injected = 0

    def attach(self, context: MitigationContext) -> None:
        super().attach(context)
        self._next_tick = context.spec.tREFI

    # ------------------------------------------------------------------
    def on_activate(self, rank: int, bank: int, row: int, thread: int, now: float) -> None:
        key = (rank, bank)
        hot = self._hot.setdefault(key, [])
        cold = self._cold.setdefault(key, [])
        if row in hot:
            index = hot.index(row)
            if index > 0:  # promote toward the top
                hot[index - 1], hot[index] = hot[index], hot[index - 1]
            return
        if row in cold:
            cold.remove(row)
            hot.insert(len(hot), row)
            if len(hot) > self.hot_entries:
                demoted = hot.pop()
                cold.insert(0, demoted)
                del cold[self.cold_entries:]
            return
        if self.context.rng.uniform() < self.insert_probability:
            cold.insert(0, row)
            del cold[self.cold_entries:]

    def advance_to(self, now: float) -> float:
        # Once per tREFI, refresh the neighbors of each bank's hottest
        # tracked row (piggybacking on the auto-refresh cadence).
        while now >= self._next_tick:
            for (rank, bank), hot in self._hot.items():
                if not hot:
                    continue
                target = hot.pop(0)
                for victim in self.context.rowmap.logical_neighbors(target, 1):
                    self.queue_victim_refresh(rank, bank, victim)
                    self.refreshes_injected += 1
            self._next_tick += self.context.spec.tREFI
        return self._next_tick
