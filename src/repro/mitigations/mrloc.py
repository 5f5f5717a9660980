"""MRLoc: Mitigating Row-hammering based on memory Locality
(You & Yang, DAC 2019).

MRLoc extends PARA with a queue of recently-refreshed victim rows: when
a candidate victim is found in the queue (i.e., the same aggressor
neighborhood is being hammered repeatedly — high temporal locality), the
refresh probability is boosted; cold candidates keep a low base
probability.  Parameters are the published empirical design point; like
PRoHIT, the original work gives no scaling rule, so the design point is
fixed (Table 4 note).
"""

from __future__ import annotations

from collections import deque

from repro.mitigations.base import MitigationContext, MitigationMechanism
from repro.mitigations.common import effective_nrh


class MrLoc(MitigationMechanism):
    """MRLoc: locality-adaptive PARA."""

    name = "mrloc"
    comprehensive_protection = True
    commodity_compatible = False
    scales_with_vulnerability = False
    deterministic_protection = False

    def __init__(
        self,
        queue_depth: int = 64,
        base_probability: float | None = None,
        locality_boost: float = 8.0,
        failure_target: float = 1e-15,
    ) -> None:
        super().__init__()
        self.queue_depth = queue_depth
        self._base_probability = base_probability
        self.locality_boost = locality_boost
        self.failure_target = failure_target
        self.probability = 0.0
        self._queue: deque[tuple[int, int, int]] = deque(maxlen=queue_depth)
        self.refreshes_injected = 0

    def attach(self, context: MitigationContext) -> None:
        super().attach(context)
        if self._base_probability is not None:
            self.probability = self._base_probability
        else:
            # Base probability tuned like PARA but lower: the locality
            # boost recovers protection for localized (real) attacks.
            nrh_eff = effective_nrh(context)
            para_p = 2.0 * (1.0 - self.failure_target ** (1.0 / nrh_eff))
            self.probability = min(1.0, para_p / 2.0)

    def on_activate(self, rank: int, bank: int, row: int, thread: int, now: float) -> None:
        # Every row has at least one neighbour (a mapping spans >= 2 rows).
        victim = self.context.rng.choice(self.context.rowmap.logical_neighbors(row, 1))
        key = (rank, bank, victim)
        p = self.probability
        if key in self._queue:
            p = min(1.0, p * self.locality_boost)
        if self.context.rng.uniform() < p:
            self.queue_victim_refresh(rank, bank, victim)
            self._queue.append(key)
            self.refreshes_injected += 1
