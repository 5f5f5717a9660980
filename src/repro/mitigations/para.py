"""PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).

On every activation the controller refreshes one physically-adjacent row
with a small probability ``p``.  A victim escapes refresh during an
``N``-activation hammer campaign with probability ``(1 - p/2)^N``
(each trial picks one of the victim's two sides), so for a reliability
target ``F`` (the paper uses a typical consumer target of 1e-15 per
refresh window) PARA needs::

    p = 2 * (1 - F**(1 / NRH_eff))

PARA is stateless and area-free but probabilistic (no deterministic
guarantee) and needs adjacency knowledge — and its ``p`` (and hence its
performance/energy overhead) grows quickly as NRH shrinks (Section 8.3).
"""

from __future__ import annotations

from repro.mitigations.base import MitigationContext, MitigationMechanism
from repro.mitigations.common import effective_nrh


class Para(MitigationMechanism):
    """PARA with the paper's reliability-target tuning."""

    name = "para"
    comprehensive_protection = True
    commodity_compatible = False  # needs in-DRAM adjacency knowledge
    scales_with_vulnerability = False
    deterministic_protection = False

    def __init__(
        self, failure_target: float = 1e-15, probability: float | None = None
    ) -> None:
        super().__init__()
        self.failure_target = failure_target
        # Explicit override: scaled-window experiments must tune p at the
        # *paper-scale* NRH (p per-ACT does not scale with the window).
        self._probability_override = probability
        self.probability = 0.0
        self.refreshes_injected = 0

    @staticmethod
    def tuned_probability(nrh_eff: float, failure_target: float = 1e-15) -> float:
        """The reliability-target tuning rule (see module docstring)."""
        return min(1.0, 2.0 * (1.0 - failure_target ** (1.0 / nrh_eff)))

    def attach(self, context: MitigationContext) -> None:
        super().attach(context)
        if self._probability_override is not None:
            self.probability = self._probability_override
        else:
            self.probability = self.tuned_probability(
                effective_nrh(context), self.failure_target
            )

    def on_activate(self, rank: int, bank: int, row: int, thread: int, now: float) -> None:
        if self.context.rng.uniform() >= self.probability:
            return
        # Every row has at least one neighbour (a mapping spans >= 2 rows).
        victim = self.context.rng.choice(self.context.rowmap.logical_neighbors(row, 1))
        self.queue_victim_refresh(rank, bank, victim)
        self.refreshes_injected += 1
