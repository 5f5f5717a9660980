"""Helpers shared by mitigation mechanisms."""

from __future__ import annotations

from repro.dram.rowhammer import impact_sum
from repro.mitigations.base import MitigationContext


def effective_nrh(context: MitigationContext) -> float:
    """The per-aggressor threshold after the many-sided correction.

    Mirrors the paper's Eq. 3: every evaluated mechanism is configured
    for the attack model implied by the chip's blast radius and impact
    factors (double-sided attacks — blast radius 1 — halve NRH).
    """
    return context.nrh / (2.0 * impact_sum(context.blast_radius, context.blast_decay))
