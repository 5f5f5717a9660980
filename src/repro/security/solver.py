"""The infeasibility proof (Section 5).

The paper uses an analytical solver [154] to show no epoch-count vector
satisfies all constraints of Table 3.  We do the same two ways:

* **LP relaxation**, solved exactly in closed form: maximize total
  activations over real-valued epoch counts.  The LP optimum
  upper-bounds every integer attack, so ``lp_max < NRH*`` proves no
  attack exists.
* **Exhaustive integer enumeration**: for the small epoch budgets real
  configurations produce (tREFW / (tCBF/2) epochs), enumerate every
  valid integer vector and confirm the bound — a cross-check of the LP
  and a constructive worst case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.core.config import BlockHammerConfig
from repro.security.constraints import AttackConstraints

#: Largest epoch budget the exhaustive search covers; larger budgets rely
#: on the LP bound alone, which is already sufficient.
ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class SecurityProof:
    """Outcome of the Section 5 analysis for one configuration.

    ``lp_max_activations`` / ``enumeration_max_activations`` follow the
    paper's whole-epoch framework (Tables 2/3) literally.  The
    ``fast_delayed_max`` bound decomposes any refresh window into fast
    (pre-blacklist, tRC-paced, at most NBL per filter lifetime) and
    delayed (tDelay-paced) activations; it is conservative for *any*
    window placement — including windows that straddle epoch boundaries,
    which the whole-epoch model cannot see — and is the bound ``safe``
    is judged on.
    """

    nrh_star: float
    lp_max_activations: float
    enumeration_max_activations: int | None
    best_counts: tuple[int, int, int, int, int] | None
    max_epochs: int
    fast_delayed_max: float

    @property
    def safe(self) -> bool:
        """True when no attack can exceed NRH* (the paper's conclusion).

        Eq. 1 is designed so the worst schedule lands *exactly at* the
        per-window budget; exceeding it is impossible.
        """
        bound = max(self.lp_max_activations, self.fast_delayed_max)
        if self.enumeration_max_activations is not None:
            bound = max(bound, float(self.enumeration_max_activations))
        return bound <= self.nrh_star


def fast_delayed_bound(config: BlockHammerConfig) -> float:
    """Upper-bound activations of one row in any tREFW-long window.

    Any activation is either *fast* (row not yet blacklisted) or
    *delayed* (>= tDelay since the row's last activation).  The active
    filter always covers the current and previous epoch, so fast
    activations are limited to NBL per two-epoch filter lifetime —
    ``NBL * ceil(E/2)`` in a window of E epochs — and delayed
    activations fill the remaining time at one per tDelay.
    """
    epochs = max(1, int(config.t_refw_ns / config.epoch_ns))
    fast = config.nbl * math.ceil(epochs / 2)
    fast_time = fast * config.t_rc_ns
    delayed = max(0.0, (config.t_refw_ns - fast_time)) / config.t_delay_ns
    return fast + delayed


def lp_max_activations(constraints: AttackConstraints) -> float:
    """Exact optimum of Table 3's LP relaxation.

    T0, T1 and T4 epochs are unconstrained and interchangeable, while T2
    and T3 epochs come in equal numbers, so the optimum spends all E
    epochs on the best of ``nepmax[0]``, ``nepmax[1]``, ``nepmax[4]``
    per epoch or ``(nepmax[2] + nepmax[3]) / 2`` per epoch (a T2/T3
    pair).  Computed from integers, so the result, halves included, is
    an exact float.
    """
    c0, c1, c2, c3, c4 = constraints.nepmax
    epochs = constraints.max_epochs
    return max(2 * epochs * max(c0, c1, c4), epochs * (c2 + c3)) / 2


def _enumerate(
    constraints: AttackConstraints,
) -> tuple[int, tuple[int, int, int, int, int]] | None:
    """Exhaustive search over integer epoch-count vectors."""
    if constraints.max_epochs > ENUMERATION_LIMIT:
        return None
    best = (-1, (0, 0, 0, 0, 0))
    budget = constraints.max_epochs
    for n0, n1, n2, n3 in itertools.product(range(budget + 1), repeat=4):
        if n0 + n1 + n2 + n3 > budget:
            continue
        n4 = budget - (n0 + n1 + n2 + n3)
        counts = (n0, n1, n2, n3, n4)
        if not constraints.satisfied_by(counts):
            continue
        total = constraints.activations(counts)
        if total > best[0]:
            best = (total, counts)
    return best


def prove_safety(config: BlockHammerConfig) -> SecurityProof:
    """Run the full Section 5 analysis for a configuration."""
    constraints = AttackConstraints.for_config(config)
    enumerated = _enumerate(constraints)
    if enumerated is None:
        enum_max, best_counts = None, None
    else:
        enum_max, best_counts = enumerated
    return SecurityProof(
        nrh_star=config.nrh_star,
        lp_max_activations=lp_max_activations(constraints),
        enumeration_max_activations=enum_max,
        best_counts=best_counts,
        max_epochs=constraints.max_epochs,
        fast_delayed_max=fast_delayed_bound(config),
    )
