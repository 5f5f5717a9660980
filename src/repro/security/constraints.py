"""The constraints a successful RowHammer attack must satisfy
(Section 5, Table 3).

An attack is a sequence of epochs; with ``n_i`` = number of epochs of
type ``T_i`` inside one refresh window, a *successful* attack needs:

1. total activations exceed the threshold, with all epochs fitting in
   the window:  ``sum(n_i * Nepmax_i) >= NRH*`` and
   ``sum(n_i) <= floor(tREFW / tep)``;
2. sequence validity: a type can only appear after one of its allowed
   predecessors, which collapses (Table 3) to ``n2 == n3``;
3. non-negativity: ``n_i >= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BlockHammerConfig
from repro.security.epochs import EpochModel, EpochType


@dataclass(frozen=True)
class AttackConstraints:
    """Table 3 for one configuration: maximize ``sum(n_i * nepmax[i])``
    over epoch-count vectors ``n`` that meet constraints (2) and (3)."""

    nepmax: tuple[int, ...]
    max_epochs: int
    target: float  # NRH*: the count a successful attack must reach

    @classmethod
    def for_config(cls, config: BlockHammerConfig) -> "AttackConstraints":
        model = EpochModel(config)
        return cls(
            nepmax=tuple(model.nepmax(t) for t in EpochType),
            max_epochs=model.epochs_per_refresh_window(),
            target=config.nrh_star,
        )

    def satisfied_by(self, counts: tuple[int, int, int, int, int]) -> bool:
        """Whether an epoch-count vector meets constraints (2) and (3)."""
        if any(c < 0 for c in counts):
            return False
        if sum(counts) > self.max_epochs:
            return False
        return counts[2] == counts[3]

    def activations(self, counts: tuple[int, int, int, int, int]) -> int:
        """Total activations achieved by an epoch-count vector."""
        return sum(n * m for n, m in zip(counts, self.nepmax))
