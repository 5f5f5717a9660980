"""Epoch-type analysis (Section 5, Table 2).

RowBlocker's D-CBF partitions time into epochs of tCBF/2.  From the
perspective of one aggressor row, each epoch falls into one of five
types, determined by whether the row's activation count stayed below the
blacklisting threshold NBL in the previous and current epochs.  Each
type bounds the number of activations the row can receive in the epoch
(``Nepmax``):

* **T0** — not blacklisted, stays below NBL* (= NBL minus the previous
  epoch's count; we bound with the worst case NBL):   Nepmax = NBL* - 1.
* **T1** — crosses NBL* but not NBL: blacklisted mid-epoch, clean at the
  next boundary:                                       Nepmax = NBL - 1.
* **T2** — crosses NBL: an NBL*-long burst at tRC pace, then tDelay-
  spaced activations fill the epoch:
  ``Nepmax = NBL* + floor((tep - NBL* * tRC) / tDelay)``.
* **T3** — blacklisted from the previous epoch, stays below NBL:
  Table 2 lists the definitional range bound ``NBL - 1``, but a T3
  epoch's row is blacklisted for the *entire* epoch (the newly-active
  filter still carries the previous epoch's >= NBL counts), so every
  activation is tDelay-spaced and the effective bound is
  ``min(NBL - 1, floor(tep / tDelay))`` — the bound the paper's solver
  outcome implies.
* **T4** — blacklisted throughout: every activation tDelay-spaced:
                                       ``Nepmax = floor(tep / tDelay)``.
"""

from __future__ import annotations

import enum

from repro.core.config import BlockHammerConfig


class EpochType(enum.Enum):
    """The five epoch types of Table 2."""

    T0 = 0
    T1 = 1
    T2 = 2
    T3 = 3
    T4 = 4


#: Which epoch types may precede each type (footnote 2 of the paper):
#: T0/T1/T2 require the row to start the epoch un-blacklisted, so they
#: follow T0/T1/T3; T3/T4 require it blacklisted, so they follow T2/T4.
PREDECESSORS: dict[EpochType, frozenset[EpochType]] = {
    EpochType.T0: frozenset({EpochType.T0, EpochType.T1, EpochType.T3}),
    EpochType.T1: frozenset({EpochType.T0, EpochType.T1, EpochType.T3}),
    EpochType.T2: frozenset({EpochType.T0, EpochType.T1, EpochType.T3}),
    EpochType.T3: frozenset({EpochType.T2, EpochType.T4}),
    EpochType.T4: frozenset({EpochType.T2, EpochType.T4}),
}


class EpochModel:
    """Computes per-type activation bounds for a BlockHammer config."""

    def __init__(self, config: BlockHammerConfig) -> None:
        self.config = config
        self.tep = config.epoch_ns

    def nepmax(self, epoch_type: EpochType) -> int:
        """Maximum activations an aggressor row can receive in an epoch
        of the given type (Table 2, worst case NBL* = NBL)."""
        cfg = self.config
        nbl_star = cfg.nbl  # worst case: zero activations carried over
        if epoch_type is EpochType.T0:
            return max(0, nbl_star - 1)
        if epoch_type is EpochType.T1:
            return max(0, cfg.nbl - 1)
        if epoch_type is EpochType.T3:
            # Blacklisted for the whole epoch: tDelay-spaced throughout.
            return min(max(0, cfg.nbl - 1), int(self.tep / cfg.t_delay_ns))
        if epoch_type is EpochType.T2:
            burst_time = nbl_star * cfg.t_rc_ns
            remaining = max(0.0, self.tep - burst_time)
            return nbl_star + int(remaining / cfg.t_delay_ns)
        if epoch_type is EpochType.T4:
            return int(self.tep / cfg.t_delay_ns)
        raise ValueError(f"unknown epoch type {epoch_type}")

    def epochs_per_refresh_window(self) -> int:
        """How many full epochs fit in one tREFW."""
        return int(self.config.t_refw_ns / self.tep)
