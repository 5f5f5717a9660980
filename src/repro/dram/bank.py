"""Per-bank DRAM state machine and timing bookkeeping.

A bank is either precharged (``open_row is None``) or has one row latched
in its row buffer.  The bank tracks, per command type, the earliest time
the next such command may legally issue, which the controller queries to
schedule commands without per-cycle ticking.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.commands import CommandKind
from repro.dram.spec import DramSpec

_FAR_PAST = -1.0e18


@dataclass(slots=True)
class BankStats:
    """Activation/column counters for one bank."""

    activations: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0


class Bank:
    """One DRAM bank: open-row state plus next-allowed command times."""

    __slots__ = (
        "spec",
        "rank_id",
        "bank_id",
        "open_row",
        "next_act",
        "next_pre",
        "next_rd",
        "next_wr",
        "last_act_time",
        "stats",
        "_tRCD",
        "_tRAS",
        "_tRC",
        "_tRP",
        "_tCCD",
        "_tRTW",
        "_tRTP",
        "_tRFC",
        "_tCWL",
        "_tBL",
        "_tWTR",
        "_tWR",
    )

    def __init__(self, spec: DramSpec, rank_id: int, bank_id: int) -> None:
        self.spec = spec
        self.rank_id = rank_id
        self.bank_id = bank_id
        self.open_row: int | None = None
        self.next_act = _FAR_PAST
        self.next_pre = _FAR_PAST
        self.next_rd = _FAR_PAST
        self.next_wr = _FAR_PAST
        self.last_act_time = _FAR_PAST
        self.stats = BankStats()
        # Timing deltas resolved once: issue() runs once per DRAM
        # command and a chain of spec attribute hops there is
        # measurable.
        self._tRCD = spec.tRCD
        self._tRAS = spec.tRAS
        self._tRC = spec.tRC
        self._tRP = spec.tRP
        self._tCCD = spec.tCCD
        self._tRTW = spec.tRTW
        self._tRTP = spec.tRTP
        self._tRFC = spec.tRFC
        # Kept as individual floats (not pre-summed): issue() must add
        # them left-to-right exactly as the original ``now + tCWL + tBL
        # + tWTR`` expression did, or the write-to-read/precharge gates
        # shift by an ULP and bit-identity with the seed breaks.
        self._tCWL = spec.tCWL
        self._tBL = spec.tBL
        self._tWTR = spec.tWTR
        self._tWR = spec.tWR

    # ------------------------------------------------------------------
    # Scheduling queries.
    # ------------------------------------------------------------------
    def earliest(self, kind: CommandKind) -> float:
        """Earliest time a command of ``kind`` could issue, bank-local.

        Does not include rank-level constraints (tRRD/tFAW/bus); the
        :class:`~repro.dram.rank.Rank` layers those on top.
        """
        if kind is CommandKind.ACT:
            return self.next_act
        if kind is CommandKind.PRE:
            return self.next_pre
        if kind is CommandKind.RD:
            return self.next_rd
        if kind is CommandKind.WR:
            return self.next_wr
        if kind in (CommandKind.REF, CommandKind.VREF):
            # Refresh-class commands need the bank precharged; they are
            # gated by next_act like an activation.
            return self.next_act
        raise ValueError(f"unsupported command kind {kind}")

    # ------------------------------------------------------------------
    # State transitions.
    # ------------------------------------------------------------------
    def issue(self, kind: CommandKind, row: int, now: float) -> None:
        """Apply the timing effects of issuing ``kind`` at ``now``.

        The caller is responsible for the command being legal: the row
        state allows it and ``now`` is at or past :meth:`earliest`.
        """
        if kind is CommandKind.RD:
            t = now + self._tCCD
            if t > self.next_rd:
                self.next_rd = t
            t = now + self._tRTW
            if t > self.next_wr:
                self.next_wr = t
            t = now + self._tRTP
            if t > self.next_pre:
                self.next_pre = t
            self.stats.reads += 1
        elif kind is CommandKind.ACT:
            self.open_row = row
            self.last_act_time = now
            t = now + self._tRCD
            if t > self.next_rd:
                self.next_rd = t
            if t > self.next_wr:
                self.next_wr = t
            t = now + self._tRAS
            if t > self.next_pre:
                self.next_pre = t
            t = now + self._tRC
            if t > self.next_act:
                self.next_act = t
            self.stats.activations += 1
        elif kind is CommandKind.PRE:
            self.open_row = None
            t = now + self._tRP
            if t > self.next_act:
                self.next_act = t
            self.stats.precharges += 1
        elif kind is CommandKind.WR:
            t = now + self._tCCD
            if t > self.next_wr:
                self.next_wr = t
            t = now + self._tCWL + self._tBL + self._tWTR
            if t > self.next_rd:
                self.next_rd = t
            t = now + self._tCWL + self._tBL + self._tWR
            if t > self.next_pre:
                self.next_pre = t
            self.stats.writes += 1
        elif kind is CommandKind.REF:
            # All-bank refresh occupies the bank for tRFC.
            t = now + self._tRFC
            if t > self.next_act:
                self.next_act = t
        elif kind is CommandKind.VREF:
            # A directed victim-row refresh is an internal ACT+PRE pair
            # to the victim row: occupies the bank for tRC.
            t = now + self._tRC
            if t > self.next_act:
                self.next_act = t
        else:
            raise ValueError(f"unsupported command kind {kind}")
