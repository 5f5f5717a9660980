"""DRAM bus commands.

The memory controller communicates with the DRAM device exclusively
through these commands, mirroring a DDRx command bus (Section 2.1 of the
paper).  ``VREF`` is a directed victim-row refresh used by reactive
mitigation mechanisms; on a real chip it is an ACT+PRE pair to the victim
row, and we model it with the same tRC occupancy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CommandKind(enum.Enum):
    """The DRAM command types the controller can issue."""

    ACT = "activate"
    PRE = "precharge"
    RD = "read"
    WR = "write"
    REF = "refresh"
    VREF = "victim_refresh"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommandKind.{self.name}"


@dataclass(frozen=True, slots=True)
class Command:
    """A single DRAM command addressed to a (rank, bank, row, col).

    ``row`` is a *logical* (memory-controller-visible) row address; the
    device translates it through its in-DRAM row mapping before applying
    disturbance (Section 2.3).  ``col`` is only meaningful for RD/WR.
    """

    kind: CommandKind
    rank: int
    bank: int
    row: int = 0
    col: int = 0
