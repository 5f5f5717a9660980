"""The DRAM device: ranks, banks, row mapping, disturbance, and the data bus.

:class:`DramDevice` owns all DRAM-side state for one channel.  The memory
controller asks it when a command could legally issue
(:meth:`earliest_issue`) and commits commands through :meth:`issue`,
which applies timing effects, translates logical rows through the
in-DRAM row mapping, feeds the RowHammer disturbance model, and walks
auto-refresh through the row array.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.address import BANK_KEY_BITS, bank_key
from repro.dram.commands import Command, CommandKind
from repro.dram.rank import Rank
from repro.dram.rowhammer import BitFlip, DisturbanceModel, DisturbanceProfile
from repro.dram.rowmap import LinearRowMapping, RowMapping
from repro.dram.spec import DramSpec

# Re-export under the name used by the public API.
BitFlipEvent = BitFlip


@dataclass
class CommandCounts:
    """Channel-wide command counters (consumed by the energy model)."""

    act: int = 0
    pre: int = 0
    rd: int = 0
    wr: int = 0
    ref: int = 0
    vref: int = 0


class DramDevice:
    """One DRAM channel: ranks of banks plus shared data-bus state."""

    def __init__(
        self,
        spec: DramSpec,
        row_mapping: RowMapping | None = None,
        disturbance: DisturbanceProfile | None = None,
    ) -> None:
        self.spec = spec
        self.row_mapping = row_mapping or LinearRowMapping(spec.rows_per_bank)
        self.disturbance_profile = disturbance or DisturbanceProfile()
        self.ranks = [Rank(spec, r) for r in range(spec.ranks)]
        # Flat bank lookup table indexed by the shared bank_key
        # encoding (matches Request.bank_key); scheduler hot loop.
        self.flat_banks: list = [None] * (spec.ranks << BANK_KEY_BITS)
        for rank in self.ranks:
            for bank in rank.banks:
                self.flat_banks[bank_key(rank.rank_id, bank.bank_id)] = bank
        self._models = [
            [
                DisturbanceModel(self.disturbance_profile, spec.rows_per_bank, r, b)
                for b in range(spec.banks_per_rank)
            ]
            for r in range(spec.ranks)
        ]
        # Flat disturbance-model table, same bank_key indexing as
        # flat_banks (issue() hot path).
        self.flat_models: list = [None] * (spec.ranks << BANK_KEY_BITS)
        for r in range(spec.ranks):
            for b in range(spec.banks_per_rank):
                self.flat_models[bank_key(r, b)] = self._models[r][b]
        self._bus_free = 0.0
        # Individual timing floats, added in the same left-to-right
        # order as the original ``now + tCL + tBL`` expressions:
        # pre-summing the constants would associate differently and
        # shift bus timestamps by an ULP, breaking bit-identity.
        self._tCL = spec.tCL
        self._tCWL = spec.tCWL
        self._tBL = spec.tBL
        self._refresh_pointer = [0] * spec.ranks
        self.counts = CommandCounts()
        self.bitflips: list[BitFlip] = []
        #: Optional command trace: set to a list and every committed
        #: command is appended as (time, kind-name, rank, bank, row,
        #: col).  Off (None) by default — the differential scheduler
        #: harness enables it to compare full command streams between
        #: scheduling policies; one predicted-false branch per command
        #: otherwise.
        self.command_log: list[tuple] | None = None
        # Rank-level active-time integration for background energy.
        self._open_banks = [0] * spec.ranks
        self._last_change = [0.0] * spec.ranks
        self.active_time = [0.0] * spec.ranks

    # ------------------------------------------------------------------
    # Accessors.
    # ------------------------------------------------------------------
    def bank(self, rank: int, bank: int):
        """Return the :class:`Bank` object at (rank, bank)."""
        return self.ranks[rank].banks[bank]

    @property
    def bus_free(self) -> float:
        """Time at which the shared data bus becomes free."""
        return self._bus_free

    def model(self, rank: int, bank: int) -> DisturbanceModel:
        """Return the disturbance model at (rank, bank)."""
        return self._models[rank][bank]

    # ------------------------------------------------------------------
    # Scheduling queries.
    # ------------------------------------------------------------------
    def earliest_issue(self, cmd: Command, now: float) -> float:
        """Earliest legal issue time for ``cmd`` at or after ``now``.

        Combines bank-local timing, rank-level ACT constraints
        (tRRD/tFAW), and data-bus occupancy for column commands.
        """
        bank = self.bank(cmd.rank, cmd.bank)
        t = max(now, bank.earliest(cmd.kind))
        if cmd.kind in (CommandKind.ACT, CommandKind.VREF):
            t = max(t, self.ranks[cmd.rank].earliest_act(t))
        elif cmd.kind is CommandKind.RD:
            t = max(t, self._bus_free - self.spec.tCL)
        elif cmd.kind is CommandKind.WR:
            t = max(t, self._bus_free - self.spec.tCWL)
        return t

    # ------------------------------------------------------------------
    # Command commit.
    # ------------------------------------------------------------------
    def issue(self, cmd: Command, now: float) -> list[BitFlip]:
        """Commit ``cmd`` at ``now``; return new bit-flips (if any)."""
        kind = cmd.kind
        key = (cmd.rank << BANK_KEY_BITS) | cmd.bank
        bank = self.flat_banks[key]
        new_flips: list[BitFlip] = []
        if self.command_log is not None:
            self.command_log.append(
                (now, kind.name, cmd.rank, cmd.bank, cmd.row, cmd.col)
            )

        if kind is CommandKind.RD:
            bank.issue(kind, cmd.row, now)
            self._bus_free = now + self._tCL + self._tBL
            self.counts.rd += 1
        elif kind is CommandKind.ACT:
            self._note_bank_transition(cmd.rank, now, opening=True)
            bank.issue(kind, cmd.row, now)
            self.ranks[cmd.rank].record_act(now)
            physical = self.row_mapping.to_physical(cmd.row)
            new_flips = self.flat_models[key].on_activate(physical, now)
            self.counts.act += 1
        elif kind is CommandKind.PRE:
            bank.issue(kind, cmd.row, now)
            self._note_bank_transition(cmd.rank, now, opening=False)
            self.counts.pre += 1
        elif kind is CommandKind.WR:
            bank.issue(kind, cmd.row, now)
            self._bus_free = now + self._tCWL + self._tBL
            self.counts.wr += 1
        elif kind is CommandKind.REF:
            self._issue_refresh(cmd.rank, now)
        elif kind is CommandKind.VREF:
            bank.issue(kind, cmd.row, now)
            self.ranks[cmd.rank].record_act(now)
            physical = self.row_mapping.to_physical(cmd.row)
            self.flat_models[key].on_refresh_row(physical)
            self.counts.vref += 1
        else:
            raise ValueError(f"unsupported command kind {kind}")

        if new_flips:
            self.bitflips.extend(new_flips)
        return new_flips

    def _issue_refresh(self, rank_id: int, now: float) -> None:
        """All-bank REF: occupy banks for tRFC and refresh the next
        group of physical rows in every bank of the rank."""
        rank = self.ranks[rank_id]
        for bank in rank.banks:
            bank.issue(CommandKind.REF, 0, now)
        group = self._refresh_pointer[rank_id]
        rows_per_group = self.spec.rows_per_refresh_group
        start = (group * rows_per_group) % self.spec.rows_per_bank
        for bank_id in range(self.spec.banks_per_rank):
            self.model(rank_id, bank_id).on_refresh_range(start, rows_per_group)
        self._refresh_pointer[rank_id] = (group + 1) % self.spec.refresh_groups
        self.counts.ref += 1

    # ------------------------------------------------------------------
    # Background-energy bookkeeping.
    # ------------------------------------------------------------------
    def _note_bank_transition(self, rank_id: int, now: float, opening: bool) -> None:
        open_before = self._open_banks[rank_id]
        if open_before > 0:
            self.active_time[rank_id] += now - self._last_change[rank_id]
        self._last_change[rank_id] = now
        self._open_banks[rank_id] = open_before + (1 if opening else -1)

    def finalize_active_time(self, now: float) -> None:
        """Close the active-time integral at simulation end."""
        for rank_id in range(self.spec.ranks):
            if self._open_banks[rank_id] > 0:
                self.active_time[rank_id] += now - self._last_change[rank_id]
                self._last_change[rank_id] = now

    @property
    def total_bitflips(self) -> int:
        """Total RowHammer bit-flips recorded across the channel."""
        return len(self.bitflips)
