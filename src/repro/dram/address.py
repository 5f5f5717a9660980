"""Physical-address-to-DRAM-coordinate mapping.

The memory controller decodes a flat physical byte address into
(channel, rank, bank, row, column).  The paper's system (Table 5) uses
the MOP ("Minimalist Open Page", Kaseridis et al. [60]) scheme, which
interleaves small runs of consecutive cache lines across banks to
balance row-buffer locality against bank-level parallelism.  A simple
row:rank:bank:col scheme is provided for comparison and testing.

Both schemes carry a channel-interleave variant: when the spec declares
more than one channel, channel bits sit directly above the within-run
column bits, so consecutive MOP runs (or consecutive same-row column
sweeps in ROW_BANK_COL) rotate across channels before rotating across
banks — channel-level parallelism at run granularity.  With one channel
the channel digit is the identity (``line % 1 == 0``), so single-channel
decoding is bit-identical to the channel-free layout.

Decoding is pure stride arithmetic with no memo: a mapping holds only
its configuration, so each :class:`~repro.sim.system.System` builds its
own and nothing outlives the run.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.dram.spec import DramSpec
from repro.utils.validation import require


class MappingScheme(enum.Enum):
    """Supported controller address-interleaving schemes."""

    MOP = "mop"
    ROW_BANK_COL = "row_bank_col"


#: Bits reserved for the bank id inside a flat per-bank key
#: (``(rank << BANK_KEY_BITS) | bank``).  Shared by ``Request.bank_key``,
#: the request queues' per-bank index, the device's flat bank table, and
#: the scheduler's rank extraction — change it in one place only.
#: Supports up to 64 banks per rank (beyond any spec in this study).
#: Bank keys are channel-local: each channel's controller/device pair
#: owns its own queues and flat bank table.
BANK_KEY_BITS = 6


def bank_key(rank: int, bank: int) -> int:
    """The flat per-bank key used across the memory subsystem."""
    return (rank << BANK_KEY_BITS) | bank


class DecodedAddress(NamedTuple):
    """DRAM coordinates of one cache-line-sized access.

    ``channel`` defaults to 0 so single-channel call sites (and every
    pre-multi-channel construction) stay valid unchanged.
    """

    rank: int
    bank: int
    row: int
    col: int
    channel: int = 0


class RankLayout(NamedTuple):
    """One rank's address layout, from :meth:`AddressMapping.layout`."""

    row_stride: int
    channel_stride: int
    #: Byte offset of each bank of the rank (rank digit included).
    bank_offsets: tuple[int, ...]
    #: Byte offset of each column of a row.
    col_offsets: tuple[int, ...]


class AddressMapping:
    """Bidirectional mapping between byte addresses and DRAM coordinates.

    MOP layout, from least-significant bits upward::

        [line offset | mop-run column | channel | bank | rank | column-high | row]

    so ``mop_run`` consecutive lines land in the same row of the same
    bank (of the same channel) before the stream moves to the next
    channel, then the next bank.  ROW_BANK_COL layout::

        [line offset | column | channel | bank | rank | row]

    A mapping is immutable after construction; ``decode`` recomputes
    every field from the byte strides on each call.
    """

    def __init__(
        self,
        spec: DramSpec,
        scheme: MappingScheme = MappingScheme.MOP,
        mop_run: int = 4,
    ) -> None:
        require(mop_run >= 1, "mop_run must be >= 1")
        require(spec.columns_per_row % mop_run == 0, "mop_run must divide columns")
        self.spec = spec
        self.scheme = scheme
        self.mop_run = mop_run
        # The mixed-radix layout, least-significant digit first: the
        # byte stride of every field.  decode, encode and layout all
        # read these and nothing else.  ROW_BANK_COL is MOP with one
        # run spanning the whole row, so its high-column digit has
        # radix 1 and is always 0.
        self._low_cols = mop_run if scheme is MappingScheme.MOP else spec.columns_per_row
        self._high_cols = spec.columns_per_row // self._low_cols
        stride = spec.line_bytes
        self._col_stride = stride
        stride *= self._low_cols
        self._channel_stride = stride
        stride *= spec.channels
        self._bank_stride = stride
        stride *= spec.banks_per_rank
        self._rank_stride = stride
        stride *= spec.ranks
        self._high_col_stride = stride
        stride *= self._high_cols
        self._row_stride = stride

    # ------------------------------------------------------------------
    def decode(self, address: int) -> DecodedAddress:
        """Decode a byte address into DRAM coordinates."""
        require(address >= 0, "address must be non-negative")
        s = self.spec
        high_col = (address // self._high_col_stride) % self._high_cols
        low_col = (address // self._col_stride) % self._low_cols
        return DecodedAddress(
            (address // self._rank_stride) % s.ranks,
            (address // self._bank_stride) % s.banks_per_rank,
            (address // self._row_stride) % s.rows_per_bank,
            high_col * self._low_cols + low_col,
            (address // self._channel_stride) % s.channels,
        )

    def _col_offset(self, col: int) -> int:
        high_col, low_col = divmod(col, self._low_cols)
        return high_col * self._high_col_stride + low_col * self._col_stride

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (returns a byte address)."""
        return (
            decoded.rank * self._rank_stride
            + decoded.bank * self._bank_stride
            + decoded.row * self._row_stride
            + self._col_offset(decoded.col)
            + decoded.channel * self._channel_stride
        )

    def layout(self, rank: int = 0) -> RankLayout:
        """The strides and offsets that :meth:`encode` sums, for ``rank``.

        ``encode(DecodedAddress(rank, bank, row, col, channel))`` equals
        ``bank_offsets[bank] + row * row_stride + col_offsets[col] +
        channel * channel_stride`` for every in-range coordinate, so a
        trace generator can build addresses without a
        :class:`DecodedAddress` per record.
        """
        s = self.spec
        rank_offset = rank * self._rank_stride
        return RankLayout(
            row_stride=self._row_stride,
            channel_stride=self._channel_stride,
            bank_offsets=tuple(
                rank_offset + bank * self._bank_stride for bank in range(s.banks_per_rank)
            ),
            col_offsets=tuple(self._col_offset(col) for col in range(s.columns_per_row)),
        )
