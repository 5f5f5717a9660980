"""Synthetic benign-application trace generation.

The generator reproduces a profile's (MPKI, RBCPKI) operating point —
the workload properties every mitigation mechanism in the study keys on
— with a simple behavioural model:

* accesses arrive every ``gap_mean`` instructions (geometric gaps),
* each access targets one of ``banks_used`` banks (round-robin with a
  random skip, giving realistic bank-level parallelism),
* per bank, the stream stays in the current row with probability
  ``1 - conflict_fraction`` and otherwise opens a new row drawn from the
  profile's working set (or the next sequential row for streaming
  profiles),
* within a row, columns walk sequentially (spatial locality).

Addresses are produced as byte addresses via the system's address
mapping, so the core-side decode is exactly inverse to generation.
"""

from __future__ import annotations

from repro.cpu.trace import Trace, TraceRecord
from repro.dram.address import AddressMapping
from repro.dram.spec import DramSpec
from repro.utils.rng import DeterministicRng
from repro.workloads.profiles import WorkloadProfile


class ProfileTrace(Trace):
    """An endless trace stream matching a :class:`WorkloadProfile`."""

    def __init__(
        self,
        profile: WorkloadProfile,
        spec: DramSpec,
        mapping: AddressMapping,
        rng: DeterministicRng,
        rank: int = 0,
        row_offset: int = 0,
    ) -> None:
        self.profile = profile
        self.spec = spec
        self.mapping = mapping
        self.rng = rng
        self.rank = rank
        # Offset this thread's working set so co-running instances of
        # the same profile do not share rows.
        self.row_offset = row_offset % spec.rows_per_bank
        self.banks_used = min(profile.banks_used, spec.banks_per_rank)
        # Rows spread deterministically across channels (row % channels):
        # a bank's working set splits evenly over the channel shards
        # without consuming RNG draws, so single-channel streams are
        # bit-identical to the pre-channel generator (row % 1 == 0).
        # Channel-affine profiles instead pin every access to one
        # channel (modulo the channel count), modelling workloads whose
        # pages all live on a single channel shard.
        self._channels = spec.channels
        self._affinity = (
            None
            if profile.channel_affinity is None
            else profile.channel_affinity % spec.channels
        )
        self._bank_cursor = 0
        self._current_col = [0] * spec.banks_per_rank
        self._stream_row = 0
        # Per-record constants, resolved once: the profile is frozen, so
        # its derived rates cannot change under a running stream.
        self._gap = rng.geometric_sampler(profile.gap_mean)
        self._uniform = rng.uniform_sampler()
        self._bank_skip = rng.int_sampler(2, 3)
        self._draw_row = rng.int_sampler(0, profile.working_set_rows - 1)
        self._streaming = profile.streaming
        self._working_set_rows = profile.working_set_rows
        self._rows_per_bank = spec.rows_per_bank
        self._conflict_fraction = profile.conflict_fraction
        self._write_fraction = profile.write_fraction
        self._columns_per_row = spec.columns_per_row
        layout = mapping.layout(rank)
        self._bank_offsets = layout.bank_offsets
        self._col_offsets = layout.col_offsets
        self._row_stride = layout.row_stride
        self._channel_stride = layout.channel_stride
        # Each bank's open row, as the address of its column 0:
        # ``bank_offsets[bank] + row * row_stride + channel *
        # channel_stride``.  Only a new row moves it, so a record's
        # address is one add of its column offset.
        self._row_base = [0] * spec.banks_per_rank
        for bank in range(spec.banks_per_rank):
            self._open_row(bank)

    # ------------------------------------------------------------------
    def _open_row(self, bank: int) -> None:
        if self._streaming:
            self._stream_row += 1
            row = self._stream_row % self._working_set_rows
        else:
            row = self._draw_row()
        row = (row + self.row_offset) % self._rows_per_bank
        channel = row % self._channels if self._affinity is None else self._affinity
        self._row_base[bank] = (
            self._bank_offsets[bank] + row * self._row_stride + channel * self._channel_stride
        )
        self._current_col[bank] = 0

    def next_record(self) -> TraceRecord:
        gap = self._gap()
        uniform = self._uniform
        # Round-robin with random skips: spreads load across banks while
        # revisiting banks often enough for open rows to be reused.
        step = 1 if uniform() < 0.75 else self._bank_skip()
        bank = self._bank_cursor = (self._bank_cursor + step) % self.banks_used
        if uniform() < self._conflict_fraction:
            self._open_row(bank)
        current_col = self._current_col
        col = current_col[bank]
        current_col[bank] = (col + 1) % self._columns_per_row
        return TraceRecord(
            gap, self._row_base[bank] + self._col_offsets[col], uniform() < self._write_fraction
        )


class _RecordStream:
    """A lazily-materialized, shared record sequence for one trace
    identity.  Multiple replays extend and read the same list."""

    __slots__ = ("source", "records")

    def __init__(self, source: ProfileTrace) -> None:
        self.source = source
        self.records: list[TraceRecord] = []


class ReplayTrace(Trace):
    """Deterministic replay over a cached :class:`ProfileTrace` stream.

    A benign trace is a pure function of (profile, spec, mapping, seed,
    row offset), and one sweep replays the same trace in many runs — a
    Figure 5 mix is simulated once per mechanism plus a baseline.  The
    shared stream generates each record once; replays after the first
    are list reads.
    """

    __slots__ = ("_stream", "_index")

    def __init__(self, stream: _RecordStream) -> None:
        self._stream = stream
        self._index = 0

    def next_record(self) -> TraceRecord:
        stream = self._stream
        records = stream.records
        index = self._index
        if index >= len(records):
            records.append(stream.source.next_record())
        self._index = index + 1
        return records[index]


#: Process-wide stream cache; keys are full trace identities, so two
#: traces share records only when every generation input matches.
_STREAM_CACHE: dict[tuple, _RecordStream] = {}


def build_benign_trace(
    profile: WorkloadProfile,
    spec: DramSpec,
    mapping: AddressMapping,
    seed: int,
    row_offset: int = 0,
) -> Trace:
    """Label-seeded benign trace, replayed from the shared record cache."""
    key = (profile, spec, mapping.spec, mapping.scheme, mapping.mop_run, seed, row_offset)
    stream = _STREAM_CACHE.get(key)
    if stream is None:
        rng = DeterministicRng(seed).fork(f"trace-{profile.name}-{row_offset}")
        stream = _RecordStream(
            ProfileTrace(profile, spec, mapping, rng, row_offset=row_offset)
        )
        _STREAM_CACHE[key] = stream
    return ReplayTrace(stream)
