"""Simulation results and derived statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.device import CommandCounts
from repro.dram.rowhammer import BitFlip
from repro.mem.controller import ThreadMemStats


@dataclass
class ChannelResult:
    """Per-channel outcome of one simulation (one row per memory
    channel; the aggregate lives on :class:`SimResult` itself).

    ``blocked_injections`` counts requests this channel's controller
    refused at injection time (queue-full plus mitigation in-flight
    quotas — the throttle-event side of per-channel attribution; the
    mechanism-side counters travel through the ``channel_attribution``
    extractor in :mod:`repro.harness.parallel`)."""

    channel: int
    counts: CommandCounts
    active_time_ns: list[float]
    bitflips: int
    refreshes: int
    victim_refreshes: int
    commands_issued: int
    refresh_phase_ns: float = 0.0
    blocked_injections: int = 0


@dataclass
class ThreadResult:
    """Per-thread outcome of one simulation.

    ``mem`` aggregates the thread's memory statistics across channels;
    ``mem_per_channel`` carries the per-channel rows when the system has
    more than one channel (empty on single-channel runs, whose aggregate
    *is* the per-channel row).
    """

    thread: int
    instructions: int
    finish_time_ns: float
    ipc: float
    mem: ThreadMemStats
    mem_per_channel: list[ThreadMemStats] = field(default_factory=list)

    @property
    def mpki(self) -> float:
        """Memory (LLC-miss) accesses per kilo-instruction."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.mem.accesses / self.instructions

    @property
    def rbcpki(self) -> float:
        """Row-buffer conflicts per kilo-instruction (Table 8 metric)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.mem.row_conflicts / self.instructions


@dataclass
class SimResult:
    """Outcome of one :meth:`System.run` call."""

    mitigation: str
    threads: list[ThreadResult]
    elapsed_ns: float
    counts: CommandCounts
    active_time_ns: list[float]
    bitflips: list[BitFlip]
    refreshes: int
    victim_refreshes: int
    commands_issued: int
    #: Discrete events processed by the simulation loop (perf metric;
    #: excluded from result-equality comparisons by value symmetry —
    #: identical simulations process identical event streams).
    events_processed: int = 0
    #: One statistics row per memory channel (aggregates above are the
    #: sums/maxes over these; RHLI maxes live in the harness extractors).
    channels: list[ChannelResult] = field(default_factory=list)

    @property
    def num_channels(self) -> int:
        return len(self.channels) or 1

    @property
    def total_instructions(self) -> int:
        return sum(t.instructions for t in self.threads)

    @property
    def total_bitflips(self) -> int:
        return len(self.bitflips)
