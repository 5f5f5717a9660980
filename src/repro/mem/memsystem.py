"""The channel-sharded memory system.

A :class:`MemorySystem` owns one :class:`~repro.mem.controller.MemoryController`
per memory channel, each with its **own** DRAM device shard, row
mapping, refresh schedule, and RowHammer mitigation instance —
BlockHammer is specified per channel (Section 3), so mitigation state is
never shared across channels.  Requests are routed by the channel bits
the :class:`~repro.dram.address.AddressMapping` decoded into the
address; statistics are reported both per channel and aggregated
(bandwidth/energy counters sum; mechanism telemetry aggregates by
:func:`~repro.mitigations.base.sum_counters` and
:func:`~repro.mitigations.base.max_thread_rhli`).

Per-channel refresh schedules are phase-staggered: channel 0 keeps the
canonical phase (so single-channel systems are bit-identical to the
pre-channel-sharding simulator) and every further channel gets an offset
within one tREFI derived deterministically from the experiment seed.
Lockstep all-channel refresh would be unrealistic and would hide
bank-conflict effects inside a shared refresh shadow.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.dram.device import CommandCounts, DramDevice
from repro.mem.controller import MemoryController, ThreadMemStats
from repro.mem.request import Request
from repro.mem.scheduler import SchedulingPolicy
from repro.mitigations.base import (
    MechanismTelemetry,
    MitigationContext,
    MitigationMechanism,
)
from repro.sim.stats import ChannelResult
from repro.utils.aggregate import merge_fields
from repro.utils.rng import DeterministicRng
from repro.utils.validation import require

#: Builds one fresh mitigation instance per call (one per channel).
MitigationFactory = Callable[[], MitigationMechanism]


class MemorySystem:
    """N per-channel controller/device/mitigation shards + a router."""

    def __init__(
        self,
        config,  # SystemConfig (not annotated: repro.sim.config imports mem)
        num_threads: int,
        mitigation_factory: MitigationFactory,
        policy: SchedulingPolicy | None = None,
        rng: DeterministicRng | None = None,
    ) -> None:
        spec = config.effective_spec()
        num_channels = config.channels
        require(num_channels >= 1, "need at least one memory channel")
        self.spec = spec
        self.num_channels = num_channels
        rng = rng or DeterministicRng(config.seed)

        # Deterministic per-channel refresh phase offsets within one
        # tREFI.  Channel 0 stays at phase 0 so a one-channel system
        # reproduces the pre-sharding refresh schedule exactly.
        phase_rng = rng.fork("refresh-phase")
        phase_offsets = [0.0] + [
            phase_rng.uniform() * spec.tREFI for _ in range(num_channels - 1)
        ]

        self.devices: list[DramDevice] = []
        self.mitigations: list[MitigationMechanism] = []
        self.controllers: list[MemoryController] = []
        for channel in range(num_channels):
            rowmap = config.build_rowmap()
            device = DramDevice(spec, rowmap, config.disturbance)
            # The mechanism assumes the device's own mapping unless the
            # config names another kind.
            assumed = config.assumed_rowmap_kind
            mitigation = mitigation_factory()
            context = MitigationContext(
                spec=spec,
                num_threads=num_threads,
                # Channel 0 keeps the historical fork label so one-channel
                # systems draw the exact same mitigation RNG stream.
                rng=rng.fork(
                    "mitigation" if channel == 0 else f"mitigation-ch{channel}"
                ),
                rowmap=config.build_rowmap(assumed) if assumed else rowmap,
                nrh=config.disturbance.nrh,
                blast_radius=config.disturbance.blast_radius,
                blast_decay=config.disturbance.decay,
                channel=channel,
            )
            mitigation.attach(context)

            controller = MemoryController(
                spec,
                device,
                mitigation,
                policy,
                config.controller,
                num_threads=num_threads,
                channel_id=channel,
                refresh_phase_ns=phase_offsets[channel],
            )
            self.devices.append(device)
            self.mitigations.append(mitigation)
            self.controllers.append(controller)

        #: Channels that accepted at least one request since the last
        #: drain; the System reads and clears it after each core wake to
        #: schedule exactly the controllers that gained work.
        self.touched: list[int] = []

    # ------------------------------------------------------------------
    # Request routing (the cores' controller-facing interface).
    # ------------------------------------------------------------------
    def enqueue(self, request: Request, now: float) -> bool:
        """Route ``request`` to its channel's controller."""
        if self.controllers[request.channel].enqueue(request, now):
            self.touched.append(request.channel)
            return True
        return False

    def busy(self) -> bool:
        """True while any channel has pending work."""
        return any(controller.busy() for controller in self.controllers)

    # ------------------------------------------------------------------
    # Measurement plumbing.
    # ------------------------------------------------------------------
    def reset_measurement(self, now: float) -> None:
        """Zero performance/energy counters on every channel while
        keeping architectural and mechanism state (end of warmup)."""
        for device in self.devices:
            device.finalize_active_time(now)
            device.counts = CommandCounts()
            device.active_time = [0.0] * self.spec.ranks
        for controller in self.controllers:
            controller.thread_stats = [
                ThreadMemStats() for _ in range(controller.num_threads)
            ]
            controller.vref_count = 0
            controller.commands_issued = 0

    def finalize(self, end_time: float) -> None:
        for device in self.devices:
            device.finalize_active_time(end_time)

    # ------------------------------------------------------------------
    # Aggregation (command/bandwidth/energy counters sum here; RHLI is
    # mechanism telemetry, see os_telemetry below).
    # ------------------------------------------------------------------
    def merged_thread_stats(self) -> list[ThreadMemStats]:
        """Per-thread statistics aggregated across channels.  With one
        channel the controller's own objects are returned unchanged."""
        if self.num_channels == 1:
            return self.controllers[0].thread_stats
        per_channel = [controller.thread_stats for controller in self.controllers]
        return [
            ThreadMemStats.merged([stats[thread] for stats in per_channel])
            for thread in range(self.controllers[0].num_threads)
        ]

    def aggregate_counts(self) -> CommandCounts:
        if self.num_channels == 1:
            return self.devices[0].counts
        total = CommandCounts()
        for device in self.devices:
            merge_fields(total, device.counts)
        return total

    def aggregate_active_time(self) -> list[float]:
        """Rank-level active-time integrals, channel-major."""
        out: list[float] = []
        for device in self.devices:
            out.extend(device.active_time)
        return out

    def aggregate_bitflips(self) -> list:
        """All recorded bit-flips, time-ordered across channels."""
        if self.num_channels == 1:
            return list(self.devices[0].bitflips)
        flips = [flip for device in self.devices for flip in device.bitflips]
        flips.sort(key=lambda flip: flip.time_ns)
        return flips

    def total_refreshes(self) -> int:
        return sum(
            sum(controller.refresh.refreshes_issued)
            for controller in self.controllers
        )

    def total_victim_refreshes(self) -> int:
        return sum(controller.vref_count for controller in self.controllers)

    def total_commands_issued(self) -> int:
        return sum(controller.commands_issued for controller in self.controllers)

    # ------------------------------------------------------------------
    # OS-facing telemetry (sampled by the governor, repro.os).
    # ------------------------------------------------------------------
    def mechanism_telemetry(self) -> list[MechanismTelemetry]:
        """One per-channel mechanism telemetry snapshot per channel
        (duck-typed: mechanisms without RHLI report ``None``)."""
        return [mechanism.os_telemetry() for mechanism in self.mitigations]

    def os_telemetry(self, now: float, epoch: int = 0):
        """The cross-channel :class:`~repro.os.telemetry.TelemetrySample`
        an OS governor reviews: per-thread RHLI maxed over channels with
        the per-channel split preserved, controller-side blocked
        injections and accepted-request counts summed over channels,
        and the mechanism event counters summed."""
        from repro.os.telemetry import sample_telemetry

        return sample_telemetry(
            self.mitigations,
            self.controllers[0].num_threads,
            now,
            epoch,
            thread_stats=self.merged_thread_stats(),
        )

    def channel_results(self) -> list[ChannelResult]:
        """One per-channel statistics row per channel."""
        rows = []
        for channel, (controller, device) in enumerate(
            zip(self.controllers, self.devices)
        ):
            rows.append(
                ChannelResult(
                    channel=channel,
                    counts=replace(device.counts),
                    active_time_ns=list(device.active_time),
                    bitflips=len(device.bitflips),
                    refreshes=sum(controller.refresh.refreshes_issued),
                    victim_refreshes=controller.vref_count,
                    commands_issued=controller.commands_issued,
                    refresh_phase_ns=controller.refresh.phase_offset_ns,
                    blocked_injections=sum(
                        stats.blocked_injections for stats in controller.thread_stats
                    ),
                )
            )
        return rows
