"""Telemetry sampling: what an OS governor sees each epoch.

A :class:`TelemetrySample` is a point-in-time view of the signals the
memory system exposes upward, aggregated across channels under the
standing contract (counters sum, RHLI maxes — the same rule the
harness's ``channel_attribution`` extractor asserts):

* per-thread rows (:class:`ThreadTelemetry`): maximum RHLI across
  channels plus the per-channel split, controller-side blocked
  injections (throttle events), and accepted request counts;
* sample-wide mechanism counters: blacklisted ACTs and RowBlocker
  delay events, summed over the per-channel mechanism instances.

Mechanisms without RHLI tracking report ``None``
(:meth:`~repro.mitigations.base.MitigationMechanism.os_telemetry`
duck-types), and :attr:`ThreadTelemetry.suspect_score` then falls back
to the thread's *quota-rejection* fraction — injections the mitigation
itself refused.  Plain queue-full backpressure is deliberately
excluded: it hits benign threads on any busy system and must never
read as attack suspicion, so mechanisms that neither track RHLI nor
enforce quotas (the reactive baselines) score every thread 0 and the
governor never fires above them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mitigations.base import MechanismTelemetry


@dataclass
class ThreadTelemetry:
    """One thread's OS-facing signals, aggregated across channels."""

    thread: int
    #: Maximum RHLI over channels (None = no channel tracks RHLI).
    rhli: float | None
    #: Per-channel RHLI split (None entries for untracked channels).
    rhli_per_channel: list[float | None] = field(default_factory=list)
    #: Requests the controllers refused at injection time (queue-full
    #: plus mitigation quotas), summed over channels.
    blocked_injections: int = 0
    #: The quota-rejected subset of ``blocked_injections`` (mitigation
    #: throttling only, never queue capacity), summed over channels.
    quota_blocked: int = 0
    #: Requests the controllers accepted (reads + writes), summed.
    requests: int = 0

    @property
    def suspect_score(self) -> float:
        """The policy-facing "how suspicious is this thread" scalar.

        RHLI where tracked (benign threads sit at 0, attackers race
        toward 1 — Section 3.2.1); otherwise the thread's *quota*-
        rejection fraction, the throttle-pressure signal a quota-
        enforcing mechanism produces.  Queue-full backpressure is
        excluded — it is load, not suspicion — so mechanisms with
        neither RHLI nor quotas score every thread 0 and the governor
        never acts above them.
        """
        if self.rhli is not None:
            return self.rhli
        denominator = self.requests + self.quota_blocked
        if denominator == 0:
            return 0.0
        return self.quota_blocked / denominator


@dataclass
class TelemetrySample:
    """Everything the governor's policies see at one review epoch."""

    now: float
    epoch: int
    num_channels: int
    threads: list[ThreadTelemetry]
    #: Mechanism-side event counters, summed over channels (cumulative
    #: over the run, like the hardware counters they model).
    blacklisted_acts: int = 0
    total_acts: int = 0
    delayed_acts: int = 0


def sample_telemetry(
    mechanisms,
    num_threads: int,
    now: float,
    epoch: int,
    thread_stats,
) -> TelemetrySample:
    """Build a :class:`TelemetrySample` from per-channel mechanism
    instances plus per-thread controller statistics.

    ``mechanisms`` is one instance per channel; ``thread_stats`` is the
    cross-channel :class:`~repro.mem.controller.ThreadMemStats` list
    (``MemorySystem.merged_thread_stats``).
    """
    snapshots: list[MechanismTelemetry] = [
        mechanism.os_telemetry() for mechanism in mechanisms
    ]
    threads: list[ThreadTelemetry] = []
    for thread in range(num_threads):
        per_channel = [
            snap.thread_rhli[thread] if snap.thread_rhli is not None else None
            for snap in snapshots
        ]
        tracked = [value for value in per_channel if value is not None]
        stats = thread_stats[thread]
        threads.append(
            ThreadTelemetry(
                thread=thread,
                rhli=max(tracked) if tracked else None,
                rhli_per_channel=per_channel,
                blocked_injections=stats.blocked_injections,
                quota_blocked=stats.quota_blocked_injections,
                requests=stats.reads + stats.writes,
            )
        )
    return TelemetrySample(
        now=now,
        epoch=epoch,
        num_channels=len(snapshots),
        threads=threads,
        blacklisted_acts=sum(snap.blacklisted_acts for snap in snapshots),
        total_acts=sum(snap.total_acts for snap in snapshots),
        delayed_acts=sum(snap.delayed_acts for snap in snapshots),
    )
