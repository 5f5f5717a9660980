"""The epoch-driven OS governor.

A :class:`Governor` closes the loop between mitigation telemetry and
scheduling decisions: once per epoch it samples a
:class:`~repro.os.telemetry.TelemetrySample` and hands it to its
policies, which act back through the governor (it is its own action
sink).  :meth:`attach` binds the governor to a
:class:`~repro.sim.system.System`; the event loop drives reviews
(``System._fire_governor``) and actions land on cores: kill
deschedules the thread (zero requests after the kill timestamp),
quota scales the core's memory-level-parallelism limit, migrate
re-pins the core's future requests to a quarantine channel.
Telemetry aggregates across every channel (counters sum, RHLI maxes
— ``MemorySystem.os_telemetry``).

An unattached governor is a plain action sink: it records the actions
its policies take and applies none of them.
"""

from __future__ import annotations

from repro.os.policies import OsPolicy
from repro.os.telemetry import TelemetrySample
from repro.utils.validation import require


class Governor:
    """Epoch-driven policy host and action sink."""

    #: Trace probe (``os`` category), bound by the System when a
    #: telemetry bus is attached; actions and reviews emit through it.
    probe = None

    def __init__(self, policies: list[OsPolicy], epoch_ns: float | None = None) -> None:
        if epoch_ns is not None:
            require(epoch_ns > 0.0, "governor epoch must be positive")
        self.policies = list(policies)
        #: Review cadence; ``None`` defers to the attach-time default
        #: (the channel-0 mechanism's RHLI counter epoch where it has one).
        self.epoch_ns = epoch_ns
        self._next_review: float | None = None
        self._system = None
        self._now = 0.0
        #: Reviews performed so far.
        self.epochs = 0
        #: Threads descheduled by a kill action.
        self.killed: set[int] = set()
        self.kill_log: list[tuple[int, float]] = []
        #: thread -> quarantine channel, for migrated threads.
        self.migrations: dict[int, int] = {}
        self.migration_log: list[tuple[int, int, float]] = []
        #: thread -> current MLP quota scale (threads at 1.0 are absent).
        self.quota_scale: dict[int, float] = {}
        self.quota_updates = 0

    # ------------------------------------------------------------------
    # Binding.
    # ------------------------------------------------------------------
    def attach(self, system) -> None:
        """Bind to a :class:`~repro.sim.system.System`: telemetry spans
        every channel, actions land on cores."""
        self._system = system
        if self.epoch_ns is None:
            self.epoch_ns = self._default_epoch(system)

    def _default_epoch(self, system) -> float:
        """Default review cadence: the channel-0 mechanism's epoch (the
        RHLI counter cadence, per Section 3.2.3 — an OS could poll
        faster at the cost of more scheduler work), else half the
        refresh window (the CBF-lifetime convention)."""
        mechanism = system.memsys.mitigations[0]
        epoch = getattr(getattr(mechanism, "config", None), "epoch_ns", None)
        if epoch is not None:
            return epoch
        return system.memsys.spec.tREFW / 2.0

    # ------------------------------------------------------------------
    # Review cadence.
    # ------------------------------------------------------------------
    def start(self, now: float) -> float:
        """Anchor the review clock: first review one epoch after ``now``."""
        self._next_review = now + self.epoch_ns
        return self._next_review

    def advance(self, now: float) -> float:
        """Perform every review due at or before ``now``; returns the
        next review time.  :meth:`start` must have anchored the clock."""
        while now >= self._next_review:
            self._review(now)
            self._next_review += self.epoch_ns
        return self._next_review

    def _review(self, now: float) -> None:
        self.epochs += 1
        self._now = now
        if self.probe is not None:
            self.probe(now, "review", 0, epoch=self.epochs)
        sample = self.sample(now)
        for policy in self.policies:
            policy.review(sample, self)

    def sample(self, now: float) -> TelemetrySample:
        """The telemetry this governor's policies see at ``now``."""
        return self._system.memsys.os_telemetry(now, self.epochs)

    # ------------------------------------------------------------------
    # The action sink (policies call these).
    # ------------------------------------------------------------------
    def is_killed(self, thread: int) -> bool:
        return thread in self.killed

    def is_migrated(self, thread: int) -> bool:
        return thread in self.migrations

    def kill(self, thread: int) -> None:
        """Deschedule ``thread`` permanently at the current review time."""
        if thread in self.killed:
            return
        self.killed.add(thread)
        self.kill_log.append((thread, self._now))
        if self.probe is not None:
            self.probe(self._now, "kill", 0, thread=thread)
        if self._system is not None:
            self._system.deschedule_thread(thread, self._now)

    def set_quota_scale(self, thread: int, scale: float) -> None:
        """Scale ``thread``'s MLP quota (1.0 = unthrottled)."""
        self.quota_scale[thread] = scale
        self.quota_updates += 1
        if self.probe is not None:
            self.probe(self._now, "quota_scale", 0, thread=thread, scale=scale)
        if self._system is not None:
            self._system.cores[thread].set_mlp_scale(scale)

    def migrate(self, thread: int, channel: int) -> None:
        """Re-pin ``thread``'s future requests to ``channel``."""
        if thread in self.migrations:
            return
        if self._system is not None:
            require(
                0 <= channel < self._system.memsys.num_channels,
                f"quarantine channel {channel} outside the system's "
                f"{self._system.memsys.num_channels} channels",
            )
            self._system.cores[thread].repin_channel(channel)
        self.migrations[thread] = channel
        self.migration_log.append((thread, channel, self._now))
        if self.probe is not None:
            self.probe(self._now, "migrate", 0, thread=thread, channel=channel)

    # ------------------------------------------------------------------
    # Reporting (the ``governor_actions`` extractor; JSON-safe).
    # ------------------------------------------------------------------
    def actions_summary(self) -> dict:
        """Plain-data action record: lists of scalars only, so the
        persistent result cache round-trips it exactly."""
        return {
            "epochs": self.epochs,
            "kills": [[thread, time] for thread, time in self.kill_log],
            "migrations": [
                [thread, channel, time]
                for thread, channel, time in self.migration_log
            ],
            "quota_updates": self.quota_updates,
            "quota_scale": [
                [thread, scale] for thread, scale in sorted(self.quota_scale.items())
            ],
        }
