"""The epoch-driven OS governor.

A :class:`Governor` closes the loop between mitigation telemetry and
scheduling decisions: once per epoch it samples a
:class:`~repro.os.telemetry.TelemetrySample` and hands it to its
policies, which act back through the governor (it is its own action
sink).  Two deployments share this one class:

* **system-level** — :meth:`attach` binds the governor to a
  :class:`~repro.sim.system.System`; the event loop drives reviews
  (``System._fire_governor``) and actions land on cores: kill
  deschedules the thread (zero requests after the kill timestamp),
  quota scales the core's memory-level-parallelism limit, migrate
  re-pins the core's future requests to a quarantine channel.
  Telemetry aggregates across every channel (counters sum, RHLI maxes
  — ``MemorySystem.os_telemetry``).
* **mechanism-coupled** — :meth:`bind_mechanism` embeds the governor in
  one mechanism instance (``BlockHammerWithOsPolicy``), reviews are
  driven from the mechanism's ``advance_to`` hook, and actions are
  *recorded only*: the mechanism enforces kills itself through its
  in-flight quotas, preserving the original per-channel ``blockhammer-
  os`` semantics bit-exactly.

Review cadence is normalized in both modes: the first review happens
one epoch after the governor first observes time (``advance``), not one
epoch after attach — the old OS policy initialized its review clock at
attach time, silently assuming attach happened at t=0.
"""

from __future__ import annotations

from repro.os.policies import OsPolicy
from repro.os.telemetry import TelemetrySample, sample_telemetry
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
        #: (the mechanism's RHLI counter epoch where it has one).
        self.epoch_ns = epoch_ns
        self._next_review: float | None = None
        self._system = None
        self._mechanism = None
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
    # Deployment binding.
    # ------------------------------------------------------------------
    def attach(self, system) -> None:
        """Bind to a :class:`~repro.sim.system.System` (system-level
        mode): telemetry spans every channel, actions land on cores."""
        require(self._mechanism is None, "governor already bound to a mechanism")
        self._system = system
        if self.epoch_ns is None:
            self.epoch_ns = self._default_epoch(system)

    def bind_mechanism(self, mechanism, epoch_ns: float | None = None) -> None:
        """Bind to one mechanism instance (mechanism-coupled mode):
        telemetry comes from that instance alone and actions are
        recorded for the mechanism to enforce.  Only policies whose
        actions a mechanism *can* enforce are accepted — quota/migrate
        act on cores, so logging them here would fabricate an action
        record nothing ever applied."""
        require(self._system is None, "governor already attached to a system")
        for policy in self.policies:
            require(
                not policy.requires_system,
                f"{policy.name} policy acts on cores and needs a "
                "system-level governor, not a mechanism-coupled one",
            )
        self._mechanism = mechanism
        if epoch_ns is not None:
            require(epoch_ns > 0.0, "governor epoch must be positive")
            self.epoch_ns = epoch_ns
        require(self.epoch_ns is not None, "mechanism-coupled governor needs an epoch")

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
        next review time.  Safe to call at any cadence (each controller
        step in mechanism-coupled mode, exact epoch events in
        system-level mode)."""
        if self._next_review is None:
            return self.start(now)
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
        if self._mechanism is not None:
            mechanism = self._mechanism
            return sample_telemetry(
                [mechanism], mechanism.context.num_threads, now, self.epochs
            )
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
