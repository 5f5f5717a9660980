"""Pluggable governor policies: kill, quota-scale, migrate.

Each policy is reviewed once per governor epoch with a fresh
:class:`~repro.os.telemetry.TelemetrySample` and an action sink (the
:class:`~repro.os.governor.Governor` itself).  Policies keep their own
per-thread state (strike counters, quota scales) and act through the
sink only — they never touch cores or mechanisms directly.

All thresholds compare against
:attr:`~repro.os.telemetry.ThreadTelemetry.suspect_score`: RHLI where
the mechanism tracks it (the paper's Section 3.2.3 signal), else the
blocked-injection fraction, else 0 — so a policy above a reactive
baseline simply never fires rather than crashing.
"""

from __future__ import annotations

from repro.os.telemetry import TelemetrySample
from repro.utils.validation import require


class OsPolicy:
    """Base policy: reviewed every governor epoch, acts via the sink."""

    name = "base"

    def review(self, sample: TelemetrySample, actions) -> None:
        """Inspect ``sample`` and apply decisions through ``actions``
        (``kill``/``set_quota_scale``/``migrate`` plus the
        ``is_killed``/``is_migrated`` predicates)."""


class StrikePolicy(OsPolicy):
    """Shared strike bookkeeping: one strike per review epoch while a
    thread's suspect score sits at or above ``threshold``, reset the
    moment it drops, firing :meth:`_fire` after ``patience_epochs``
    consecutive strikes.  Strike entries are dropped (not retained) once
    a thread fires."""

    def __init__(self, threshold: float, patience_epochs: int) -> None:
        require(threshold > 0.0, f"{self.name} threshold must be positive")
        require(patience_epochs >= 1, "patience must be >= 1 epoch")
        self.threshold = threshold
        self.patience_epochs = patience_epochs
        self._strikes: dict[int, int] = {}

    def _skip(self, actions, thread: int) -> bool:
        """Threads this policy no longer reviews."""
        return actions.is_killed(thread)

    def _fire(self, sample: TelemetrySample, actions, thread: int) -> None:
        raise NotImplementedError

    def review(self, sample: TelemetrySample, actions) -> None:
        for row in sample.threads:
            thread = row.thread
            if self._skip(actions, thread):
                continue
            if row.suspect_score >= self.threshold:
                strikes = self._strikes.get(thread, 0) + 1
                if strikes >= self.patience_epochs:
                    # Fired threads carry no stale strike state.
                    self._strikes.pop(thread, None)
                    self._fire(sample, actions, thread)
                else:
                    self._strikes[thread] = strikes
            else:
                self._strikes.pop(thread, None)

    def strikes(self, thread: int) -> int:
        """Current consecutive-suspect-epoch count (0 after firing)."""
        return self._strikes.get(thread, 0)


class KillPolicy(StrikePolicy):
    """Deschedule a thread after ``patience_epochs`` consecutive suspect
    epochs (the paper's "might kill or deschedule an attacking
    thread"): the governor deschedules the thread's core.
    """

    name = "kill"

    def __init__(self, kill_rhli: float = 0.8, patience_epochs: int = 1) -> None:
        super().__init__(kill_rhli, patience_epochs)

    @property
    def kill_rhli(self) -> float:
        return self.threshold

    def _fire(self, sample: TelemetrySample, actions, thread: int) -> None:
        actions.kill(thread)


class QuotaScalePolicy(OsPolicy):
    """BreakHammer-style multiplicative quota decay and recovery.

    While a thread's suspect score is at or above ``suspect_score`` its
    memory-level-parallelism quota scale is multiplied by ``decay``
    (floored at ``min_scale``); once the score drops below the
    threshold the scale recovers by ``recovery`` per epoch (capped at
    1.0).  Between threshold crossings the scale is therefore monotone
    — strictly non-increasing under suspicion, strictly non-decreasing
    during recovery — which the governor invariant tests assert.
    """

    name = "quota"

    def __init__(
        self,
        suspect_score: float = 0.2,
        decay: float = 0.5,
        recovery: float = 2.0,
        min_scale: float = 1.0 / 64.0,
    ) -> None:
        require(suspect_score > 0.0, "suspect threshold must be positive")
        require(0.0 < decay < 1.0, "decay must be in (0, 1)")
        require(recovery > 1.0, "recovery must be > 1")
        require(0.0 < min_scale <= 1.0, "min_scale must be in (0, 1]")
        self.suspect_score = suspect_score
        self.decay = decay
        self.recovery = recovery
        self.min_scale = min_scale
        self._scale: dict[int, float] = {}

    def scale(self, thread: int) -> float:
        """The thread's current quota scale (1.0 = unthrottled)."""
        return self._scale.get(thread, 1.0)

    def review(self, sample: TelemetrySample, actions) -> None:
        for row in sample.threads:
            thread = row.thread
            if actions.is_killed(thread):
                continue
            old = self.scale(thread)
            if row.suspect_score >= self.suspect_score:
                new = max(self.min_scale, old * self.decay)
            else:
                new = min(1.0, old * self.recovery)
            if new != old:
                self._scale[thread] = new
                actions.set_quota_scale(thread, new)


class MigratePolicy(StrikePolicy):
    """Re-pin a persistent suspect's future requests to a quarantine
    channel, confining its interference (and its RHLI accrual) to one
    shard of the channel-sharded memory system.

    ``quarantine_channel`` defaults to the system's last channel; on a
    single-channel system that default is channel 0, so migration is a
    no-op by construction and the policy degrades gracefully rather
    than failing (an *explicit* out-of-range channel is rejected by the
    governor).  A thread migrates at most once.
    """

    name = "migrate"

    def __init__(
        self,
        suspect_score: float = 0.5,
        patience_epochs: int = 1,
        quarantine_channel: int | None = None,
    ) -> None:
        super().__init__(suspect_score, patience_epochs)
        if quarantine_channel is not None:
            require(quarantine_channel >= 0, "quarantine channel must be >= 0")
        self.quarantine_channel = quarantine_channel

    @property
    def suspect_score(self) -> float:
        return self.threshold

    def _skip(self, actions, thread: int) -> bool:
        return actions.is_killed(thread) or actions.is_migrated(thread)

    def _fire(self, sample: TelemetrySample, actions, thread: int) -> None:
        target = (
            self.quarantine_channel
            if self.quarantine_channel is not None
            else sample.num_channels - 1
        )
        actions.migrate(thread, target)
