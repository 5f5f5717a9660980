"""The controller-side mitigation interface.

Every RowHammer mitigation mechanism in this repository implements
:class:`MitigationMechanism`.  The memory controller interacts with a
mechanism through five hooks:

* :meth:`~MitigationMechanism.act_allowed_at` — proactive throttling:
  the earliest time an ACT to (rank, bank, row) may issue.  Most
  mechanisms always answer "now"; BlockHammer's RowBlocker delays
  blacklisted, recently-activated rows (Section 3.1).
* :meth:`~MitigationMechanism.on_activate` — observation: called when an
  ACT actually issues, with the issuing thread.
* :meth:`~MitigationMechanism.drain_victim_refreshes` — reactive refresh:
  victim rows the controller must refresh (PARA, PRoHIT, MRLoc, CBT,
  TWiCe, Graphene).  Requires the adjacency oracle, i.e. knowledge of the
  in-DRAM row mapping (Section 2.3) — which is the compatibility
  challenge BlockHammer avoids.
* :meth:`~MitigationMechanism.max_inflight` — source throttling quota per
  <thread, bank> (AttackThrottler, Section 3.2.2).
* :meth:`~MitigationMechanism.advance_to` — the one time hook: advance
  time-driven state (epoch rotations, window resets, periodic
  refreshes) and report when it next changes by time alone.

Mechanisms receive a :class:`MitigationContext` at attach time with the
DRAM spec, thread count, a deterministic RNG, and the adjacency oracle.

Mechanisms additionally expose read-only **OS telemetry**
(:meth:`MitigationMechanism.os_telemetry`): the per-thread signals an
operating-system governor (:mod:`repro.os`) samples each scheduling
epoch — RHLI where the mechanism tracks it (Section 3.2.3), plus
blacklist/delay event counters.  The base implementation duck-types on
the attributes a mechanism actually has (mirroring the harness's
``channel_attribution`` extractor), so reactive baselines degrade
gracefully to "no signal" instead of every mechanism having to opt in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.dram.spec import DramSpec
from repro.utils.rng import DeterministicRng

_FOREVER = float("inf")

# (rank, bank, logical_row) to refresh.
VictimRefresh = tuple[int, int, int]

# adjacency(rank, bank, logical_row, distance) -> logical victim rows.
AdjacencyOracle = Callable[[int, int, int, int], list[int]]


@dataclass
class MitigationContext:
    """Everything a mechanism may legitimately know at design time."""

    spec: DramSpec
    num_threads: int
    rng: DeterministicRng
    adjacency: AdjacencyOracle
    # Readily-available chip characterization (Section 9, property 2):
    # the RowHammer threshold, blast radius and impact factors come from
    # public characterization studies, not proprietary documentation.
    nrh: int = 32768
    blast_radius: int = 1
    blast_decay: float = 0.5
    #: The memory channel this mechanism instance protects.  BlockHammer
    #: is deployed per channel (Section 3); the MemorySystem builds one
    #: mechanism instance per channel and never shares state across them.
    channel: int = 0


@dataclass
class MechanismTelemetry:
    """One mechanism instance's OS-facing telemetry snapshot.

    ``thread_rhli`` is ``None`` for mechanisms without RHLI tracking
    (every baseline except the BlockHammer family); the event counters
    are zero where the mechanism has no corresponding hardware.  An OS
    governor aggregates snapshots across channels with the standing
    contract: counters sum, RHLI maxes.
    """

    #: Per-thread maximum RHLI on this instance (None = not tracked).
    thread_rhli: list[float] | None
    #: AttackThrottler events: ACTs to blacklisted rows.
    blacklisted_acts: int = 0
    #: RowBlocker delay counters (zero without delay statistics).
    total_acts: int = 0
    delayed_acts: int = 0
    false_positive_acts: int = 0


class MitigationMechanism:
    """Base class; the default implementation never interferes."""

    name = "base"
    #: Section 9 qualitative properties (Table 6), overridden per class.
    comprehensive_protection = False
    commodity_compatible = False
    scales_with_vulnerability = False
    deterministic_protection = False
    #: Trace probe (``mitigation`` category), bound via
    #: :meth:`bind_probe` when a telemetry bus is attached; stays None
    #: (class attribute, zero per-instance cost) otherwise.  Emission
    #: sites live only on rare branches (neighbor refreshes, blacklist
    #: hits, epoch rotations), never in per-ACT bookkeeping.
    probe = None
    #: Perfetto track for emitted events (the channel this instance
    #: protects); stamped in :meth:`bind_probe`.
    obs_track = 0

    def __init__(self) -> None:
        self.context: MitigationContext | None = None
        self._pending_vrefs: list[VictimRefresh] = []
        # Mechanisms that inherit the base act_allowed_at can never
        # block an ACT, so every scheduler verdict for them is stable
        # forever: the incremental FR-FCFS policy checks this flag once
        # per step and caches bank decisions until the bank is dirtied.
        self.never_blocks = type(self).act_allowed_at is MitigationMechanism.act_allowed_at

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def attach(self, context: MitigationContext) -> None:
        """Bind the mechanism to a system; called once before simulation."""
        self.context = context

    def bind_probe(self, probe) -> None:
        """Attach a trace probe (called by the System when a telemetry
        bus is live).  Subclasses with traced internal components
        override this to forward the probe (e.g. BlockHammer's
        RowBlocker emits the D-CBF rotation events itself)."""
        self.probe = probe
        if self.context is not None:
            self.obs_track = self.context.channel

    def advance_to(self, now: float) -> float:
        """Advance time-driven state to ``now`` and return the
        **quiescence horizon**: the next instant at which this
        mechanism's state can change through the passage of time alone
        (epoch/CBF rotation, window rollover, periodic victim-refresh
        emission, a coupled governor's review deadline).

        The contract: until the returned time, calling this hook again
        is a no-op — verdicts, quotas and victim-refresh queues can only
        change through commands the controller itself issues (which it
        observes via :meth:`on_activate`).  The controller therefore
        skips the call entirely while leaping batches of scheduling
        steps, and re-invokes it at the first step at or past the
        horizon.  Horizons may be conservative (early) but never late.

        The default has no time-driven state and returns +inf.
        Subclasses with periodic state override this to report their
        next deadline; one that wants a call on every scheduling step
        returns -inf.
        """
        return _FOREVER

    # ------------------------------------------------------------------
    # Proactive throttling.
    # ------------------------------------------------------------------
    #: Horizon until which :meth:`act_allowed_at` verdicts are *stable*.
    #: This is the scheduler's epoch hook: before the returned time,
    #:
    #: * a "blocked until T" answer cannot move earlier — no event other
    #:   than the passage of time can make the row safe before T, and
    #: * a "safe" answer stays safe, except through an ACT issued to the
    #:   same (rank, bank) — which the controller reports by dirtying
    #:   that bank's cached scheduling state.
    #:
    #: The scheduler caches blocked verdicts on the request until
    #: ``min(allowed, act_block_stable)`` and whole-bank decisions (the
    #: incremental FR-FCFS candidate cache) until the same horizon.  The
    #: default (-inf) disables caching — every scheduling step
    #: re-queries, exactly like a naive scan.  Mechanisms with
    #: epoch-style state (BlockHammer's CBF rotation, see
    #: ``RowBlocker.next_rotate``) override this with their next
    #: state-change deadline; mechanisms that can never block at all are
    #: detected via ``never_blocks`` and treated as stable forever.
    act_block_stable: float = float("-inf")

    def act_allowed_at(self, rank: int, bank: int, row: int, thread: int, now: float) -> float:
        """Earliest time an ACT to (rank, bank, row) may issue (>= now)."""
        return now

    # ------------------------------------------------------------------
    # Observation.
    # ------------------------------------------------------------------
    def on_activate(self, rank: int, bank: int, row: int, thread: int, now: float) -> None:
        """Called when an ACT issues."""

    # ------------------------------------------------------------------
    # Reactive refresh.
    # ------------------------------------------------------------------
    def queue_victim_refresh(self, rank: int, bank: int, row: int) -> None:
        """Internal helper: schedule a victim-row refresh."""
        self._pending_vrefs.append((rank, bank, row))

    def drain_victim_refreshes(self) -> list[VictimRefresh]:
        """Return and clear the pending victim-refresh list."""
        if not self._pending_vrefs:
            return []
        # Copy-and-clear rather than swap: the controller's batched hot
        # loop holds a direct reference to this list, so the object must
        # stay stable for the mechanism's lifetime.
        out = list(self._pending_vrefs)
        self._pending_vrefs.clear()
        return out

    # ------------------------------------------------------------------
    # Source throttling.
    # ------------------------------------------------------------------
    def max_inflight(self, thread: int, rank: int, bank: int) -> int | None:
        """In-flight request quota for <thread, bank>; None = unlimited."""
        return None

    def max_inflight_total(self, thread: int) -> int | None:
        """Quota on the thread's *total* in-flight requests (Section
        3.2: AttackThrottler limits both the per-bank and the total
        in-flight count); None = unlimited."""
        return None

    # ------------------------------------------------------------------
    # Refresh-rate adjustment (IncreasedRefreshRate overrides this).
    # ------------------------------------------------------------------
    def refresh_interval_scale(self) -> float:
        """Multiplier on tREFI (1.0 = standard refresh rate)."""
        return 1.0

    # ------------------------------------------------------------------
    # OS-facing telemetry (Section 3.2.3: the interface BlockHammer can
    # expose to system software; generalized to every mechanism).
    # ------------------------------------------------------------------
    def os_telemetry(self) -> MechanismTelemetry:
        """Snapshot this instance's OS-facing signals.

        Duck-typed on what the mechanism actually tracks —
        ``thread_max_rhli`` (RHLI), ``throttler`` (blacklist events),
        ``delay_stats`` (RowBlocker delay counters) — so mechanisms
        without those report ``None``/zero rather than raising.  Counters
        are cumulative over the run; RHLI reflects the epoch of the
        latest :meth:`advance_to`.
        """
        rhli = None
        if hasattr(self, "thread_max_rhli"):
            rhli = [
                self.thread_max_rhli(thread)
                for thread in range(self.context.num_threads)
            ]
        throttler = getattr(self, "throttler", None)
        stats = self.delay_stats() if hasattr(self, "delay_stats") else None
        return MechanismTelemetry(
            thread_rhli=rhli,
            blacklisted_acts=getattr(throttler, "blacklisted_acts_total", 0),
            total_acts=stats.total_acts if stats is not None else 0,
            delayed_acts=stats.delayed_acts if stats is not None else 0,
            false_positive_acts=(
                stats.false_positive_acts if stats is not None else 0
            ),
        )


class NoMitigation(MitigationMechanism):
    """The unprotected baseline system (paper's normalization target)."""

    name = "none"
    commodity_compatible = True
