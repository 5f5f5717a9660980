"""The memory controller (Table 5 configuration).

The controller owns the read/write request queues, the FR-FCFS
scheduler, the refresh manager, and the attached RowHammer mitigation
mechanism.  It is driven by the simulation engine through :meth:`step`,
which issues at most one DRAM command per invocation (modeling the
one-command-per-cycle command bus) and reports when it next needs
attention, enabling event-driven simulation without per-cycle ticking.

Priority order within a step:

1. overdue auto-refresh (precharge-all then REF),
2. victim refreshes queued by reactive mitigation mechanisms,
3. normal requests via the scheduling policy (reads first, writes when
   draining or when no reads are pending).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.utils.aggregate import merge_fields

from repro.dram.address import bank_key
from repro.dram.commands import Command, CommandKind
from repro.dram.device import DramDevice
from repro.dram.spec import DramSpec
from repro.mem.queues import RequestQueue
from repro.mem.refresh import RefreshManager
from repro.mem.request import Request
from repro.mem.scheduler import FrFcfsPolicy, SchedulingPolicy
from repro.mitigations.base import MitigationMechanism, NoMitigation
from repro.utils.validation import require

_NEVER = 1.0e30
_NO_RANKS: frozenset[int] = frozenset()


def _peek_nothing() -> None:
    """``peek()`` stand-in for single-step entry points (no events)."""
    return None


@dataclass(frozen=True)
class ControllerConfig:
    """Controller sizing and policy knobs (defaults follow Table 5)."""

    read_queue_depth: int = 64
    write_queue_depth: int = 64
    write_drain_high: int = 48
    write_drain_low: int = 16

    def __post_init__(self) -> None:
        require(0 < self.write_drain_low <= self.write_drain_high, "bad drain marks")
        require(self.write_drain_high <= self.write_queue_depth, "bad drain marks")


@dataclass
class ThreadMemStats:
    """Per-thread memory-system statistics."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    activations: int = 0
    read_latency_sum: float = 0.0
    read_latency_count: int = 0
    blocked_injections: int = 0
    #: The subset of ``blocked_injections`` rejected by the mitigation's
    #: in-flight quotas (AttackThrottler) rather than by queue capacity.
    #: This is the throttle-pressure signal OS telemetry keys on: plain
    #: queue-full backpressure hits benign threads too and must never
    #: read as attack suspicion.
    quota_blocked_injections: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def avg_read_latency(self) -> float:
        if self.read_latency_count == 0:
            return 0.0
        return self.read_latency_sum / self.read_latency_count

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0

    @classmethod
    def merged(cls, parts: "list[ThreadMemStats]") -> "ThreadMemStats":
        """Sum per-channel statistics into one aggregate (the
        average-latency property recomputes from the merged sums)."""
        out = cls()
        for part in parts:
            merge_fields(out, part)
        return out


class MemoryController:
    """One channel's memory controller."""

    #: Trace probe (``mem`` category), bound by the System when a
    #: telemetry bus is attached.  Emission sites live only on rare
    #: branches (quota rejections, REF/VREF issue, selects during
    #: refresh-drain windows), so the disabled path costs nothing.
    probe = None

    def __init__(
        self,
        spec: DramSpec,
        device: DramDevice,
        mitigation: MitigationMechanism | None = None,
        policy: SchedulingPolicy | None = None,
        config: ControllerConfig | None = None,
        num_threads: int = 1,
        channel_id: int = 0,
        refresh_phase_ns: float = 0.0,
    ) -> None:
        self.spec = spec
        self.channel_id = channel_id
        self.device = device
        self.mitigation = mitigation or NoMitigation()
        self.policy = policy or FrFcfsPolicy()
        self.config = config or ControllerConfig()
        self.read_queue = RequestQueue(self.config.read_queue_depth)
        self.write_queue = RequestQueue(self.config.write_queue_depth)
        # Direct bindings to the queues' backing lists (never
        # reassigned): the drain-mode checks run every scheduling step
        # and a C-level len() beats a method call there.
        self._read_items = self.read_queue.items
        self._write_items = self.write_queue.items
        self.refresh = RefreshManager(
            spec, self.mitigation.refresh_interval_scale(), refresh_phase_ns
        )
        self.num_threads = num_threads
        self.thread_stats = [ThreadMemStats() for _ in range(num_threads)]
        self.on_request_complete = None  # set by the System
        self._write_draining = False
        # The mitigation's quiescence horizon (see ``advance_to``):
        # persisted across batches because mechanism deadlines only ever
        # move forward, so a stored horizon can be conservative (early)
        # but never late.  Starts at -inf: the first step advances
        # unconditionally.
        self._mitig_horizon = -_NEVER
        # Pending victim refreshes, FIFO per bank: one queue per bank
        # keeps each scheduling step O(banks) while letting every idle
        # bank service refreshes in parallel (mechanisms like CBT can
        # queue hundreds at once).
        self._vrefs: dict[tuple[int, int], deque[int]] = {}
        self._pending_vref_count = 0
        # Per <thread, bank> in-flight counters keyed by the packed int
        # ``(thread << 16) | Request.bank_key`` — admission and
        # completion run once per request, and an int key avoids a
        # tuple allocation + hash on each of those lookups.
        self._inflight: dict[int, int] = {}
        self._inflight_per_thread: dict[int, int] = {}
        # Completion-latency floats resolved once; added left-to-right
        # in _complete_request exactly as ``now + tCL + tBL`` was (a
        # pre-summed constant would round differently).
        self._tCL = spec.tCL
        self._tCWL = spec.tCWL
        self._tBL = spec.tBL
        self.vref_count = 0
        self.commands_issued = 0
        self.total_enqueued = 0
        # One bound selector per queue, ``select(now, blocked_ranks) ->
        # (command, request, next_ready)``: the policy's fused closure
        # with the queue, device and mitigation prebound.
        policy, device, mitigation = self.policy, self.device, self.mitigation
        self._select_read = policy.make_fused(self.read_queue, device, mitigation)
        self._select_write = policy.make_fused(self.write_queue, device, mitigation)
        # Bound invalidation endpoints: _invalidate_bank calls them, and
        # the per-command hot path (_issue_for_request) inlines them.
        self._rq_cache_pop = self.read_queue.bank_cache.pop
        self._wq_cache_pop = self.write_queue.bank_cache.pop

    # ------------------------------------------------------------------
    # Request injection (called by cores / the System).
    # ------------------------------------------------------------------
    def _admission(self, request: Request) -> str | None:
        """``None`` to accept, else the rejection reason: ``"queue"``
        (capacity backpressure) or ``"quota"`` (mitigation throttling —
        counted separately for OS telemetry)."""
        queue = self.write_queue if request.is_write else self.read_queue
        if queue.full:
            return "queue"
        total_quota = self.mitigation.max_inflight_total(request.thread)
        if total_quota is not None and (
            self._inflight_per_thread.get(request.thread, 0) >= total_quota
        ):
            return "quota"
        quota = self.mitigation.max_inflight(
            request.thread, request.address.rank, request.address.bank
        )
        if quota is None:
            return None
        key = (request.thread << 16) | request.bank_key
        if self._inflight.get(key, 0) < quota:
            return None
        return "quota"

    def enqueue(self, request: Request, now: float) -> bool:
        """Insert a request; returns False (and counts it) if rejected."""
        reason = self._admission(request)
        if reason is not None:
            stats = self.thread_stats[request.thread]
            stats.blocked_injections += 1
            if reason == "quota":
                stats.quota_blocked_injections += 1
                if self.probe is not None:
                    self.probe(
                        now,
                        "throttle_block",
                        self.channel_id,
                        thread=request.thread,
                        rank=request.address.rank,
                        bank=request.address.bank,
                    )
            return False
        queue = self.write_queue if request.is_write else self.read_queue
        queue.push(request)
        self.total_enqueued += 1
        key = (request.thread << 16) | request.bank_key
        self._inflight[key] = self._inflight.get(key, 0) + 1
        self._inflight_per_thread[request.thread] = (
            self._inflight_per_thread.get(request.thread, 0) + 1
        )
        stats = self.thread_stats[request.thread]
        if request.is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        self._classify(request, stats)
        return True

    def _classify(self, request: Request, stats: ThreadMemStats) -> None:
        """Record the row-buffer outcome against arrival-time bank state.

        Arrival-time classification measures the access stream's row
        locality (the RBCPKI of Table 8) independently of scheduling
        reorderings, which can split one physical PRE+ACT pair across
        two requests.
        """
        bank = self.device.flat_banks[request.bank_key]
        if bank.open_row == request.address.row:
            stats.row_hits += 1
        elif bank.open_row is None:
            stats.row_misses += 1
        else:
            stats.row_conflicts += 1

    # ------------------------------------------------------------------
    # Dirty-bank tracking for the incremental scheduler.
    # ------------------------------------------------------------------
    def _invalidate_bank(self, rank_id: int, bank_id: int) -> None:
        """A command changed (rank, bank)'s row-buffer or verdict state:
        drop both queues' cached scheduling decisions for it.

        Called for **every** command the controller addresses to a bank
        (ACT/PRE/RD/WR/VREF; REF dirties the whole rank): cached
        entries snapshot the bank's local timing (next ACT/PRE/column
        instants) at examination time, so any command that moves those
        — a column command shifts the bank's next-PRE and opposite-kind
        column timing too — must void both queues' entries for the
        bank.  Queue arrivals/departures additionally invalidate in
        ``RequestQueue.push``/``remove``; time-driven verdict expiry is
        handled by the cache entries' own expiry instants.  Rank-level
        ACT spacing (tRRD/tFAW) and data-bus occupancy are deliberately
        *not* part of any entry — the scheduler reads those shared
        scalars live each step.
        """
        key = bank_key(rank_id, bank_id)
        self._rq_cache_pop(key, None)
        self._wq_cache_pop(key, None)

    def _invalidate_rank(self, rank_id: int) -> None:
        """Rank-wide command (REF): every bank's timing state moved."""
        self.read_queue.invalidate_rank(rank_id)
        self.write_queue.invalidate_rank(rank_id)

    # ------------------------------------------------------------------
    # Main scheduling step(s).
    # ------------------------------------------------------------------
    def step(self, now: float) -> float:
        """Issue at most one command at ``now``.

        Returns the next time the controller needs attention (``_NEVER``
        when it is completely idle, in which case the System wakes it on
        the next arrival).  One iteration of :meth:`run_until`; the
        event loop uses the batched form, this single-step entry point
        serves tests and tick-by-tick oracles.
        """
        _, wake = self.run_until(now, _peek_nothing, now)
        return wake

    def run_until(self, now: float, peek, hard_limit: float) -> tuple[int, float]:
        """Run scheduling steps starting at ``now``, leaping local time
        from each step directly to the next, until the next step would
        land at or past the next pending global event (``peek()``) or
        beyond ``hard_limit`` (the warmup/deadline boundary, across
        which the event loop must regain control).

        Returns ``(steps, wake)``: how many scheduling steps executed
        and the controller's next wake time (``_NEVER`` when idle).
        The step *times* are exactly the wake times the event loop
        would have delivered one-by-one — after a command issues the
        next step runs one tCK later; an idle step leaps to the folded
        quiescence horizon (refresh deadline, victim-refresh readiness,
        ``Selection.next_ready``, mitigation ``advance_to`` horizon) —
        so command streams are bit-identical to single-stepping and
        only the event-queue round trips disappear.
        """
        mitigation = self.mitigation
        refresh = self.refresh
        vrefs = self._vrefs
        tCK = self.spec.tCK
        num_ranks = self.spec.ranks
        config = self.config
        drain_high = config.write_drain_high
        drain_low = config.write_drain_low
        read_items = self._read_items
        write_items = self._write_items
        select_read = self._select_read
        select_write = self._select_write
        probe = self.probe
        issue_for = self._issue_for_request
        advance_to = mitigation.advance_to
        pv = mitigation.pending_vrefs
        draining = self._write_draining
        horizon = self._mitig_horizon
        t = now
        steps = 0
        while True:
            steps += 1
            if t >= horizon:
                horizon = advance_to(t)
            # Victim refreshes accumulate from on_activate (reactive
            # mechanisms) as well as advance_to (PRoHIT's periodic
            # ticks), so the hand-off runs every step, not only at
            # horizon crossings.
            if pv:
                for rank_id, bank_id, row in pv:
                    key = (rank_id, bank_id)
                    queue = vrefs.get(key)
                    if queue is None:
                        vrefs[key] = deque((row,))
                    else:
                        queue.append(row)
                self._pending_vref_count += len(pv)
                pv.clear()

            # A future REF deadline is a wake source; an already-pending
            # one is handled by the refresh steps below (whose own
            # bank-timing estimates provide the wake time).  The common
            # case is no rank overdue, decided by the earliest deadline.
            due = refresh.earliest
            issued = False
            if due > t:
                wake = due
                blocked_ranks = _NO_RANKS
            else:
                wake = _NEVER
                blocked_ranks = frozenset(
                    r for r in range(num_ranks) if refresh.pending(r, t)
                )
                # 1. Auto-refresh steps for overdue ranks.
                for rank_id in blocked_ranks:
                    done, w = self._refresh_step(rank_id, t)
                    if done:
                        issued = True
                        break
                    if w < wake:
                        wake = w

            # 2. Victim refreshes from reactive mechanisms.
            if not issued and self._pending_vref_count:
                done, w = self._vref_step(t, blocked_ranks)
                if done:
                    issued = True
                elif w < wake:
                    wake = w

            # 3. Normal requests.  Writes are served in batches: forced
            # drain above the high watermark, opportunistic drain when
            # reads are idle and a batch has accumulated.  Outside those
            # windows, writes never issue row commands — a lone write's
            # precharge would ping-pong open rows underneath the read
            # stream.
            if not issued:
                writes_pending = len(write_items)
                if writes_pending >= drain_high:
                    draining = True
                elif writes_pending <= drain_low:
                    draining = False
                # Each select inside a refresh-drain window is traced as
                # ``sched_full_scan`` on this channel's track.
                if draining or (not read_items and writes_pending >= drain_low):
                    if probe is not None and blocked_ranks:
                        self._trace_drain_select(t, blocked_ranks)
                    cmd, req, ready = select_write(t, blocked_ranks)
                    if cmd is None:
                        if probe is not None and blocked_ranks:
                            self._trace_drain_select(t, blocked_ranks)
                        cmd, req, ready2 = select_read(t, blocked_ranks)
                        if ready2 < ready:
                            ready = ready2
                else:
                    if probe is not None and blocked_ranks:
                        self._trace_drain_select(t, blocked_ranks)
                    cmd, req, ready = select_read(t, blocked_ranks)
                if cmd is not None:
                    issue_for(cmd, req, t)
                    issued = True
                elif ready < wake:
                    wake = ready

            if issued:
                wake = t + tCK

            # Batch continuation: the next step happens at ``wake``
            # unless the event loop must regain control first — idle
            # channel, warmup/deadline crossing, or a pending global
            # event at or before the wake (same-instant events carry
            # smaller sequence numbers and must drain first).
            if wake >= _NEVER or wake > hard_limit:
                break
            if wake <= t:
                # Defensive: a non-advancing wake re-fires through the
                # event loop after same-instant peers, like the legacy
                # single-step path did.
                wake = t
                break
            limit = peek()
            if limit is not None and wake >= limit:
                break
            t = wake
        self._write_draining = draining
        self._mitig_horizon = horizon
        return steps, wake

    def busy(self) -> bool:
        """True while any request or victim refresh is pending."""
        return bool(
            len(self.read_queue) or len(self.write_queue) or self._pending_vref_count
        )

    # ------------------------------------------------------------------
    # Refresh handling.
    # ------------------------------------------------------------------
    def _refresh_step(self, rank_id: int, now: float) -> tuple[bool, float]:
        """Advance one overdue rank toward its REF.

        Returns (issued_a_command, next_interesting_time).
        """
        rank = self.device.ranks[rank_id]
        if rank.all_banks_precharged():
            ready = max(
                bank.earliest(CommandKind.REF) for bank in rank.banks
            )
            if ready <= now:
                self.device.issue(Command(CommandKind.REF, rank_id, 0), now)
                self.refresh.on_ref_issued(rank_id, now)
                if self.probe is not None:
                    self.probe(now, "ref", self.channel_id, rank=rank_id)
                self.commands_issued += 1
                self._invalidate_rank(rank_id)
                return True, now
            return False, ready
        # Precharge open banks, earliest-ready first.
        best_t = _NEVER
        for bank in rank.banks:
            if bank.open_row is None:
                continue
            t = bank.earliest(CommandKind.PRE)
            if t <= now:
                self.device.issue(
                    Command(CommandKind.PRE, rank_id, bank.bank_id, bank.open_row), now
                )
                self.commands_issued += 1
                self._invalidate_bank(rank_id, bank.bank_id)
                return True, now
            best_t = min(best_t, t)
        return False, best_t

    # ------------------------------------------------------------------
    # Victim-refresh handling.
    # ------------------------------------------------------------------
    def _vref_step(self, now: float, blocked_ranks: frozenset[int]) -> tuple[bool, float]:
        """Service the victim-refresh queues (FIFO per bank)."""
        best_t = _NEVER
        for (rank_id, bank_id), queue in self._vrefs.items():
            if not queue or rank_id in blocked_ranks:
                continue
            bank = self.device.bank(rank_id, bank_id)
            if bank.open_row is not None:
                cmd = Command(CommandKind.PRE, rank_id, bank_id, bank.open_row)
            else:
                cmd = Command(CommandKind.VREF, rank_id, bank_id, queue[0])
            t = self.device.earliest_issue(cmd, now)
            if t <= now:
                self.device.issue(cmd, now)
                self.commands_issued += 1
                self._invalidate_bank(rank_id, bank_id)
                if cmd.kind is CommandKind.VREF:
                    queue.popleft()
                    if not queue:
                        # Prune drained banks so later steps do not
                        # rescan them (safe: we return immediately).
                        del self._vrefs[(rank_id, bank_id)]
                    self._pending_vref_count -= 1
                    self.vref_count += 1
                    if self.probe is not None:
                        self.probe(
                            now,
                            "vref",
                            self.channel_id,
                            rank=rank_id,
                            bank=bank_id,
                            row=cmd.row,
                        )
                return True, now
            if t < best_t:
                best_t = t
        return False, best_t

    # ------------------------------------------------------------------
    # Normal request handling.
    # ------------------------------------------------------------------
    def _trace_drain_select(self, now: float, blocked_ranks: frozenset[int]) -> None:
        """Emit ``sched_full_scan`` for one select made while some rank
        is refresh-draining."""
        self.probe(
            now, "sched_full_scan", self.channel_id, blocked_ranks=len(blocked_ranks)
        )

    def _issue_for_request(self, cmd: Command, request: Request, now: float) -> None:
        """Commit a policy-selected command and update request state."""
        self.device.issue(cmd, now)
        self.commands_issued += 1

        kind = cmd.kind
        if kind is CommandKind.ACT:
            self.thread_stats[request.thread].activations += 1
            self.mitigation.on_activate(
                cmd.rank, cmd.bank, cmd.row, request.thread, now
            )
        elif kind is not CommandKind.PRE:
            self._complete_request(request, cmd, now)
        # The row-buffer state moved (and for ACT the mitigation
        # observed it) — both queues' cached decisions for this bank
        # are void.  Inlined _invalidate_bank: the command always
        # targets the request's own bank here.
        key = request.bank_key
        self._rq_cache_pop(key, None)
        self._wq_cache_pop(key, None)

    def _complete_request(self, request: Request, cmd: Command, now: float) -> None:
        """Retire a request whose column command just issued."""
        queue = self.write_queue if request.is_write else self.read_queue
        queue.remove(request)
        thread = request.thread
        self._inflight[(thread << 16) | request.bank_key] -= 1
        self._inflight_per_thread[thread] -= 1
        if cmd.kind is CommandKind.RD:
            done = now + self._tCL + self._tBL
            stats = self.thread_stats[thread]
            stats.read_latency_sum += done - request.arrival
            stats.read_latency_count += 1
        else:
            done = now + self._tCWL + self._tBL
        if self.on_request_complete is not None:
            self.on_request_complete(request, done)
