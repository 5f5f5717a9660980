"""Memory request scheduling policies.

:class:`FrFcfsPolicy` implements FR-FCFS (Rixner et al. [122], the
paper's Table 5 policy): ready column commands (row-buffer hits) are
prioritized over row commands, and ties break toward older requests.
On top of the classic policy, ACT commands are gated by the mitigation
mechanism (``act_allowed_at``): a RowHammer-unsafe activation is simply
skipped and younger, safe requests proceed — exactly the "prioritize
RowHammer-safe accesses" behaviour of Section 3.1.

:class:`ReferenceFrFcfsPolicy` is a deliberately naive reimplementation
of the same policy — one arrival-order scan per step, a fresh mitigation
query per considered request, ``device.earliest_issue`` per candidate,
no caching of any kind.  It exists to be *obviously* correct so the
differential harness (``tests/differential.py``) can prove the fast
policy equivalent to it: identical command streams, identical simulated
results.  :class:`FcfsPolicy` (strict arrival order) is an ablation.

This is the simulator's hottest code path.  The fast policy is
**incremental across scheduling steps**: each bank's decision — the
oldest ready row-buffer hit, or the oldest RowHammer-safe request that
decides the bank's row command (ACT on a closed bank, PRE on a conflict
unless a pending hit protects the open row) — is a pure function of the
bank's queue contents, its row-buffer state + local timing, and the
mitigation's verdicts.  None of those change on most steps, so the
decision (with the bank-local timing snapshotted into it) is cached per
bank on the :class:`~repro.mem.queues.RequestQueue` (``bank_cache``)
and one step re-examines only *dirty* banks:

* the queue invalidates a bank's entry on push/remove (arrivals and
  departures change the oldest-hit/decider walk);
* the controller invalidates on every command addressed to a bank
  (ACT/PRE/RD/WR/VREF; REF dirties the rank) — commands move both the
  bank's decision inputs and its snapshotted local timing — see
  ``MemoryController._invalidate_bank``;
* time-driven verdict changes need no callback: every entry carries an
  expiry instant — the earliest time a *skipped* blocked request could
  unblock and preempt the cached decider, capped by the mechanism's
  verdict-stability horizon (``act_block_stable``, e.g. BlockHammer's
  next CBF epoch rotation) — and the policy re-walks the bank once
  ``now`` reaches it (tracked in a lazy expiry heap).

Clean banks are never visited at all.  Entries live in per-class lazy
min-heaps keyed by their bank-local time (hit column timing / ACT gate
/ PRE gate); because a per-bank wake is ``max(bank-local time, shared
scalar)`` and the shared scalar (data-bus occupancy, rank tRRD/tFAW) is
class-wide, the exact ``next_ready`` falls out of three heap tops.
Once a bank-local time passes it never un-passes, so entries migrate
to per-class *ready* heaps ordered by arrival (``queue_seq``), whose
live top is the FR-FCFS winner.  A scheduling step is therefore
O(dirtied banks + expired verdicts + heap-top maintenance), not
O(queued requests) and not even O(banks).

Selected commands are identical to the naive scan's.  The set and
timing of ``act_allowed_at`` queries is not: the naive scan re-queries
every blocked request each step, while the incremental walk trusts
cached verdicts inside the stability horizon and skips clean banks
entirely.  ``act_allowed_at`` is side-effect-free for every mechanism
except BlockHammer, whose Section 8.4 first-block stamps happen at
first query: deferring a query can stamp a block a few scheduling steps
later, so the reproduced delay *statistics* shift slightly (sub-percent
in practice) even though command schedules and performance results do
not — the differential harness pins exactly that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from repro.dram.address import BANK_KEY_BITS
from repro.dram.commands import Command, CommandKind
from repro.dram.device import DramDevice
from repro.mem.queues import RequestQueue
from repro.mem.request import Request
from repro.mitigations.base import MitigationMechanism

_NEVER = 1.0e30

# bank_cache entry tags (first tuple element).  Entries are
# (tag, request, command_kind, row, expires_at, blocked_wake, local_t):
#
# _HIT  — ``request`` is the bank's oldest row-buffer hit; issues as
#         RD/WR the moment column timing and the data bus allow.  Valid
#         until the bank is dirtied (hits involve no verdicts).
#         ``local_t`` snapshots the bank's column timing.
# _ROW  — ``request`` decides the bank's row command (``command_kind``
#         ACT or PRE toward ``row``); older requests were skipped as
#         mitigation-blocked, and ``expires_at`` is the earliest instant
#         one of them could unblock and preempt the decider.
#         ``local_t`` snapshots the bank's ACT/PRE timing.
# _IDLE — every queued request for the bank is mitigation-blocked;
#         ``command_kind`` records which row-command gate applies (ACT
#         for a closed bank, PRE for a conflict), ``blocked_wake`` the
#         earliest allowed time, and ``local_t`` is already
#         ``max(bank gate, blocked_wake)`` so the per-step wake needs
#         only the rank constraint folded in (Selection contract).
#
# ``local_t`` snapshots are sound because the controller dirties a bank
# on *every* command addressed to it — bank-local timing cannot move
# while an entry lives.  Rank ACT spacing and data-bus occupancy are
# shared scalars and stay out of entries; the select loop reads them
# live each step.
_HIT, _ROW, _IDLE = 0, 1, 2


@dataclass(slots=True)
class Selection:
    """The policy's answer for one scheduling step.

    ``command``/``request`` are set when something can issue exactly at
    ``now``; ``next_ready`` is the earliest future instant at which any
    candidate could become issuable (used to schedule the next wake-up).

    ``next_ready`` is **normative**, not advisory: command issue is
    wake-driven (a ready command issues at the controller's first wake
    at or after its ready instant), so two policies only produce
    identical command streams if they report identical wake times.
    Every FR-FCFS implementation in this module therefore computes the
    same pure function of simulator state — the minimum over banks with
    queued requests of:

    * a bank with a queued row-buffer hit: the oldest hit's column
      ready time, ``max(bank column timing, data-bus constraint)``
      (hit-protected banks contribute nothing else);
    * otherwise, on a refresh-draining rank: nothing;
    * otherwise, with a RowHammer-safe request (the oldest safe request
      is the bank's decider): the row-command gate alone — ACT:
      ``max(bank ACT timing, rank tRRD/tFAW)``, PRE: bank PRE timing.
      Blocked requests skipped on the way to the decider contribute
      *nothing*: at any future instant the bank issues at its gate, so
      their individual unblock times never surface as wakes;
    * with every queued request blocked: ``max(row-command gate,
      earliest allowed time over the bank's requests)`` — the exact
      instant the first request unblocks *and* can issue.
    """

    command: Command | None
    request: Request | None
    next_ready: float


class SchedulingPolicy:
    """Interface: pick the next command for a set of queued requests."""

    name = "base"

    def select(
        self,
        requests,
        device: DramDevice,
        mitigation: MitigationMechanism,
        now: float,
        blocked_ranks: frozenset[int],
    ) -> Selection:
        raise NotImplementedError

    def select_raw(
        self,
        requests,
        device: DramDevice,
        mitigation: MitigationMechanism,
        now: float,
        blocked_ranks: frozenset[int],
    ) -> tuple[Command | None, Request | None, float]:
        """Tuple-returning form of :meth:`select` for the controller's
        batched hot loop: ``(command, request, next_ready)`` with the
        exact same normative contents, minus the Selection allocation.
        Policies may override with a native implementation; the default
        wraps :meth:`select`.
        """
        sel = self.select(requests, device, mitigation, now, blocked_ranks)
        return sel.command, sel.request, sel.next_ready


def _examine_bank(
    bank_requests: list[Request],
    bank,
    now: float,
    act_allowed_at,
    stable: float,
    rank_blocked: bool,
) -> tuple | None:
    """Full walk of one bank's queued requests -> a ``bank_cache`` entry.

    Only runs for dirty or expired banks.  Assumes the request list is
    single-kind (the controller keeps separate read and write queues),
    so the first arrival-order row match settles the oldest hit.
    Returns None for a hitless bank on a refresh-draining rank: no row
    decision may be taken (or cached), and its requests are not queried.
    """
    open_row = bank.open_row
    if open_row is not None:
        for req in bank_requests:
            if req.row == open_row:
                t_col = bank.next_wr if req.is_write else bank.next_rd
                return (_HIT, req, None, 0, _NEVER, _NEVER, t_col)
    if rank_blocked:
        return None
    # Closed or conflict bank: the oldest RowHammer-safe request decides
    # the row command; blocked requests ahead of it bound the entry's
    # lifetime ("unsafe until T" verdicts are cached on the request and
    # trusted until the mechanism's stability horizon).
    expires = stable
    wake = _NEVER
    for req in bank_requests:
        bu = req.blocked_until
        if bu > now:
            if bu < expires:
                expires = bu
            w = req.blocked_wake
            if w < wake:
                wake = w
            continue
        allowed = act_allowed_at(req.rank, req.bank, req.row, req.thread, now)
        if allowed > now:
            req.blocked_wake = allowed
            bu = stable if stable < allowed else allowed
            req.blocked_until = bu
            if bu < expires:
                expires = bu
            if allowed < wake:
                wake = allowed
            continue
        if open_row is None:
            return (_ROW, req, CommandKind.ACT, req.row, expires, wake, bank.next_act)
        return (_ROW, req, CommandKind.PRE, open_row, expires, wake, bank.next_pre)
    if open_row is None:
        gate_kind = CommandKind.ACT
        local = bank.next_act
    else:
        gate_kind = CommandKind.PRE
        local = bank.next_pre
    if wake > local:
        local = wake
    return (_IDLE, None, gate_kind, 0, expires, wake, local)


class FrFcfsPolicy(SchedulingPolicy):
    """First-Ready, First-Come-First-Served with mitigation gating.

    Incremental: re-examines only banks whose queue contents, row-buffer
    state, or mitigation verdicts changed since the last step (see the
    module docstring for the dirty/expiry protocol).  The fast path is
    one body, :meth:`make_fused`; refresh-draining windows and
    multi-rank devices take the every-bank :meth:`_scan_select`, and
    plain-list inputs (no cache) the reference scan.
    """

    name = "fr-fcfs"

    def select(
        self,
        requests,
        device: DramDevice,
        mitigation: MitigationMechanism,
        now: float,
        blocked_ranks: frozenset[int],
    ) -> Selection:
        command, request, next_ready = self.select_raw(
            requests, device, mitigation, now, blocked_ranks
        )
        return Selection(command, request, next_ready)

    def select_raw(
        self,
        requests,
        device: DramDevice,
        mitigation: MitigationMechanism,
        now: float,
        blocked_ranks: frozenset[int],
    ) -> tuple[Command | None, Request | None, float]:
        """Dispatch one step to the path that applies.  A one-call
        :meth:`make_fused` closure is exact: all incremental state lives
        on the :class:`~repro.mem.queues.RequestQueue`, not the closure.
        """
        if not isinstance(requests, RequestQueue):
            sel = _naive_select(requests, device, mitigation, now, blocked_ranks)
        elif blocked_ranks or len(device.ranks) != 1:
            # Refresh-draining windows (and multi-rank devices, whose
            # per-rank ACT constraint does not factor out of the class
            # minima) take the every-bank scan.
            sel = self._scan_select(requests, device, mitigation, now, blocked_ranks)
        else:
            return self.make_fused(requests, device, mitigation)(now)
        return sel.command, sel.request, sel.next_ready

    def make_fused(self, requests, device, mitigation):
        """The incremental FR-FCFS step for one fixed (queue, device,
        mitigation) triple: ``fused(now) -> (command, request,
        next_ready)`` with every stable object prebound as a closure
        cell, or None when the fast path does not apply (plain-list
        queue, multi-rank device).  Callers pass no refresh-draining
        ranks.  Mutable scalars (bus occupancy, heap sequence) are read
        live each call; verdict stability only when some bank needs
        re-examination.

        One step touches only (a) banks dirtied since the last step,
        (b) banks whose verdict horizon passed, and (c) banks that are
        *ready* — everything else is covered by three exact class
        minima.  A bank's wake decomposes as max(bank-local time, shared
        scalar) where the shared scalar (data-bus occupancy for hits,
        rank tRRD/tFAW for ACTs) is class-wide, so min-over-banks =
        max(class min-heap top, shared scalar), and a bank is ready iff
        its local time AND the shared scalar have both come due — the
        ready set is a heap prefix.  Heap items are lazy: an item is
        dead when its entry is no longer the bank's cached one; dead
        tops pop on sight, so a live top is the exact class minimum.
        """
        if not isinstance(requests, RequestQueue) or len(device.ranks) != 1:
            return None
        (
            cache,
            by_bank,
            dirty,
            expiry_heap,
            hit_heap,
            act_heap,
            pre_heap,
            ready_hits,
            ready_acts,
            ready_pres,
        ) = requests.hot
        cache_get = cache.get
        cache_pop = cache.pop
        by_bank_get = by_bank.get
        flat_banks, rank0, tCL, tCWL = device.select_hot
        never_blocks = mitigation.never_blocks
        act_allowed_at = mitigation.act_allowed_at
        examine = _examine_bank
        heap_push = heappush
        heap_pop = heappop
        NEVER = _NEVER
        HIT = _HIT
        IDLE = _IDLE
        ACT = CommandKind.ACT
        PRE = CommandKind.PRE
        RD = CommandKind.RD
        WR = CommandKind.WR
        make_command = Command

        def fused(now: float):
            bus_free = device._bus_free
            rd_bus_ready = bus_free - tCL
            wr_bus_ready = bus_free - tCWL
            next_ready = NEVER
            best_hit = None
            best_hit_seq = -1
            best_row = None
            best_row_seq = -1
            best_row_kind = None
            best_row_row = -1
            rank_t = -1.0  # lazy: rank ACT readiness at most once per step

            # 1. Re-examine dirtied banks; 2. re-examine banks whose
            # verdict horizon has passed.  Fresh entries go to the cache
            # and heaps; uncacheable decisions (horizon already passed —
            # mechanisms declaring no stability) are kept aside for
            # inline evaluation and the bank stays dirty.
            uncached = None
            if dirty or (expiry_heap and expiry_heap[0][0] <= now):
                stable = NEVER if never_blocks else mitigation.act_block_stable
                heap_seq = requests.heap_seq
                redirty = None
                if dirty:
                    for key in dirty:
                        bank_requests = by_bank_get(key)
                        if bank_requests is None:
                            cache_pop(key, None)
                            continue
                        entry = examine(
                            bank_requests, flat_banks[key], now,
                            act_allowed_at, stable, False,
                        )
                        if entry[4] > now:
                            # Store + heap registration, inlined again in
                            # the expiry drain below: this is the
                            # innermost hot loop and a per-bank helper
                            # call is measurable.
                            cache[key] = entry
                            heap_seq += 1
                            item = (entry[6], heap_seq, key, entry)
                            tag = entry[0]
                            if tag == HIT:
                                heap_push(hit_heap, item)
                            elif entry[2] is ACT:
                                heap_push(act_heap, item)
                            else:
                                heap_push(pre_heap, item)
                            if entry[4] < NEVER:
                                heap_push(expiry_heap, (entry[4], heap_seq, key, entry))
                        else:
                            cache_pop(key, None)
                            if uncached is None:
                                uncached = []
                                redirty = []
                            uncached.append(entry)
                            redirty.append(key)
                    dirty.clear()
                    if redirty is not None:
                        dirty.update(redirty)
                while expiry_heap:
                    item = expiry_heap[0]
                    key = item[2]
                    if cache_get(key) is not item[3]:
                        heap_pop(expiry_heap)
                        continue
                    if item[0] > now:
                        break
                    heap_pop(expiry_heap)
                    entry = examine(
                        by_bank[key], flat_banks[key], now,
                        act_allowed_at, stable, False,
                    )
                    if entry[4] > now:
                        cache[key] = entry
                        heap_seq += 1
                        hitem = (entry[6], heap_seq, key, entry)
                        tag = entry[0]
                        if tag == HIT:
                            heap_push(hit_heap, hitem)
                        elif entry[2] is ACT:
                            heap_push(act_heap, hitem)
                        else:
                            heap_push(pre_heap, hitem)
                        if entry[4] < NEVER:
                            heap_push(expiry_heap, (entry[4], heap_seq, key, entry))
                    else:
                        del cache[key]
                        dirty.add(key)
                        if uncached is None:
                            uncached = []
                        uncached.append(entry)
                requests.heap_seq = heap_seq

            # 3. Inline evaluation of uncacheable bank decisions (their
            # banks stay dirty, so every step re-queries — exactly the
            # naive behaviour such mechanisms get).
            if uncached is not None:
                for entry in uncached:
                    tag = entry[0]
                    if tag == HIT:
                        req = entry[1]
                        t = entry[6]
                        bus = wr_bus_ready if req.is_write else rd_bus_ready
                        if bus > t:
                            t = bus
                        if t <= now:
                            seq = req.queue_seq
                            if best_hit is None or seq < best_hit_seq:
                                best_hit = req
                                best_hit_seq = seq
                        elif t < next_ready:
                            next_ready = t
                        continue
                    t = entry[6]
                    if entry[2] is ACT:
                        if rank_t < 0.0:
                            rank_t = rank0._act_ready
                            if rank_t < now:
                                rank_t = now
                        if rank_t > t:
                            t = rank_t
                    if tag == IDLE:
                        if t < next_ready:
                            next_ready = t
                        continue
                    if t > now:
                        if t < next_ready:
                            next_ready = t
                        continue
                    req = entry[1]
                    seq = req.queue_seq
                    if best_row is None or seq < best_row_seq:
                        best_row = req
                        best_row_seq = seq
                        best_row_kind = entry[2]
                        best_row_row = entry[3]

            # 4. Ready candidates and exact wakes from the class heaps.
            # Heaps only ever hold cached entries, so every minimum
            # below is exact.  A bank-local time never un-passes, so an
            # entry migrates from the local-time wake heap to the
            # class's arrival-ordered ready heap exactly once; the
            # FR-FCFS winner is then the live ready-heap top (the oldest
            # locally-ready candidate), and a gated class's wake needs
            # no per-item scan: with any locally-ready item the shared
            # scalar is the binding constraint, without one it is
            # max(shared, oldest local time).
            # --- hits (shared scalar: data-bus occupancy) ---
            while hit_heap:
                item = hit_heap[0]
                if cache_get(item[2]) is not item[3]:
                    heap_pop(hit_heap)
                    continue
                if item[0] > now:
                    break
                heap_pop(hit_heap)
                entry = item[3]
                heap_push(ready_hits, (entry[1].queue_seq, item[2], entry))
            while ready_hits and cache_get(ready_hits[0][1]) is not ready_hits[0][2]:
                heap_pop(ready_hits)
            if ready_hits:
                req = ready_hits[0][2][1]
                bus = wr_bus_ready if req.is_write else rd_bus_ready
                if bus > now:
                    # Bus not free: no hit is ready anywhere, and some
                    # bank's column timing has already passed, so the
                    # bus is the binding constraint.
                    if bus < next_ready:
                        next_ready = bus
                else:
                    seq = ready_hits[0][0]
                    if best_hit is None or seq < best_hit_seq:
                        best_hit = req
                        best_hit_seq = seq
            if hit_heap:
                item = hit_heap[0]  # live: dead tops popped above
                t = item[0]
                bus = wr_bus_ready if item[3][1].is_write else rd_bus_ready
                if bus > t:
                    t = bus
                if t < next_ready:
                    next_ready = t

            # --- ACT deciders (shared scalar: rank tRRD/tFAW) ---
            while act_heap:
                item = act_heap[0]
                if cache_get(item[2]) is not item[3]:
                    heap_pop(act_heap)
                    continue
                if item[0] > now:
                    break
                heap_pop(act_heap)
                entry = item[3]
                # A live _IDLE entry cannot come due (its expiry
                # precedes its wake), so migrating entries are _ROW
                # deciders.
                heap_push(ready_acts, (entry[1].queue_seq, item[2], entry))
            while ready_acts and cache_get(ready_acts[0][1]) is not ready_acts[0][2]:
                heap_pop(ready_acts)
            if ready_acts:
                if rank_t < 0.0:
                    rank_t = rank0._act_ready
                    if rank_t < now:
                        rank_t = now
                if rank_t > now:
                    # Rank ACT budget exhausted: it alone gates the class.
                    if rank_t < next_ready:
                        next_ready = rank_t
                else:
                    seq = ready_acts[0][0]
                    entry = ready_acts[0][2]
                    req = entry[1]
                    if best_row is None or seq < best_row_seq:
                        best_row = req
                        best_row_seq = seq
                        best_row_kind = ACT
                        best_row_row = entry[3]
            if act_heap:
                t = act_heap[0][0]
                if rank_t < 0.0:
                    rank_t = rank0._act_ready
                    if rank_t < now:
                        rank_t = now
                if rank_t > t:
                    t = rank_t
                if t < next_ready:
                    next_ready = t

            # --- PRE deciders (no shared scalar) ---
            while pre_heap:
                item = pre_heap[0]
                if cache_get(item[2]) is not item[3]:
                    heap_pop(pre_heap)
                    continue
                if item[0] > now:
                    break
                heap_pop(pre_heap)
                entry = item[3]
                heap_push(ready_pres, (entry[1].queue_seq, item[2], entry))
            while ready_pres and cache_get(ready_pres[0][1]) is not ready_pres[0][2]:
                heap_pop(ready_pres)
            if ready_pres:
                seq = ready_pres[0][0]
                entry = ready_pres[0][2]
                req = entry[1]
                if best_row is None or seq < best_row_seq:
                    best_row = req
                    best_row_seq = seq
                    best_row_kind = PRE
                    best_row_row = entry[3]
            if pre_heap:
                t = pre_heap[0][0]
                if t < next_ready:
                    next_ready = t

            # Column commands (row-buffer hits) always outrank row commands.
            if best_hit is not None:
                req = best_hit
                kind = WR if req.is_write else RD
                return make_command(kind, req.rank, req.bank, req.row, req.col), req, now
            if best_row is not None:
                req = best_row
                return make_command(best_row_kind, req.rank, req.bank, best_row_row), req, now
            return None, None, next_ready

        return fused

    def _scan_select(
        self,
        requests: RequestQueue,
        device: DramDevice,
        mitigation: MitigationMechanism,
        now: float,
        blocked_ranks: frozenset[int],
    ) -> Selection:
        """Every-bank scan over the same cache (refresh windows and
        multi-rank devices).  Produces the identical Selection the
        fused path would: same entries, same candidate rules, same
        Selection-contract wakes."""
        by_bank = requests.by_bank
        cache = requests.bank_cache
        cache_get = cache.get
        spec = device.spec
        ranks = device.ranks
        flat_banks = device.flat_banks
        bus_free = device.bus_free
        rd_bus_ready = bus_free - spec.tCL
        wr_bus_ready = bus_free - spec.tCWL
        stable = _NEVER if mitigation.never_blocks else mitigation.act_block_stable
        act_allowed_at = mitigation.act_allowed_at

        RD = CommandKind.RD
        WR = CommandKind.WR
        ACT = CommandKind.ACT
        next_ready = _NEVER
        best_hit: Request | None = None
        best_hit_seq = -1
        best_row: Request | None = None
        best_row_seq = -1
        best_row_kind = None
        best_row_row = -1
        # Rank-level ACT readiness (tRRD/tFAW) is constant within one
        # scheduling step; compute it at most once per rank.
        rank_act_ready: dict[int, float] = {}

        any_rank_blocked = bool(blocked_ranks)
        key_bits = BANK_KEY_BITS
        for key, bank_requests in by_bank.items():
            rank_blocked = any_rank_blocked and (key >> key_bits) in blocked_ranks
            entry = cache_get(key)
            if entry is None or now >= entry[4]:
                # Dirty or expired: re-walk the bank.  Refresh-draining
                # ranks accept no row commands and their requests are
                # not queried — but an open bank's hits still serve.
                fresh = _examine_bank(
                    bank_requests,
                    flat_banks[key],
                    now,
                    act_allowed_at,
                    stable,
                    rank_blocked,
                )
                if fresh is None:
                    # Undecidable while the rank drains; whatever entry
                    # existed is stale now.
                    if entry is not None:
                        del cache[key]
                        requests.dirty.add(key)
                    continue
                entry = fresh
                tag = entry[0]
                # Store for this scan's reuse but leave the bank dirty
                # and push NO heap items: the incremental path re-tracks
                # dirty banks (one re-examination + push) when it
                # resumes, and a permanently-scanning configuration
                # (multi-rank) must not grow the heaps it never drains.
                requests.dirty.add(key)
                if entry[4] > now:
                    cache[key] = entry
                else:
                    cache.pop(key, None)
            else:
                tag = entry[0]
                if tag != _HIT and rank_blocked:
                    continue
            if tag == _HIT:
                req = entry[1]
                t = entry[6]
                bus = wr_bus_ready if req.is_write else rd_bus_ready
                if bus > t:
                    t = bus
                if t <= now:
                    # Oldest ready hit across all banks wins (FR-FCFS
                    # arrival-order tie-break).
                    seq = req.queue_seq
                    if best_hit is None or seq < best_hit_seq:
                        best_hit = req
                        best_hit_seq = seq
                elif t < next_ready:
                    next_ready = t
                continue
            # _ROW/_IDLE: bank-local gate snapshotted at examination
            # time; ACT gates fold in the live rank constraint (the
            # Selection contract's wakes depend on it even when bank
            # timing is the later of the two).
            t = entry[6]
            kind = entry[2]
            if kind is ACT:
                rank_id = key >> key_bits
                rank_t = rank_act_ready.get(rank_id)
                if rank_t is None:
                    rank_t = ranks[rank_id].earliest_act(now)
                    rank_act_ready[rank_id] = rank_t
                if rank_t > t:
                    t = rank_t
            if tag == _IDLE:
                # All blocked: wake when the first request unblocks AND
                # its row command could issue (Selection contract).
                if t < next_ready:
                    next_ready = t
                continue
            if t > now:
                if t < next_ready:
                    next_ready = t
                continue
            req = entry[1]
            seq = req.queue_seq
            if best_row is None or seq < best_row_seq:
                best_row = req
                best_row_seq = seq
                best_row_kind = kind
                best_row_row = entry[3]

        # Column commands (row-buffer hits) always outrank row commands.
        if best_hit is not None:
            req = best_hit
            kind = WR if req.is_write else RD
            return Selection(
                Command(kind, req.rank, req.bank, req.row, req.col), req, now
            )
        if best_row is not None:
            req = best_row
            return Selection(
                Command(best_row_kind, req.rank, req.bank, best_row_row), req, now
            )
        return Selection(None, None, next_ready)


def _naive_select(
    requests,
    device: DramDevice,
    mitigation: MitigationMechanism,
    now: float,
    blocked_ranks: frozenset[int],
) -> Selection:
    """One obviously-correct FR-FCFS step: a fresh scan, no cross-step
    state.

    Every considered request is re-queried against the mitigation and
    every candidate's issue time comes from ``device.earliest_issue``.
    The scan walks each bank's requests in arrival order, derives the
    bank's decision exactly as the Selection contract states it (hit >
    hit protection > oldest-safe row decider > all-blocked wake), and
    breaks candidate ties toward the oldest request across banks.  This
    is the reference the differential harness holds the incremental
    policy to.
    """
    items = requests.items if isinstance(requests, RequestQueue) else requests
    if not items:
        return Selection(None, None, _NEVER)
    by_bank: dict[int, list[Request]] = {}
    for req in items:  # arrival order within each bank
        by_bank.setdefault(req.bank_key, []).append(req)

    best_hit: Request | None = None
    best_hit_pos = -1
    best_hit_kind = None
    best_row: Request | None = None
    best_row_pos = -1
    best_row_kind = None
    best_row_row = -1
    position = {id(req): pos for pos, req in enumerate(items)}
    next_ready = _NEVER
    for key, bank_requests in by_bank.items():
        first = bank_requests[0]
        bank = device.bank(first.rank, first.bank)
        open_row = bank.open_row

        # 1. Row-buffer hits: the oldest hit is the bank's candidate and
        #    protects the open row from any precharge decision.
        hit: Request | None = None
        if open_row is not None:
            for req in bank_requests:
                if req.row == open_row:
                    hit = req
                    break
        if hit is not None:
            kind = CommandKind.WR if hit.is_write else CommandKind.RD
            t = device.earliest_issue(
                Command(kind, hit.rank, hit.bank, hit.row, hit.col), now
            )
            if t <= now:
                pos = position[id(hit)]
                if best_hit is None or pos < best_hit_pos:
                    best_hit = hit
                    best_hit_pos = pos
                    best_hit_kind = kind
            elif t < next_ready:
                next_ready = t
            continue

        # 2. Refresh-draining ranks accept no row commands (and their
        #    requests are not queried).
        if first.rank in blocked_ranks:
            continue

        # 3. The oldest RowHammer-safe request decides the bank's row
        #    command; if every request is blocked, the bank wakes when
        #    the first unblocks and its row command could issue.
        decider: Request | None = None
        earliest_allowed = _NEVER
        for req in bank_requests:
            allowed = mitigation.act_allowed_at(
                req.rank, req.bank, req.row, req.thread, now
            )
            if allowed <= now:
                decider = req
                break
            if allowed < earliest_allowed:
                earliest_allowed = allowed
        if open_row is None:
            kind, row = CommandKind.ACT, first.row if decider is None else decider.row
        else:
            kind, row = CommandKind.PRE, open_row
        gate = device.earliest_issue(Command(kind, first.rank, first.bank, row), now)
        if decider is None:
            wake = gate if gate > earliest_allowed else earliest_allowed
            if wake < next_ready:
                next_ready = wake
            continue
        if gate <= now:
            pos = position[id(decider)]
            if best_row is None or pos < best_row_pos:
                best_row = decider
                best_row_pos = pos
                best_row_kind = kind
                best_row_row = row
        elif gate < next_ready:
            next_ready = gate

    if best_hit is not None:
        req = best_hit
        return Selection(
            Command(best_hit_kind, req.rank, req.bank, req.row, req.col), req, now
        )
    if best_row is not None:
        req = best_row
        return Selection(
            Command(best_row_kind, req.rank, req.bank, best_row_row), req, now
        )
    return Selection(None, None, next_ready)


class ReferenceFrFcfsPolicy(SchedulingPolicy):
    """Naive FR-FCFS: the differential-testing ground truth.

    Must stay boring.  Any optimization belongs in
    :class:`FrFcfsPolicy`; this class exists so that policy has an
    independent, obviously-correct implementation to be measured
    against.
    """

    name = "fr-fcfs-reference"

    def select(
        self,
        requests,
        device: DramDevice,
        mitigation: MitigationMechanism,
        now: float,
        blocked_ranks: frozenset[int],
    ) -> Selection:
        return _naive_select(requests, device, mitigation, now, blocked_ranks)


class FcfsPolicy(SchedulingPolicy):
    """Strict arrival-order scheduling (ablation reference)."""

    name = "fcfs"

    def select(
        self,
        requests,
        device: DramDevice,
        mitigation: MitigationMechanism,
        now: float,
        blocked_ranks: frozenset[int],
    ) -> Selection:
        items = requests.items if isinstance(requests, RequestQueue) else requests
        if not items:
            return Selection(None, None, _NEVER)
        # Strict FCFS: only the head request is ever considered.
        req = items[0]
        a = req.address
        bank = device.bank(a.rank, a.bank)
        if bank.open_row == a.row:
            kind = CommandKind.WR if req.is_write else CommandKind.RD
            cmd = Command(kind, a.rank, a.bank, a.row, a.col)
        elif a.rank in blocked_ranks:
            return Selection(None, None, _NEVER)
        elif bank.open_row is None:
            allowed = mitigation.act_allowed_at(a.rank, a.bank, a.row, req.thread, now)
            if allowed > now:
                return Selection(None, None, allowed)
            cmd = Command(CommandKind.ACT, a.rank, a.bank, a.row)
        else:
            cmd = Command(CommandKind.PRE, a.rank, a.bank, bank.open_row)
        t = device.earliest_issue(cmd, now)
        if t <= now:
            return Selection(cmd, req, now)
        return Selection(None, None, t)
