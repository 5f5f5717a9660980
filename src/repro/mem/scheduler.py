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
results.

A policy is one factory, :meth:`SchedulingPolicy.make_fused`: bound to
one (queue, device, mitigation) triple it returns ``fused(now,
blocked_ranks) -> (command, request, next_ready)``.  The controller
binds one per queue when it is built; :meth:`SchedulingPolicy.select`
wraps one call in a :class:`Selection` for one-off callers.

This is the simulator's hottest code path.  The fast policy is
**incremental across scheduling steps**: each bank's decision — the
oldest ready row-buffer hit, or the oldest RowHammer-safe request that
decides the bank's row command (ACT on a closed bank, PRE on a conflict
unless a pending hit protects the open row) — is a pure function of the
bank's queue contents, its row-buffer state + local timing, and the
mitigation's verdicts.  None of those change on most steps, so the
decision (with the bank-local timing snapshotted into it) is cached per
bank on the :class:`~repro.mem.queues.RequestQueue` (``bank_cache``).
An entry is dropped whenever one of its inputs moves:

* the queue drops a bank's entry on push/remove (arrivals and
  departures change the oldest-hit/decider walk);
* the controller drops it on every command addressed to the bank
  (ACT/PRE/RD/WR/VREF; REF drops the rank) — commands move both the
  bank's decision inputs and its snapshotted local timing — see
  ``MemoryController._invalidate_bank``;
* time-driven verdict changes need no callback: every entry carries an
  expiry instant — the earliest time a *skipped* blocked request could
  unblock and preempt the cached decider, capped by the mechanism's
  verdict-stability horizon (``act_block_stable``, e.g. BlockHammer's
  next CBF epoch rotation) — and the select re-walks the bank once
  ``now`` reaches it.

One select is a single flat pass over the queue's per-bank index —
at most ranks x banks entries (16 on the canonical device), not the
queued requests.  A bank without a live entry (dropped or expired) is
re-walked and re-cached; every other bank contributes its cached
candidate directly.  A bank's wake is ``max(bank-local time, shared
scalar)``: data-bus occupancy for hits, the rank's tRRD/tFAW readiness
for ACTs, nothing for PREs; the pass folds those into the oldest ready
hit, the oldest ready row command and the exact ``next_ready``.  A
refresh-draining rank contributes its hits only.  The same body serves
every rank count and every refresh window.

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
from functools import partial

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
    """Interface: pick the next command for one request queue.

    A policy implements :meth:`make_fused` and nothing else.
    """

    name = "base"

    def make_fused(
        self, queue: RequestQueue, device: DramDevice, mitigation: MitigationMechanism
    ):
        """The select for one fixed (queue, device, mitigation) triple:
        ``fused(now, blocked_ranks) -> (command, request, next_ready)``,
        the :class:`Selection` contents as a tuple."""
        raise NotImplementedError

    def select(
        self,
        queue: RequestQueue,
        device: DramDevice,
        mitigation: MitigationMechanism,
        now: float,
        blocked_ranks: frozenset[int],
    ) -> Selection:
        """One step as a :class:`Selection`.  A one-call :meth:`make_fused`
        closure is exact: all incremental state lives on the queue."""
        fused = self.make_fused(queue, device, mitigation)
        return Selection(*fused(now, blocked_ranks))


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
    # trusted until the mechanism's stability horizon).  A "safe"
    # verdict is cached too and survives RD/WR/PRE dirties of the bank:
    # only an ACT on the bank or the horizon can revoke it.
    expires = stable
    wake = _NEVER
    last_act = bank.last_act_time
    for req in bank_requests:
        bu = req.blocked_until
        if bu > now:
            if bu < expires:
                expires = bu
            w = req.blocked_wake
            if w < wake:
                wake = w
            continue
        if req.safe_until > now and req.safe_act_time == last_act:
            allowed = now
        else:
            allowed = act_allowed_at(req.rank, req.bank, req.row, req.thread, now)
            if allowed <= now:
                req.safe_act_time = last_act
                req.safe_until = stable
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

    Incremental: a select re-walks only banks whose cached decision was
    dropped or has expired (see the module docstring for the protocol)
    and reads every other bank's decision from the cache.  The one
    select body is :meth:`make_fused`; it serves every rank count and
    refresh-draining windows.
    """

    name = "fr-fcfs"

    def make_fused(self, requests, device, mitigation):
        """The FR-FCFS select for one fixed (queue, device, mitigation)
        triple: ``fused(now, blocked_ranks) -> (command, request,
        next_ready)`` with every stable object prebound as a closure
        cell.  Mutable scalars (bus occupancy, rank ACT readiness) are
        read live each call; verdict stability only when some bank needs
        re-walking.

        One call walks ``requests.by_bank`` once.  A bank is re-walked
        (:func:`_examine_bank`) only when its ``bank_cache`` entry is
        absent or ``now`` has reached the entry's expiry; the fresh
        entry is cached unless it has expired already (mechanisms that
        declare no verdict stability), in which case the bank stays
        uncached and is re-walked next call.  Each entry then competes
        in its class: hits on ``max(column time, bus)``, ACTs on
        ``max(bank ACT gate, rank readiness)``, PREs on the bank gate;
        ties break toward the oldest request.
        """
        cache = requests.bank_cache
        cache_get = cache.get
        by_bank = requests.by_bank
        flat_banks = device.flat_banks
        ranks = device.ranks
        rank0 = ranks[0]
        multi_rank = len(ranks) > 1
        tCL = device.spec.tCL
        tCWL = device.spec.tCWL
        never_blocks = mitigation.never_blocks
        act_allowed_at = mitigation.act_allowed_at
        examine = _examine_bank
        key_bits = BANK_KEY_BITS
        NEVER = _NEVER
        HIT = _HIT
        IDLE = _IDLE
        ACT = CommandKind.ACT
        RD = CommandKind.RD
        WR = CommandKind.WR
        make_command = Command

        def fused(now: float, blocked_ranks: frozenset[int]):
            bus_free = device._bus_free
            rd_bus_ready = bus_free - tCL
            wr_bus_ready = bus_free - tCWL
            # Rank ACT readiness (tRRD/tFAW) is fixed within one call.
            # Unclamped by ``now``: a row decider is ready iff both its
            # bank gate and this have passed, and an _IDLE entry's local
            # time already lies past ``now``.
            act_ready = rank0._act_ready
            stable = None  # lazy: read only when a bank is re-walked
            next_ready = NEVER
            best_hit = None
            best_hit_seq = -1
            best_row = None
            best_row_seq = -1
            best_row_kind = None
            best_row_row = -1
            for key in by_bank:
                entry = cache_get(key)
                if entry is None or now >= entry[4]:
                    # Dropped or expired: re-walk the bank.  A refresh-
                    # draining rank takes no row decision and its
                    # requests are not queried, but an open bank's hits
                    # still serve.
                    if stable is None:
                        stable = NEVER if never_blocks else mitigation.act_block_stable
                    fresh = examine(
                        by_bank[key], flat_banks[key], now,
                        act_allowed_at, stable, (key >> key_bits) in blocked_ranks,
                    )
                    if fresh is not None and fresh[4] > now:
                        cache[key] = fresh
                    elif entry is not None:
                        del cache[key]
                    if fresh is None:
                        continue
                    entry = fresh
                elif (
                    blocked_ranks
                    and entry[0] != HIT
                    and (key >> key_bits) in blocked_ranks
                ):
                    continue
                tag, req, kind, row, _, _, t = entry
                if tag == HIT:
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
                # _ROW/_IDLE: ``t`` is the bank-local gate snapshotted at
                # walk time; an ACT gate folds in the live rank constraint.
                if kind is ACT:
                    ready = ranks[key >> key_bits]._act_ready if multi_rank else act_ready
                    if ready > t:
                        t = ready
                if t > now or tag == IDLE:
                    # Not ready yet; an all-blocked bank wakes when its
                    # first request unblocks and its row command could
                    # issue (Selection contract).
                    if t < next_ready:
                        next_ready = t
                    continue
                seq = req.queue_seq
                if best_row is None or seq < best_row_seq:
                    best_row = req
                    best_row_seq = seq
                    best_row_kind = kind
                    best_row_row = row

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

    # Retired entry points that nothing calls, so they add nothing to
    # ``mem.select_calls``/``mem.scan_select_calls``.  They stay defined
    # because ``perfbench/tracing.py`` patches them by name.
    def select_raw(self, queue, device, mitigation, now, blocked_ranks):
        return self.make_fused(queue, device, mitigation)(now, blocked_ranks)

    def _scan_select(self, queue, device, mitigation, now, blocked_ranks):
        return self.select(queue, device, mitigation, now, blocked_ranks)


def _naive_select(
    queue: RequestQueue,
    device: DramDevice,
    mitigation: MitigationMechanism,
    now: float,
    blocked_ranks: frozenset[int],
) -> tuple[Command | None, Request | None, float]:
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
    items = queue.items
    if not items:
        return None, None, _NEVER
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
        return Command(best_hit_kind, req.rank, req.bank, req.row, req.col), req, now
    if best_row is not None:
        req = best_row
        return Command(best_row_kind, req.rank, req.bank, best_row_row), req, now
    return None, None, next_ready


class ReferenceFrFcfsPolicy(SchedulingPolicy):
    """Naive FR-FCFS: the differential-testing ground truth.

    Must stay boring.  Any optimization belongs in
    :class:`FrFcfsPolicy`; this class exists so that policy has an
    independent, obviously-correct implementation to be measured
    against.
    """

    name = "fr-fcfs-reference"

    def make_fused(self, queue, device, mitigation):
        return partial(_naive_select, queue, device, mitigation)
