"""Property tests for the incremental FR-FCFS candidate cache.

The fast policy's correctness rests on one invariant: **a bank whose
cached entry is still live (not dirtied, not expired) would produce the
same decision if re-walked from scratch.**  These tests pin the two
halves of that invariant:

* *exact dirtiness* — each mutation (enqueue, dequeue, command issue,
  verdict-epoch rotation) invalidates exactly the affected bank(s),
  never more, never fewer;
* *never-stale* — a randomized workout drives a real controller with
  an epoch-style blocking mechanism and, after every step, re-derives
  every still-cached bank decision with a fresh, cache-free oracle and
  demands equality.

The oracle here is deliberately trivial (hit > oldest-safe > idle); the
full scheduling equivalence, timing included, is pinned by
``tests/test_differential_scheduler.py``.
"""

from __future__ import annotations

import pytest

from repro.dram.address import BANK_KEY_BITS, bank_key
from repro.dram.commands import Command, CommandKind
from repro.dram.device import DramDevice
from repro.mem.controller import MemoryController
from repro.mem.queues import RequestQueue
from repro.mem.request import Request, RequestKind
from repro.mem.scheduler import _HIT, _IDLE, _ROW, FrFcfsPolicy
from repro.mitigations.base import MitigationMechanism, NoMitigation
from repro.utils.rng import DeterministicRng

NO_BLOCK = frozenset()


def make_request(bank=0, row=0, write=False, thread=0):
    kind = RequestKind.WRITE if write else RequestKind.READ
    from repro.dram.address import DecodedAddress

    return Request(thread, kind, DecodedAddress(0, bank, row, 0), arrival=0.0)


class EpochBlocker(MitigationMechanism):
    """Blocks a per-epoch pseudo-random set of (bank, row) pairs until
    the epoch boundary — the epoch-style verdict shape (BlockHammer's
    CBF rotation) the cache's expiry protocol is built around.

    Within an epoch verdicts are frozen, so ``act_block_stable`` is the
    epoch end; rotation is the only en-masse verdict change.
    """

    name = "epoch-blocker"

    def __init__(self, epoch_ns: float = 50.0, block_fraction: float = 0.4) -> None:
        super().__init__()
        self.epoch_ns = epoch_ns
        self.block_fraction = block_fraction
        self.queries = 0

    def _epoch(self, now: float) -> int:
        return int(now // self.epoch_ns)

    @property
    def act_block_stable(self) -> float:
        return self._stable

    _stable = 0.0

    def advance_to(self, now: float) -> float:
        self._stable = (self._epoch(now) + 1) * self.epoch_ns
        # Per-step cadence: the controller re-advances on every step.
        return float("-inf")

    def _blocked(self, bank: int, row: int, now: float) -> bool:
        rng = DeterministicRng(self._epoch(now)).fork(f"b{bank}-r{row}")
        return rng.uniform() < self.block_fraction

    def act_allowed_at(self, rank, bank, row, thread, now):
        self.queries += 1
        if self._blocked(bank, row, now):
            return (self._epoch(now) + 1) * self.epoch_ns
        return now


@pytest.fixture
def device(small_spec):
    return DramDevice(small_spec)


def prime(queue, device, mitigation=None, now=0.0):
    """One select call populates the candidate cache."""
    FrFcfsPolicy().select(queue, device, mitigation or NoMitigation(), now, NO_BLOCK)
    return dict(queue.bank_cache)


# ----------------------------------------------------------------------
# Exact dirtiness.
# ----------------------------------------------------------------------
def test_push_invalidates_exactly_the_affected_bank(device):
    queue = RequestQueue(16)
    for bank in (0, 1, 2):
        queue.push(make_request(bank=bank, row=bank))
    before = prime(queue, device)
    assert set(before) == {bank_key(0, 0), bank_key(0, 1), bank_key(0, 2)}
    queue.push(make_request(bank=1, row=9))
    assert bank_key(0, 1) not in queue.bank_cache
    assert queue.bank_cache[bank_key(0, 0)] == before[bank_key(0, 0)]
    assert queue.bank_cache[bank_key(0, 2)] == before[bank_key(0, 2)]


def test_remove_invalidates_exactly_the_affected_bank(device):
    queue = RequestQueue(16)
    victim = make_request(bank=2, row=7)
    for request in (make_request(bank=0), make_request(bank=1), victim):
        queue.push(request)
    before = prime(queue, device)
    queue.remove(victim)
    assert bank_key(0, 2) not in queue.bank_cache
    assert queue.bank_cache[bank_key(0, 0)] == before[bank_key(0, 0)]
    assert queue.bank_cache[bank_key(0, 1)] == before[bank_key(0, 1)]


def test_explicit_bank_and_rank_invalidation(small_spec, device):
    controller = MemoryController(small_spec, device)
    queues = (controller.read_queue, controller.write_queue)
    entries = {bank_key(0, 0): ("x",), bank_key(0, 3): ("y",), bank_key(1, 2): ("z",)}
    for queue in queues:
        queue.bank_cache.update(entries)
    controller._invalidate_bank(0, 3)
    for queue in queues:
        assert set(queue.bank_cache) == {bank_key(0, 0), bank_key(1, 2)}
    controller.read_queue.invalidate_rank(0)
    assert set(controller.read_queue.bank_cache) == {bank_key(1, 2)}


def test_issued_command_dirties_exactly_its_bank_in_both_queues(small_spec, device):
    controller = MemoryController(small_spec, device)
    controller.enqueue(make_request(bank=0, row=5), 0.0)
    controller.enqueue(make_request(bank=1, row=6), 0.0)
    controller.enqueue(make_request(bank=1, row=6, write=True), 0.0)
    controller.step(0.0)  # issues ACT to bank 0 (oldest decider)
    assert device.bank(0, 0).open_row == 5
    # Bank 0's cached decision is void in both queues; bank 1's read-
    # queue entry (cached by the same select) survives untouched.
    assert bank_key(0, 0) not in controller.read_queue.bank_cache
    assert bank_key(0, 0) not in controller.write_queue.bank_cache
    assert bank_key(0, 1) in controller.read_queue.bank_cache


def test_refresh_dirties_the_whole_rank(small_spec, device):
    controller = MemoryController(small_spec, device)
    for bank in range(small_spec.banks_per_rank):
        controller.read_queue.bank_cache[bank_key(0, bank)] = ("stale",)
    controller._invalidate_rank(0)
    assert not controller.read_queue.bank_cache


# ----------------------------------------------------------------------
# Verdict-epoch expiry.
# ----------------------------------------------------------------------
def test_epoch_rotation_expires_cached_verdict_entries(device):
    mech = EpochBlocker(epoch_ns=50.0, block_fraction=1.0)  # block everything
    mech.advance_to(0.0)
    queue = RequestQueue(16)
    queue.push(make_request(bank=0, row=3))
    policy = FrFcfsPolicy()
    sel = policy.select(queue, device, mech, 0.0, NO_BLOCK)
    assert sel.command is None
    entry = queue.bank_cache[bank_key(0, 0)]
    assert entry[0] == _IDLE
    assert entry[4] <= 50.0  # expires no later than the epoch boundary
    queries_before = mech.queries
    # Within the epoch: the cached verdict is trusted, no re-query.
    policy.select(queue, device, mech, 10.0, NO_BLOCK)
    assert mech.queries == queries_before
    # Past the boundary the entry is expired: the bank is re-walked.
    mech.advance_to(60.0)
    policy.select(queue, device, mech, 60.0, NO_BLOCK)
    assert mech.queries > queries_before


def test_rowblocker_rotation_advances_verdict_epoch_and_horizon():
    from repro.core.config import BlockHammerConfig
    from repro.core.rowblocker import RowBlocker

    config = BlockHammerConfig.for_nrh(32768)
    rb = RowBlocker(config, num_ranks=1, banks_per_rank=2, rows_per_bank=64)
    assert rb.verdict_epoch == 0
    horizon = rb.next_rotate
    rb.maybe_rotate(horizon + 1.0)
    assert rb.verdict_epoch == 1
    assert rb.next_rotate > horizon


def test_never_blocking_mechanism_caches_forever(device):
    queue = RequestQueue(16)
    queue.push(make_request(bank=0, row=3))
    mech = NoMitigation()
    assert mech.never_blocks
    prime(queue, device, mech)
    entry = queue.bank_cache[bank_key(0, 0)]
    assert entry[0] == _ROW
    assert entry[4] > 1.0e29  # never expires; only dirtying re-walks


def test_safe_verdict_survives_rd_and_pre_until_act_or_horizon(device):
    """A queued safe decider is queried once across RD and PRE dirties
    of its bank; an ACT on the bank or the horizon forces a re-query."""
    mech = EpochBlocker(epoch_ns=500.0, block_fraction=0.0)  # never blocks
    mech.advance_to(0.0)
    policy = FrFcfsPolicy()
    queue = RequestQueue(16)
    key = bank_key(0, 0)
    decider = make_request(bank=0, row=3)
    queue.push(decider)
    bank = device.bank(0, 0)

    def issue(kind, row, at):
        command = Command(kind, 0, 0, row)
        now = device.earliest_issue(command, at)
        device.issue(command, now)
        queue.bank_cache.pop(key, None)  # as the controller does per command
        return now

    def queries_after_select(now):
        sel = policy.select(queue, device, mech, now, NO_BLOCK)
        assert sel.command is None or sel.request is decider
        return mech.queries

    now = issue(CommandKind.ACT, 5, 0.0)  # row 5 open: the decider conflicts
    assert queries_after_select(now) == 1
    now = issue(CommandKind.RD, 5, now)
    assert queries_after_select(now) == 1  # re-walked, not re-queried
    now = issue(CommandKind.PRE, 5, now)
    assert bank.open_row is None
    assert queries_after_select(now) == 1
    now = issue(CommandKind.ACT, 7, now)  # an ACT on the bank revokes it
    assert queries_after_select(now) == 2
    horizon = mech.act_block_stable
    assert now < horizon
    mech.advance_to(horizon)
    assert queries_after_select(horizon) == 3


# ----------------------------------------------------------------------
# Randomized never-stale property.
# ----------------------------------------------------------------------
def _oracle(bank_requests, open_row, mech, now):
    """Cache-free re-derivation of a bank's decision (hit > oldest-safe
    row decider > idle), bypassing every cached verdict."""
    if open_row is not None:
        for req in bank_requests:
            if req.row == open_row:
                return (_HIT, req)
    for req in bank_requests:
        if mech.act_allowed_at(req.rank, req.bank, req.row, req.thread, now) <= now:
            return (_ROW, req)
    return (_IDLE, None)


def test_random_workout_never_leaves_a_stale_live_entry(small_spec, device):
    """Drive a real controller (random enqueues, real command issue,
    epoch rotations) and after every step re-check every *live* cached
    entry against the oracle.  Entries past their expiry instant are
    exempt: the policy re-walks them before trusting them."""
    mech = EpochBlocker(epoch_ns=40.0, block_fraction=0.4)
    mech.advance_to(0.0)
    controller = MemoryController(small_spec, device, mitigation=mech)
    rng = DeterministicRng(99).fork("workout")
    now = 0.0
    checked = 0
    for _ in range(400):
        now += rng.uniform() * 6.0
        if rng.uniform() < 0.7:
            request = make_request(
                bank=rng.randint(0, small_spec.banks_per_rank - 1),
                row=rng.randint(0, 7),
                write=rng.uniform() < 0.3,
            )
            controller.enqueue(request, now)
        controller.step(now)
        for queue in (controller.read_queue, controller.write_queue):
            for key, entry in queue.bank_cache.items():
                if now >= entry[4]:
                    continue  # expired: will be re-walked before use
                bank = device.flat_banks[key]
                tag, req = _oracle(queue.by_bank[key], bank.open_row, mech, now)
                checked += 1
                assert entry[0] == tag, (key, now, entry)
                if tag != _IDLE:
                    assert entry[1] is req, (key, now, entry)
                if tag == _ROW:
                    expected = (
                        CommandKind.ACT if bank.open_row is None else CommandKind.PRE
                    )
                    assert entry[2] is expected
    assert checked > 200  # the workout genuinely exercised live entries


def test_multi_rank_cache_only_holds_queued_banks(small_spec):
    """On a two-rank device the one select caches decisions for both
    ranks; after every step each queue's cache covers only banks that
    still have queued requests (a departed bank's entry never lingers)."""
    from dataclasses import replace

    from repro.dram.address import DecodedAddress

    spec2 = replace(small_spec, ranks=2)
    device2 = DramDevice(spec2)
    mech = EpochBlocker(epoch_ns=40.0, block_fraction=0.3)
    mech.advance_to(0.0)
    controller = MemoryController(spec2, device2, mitigation=mech)
    rng = DeterministicRng(7).fork("multirank")
    now = 0.0
    cached_ranks = set()
    for _ in range(300):
        now += rng.uniform() * 5.0
        if rng.uniform() < 0.7:
            address = DecodedAddress(
                rng.randint(0, 1),
                rng.randint(0, spec2.banks_per_rank - 1),
                rng.randint(0, 7),
                0,
            )
            controller.enqueue(Request(0, RequestKind.READ, address, arrival=now), now)
        controller.step(now)
        for queue in (controller.read_queue, controller.write_queue):
            assert set(queue.bank_cache) <= set(queue.by_bank)
            cached_ranks.update(key >> BANK_KEY_BITS for key in queue.bank_cache)
    assert cached_ranks == {0, 1}
