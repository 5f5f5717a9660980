"""Unit tests for FR-FCFS scheduling and mitigation gating.

Every case runs the fast :class:`FrFcfsPolicy` on a
:class:`RequestQueue` and checks it against the naive
:class:`ReferenceFrFcfsPolicy` on the same queue.
"""

import pytest

from repro.dram.address import DecodedAddress
from repro.dram.commands import Command, CommandKind
from repro.dram.device import DramDevice
from repro.mem.queues import RequestQueue
from repro.mem.request import Request, RequestKind
from repro.mem.scheduler import FrFcfsPolicy, ReferenceFrFcfsPolicy
from repro.mitigations.base import MitigationMechanism, NoMitigation

NO_BLOCK = frozenset()


def make_request(bank=0, row=0, write=False, thread=0):
    kind = RequestKind.WRITE if write else RequestKind.READ
    return Request(thread, kind, DecodedAddress(0, bank, row, 0), arrival=0.0)


def select(requests, device, mitigation, now, blocked_ranks):
    """One FR-FCFS step over ``requests``, pushed in order into a fresh
    queue; asserts the fast and reference policies agree."""
    queue = RequestQueue()
    for req in requests:
        queue.push(req)
    ref = ReferenceFrFcfsPolicy().select(queue, device, mitigation, now, blocked_ranks)
    sel = FrFcfsPolicy().select(queue, device, mitigation, now, blocked_ranks)
    assert sel == ref
    return sel


class BlockRow(MitigationMechanism):
    """Test double: blocks ACTs to one row until a fixed time."""

    def __init__(self, row, until):
        super().__init__()
        self.row = row
        self.until = until

    def act_allowed_at(self, rank, bank, row, thread, now):
        if row == self.row:
            return max(now, self.until)
        return now


@pytest.fixture
def device(small_spec):
    return DramDevice(small_spec)


def test_closed_bank_gets_act(device):
    sel = select([make_request(row=5)], device, NoMitigation(), 0.0, NO_BLOCK)
    assert sel.command.kind is CommandKind.ACT
    assert sel.command.row == 5


def test_row_hit_prioritized_over_older_conflict(device, small_spec):
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    now = small_spec.tRCD
    older_conflict = make_request(row=9)
    younger_hit = make_request(row=5)
    sel = select(
        [older_conflict, younger_hit], device, NoMitigation(), now, NO_BLOCK
    )
    assert sel.command.kind is CommandKind.RD
    assert sel.request is younger_hit


def test_conflict_precharges_when_no_hits(device, small_spec):
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    now = small_spec.tRAS + 1.0
    sel = select([make_request(row=9)], device, NoMitigation(), now, NO_BLOCK)
    assert sel.command.kind is CommandKind.PRE


def test_no_precharge_under_pending_hit(device, small_spec):
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    now = small_spec.tRAS + 1.0
    conflict = make_request(row=9)
    # A pending hit whose column timing is not yet ready still protects
    # the open row from being precharged.
    hit = make_request(row=5)
    device.bank(0, 0).next_rd = now + 100.0  # force the hit not-ready
    sel = select([conflict, hit], device, NoMitigation(), now, NO_BLOCK)
    assert sel.command is None
    assert sel.next_ready == pytest.approx(now + 100.0)


def test_unsafe_act_skipped_younger_safe_proceeds(device):
    blocked = make_request(row=7)
    safe = make_request(row=8)
    mitigation = BlockRow(row=7, until=500.0)
    sel = select([blocked, safe], device, mitigation, 0.0, NO_BLOCK)
    assert sel.command.kind is CommandKind.ACT
    assert sel.command.row == 8


def test_all_unsafe_reports_wake_time(device):
    blocked = make_request(row=7)
    mitigation = BlockRow(row=7, until=500.0)
    sel = select([blocked], device, mitigation, 0.0, NO_BLOCK)
    assert sel.command is None
    assert sel.next_ready == pytest.approx(500.0)


def test_blocked_rank_accepts_no_row_commands(device):
    sel = select(
        [make_request(row=5)], device, NoMitigation(), 0.0, frozenset({0})
    )
    assert sel.command is None


def test_blocked_rank_still_serves_column_hits(device, small_spec):
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    sel = select(
        [make_request(row=5)], device, NoMitigation(), small_spec.tRCD, frozenset({0})
    )
    assert sel.command.kind is CommandKind.RD


def test_one_row_command_per_bank_per_step(device):
    a = make_request(bank=0, row=1)
    b = make_request(bank=0, row=2)
    c = make_request(bank=1, row=3)
    sel = select([a, b, c], device, NoMitigation(), 0.0, NO_BLOCK)
    # Oldest per bank wins: request a (bank 0).
    assert sel.request is a


def test_write_hit_selected(device, small_spec):
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    sel = select(
        [make_request(row=5, write=True)],
        device,
        NoMitigation(),
        small_spec.tRCD,
        NO_BLOCK,
    )
    assert sel.command.kind is CommandKind.WR
