"""Unit tests for rank-level timing (tRRD, tFAW)."""

import pytest

from repro.dram.commands import CommandKind
from repro.dram.rank import Rank
from repro.dram.spec import DDR4_2400


@pytest.fixture
def rank():
    return Rank(DDR4_2400, rank_id=0)


def test_trrd_between_acts(rank):
    rank.record_act(100.0)
    assert rank.earliest_act(100.0) == pytest.approx(100.0 + DDR4_2400.tRRD)


def test_tfaw_limits_four_acts(rank):
    s = DDR4_2400
    times = [0.0, s.tRRD, 2 * s.tRRD, 3 * s.tRRD]
    for t in times:
        rank.record_act(t)
    # A 5th ACT must wait until the first ACT's tFAW window closes.
    fifth = rank.earliest_act(times[-1] + s.tRRD)
    assert fifth >= times[0] + s.tFAW


def test_tfaw_window_slides(rank):
    s = DDR4_2400
    for t in (0.0, 10.0, 20.0, 30.0):
        rank.record_act(t)
    rank.record_act(s.tFAW)  # 5th ACT after window
    # Now the constraint is relative to the 2nd ACT (t=10).
    assert rank.earliest_act(s.tFAW) >= 10.0 + s.tFAW


def test_all_banks_precharged(rank):
    assert rank.all_banks_precharged()
    rank.banks[2].issue(CommandKind.ACT, 5, now=0.0)
    assert not rank.all_banks_precharged()
    rank.banks[2].issue(CommandKind.PRE, 5, now=DDR4_2400.tRAS)
    assert rank.all_banks_precharged()
