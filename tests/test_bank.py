"""Unit tests for the bank state machine and timing rules."""

import pytest

from repro.dram.bank import Bank
from repro.dram.commands import CommandKind
from repro.dram.spec import DDR4_2400


@pytest.fixture
def bank():
    return Bank(DDR4_2400, rank_id=0, bank_id=0)


def test_initial_state_precharged(bank):
    assert bank.open_row is None
    assert bank.earliest(CommandKind.ACT) <= 0.0


def test_activate_opens_row_and_blocks_reactivation(bank):
    bank.issue(CommandKind.ACT, 7, now=100.0)
    assert bank.open_row == 7
    # tRC gates the next ACT even after a PRE.
    assert bank.earliest(CommandKind.ACT) == pytest.approx(100.0 + DDR4_2400.tRC)


def test_read_requires_trcd(bank):
    bank.issue(CommandKind.ACT, 7, now=0.0)
    assert bank.earliest(CommandKind.RD) == pytest.approx(DDR4_2400.tRCD)


def test_precharge_requires_tras(bank):
    bank.issue(CommandKind.ACT, 7, now=0.0)
    assert bank.earliest(CommandKind.PRE) == pytest.approx(DDR4_2400.tRAS)
    bank.issue(CommandKind.PRE, 7, now=DDR4_2400.tRAS)
    assert bank.open_row is None
    # tRP after PRE before next ACT.
    assert bank.earliest(CommandKind.ACT) >= DDR4_2400.tRAS + DDR4_2400.tRP


def test_act_to_act_respects_trc(bank):
    s = DDR4_2400
    bank.issue(CommandKind.ACT, 1, now=0.0)
    bank.issue(CommandKind.PRE, 1, now=s.tRAS)
    assert bank.earliest(CommandKind.ACT) == pytest.approx(s.tRC)


def test_write_recovery_gates_precharge(bank):
    s = DDR4_2400
    bank.issue(CommandKind.ACT, 3, now=0.0)
    bank.issue(CommandKind.WR, 3, now=s.tRCD)
    expected = s.tRCD + s.tCWL + s.tBL + s.tWR
    assert bank.earliest(CommandKind.PRE) >= expected


def test_read_to_precharge_trtp(bank):
    s = DDR4_2400
    bank.issue(CommandKind.ACT, 3, now=0.0)
    bank.issue(CommandKind.RD, 3, now=s.tRCD)
    assert bank.earliest(CommandKind.PRE) >= s.tRCD + s.tRTP


def test_refresh_occupies_bank_for_trfc(bank):
    s = DDR4_2400
    bank.issue(CommandKind.REF, 0, now=0.0)
    assert bank.earliest(CommandKind.ACT) == pytest.approx(s.tRFC)


def test_vref_occupies_bank_for_trc(bank):
    s = DDR4_2400
    bank.issue(CommandKind.VREF, 42, now=0.0)
    assert bank.earliest(CommandKind.ACT) == pytest.approx(s.tRC)
    assert bank.open_row is None


def test_stats_counters(bank):
    s = DDR4_2400
    bank.issue(CommandKind.ACT, 1, now=0.0)
    bank.issue(CommandKind.RD, 1, now=s.tRCD)
    bank.issue(CommandKind.WR, 1, now=s.tRCD + s.tCCD)
    bank.issue(CommandKind.PRE, 1, now=200.0)
    assert bank.stats.activations == 1
    assert bank.stats.reads == 1
    assert bank.stats.writes == 1
    assert bank.stats.precharges == 1


def test_column_commands_respect_tccd(bank):
    s = DDR4_2400
    bank.issue(CommandKind.ACT, 1, now=0.0)
    bank.issue(CommandKind.RD, 1, now=s.tRCD)
    assert bank.earliest(CommandKind.RD) == pytest.approx(s.tRCD + s.tCCD)
