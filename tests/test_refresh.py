"""Unit tests for the refresh manager."""

import pytest

from repro.dram.spec import DDR4_2400
from repro.mem.refresh import RefreshManager
from repro.utils.validation import ConfigError


def test_first_deadline_is_one_interval():
    manager = RefreshManager(DDR4_2400)
    assert not manager.pending(0, DDR4_2400.tREFI - 1.0)
    assert manager.pending(0, DDR4_2400.tREFI)


def test_deadline_advances_by_fixed_interval():
    manager = RefreshManager(DDR4_2400)
    due = manager.next_due[0]
    manager.on_ref_issued(0, due + 5.0)
    assert manager.next_due[0] == pytest.approx(due + DDR4_2400.tREFI)
    assert manager.refreshes_issued[0] == 1


def test_deadline_catchup_bounded():
    manager = RefreshManager(DDR4_2400)
    far_future = 100 * DDR4_2400.tREFI
    manager.on_ref_issued(0, far_future)
    # The deadline never falls unrecoverably behind the clock.
    assert manager.next_due[0] >= far_future - 8 * DDR4_2400.tREFI


def test_interval_scale_shrinks_interval():
    manager = RefreshManager(DDR4_2400, interval_scale=0.5)
    assert manager.interval == pytest.approx(DDR4_2400.tREFI / 2)


def test_invalid_scale_rejected():
    with pytest.raises(ConfigError):
        RefreshManager(DDR4_2400, interval_scale=0.0)


def test_multi_rank_deadlines_staggered():
    from dataclasses import replace

    spec = replace(DDR4_2400, ranks=2)
    manager = RefreshManager(spec)
    assert manager.next_due[0] != manager.next_due[1]
    assert manager.earliest == min(manager.next_due)
