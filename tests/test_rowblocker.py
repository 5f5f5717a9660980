"""Unit tests for RowBlocker (blacklisting + history gating)."""

import pytest

from repro.core.config import BlockHammerConfig
from repro.core.rowblocker import RowBlocker
from repro.dram.spec import DDR4_2400
from repro.utils.rng import DeterministicRng


def make_rowblocker(nbl=16, t_cbf=10_000.0):
    config = BlockHammerConfig(
        nrh=16 * nbl,
        t_refw_ns=t_cbf,
        t_cbf_ns=t_cbf,
        nbl=nbl,
        cbf_size=1024,
        t_rc_ns=46.25,
        t_faw_ns=35.0,
    )
    return (
        RowBlocker(config, num_ranks=1, banks_per_rank=2, rows_per_bank=4096,
                   rng=DeterministicRng(3)),
        config,
    )


def test_unblacklisted_row_always_safe():
    rb, config = make_rowblocker()
    for i in range(10):
        assert rb.is_safe(0, 0, 5, 0, now=float(i))
        rb.on_activate(0, 0, 5, now=float(i))


def test_blacklisted_and_recent_row_delayed():
    rb, config = make_rowblocker(nbl=16)
    now = 0.0
    for _ in range(16):
        rb.on_activate(0, 0, 5, now)
        now += config.t_rc_ns
    # Row 5 crossed NBL and was just activated: unsafe until tDelay.
    allowed = rb.allowed_at(0, 0, 5, 0, now)
    assert allowed > now
    assert allowed == pytest.approx((now - config.t_rc_ns) + config.t_delay_ns)


def test_blacklisted_but_stale_row_safe():
    rb, config = make_rowblocker(nbl=16)
    now = 0.0
    for _ in range(16):
        rb.on_activate(0, 0, 5, now)
        now += config.t_rc_ns
    later = now + config.t_delay_ns + 1.0
    assert rb.is_safe(0, 0, 5, 0, later)


def test_blacklist_is_per_bank():
    rb, config = make_rowblocker(nbl=16)
    now = 0.0
    for _ in range(16):
        rb.on_activate(0, 0, 5, now)
        now += config.t_rc_ns
    # Same row number in the other bank is unaffected.
    assert rb.is_safe(0, 1, 5, 0, now)


def test_history_buffer_is_per_rank():
    """The HB stores rank-unique row IDs: bank 0 row 5 and bank 1 row 5
    are distinct entries."""
    rb, config = make_rowblocker(nbl=4)
    now = 0.0
    for _ in range(4):
        rb.on_activate(0, 0, 5, now)
        rb.on_activate(0, 1, 5, now)
        now += config.t_rc_ns
    assert rb.hbs[0].last_activation(0 * 4096 + 5, now) is not None
    assert rb.hbs[0].last_activation(1 * 4096 + 5, now) is not None


def test_on_activate_reports_blacklisted_state():
    rb, config = make_rowblocker(nbl=4)
    now = 0.0
    results = []
    for _ in range(6):
        results.append(rb.on_activate(0, 0, 5, now))
        now += config.t_delay_ns  # stay HB-safe
    assert results[:3] == [False, False, False]
    assert results[4] is True and results[5] is True


def test_epoch_rotation_unblacklists_idle_row():
    rb, config = make_rowblocker(nbl=8, t_cbf=10_000.0)
    now = 0.0
    for _ in range(8):
        rb.on_activate(0, 0, 5, now)
        now += config.t_rc_ns
    # After two full epochs with no activity the row is clean.
    later = now + config.t_cbf_ns + config.epoch_ns
    rb.maybe_rotate(later)
    assert rb.is_safe(0, 0, 5, 0, later)


def test_delay_stats_accumulate():
    rb, config = make_rowblocker(nbl=8)
    now = 0.0
    for _ in range(8):
        rb.on_activate(0, 0, 5, now)
        now += config.t_rc_ns
    blocked_at = rb.allowed_at(0, 0, 5, 0, now)
    assert blocked_at > now
    rb.on_activate(0, 0, 5, blocked_at)
    stats = rb.stats
    assert stats.delayed_acts == 1
    assert stats.total_acts == 9
    assert stats.delays_ns[0] == pytest.approx(blocked_at - now)


def test_true_positive_not_counted_as_false_positive():
    rb, config = make_rowblocker(nbl=8)
    now = 0.0
    for _ in range(8):
        rb.on_activate(0, 0, 5, now)
        now += config.t_rc_ns
    blocked_at = rb.allowed_at(0, 0, 5, 0, now)
    rb.on_activate(0, 0, 5, blocked_at)
    assert rb.stats.false_positive_acts == 0
    assert rb.stats.false_positive_rate == 0.0
