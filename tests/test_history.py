"""Unit and property tests for the activation history buffer."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.history import ActivationHistoryBuffer


def test_capacity_from_tfaw_sizing():
    hb = ActivationHistoryBuffer(t_delay_ns=7770.0, t_faw_ns=35.0)
    assert hb.capacity == math.ceil(4 * 7770.0 / 35.0)  # 888 (Table 1: ~887)


def test_recent_activation_found():
    hb = ActivationHistoryBuffer(t_delay_ns=100.0, t_faw_ns=35.0)
    hb.record(5, now=10.0)
    assert hb.last_activation(5, now=50.0) is not None
    assert hb.last_activation(5, now=50.0) == 10.0


def test_expiry_after_tdelay():
    hb = ActivationHistoryBuffer(t_delay_ns=100.0, t_faw_ns=35.0)
    hb.record(5, now=10.0)
    assert hb.last_activation(5, now=110.1) is None
    assert len(hb) == 0


def test_allowed_at_blocks_until_expiry():
    hb = ActivationHistoryBuffer(t_delay_ns=100.0, t_faw_ns=35.0)
    hb.record(5, now=10.0)
    assert hb.allowed_at(5, now=50.0) == pytest.approx(110.0)
    assert hb.allowed_at(5, now=120.0) == 120.0
    assert hb.allowed_at(99, now=50.0) == 50.0  # never recorded


def test_reactivation_refreshes_window():
    hb = ActivationHistoryBuffer(t_delay_ns=100.0, t_faw_ns=35.0)
    hb.record(5, now=0.0)
    hb.record(5, now=80.0)
    assert hb.last_activation(5, now=150.0) is not None
    assert hb.allowed_at(5, now=150.0) == pytest.approx(180.0)


def test_overflow_evicts_oldest():
    hb = ActivationHistoryBuffer(t_delay_ns=35.0, t_faw_ns=35.0)
    assert hb.capacity == 4
    for row in range(6):
        hb.record(row, now=1.0)
    assert hb.overflows == 2
    assert hb.last_activation(0, now=1.0) is None
    assert hb.last_activation(5, now=1.0) is not None


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.floats(min_value=0.0, max_value=1000.0),
        ),
        max_size=50,
    )
)
@settings(max_examples=50, deadline=None)
def test_no_stale_positive(events):
    """After any insertion sequence, a row reported as recently-activated
    must genuinely have an in-window record."""
    hb = ActivationHistoryBuffer(t_delay_ns=50.0, t_faw_ns=35.0)
    events = sorted(events, key=lambda e: e[1])
    for row, time in events:
        hb.record(row, time)
    now = (events[-1][1] if events else 0.0) + 25.0
    for row in range(31):
        if hb.last_activation(row, now) is not None:
            in_window = [t for r, t in events if r == row and t > now - 50.0]
            assert in_window
