"""Unit tests for time-unit helpers."""

from repro.utils.units import MS, NS, SEC, US


def test_unit_ratios():
    assert US == 1000 * NS
    assert MS == 1000 * US
    assert SEC == 1000 * MS


def test_refresh_window_is_exact_in_float():
    # 64 ms in ns is far below float64's integer-precision limit.
    assert 64 * MS + 1.0 != 64 * MS
