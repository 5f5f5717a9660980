"""Unit and property tests for address mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.dram.address import AddressMapping, DecodedAddress, MappingScheme
from repro.dram.spec import DDR4_2400


@pytest.fixture(params=[MappingScheme.MOP, MappingScheme.ROW_BANK_COL])
def mapping(request):
    return AddressMapping(DDR4_2400, request.param)


_CAPACITY = DDR4_2400.capacity_bytes


@given(st.integers(min_value=0, max_value=_CAPACITY - 1))
def test_decode_encode_roundtrip_mop(address):
    mapping = AddressMapping(DDR4_2400, MappingScheme.MOP)
    line_address = (address // 64) * 64
    assert mapping.encode(mapping.decode(line_address)) == line_address


@given(st.integers(min_value=0, max_value=_CAPACITY - 1))
def test_decode_encode_roundtrip_rbc(address):
    mapping = AddressMapping(DDR4_2400, MappingScheme.ROW_BANK_COL)
    line_address = (address // 64) * 64
    assert mapping.encode(mapping.decode(line_address)) == line_address


def test_addresses_beyond_capacity_wrap():
    mapping = AddressMapping(DDR4_2400, MappingScheme.MOP)
    assert mapping.decode(_CAPACITY) == mapping.decode(0)


def test_decode_fields_in_range(mapping):
    spec = DDR4_2400
    for address in range(0, 1 << 20, 4096 + 64):
        d = mapping.decode(address)
        assert 0 <= d.rank < spec.ranks
        assert 0 <= d.bank < spec.banks_per_rank
        assert 0 <= d.row < spec.rows_per_bank
        assert 0 <= d.col < spec.columns_per_row


def test_mop_interleaves_runs_across_banks():
    mapping = AddressMapping(DDR4_2400, MappingScheme.MOP, mop_run=4)
    decoded = [mapping.decode(i * 64) for i in range(16)]
    # First 4 lines in bank 0, next 4 in bank 1, ...
    assert [d.bank for d in decoded[:8]] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert all(d.row == decoded[0].row for d in decoded)


def test_row_bank_col_keeps_row_contiguous():
    mapping = AddressMapping(DDR4_2400, MappingScheme.ROW_BANK_COL)
    spec = DDR4_2400
    lines_per_row = spec.columns_per_row
    decoded = [mapping.decode(i * 64) for i in range(lines_per_row)]
    assert all(d.bank == 0 and d.row == 0 for d in decoded)
    assert [d.col for d in decoded] == list(range(lines_per_row))


def test_encode_specific_coordinate():
    mapping = AddressMapping(DDR4_2400, MappingScheme.MOP)
    target = DecodedAddress(rank=0, bank=5, row=1234, col=17)
    assert mapping.decode(mapping.encode(target)) == target


@pytest.mark.parametrize("scheme", list(MappingScheme))
@pytest.mark.parametrize("channels, ranks", [(1, 1), (2, 1), (4, 1), (2, 2)])
def test_layout_strides_sum_to_encode(scheme, channels, ranks):
    """``layout(rank)``'s offsets and strides add up to ``encode`` for
    every rank, bank, channel and column, and across the row range."""
    from dataclasses import replace

    spec = replace(DDR4_2400, channels=channels, ranks=ranks)
    mapping = AddressMapping(spec, scheme)
    for rank in range(ranks):
        layout = mapping.layout(rank)
        assert len(layout.bank_offsets) == spec.banks_per_rank
        assert len(layout.col_offsets) == spec.columns_per_row
        for channel in range(channels):
            for bank in range(spec.banks_per_rank):
                for row in (0, 1, 1234, spec.rows_per_bank - 1):
                    for col in range(spec.columns_per_row):
                        target = DecodedAddress(rank, bank, row, col, channel)
                        assert (
                            layout.bank_offsets[bank]
                            + row * layout.row_stride
                            + layout.col_offsets[col]
                            + channel * layout.channel_stride
                        ) == mapping.encode(target)


def test_mop_run_must_divide_columns():
    import pytest as _pytest
    from repro.utils.validation import ConfigError

    with _pytest.raises(ConfigError):
        AddressMapping(DDR4_2400, MappingScheme.MOP, mop_run=7)


# ----------------------------------------------------------------------
# Channel bits.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", list(MappingScheme))
@pytest.mark.parametrize("channels", [1, 2, 4])
def test_channel_bit_roundtrip_all_schemes(scheme, channels):
    """encode -> decode round-trips every (channel, rank, bank, row, col)
    coordinate for every mapping scheme and channel count."""
    spec = DDR4_2400.with_channels(channels)
    mapping = AddressMapping(spec, scheme)
    for channel in range(channels):
        for bank in (0, 3, spec.banks_per_rank - 1):
            for row in (0, 1234, spec.rows_per_bank - 1):
                for col in (0, 17, spec.columns_per_row - 1):
                    target = DecodedAddress(0, bank, row, col, channel)
                    assert mapping.decode(mapping.encode(target)) == target


@pytest.mark.parametrize("scheme", list(MappingScheme))
@given(st.integers(min_value=0, max_value=4 * _CAPACITY - 1))
def test_channel_decode_encode_roundtrip(scheme, address):
    spec = DDR4_2400.with_channels(4)
    mapping = AddressMapping(spec, scheme)
    line_address = (address // 64) * 64
    assert mapping.encode(mapping.decode(line_address)) == line_address


@pytest.mark.parametrize("scheme", list(MappingScheme))
def test_single_channel_decode_matches_channel_free_layout(scheme):
    """channels=1 decodes bit-identically to the pre-channel mapping
    (the channel digit is the identity), so every existing figure and
    golden value stays valid."""
    base = AddressMapping(DDR4_2400, scheme)
    one = AddressMapping(DDR4_2400.with_channels(1), scheme)
    for address in range(0, 1 << 22, 64 * 997):
        d_base, d_one = base.decode(address), one.decode(address)
        assert d_one == d_base
        assert d_one.channel == 0


def test_mop_channel_interleaves_at_run_granularity():
    spec = DDR4_2400.with_channels(2)
    mapping = AddressMapping(spec, MappingScheme.MOP, mop_run=4)
    decoded = [mapping.decode(i * 64) for i in range(16)]
    # One MOP run stays in one channel, the next run moves channels,
    # and the bank advances only after all channels were visited.
    assert [d.channel for d in decoded] == [0] * 4 + [1] * 4 + [0] * 4 + [1] * 4
    assert [d.bank for d in decoded[:8]] == [0] * 8
    assert [d.bank for d in decoded[8:16]] == [1] * 8
