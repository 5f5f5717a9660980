"""Unit tests for trace primitives."""

import pickle

import pytest

from repro.cpu.trace import CallableTrace, ListTrace, TraceRecord
from repro.utils.validation import ConfigError


def test_record_validation():
    with pytest.raises(ConfigError):
        TraceRecord(gap=-1, address=0)
    with pytest.raises(ConfigError):
        TraceRecord(gap=0, address=-5)


def test_record_is_immutable():
    record = TraceRecord(1, 64)
    with pytest.raises(AttributeError):
        record.gap = 2
    with pytest.raises(AttributeError):
        record.address = 0
    with pytest.raises(AttributeError):
        record.extra = 1
    assert (record.gap, record.address, record.is_write) == (1, 64, False)


def test_record_value_semantics():
    a = TraceRecord(3, 128, True)
    b = TraceRecord(gap=3, address=128, is_write=True)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != TraceRecord(3, 128) and a != TraceRecord(4, 128, True)
    assert pickle.loads(pickle.dumps(a)) == a


def test_record_repr():
    assert repr(TraceRecord(3, 128, True)) == "TraceRecord(gap=3, address=128, is_write=True)"
    assert repr(TraceRecord(0, 64)) == "TraceRecord(gap=0, address=64, is_write=False)"


def test_list_trace_loops():
    trace = ListTrace([TraceRecord(1, 64), TraceRecord(2, 128)])
    seen = [trace.next_record() for _ in range(5)]
    assert [r.address for r in seen] == [64, 128, 64, 128, 64]


def test_list_trace_no_loop_raises():
    trace = ListTrace([TraceRecord(1, 64)], loop=False)
    trace.next_record()
    with pytest.raises(StopIteration):
        trace.next_record()


def test_empty_trace_rejected():
    with pytest.raises(ConfigError):
        ListTrace([])


def test_callable_trace():
    counter = iter(range(100))
    trace = CallableTrace(lambda: TraceRecord(0, next(counter) * 64))
    assert trace.next_record().address == 0
    assert trace.next_record().address == 64
