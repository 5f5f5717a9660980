"""Unit tests for request queues."""

import pytest

from repro.dram.address import DecodedAddress
from repro.mem.queues import RequestQueue
from repro.mem.request import Request, RequestKind
from repro.utils.validation import ConfigError


def make_request(thread=0, bank=0, row=0, write=False):
    kind = RequestKind.WRITE if write else RequestKind.READ
    return Request(thread, kind, DecodedAddress(0, bank, row, 0), arrival=0.0)


def test_fifo_order_preserved():
    queue = RequestQueue(4)
    requests = [make_request(row=i) for i in range(3)]
    for r in requests:
        queue.push(r)
    assert list(queue) == requests


def test_capacity_enforced():
    queue = RequestQueue(2)
    queue.push(make_request())
    queue.push(make_request())
    assert queue.full
    with pytest.raises(ConfigError):
        queue.push(make_request())


def test_remove_and_len():
    queue = RequestQueue(4)
    a, b = make_request(row=1), make_request(row=2)
    queue.push(a)
    queue.push(b)
    queue.remove(a)
    assert len(queue) == 1
    assert list(queue) == [b]
    assert not queue.empty


def test_request_denormalized_fields():
    r = make_request(thread=3, bank=5, row=77, write=True)
    assert r.is_write
    assert r.rank == 0 and r.bank == 5 and r.row == 77
    assert r.bank_key == 5
