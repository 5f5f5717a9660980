"""The benign record streams are frozen: see ``tests/trace_digest.py``."""

from trace_digest import FROZEN, digests


def test_record_streams_match_frozen_digest():
    assert digests() == FROZEN
