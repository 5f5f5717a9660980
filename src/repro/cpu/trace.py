"""Memory access traces.

A trace is a stream of :class:`TraceRecord` items: ``gap`` instructions
of pure compute followed by one cache-line access at ``address``.  Cores
replay traces; workload generators (``repro.workloads``) synthesize them.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.utils.validation import ConfigError, require


class TraceRecord:
    """``gap`` compute instructions, then one access to ``address``.

    An immutable value: fields compare and hash as the tuple
    ``(gap, address, is_write)``, and assignment raises
    :class:`AttributeError`.  Trace generators build one per access, so
    construction is a plain slotted ``__init__`` (both checks kept)
    rather than a frozen dataclass's ``object.__setattr__`` per field.
    """

    __slots__ = ("gap", "address", "is_write")

    gap: int
    address: int
    is_write: bool

    def __init__(self, gap: int, address: int, is_write: bool = False) -> None:
        if gap < 0:
            raise ConfigError("instruction gap must be non-negative")
        if address < 0:
            raise ConfigError("address must be non-negative")
        _set_gap(self, gap)
        _set_address(self, address)
        _set_is_write(self, is_write)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.gap, self.address, self.is_write) == (
            other.gap,
            other.address,
            other.is_write,
        )

    def __hash__(self) -> int:
        return hash((self.gap, self.address, self.is_write))

    def __repr__(self) -> str:
        return (
            f"TraceRecord(gap={self.gap!r}, address={self.address!r}, "
            f"is_write={self.is_write!r})"
        )

    def __reduce__(self):
        return TraceRecord, (self.gap, self.address, self.is_write)


# The slot descriptors' setters: the one way to fill a record's fields
# past its raising ``__setattr__``.
_set_gap = TraceRecord.gap.__set__
_set_address = TraceRecord.address.__set__
_set_is_write = TraceRecord.is_write.__set__


class Trace:
    """Interface: an endless (or looping) stream of records."""

    def next_record(self) -> TraceRecord:
        raise NotImplementedError


class ListTrace(Trace):
    """Replays a fixed record list, looping when exhausted."""

    def __init__(self, records: Iterable[TraceRecord], loop: bool = True) -> None:
        self.records = list(records)
        require(len(self.records) > 0, "trace must contain at least one record")
        self.loop = loop
        self._index = 0

    def next_record(self) -> TraceRecord:
        if self._index >= len(self.records):
            if not self.loop:
                raise StopIteration("trace exhausted")
            self._index = 0
        record = self.records[self._index]
        self._index += 1
        return record


class CallableTrace(Trace):
    """Wraps a generator function producing records on demand."""

    def __init__(self, fn: Callable[[], TraceRecord]) -> None:
        self._fn = fn

    def next_record(self) -> TraceRecord:
        return self._fn()
