"""Memory requests as seen by the controller."""

from __future__ import annotations

import enum

from repro.dram.address import BANK_KEY_BITS, DecodedAddress


class RequestKind(enum.Enum):
    """Read or write (cache-line granularity)."""

    READ = "read"
    WRITE = "write"


class Request:
    """One cache-line memory request from a thread.

    Requests compare by identity: each models one physical in-flight
    access, and queue removal relies on the interpreter's identity fast
    path instead of a field-by-field comparison over every scanned
    entry.  A hand-written slotted class rather than a dataclass: a
    core constructs one per LLC miss, and the dataclass ``__init__`` +
    ``__post_init__`` pair costs a second Python call per request on
    that path.

    ``address`` carries the decoded DRAM coordinates.
    ``queue_seq`` is assigned by the request queue on insertion and
    orders FR-FCFS tie-breaks (arrival order within the queue).

    ``blocked_until``/``blocked_wake`` cache a mitigation's "unsafe
    until ``blocked_wake``" verdict: the scheduler trusts it without
    re-querying while ``now < blocked_until`` (the verdict's stability
    horizon, see ``MitigationMechanism.act_block_stable``).
    ``safe_act_time``/``safe_until`` cache a "safe now" verdict the same
    way: it stands while the bank's ``last_act_time`` still equals
    ``safe_act_time`` (no ACT on the bank since) and ``now <
    safe_until`` (the stability horizon in force at that answer).
    """

    __slots__ = (
        "thread",
        "kind",
        "address",
        "arrival",
        "queue_seq",
        "blocked_until",
        "blocked_wake",
        "safe_act_time",
        "safe_until",
        "is_write",
        "channel",
        "rank",
        "bank",
        "row",
        "col",
        "bank_key",
    )

    def __init__(
        self,
        thread: int,
        kind: RequestKind,
        address: DecodedAddress,
        arrival: float,
    ) -> None:
        self.thread = thread
        self.kind = kind
        self.address = address
        self.arrival = arrival
        self.queue_seq = 0
        self.blocked_until = 0.0
        self.blocked_wake = 0.0
        self.safe_act_time = 0.0
        self.safe_until = 0.0
        # Denormalized plain attributes: these are read in the
        # scheduler's innermost loop (and the MemorySystem's channel
        # router), where a property or a nested dataclass hop per
        # access is measurable.
        self.is_write = kind is RequestKind.WRITE
        rank = address.rank
        bank = address.bank
        self.channel = address.channel
        self.rank = rank
        self.bank = bank
        self.row = address.row
        self.col = address.col
        self.bank_key = (rank << BANK_KEY_BITS) | bank
