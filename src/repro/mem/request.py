"""Memory requests as seen by the controller."""

from __future__ import annotations

import enum

from repro.dram.address import BANK_KEY_BITS, DecodedAddress


class RequestKind(enum.Enum):
    """Read or write (cache-line granularity)."""

    READ = "read"
    WRITE = "write"


class ServiceClass(enum.Enum):
    """Row-buffer outcome of a request, recorded at first service."""

    HIT = "hit"  # row already open
    MISS = "miss"  # bank closed, ACT needed
    CONFLICT = "conflict"  # different row open, PRE needed first


class Request:
    """One cache-line memory request from a thread.

    Requests compare by identity: each models one physical in-flight
    access, and queue removal relies on the interpreter's identity fast
    path instead of a field-by-field comparison over every scanned
    entry.  A hand-written slotted class rather than a dataclass: a
    core constructs one per LLC miss, and the dataclass ``__init__`` +
    ``__post_init__`` pair costs a second Python call per request on
    that path.

    ``address`` carries the decoded DRAM coordinates.  The controller
    fills in ``service_class`` when the request first receives a command
    and ``complete_time`` when its data transfer finishes.
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
        "service_class",
        "complete_time",
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
        service_class: ServiceClass | None = None,
        complete_time: float | None = None,
        queue_seq: int = 0,
        blocked_until: float = 0.0,
        blocked_wake: float = 0.0,
    ) -> None:
        self.thread = thread
        self.kind = kind
        self.address = address
        self.arrival = arrival
        self.service_class = service_class
        self.complete_time = complete_time
        self.queue_seq = queue_seq
        self.blocked_until = blocked_until
        self.blocked_wake = blocked_wake
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

    def key(self) -> tuple[int, int]:
        """(rank, bank) the request targets."""
        return (self.address.rank, self.address.bank)
