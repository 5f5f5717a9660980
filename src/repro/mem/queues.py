"""Bounded request queues (Table 5: 64-entry read and write queues).

The queue maintains two views of its contents: a flat arrival-ordered
list (``items``) and a per-bank index (``by_bank``) keyed by
``Request.bank_key``.  FR-FCFS walks the per-bank view — one entry per
bank with queued requests, at most ranks x banks — instead of the
request list; arrival-order tie-breaking is preserved through
``Request.queue_seq``, assigned monotonically on insertion.

Beside the views sits the scheduler's **per-bank decision cache**
(``bank_cache``): the FR-FCFS policy stores each bank's decision (best
candidate request + command kind + verdict expiry + bank-local time)
here and trusts it until the entry is dropped or expires.  Dropping is
cooperative:

* the queue itself drops the bank's entry on ``push`` (a new arrival
  can become the oldest hit or kill a precharge decision via hit
  protection) and on ``remove`` (the cached candidate may be the
  departing request);
* the memory controller pops a bank's entry from ``bank_cache``
  whenever a command changes the bank's row-buffer state or its
  mitigation verdicts (ACT/PRE/RD/WR/VREF), and drops a whole rank's
  through :meth:`invalidate_rank` on REF;
* time-driven verdict changes (a blocked row's delay expiring, a
  blacklist epoch rotation) need no callback: every cached entry carries
  its own expiry instant and the scheduler re-walks the bank once
  ``now`` reaches it.

A bank in ``by_bank`` but absent from ``bank_cache`` is dirty; the
policy re-walks it on the next select and re-caches the result.
"""

from __future__ import annotations

from repro.dram.address import BANK_KEY_BITS, bank_key
from repro.mem.request import Request
from repro.utils.validation import require


class RequestQueue:
    """A FIFO-ordered, capacity-bounded request queue.

    Order is arrival order; FR-FCFS ties break toward older requests
    (smaller ``queue_seq``).  The scheduler reads ``by_bank`` and owns
    ``bank_cache``; everything else goes through the methods below.
    """

    __slots__ = ("capacity", "_items", "by_bank", "bank_cache", "_next_seq")

    def __init__(self, capacity: int = 64) -> None:
        require(capacity >= 1, "queue capacity must be >= 1")
        self.capacity = capacity
        self._items: list[Request] = []
        #: Arrival-ordered requests per bank_key (scheduler hot path).
        self.by_bank: dict[int, list[Request]] = {}
        #: Scheduler-maintained per-bank decision cache: bank_key ->
        #: entry tuple (see ``repro.mem.scheduler``).  Entries are
        #: dropped here on push/remove and by the controller on
        #: row-buffer / verdict changes; only the scheduler inserts
        #: them, and only for banks in ``by_bank``, so its keys are
        #: always a subset of ``by_bank``'s.
        self.bank_cache: dict[int, tuple] = {}
        self._next_seq = 0

    @property
    def items(self) -> list[Request]:
        """The queue contents in arrival order (read-only by convention;
        exposed without copying for the scheduler's hot path)."""
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def push(self, request: Request) -> None:
        """Append ``request``; raises if the queue is full."""
        require(not self.full, "pushing into a full request queue")
        request.queue_seq = self._next_seq
        self._next_seq += 1
        self._items.append(request)
        key = request.bank_key
        bank_list = self.by_bank.get(key)
        if bank_list is None:
            self.by_bank[key] = [request]
        else:
            bank_list.append(request)
        self.bank_cache.pop(key, None)

    def remove(self, request: Request) -> None:
        """Remove a serviced request."""
        self._items.remove(request)
        key = request.bank_key
        bank_list = self.by_bank[key]
        if len(bank_list) == 1:
            del self.by_bank[key]
        else:
            bank_list.remove(request)
        self.bank_cache.pop(key, None)

    # ------------------------------------------------------------------
    # Dirty-bank tracking (controller-facing).
    # ------------------------------------------------------------------
    def invalidate_rank(self, rank: int) -> None:
        """Mark every bank of ``rank`` dirty (rank-wide commands: REF)."""
        lo = rank << BANK_KEY_BITS
        hi = lo + (1 << BANK_KEY_BITS)
        for key in [k for k in self.bank_cache if lo <= k < hi]:
            del self.bank_cache[key]
