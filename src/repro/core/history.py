"""RowBlocker-HB: the per-rank row activation history buffer
(Section 3.1.2).

A FIFO of the last tDelay-worth of row activations, implemented in
hardware as a circular CAM.  RowBlocker uses it to answer "was this row
activated within the last tDelay?"; if yes *and* the row is blacklisted,
the activation is delayed until the last activation ages past tDelay.

The buffer is sized ``ceil(4 * tDelay / tFAW)`` entries: tFAW bounds the
rank to four activations per tFAW window, so that is the worst-case
number of records a tDelay window can hold (887 entries for the Table 1
configuration).
"""

from __future__ import annotations

import math
from collections import deque

from repro.utils.validation import require


class ActivationHistoryBuffer:
    """Sliding-window record of (row, timestamp) activations for a rank."""

    def __init__(self, t_delay_ns: float, t_faw_ns: float) -> None:
        require(t_delay_ns > 0.0, "tDelay must be positive")
        require(t_faw_ns > 0.0, "tFAW must be positive")
        self.t_delay_ns = t_delay_ns
        self.capacity = max(1, math.ceil(4.0 * t_delay_ns / t_faw_ns))
        self._fifo: deque[tuple[int, float]] = deque()
        self._last_seen: dict[int, float] = {}
        self.overflows = 0

    def __len__(self) -> int:
        return len(self._fifo)

    def _evict_expired(self, now: float) -> None:
        horizon = now - self.t_delay_ns
        fifo = self._fifo
        last = self._last_seen
        while fifo and fifo[0][1] <= horizon:
            row, ts = fifo.popleft()
            if last.get(row) == ts:
                del last[row]

    def record(self, row: int, now: float) -> None:
        """Insert an activation record (called when an ACT issues)."""
        self._evict_expired(now)
        if len(self._fifo) >= self.capacity:
            # The tFAW sizing argument makes this unreachable in a
            # correctly-configured system; count it defensively.
            self.overflows += 1
            row_old, ts_old = self._fifo.popleft()
            if self._last_seen.get(row_old) == ts_old:
                del self._last_seen[row_old]
        self._fifo.append((row, now))
        self._last_seen[row] = now

    def last_activation(self, row: int, now: float) -> float | None:
        """Timestamp of ``row``'s most recent in-window activation."""
        self._evict_expired(now)
        return self._last_seen.get(row)

    def allowed_at(self, row: int, now: float) -> float:
        """Earliest time an ACT to a *blacklisted* ``row`` may issue."""
        last = self.last_activation(row, now)
        if last is None:
            return now
        return last + self.t_delay_ns
