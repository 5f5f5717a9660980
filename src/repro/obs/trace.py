"""Structured trace events: ring-buffered capture and Perfetto export.

Events are plain tuples ``(ts_ns, category, name, track, args)`` —
cheap to emit, trivial to filter — held in a bounded ``deque`` so a
pathological run cannot grow without limit (the sink counts what the
ring dropped).  :func:`to_perfetto` renders them as Chrome/Perfetto
``trace_event`` JSON: one process per category, one thread lane per
track (the memory channel for per-channel layers), every event an
instant (``"ph": "i"``) stamped in microseconds.

The DRAM command stream rides the existing
:attr:`repro.dram.device.DramDevice.command_log` hook — the device
appends ``(now, kind_name, rank, bank, row, col)`` tuples to anything
with an ``append`` method, and :class:`ChannelCommandLog` is exactly
that adapter, so command capture adds **zero** new code to the device's
hot path.
"""

from __future__ import annotations

import json
from collections import deque

#: (ts_ns, category, name, track, args-dict-or-None)
TraceEvent = tuple

#: Perfetto pid assignment per category (stable across runs so diffs of
#: exported traces line up); unknown categories get pids above these.
_CATEGORY_PIDS = {"dram": 1, "mem": 2, "mitigation": 3, "os": 4}


class TraceSink:
    """Bounded, append-only store of typed trace events."""

    def __init__(self, limit: int = 500_000) -> None:
        self._events: deque[TraceEvent] = deque(maxlen=limit)
        #: Events ever emitted (including ones the ring later dropped).
        self.total_emitted = 0
        self._reset_at: float | None = None

    # ------------------------------------------------------------------
    def emit(
        self, ts: float, category: str, name: str, track: int = 0, args=None
    ) -> None:
        """Record one instant event (the :class:`Probe` call target)."""
        self.total_emitted += 1
        self._events.append((ts, category, name, track, args))

    def note_measurement_reset(self, now: float) -> None:
        """Mark the warmup boundary: events at or before ``now`` predate
        the counter reset (the warmup batch runs *to* the boundary, so
        post-reset events are strictly later)."""
        self._reset_at = now

    # ------------------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """Every retained event, in emission order."""
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events lost to the ring bound."""
        return self.total_emitted - len(self._events)

    @property
    def measure_start(self) -> float | None:
        """The warmup boundary, or ``None`` when no reset happened."""
        return self._reset_at

    def measured_events(self) -> list[TraceEvent]:
        """Events from the measured phase only: strictly after the
        warmup reset (pre-reset events can land exactly *on* the
        boundary; post-reset ones cannot), or everything when the run
        had no warmup.  These are the events whose counts match the
        counters in :class:`~repro.sim.stats.SimResult`."""
        if self._reset_at is None:
            return self.events
        boundary = self._reset_at
        return [event for event in self._events if event[0] > boundary]

    def count(
        self, category: str | None = None, name: str | None = None,
        measured_only: bool = False,
    ) -> int:
        """Number of retained events matching ``category``/``name``."""
        events = self.measured_events() if measured_only else self._events
        return sum(
            1
            for event in events
            if (category is None or event[1] == category)
            and (name is None or event[2] == name)
        )


class ChannelCommandLog:
    """``DramDevice.command_log`` adapter: forwards the device's command
    records into a :class:`TraceSink` under the ``dram`` category, with
    the channel index as the track."""

    __slots__ = ("_emit", "channel")

    def __init__(self, sink: TraceSink, channel: int) -> None:
        self._emit = sink.emit
        self.channel = channel

    def append(self, record) -> None:
        now, kind_name, rank, bank, row, col = record
        args = {"rank": rank, "bank": bank}
        if row is not None:
            args["row"] = row
        if col is not None:
            args["col"] = col
        self._emit(now, "dram", kind_name, self.channel, args)


# ----------------------------------------------------------------------
# Perfetto / Chrome trace_event export.
# ----------------------------------------------------------------------
def to_perfetto(events, measure_start: float | None = None) -> dict:
    """Render events as a Chrome/Perfetto ``trace_event`` JSON object.

    One "process" per category, one "thread" per track; every event is
    an instant with thread scope.  Timestamps convert from simulated
    nanoseconds to the format's microseconds; the original nanosecond
    stamp rides along in ``args.ts_ns``.  ``measure_start`` (the warmup
    boundary) is recorded as an instant on a dedicated ``sim`` lane so
    the measured window is visible on the timeline.
    """
    trace_events: list[dict] = []
    pids: dict[str, int] = dict(_CATEGORY_PIDS)
    named: set[int] = set()
    for event in events:
        ts, category, name, track, args = event
        pid = pids.get(category)
        if pid is None:
            pid = max(pids.values(), default=0) + 1
            pids[category] = pid
        if pid not in named:
            named.add(pid)
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": category},
                }
            )
        payload = {"ts_ns": ts}
        if args:
            payload.update(args)
        trace_events.append(
            {
                "name": name,
                "cat": category,
                "ph": "i",
                "s": "t",
                "ts": ts / 1000.0,
                "pid": pid,
                "tid": track,
                "args": payload,
            }
        )
    if measure_start is not None:
        trace_events.append(
            {
                "name": "measure_start",
                "cat": "sim",
                "ph": "i",
                "s": "g",
                "ts": measure_start / 1000.0,
                "pid": 0,
                "tid": 0,
                "args": {"ts_ns": measure_start},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ns"}


def write_perfetto(path, events, measure_start: float | None = None) -> dict:
    """Serialize events (and the warmup boundary) to ``path`` as
    Perfetto JSON; returns the written object."""
    document = to_perfetto(events, measure_start=measure_start)
    with open(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return document
