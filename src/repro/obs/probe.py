"""The probe API and the telemetry bus.

A :class:`Probe` is a bound emitter: one category, one sink, truthy.
The disabled counterpart is *absence* — components carry a ``probe``
attribute that defaults to ``None`` (bound at class definition, never
touched on the hot path) and emission sites read::

    if self.probe is not None:
        self.probe(now, "vref", self.channel_id, rank=rank, bank=bank)

placed only on branches that already fire rarely, so it costs nothing
when observability is off.

:class:`TelemetryBus` owns the per-run sinks (trace ring buffer, epoch
metrics collector) and hands out probes per category.  The
:class:`~repro.sim.system.System` wires a bus through every layer at
construction time (``System(..., obs=bus)``).  A harness job carries
only its :class:`ObsConfig` and returns :meth:`TelemetryBus.record`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import EpochMetricsCollector
from repro.obs.trace import TraceSink
from repro.utils.validation import require


class Probe:
    """A category-bound event emitter attached to a trace sink."""

    __slots__ = ("category", "_emit")

    def __init__(self, sink, category: str) -> None:
        self.category = category
        # Bind the sink's emit method once: a probe call is one
        # dictionary build plus one deque append.
        self._emit = sink.emit

    def __call__(self, ts: float, name: str, track: int = 0, **args) -> None:
        """Record an instant event at ``ts`` (simulated nanoseconds).

        ``track`` maps to the Perfetto thread lane (the memory channel
        for per-channel layers, 0 for system-level ones); keyword
        arguments become the event's payload.
        """
        self._emit(ts, self.category, name, track, args or None)


@dataclass(frozen=True)
class ObsConfig:
    """What the telemetry bus records.

    Everything defaults to off: a default-constructed bus is inert and
    a ``System`` built without one is the production configuration.
    """

    #: Record typed trace events (and the DRAM command stream).
    trace: bool = False
    #: Ring-buffer bound on retained trace events (oldest drop first;
    #: :attr:`TraceSink.dropped` counts the loss).
    trace_limit: int = 500_000
    #: Mirror the DRAM command stream into the trace via the device's
    #: ``command_log`` hook (only meaningful with ``trace=True``).
    trace_commands: bool = True
    #: Collect per-epoch metrics rows.
    metrics: bool = False
    #: Metrics sampling period; ``None`` defers to the system default,
    #: :meth:`~repro.sim.system.System.default_epoch_ns` (the same rule
    #: the OS governor uses).
    metrics_epoch_ns: float | None = None

    def __post_init__(self) -> None:
        require(self.trace_limit >= 1, "trace_limit must be >= 1")
        # A non-positive period would resample one instant forever.
        require(
            self.metrics_epoch_ns is None or self.metrics_epoch_ns > 0,
            "metrics_epoch_ns must be None or > 0",
        )


class TelemetryBus:
    """Per-run observability switchboard: sinks plus probe hand-out."""

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config or ObsConfig()
        #: The trace sink, or ``None`` when tracing is off.
        self.trace: TraceSink | None = (
            TraceSink(self.config.trace_limit) if self.config.trace else None
        )
        #: The metrics collector, or ``None`` when metrics are off.
        self.metrics: EpochMetricsCollector | None = (
            EpochMetricsCollector() if self.config.metrics else None
        )

    def probe(self, category: str) -> Probe:
        """A :class:`Probe` for ``category`` on the trace sink.  Only a
        bus with tracing on hands out probes; components of an untraced
        run keep ``probe = None``."""
        return Probe(self.trace, category)

    def note_measurement_reset(self, now: float) -> None:
        """Forward the warmup boundary to every sink: counters sampled
        after this instant reflect the measured phase."""
        if self.trace is not None:
            self.trace.note_measurement_reset(now)
        if self.metrics is not None:
            self.metrics.note_measurement_reset(now)

    def record(self) -> dict:
        """Trace events, drops, warmup boundary and metric rows as plain
        data (lists, str-keyed dicts, scalars): the cache round-trips it."""
        trace = self.trace
        return {
            "events": [list(event) for event in trace.events] if trace else [],
            "dropped": trace.dropped if trace else 0,
            "measure_start": trace.measure_start if trace else None,
            "metric_rows": self.metrics.rows if self.metrics else [],
        }
