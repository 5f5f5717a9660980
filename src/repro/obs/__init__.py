"""Simulator-wide observability: probes, traces, metrics, profiling.

The telemetry bus (:mod:`repro.obs.probe`) is the one switchboard every
layer of the stack reports through when observability is enabled:

* **probes** — typed instant events (mitigation decisions, throttle
  blocks, VREF/REF issue, D-CBF rotations, governor actions) emitted
  from already-rare branches, so the disabled path costs nothing;
* **traces** (:mod:`repro.obs.trace`) — a ring-buffered sink of those
  events plus the DRAM command stream (via the existing
  ``DramDevice.command_log`` hook), exportable as Chrome/Perfetto
  ``trace_event`` JSON for timeline viewing;
* **epoch metrics** (:mod:`repro.obs.metrics`) — periodic samples of
  RHLI per thread, blacklist occupancy, queue depths and throttle-block
  counters, as tidy per-epoch rows alongside :class:`SimResult`;
* **harness profiling** (:mod:`repro.obs.profile`) — per-job wall-clock
  and events/sec breakdowns folded into
  :class:`~repro.harness.parallel.SweepReport` and exported as a
  machine-readable sweep artifact (CLI ``--report-json``).

The zero-overhead contract: with observability off (the default),
component probe attributes stay ``None`` — bound once at init — and the
only residual cost is an attribute test on branches that already fire
rarely (a quota rejection, a REF/VREF issue, an epoch rotation).  The
golden fixtures and ``scripts/perf_guard.py`` pin this down.
"""

from repro.obs.metrics import EpochMetricsCollector
from repro.obs.probe import ObsConfig, Probe, TelemetryBus
from repro.obs.profile import JobProfile, report_to_json, write_report_json
from repro.obs.trace import (
    ChannelCommandLog,
    TraceSink,
    to_perfetto,
    write_perfetto,
)

__all__ = [
    "ObsConfig",
    "Probe",
    "TelemetryBus",
    "TraceSink",
    "ChannelCommandLog",
    "to_perfetto",
    "write_perfetto",
    "EpochMetricsCollector",
    "JobProfile",
    "report_to_json",
    "write_report_json",
]
