"""Unit tests for the observability layer (`repro.obs`).

The zero-overhead contract is probed directly: a disabled probe is
*absence* (``None`` component attributes), the trace sink is a bounded ring that
counts its losses, and the Perfetto export is plain ``trace_event``
JSON any Chrome/Perfetto build can open.
"""

from __future__ import annotations

import json

import pytest

from repro.cpu.trace import ListTrace, TraceRecord
from repro.obs import (
    ChannelCommandLog,
    EpochMetricsCollector,
    JobProfile,
    ObsConfig,
    Probe,
    TelemetryBus,
    TraceSink,
    report_to_json,
    to_perfetto,
    write_perfetto,
)
from repro.obs.metrics import FIELDS, write_csv
from repro.obs.profile import format_profile_breakdown, write_report_json
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.utils.rng import DeterministicRng
from repro.utils.validation import ConfigError


# ----------------------------------------------------------------------
# Probe semantics.
# ----------------------------------------------------------------------
def test_probe_is_truthy_and_emits():
    sink = TraceSink()
    probe = Probe(sink, "mem")
    assert probe
    probe(10.0, "vref", 2, rank=0, bank=1)
    probe(11.0, "ref")
    assert sink.events == [
        (10.0, "mem", "vref", 2, {"rank": 0, "bank": 1}),
        (11.0, "mem", "ref", 0, None),  # no kwargs -> None payload
    ]


def test_obs_config_defaults_are_inert():
    config = ObsConfig()
    assert not config.trace and not config.metrics
    bus = TelemetryBus()
    assert bus.trace is None and bus.metrics is None


def test_bus_hands_out_category_probes():
    bus = TelemetryBus(ObsConfig(trace=True))
    probe = bus.probe("mitigation")
    assert isinstance(probe, Probe)
    probe(5.0, "dcbf_rotate", 1, epoch=3)
    assert bus.trace.count("mitigation", "dcbf_rotate") == 1


def test_bus_metrics_only_mode():
    bus = TelemetryBus(ObsConfig(metrics=True))
    assert bus.trace is None and bus.metrics is not None


# ----------------------------------------------------------------------
# Trace sink: ring bound, warmup boundary, counting.
# ----------------------------------------------------------------------
def test_ring_bound_drops_oldest_and_counts():
    sink = TraceSink(limit=3)
    for i in range(5):
        sink.emit(float(i), "mem", "ref", 0)
    assert sink.total_emitted == 5
    assert sink.dropped == 2
    assert [event[0] for event in sink.events] == [2.0, 3.0, 4.0]


def test_trace_limit_validation():
    with pytest.raises(ConfigError, match="trace_limit"):
        ObsConfig(trace_limit=0)


@pytest.mark.parametrize("epoch_ns", [0.0, -5.0])
def test_non_positive_metrics_epoch_rejected(epoch_ns):
    """A non-positive sampling period would reschedule sampling at the
    same instant forever; the config refuses it before any run."""
    with pytest.raises(ConfigError, match="metrics_epoch_ns"):
        ObsConfig(metrics=True, metrics_epoch_ns=epoch_ns)


def test_measured_events_boundary_is_strict():
    """The warmup batch runs *to* the boundary, so an event exactly at
    the reset instant belongs to warmup; measured events are strictly
    later."""
    sink = TraceSink()
    sink.emit(1.0, "mem", "ref", 0)
    sink.emit(2.0, "mem", "ref", 0)  # lands exactly on the boundary
    sink.note_measurement_reset(2.0)
    sink.emit(2.5, "mem", "ref", 0)
    assert sink.measure_start == 2.0
    assert [event[0] for event in sink.measured_events()] == [2.5]
    assert sink.count("mem", "ref") == 3
    assert sink.count("mem", "ref", measured_only=True) == 1


def test_measured_events_without_reset_is_everything():
    sink = TraceSink()
    sink.emit(1.0, "mem", "ref", 0)
    assert sink.measure_start is None
    assert sink.measured_events() == sink.events


def test_count_filters_by_category_and_name():
    sink = TraceSink()
    sink.emit(1.0, "mem", "ref", 0)
    sink.emit(2.0, "mem", "vref", 0)
    sink.emit(3.0, "os", "kill", 0)
    assert sink.count() == 3
    assert sink.count("mem") == 2
    assert sink.count(name="vref") == 1
    assert sink.count("os", "vref") == 0


def test_channel_command_log_adapts_device_records():
    sink = TraceSink()
    log = ChannelCommandLog(sink, channel=3)
    log.append((42.0, "ACT", 0, 2, 17, None))
    log.append((43.0, "RD", 0, 2, None, 5))
    log.append((44.0, "REF", 1, 0, None, None))
    assert sink.events == [
        (42.0, "dram", "ACT", 3, {"rank": 0, "bank": 2, "row": 17}),
        (43.0, "dram", "RD", 3, {"rank": 0, "bank": 2, "col": 5}),
        (44.0, "dram", "REF", 3, {"rank": 1, "bank": 0}),
    ]


# ----------------------------------------------------------------------
# Perfetto export.
# ----------------------------------------------------------------------
def test_perfetto_export_shape():
    sink = TraceSink()
    sink.emit(1500.0, "dram", "ACT", 1, {"rank": 0, "bank": 2, "row": 7})
    sink.emit(2500.0, "mitigation", "dcbf_rotate", 0, {"epoch": 1})
    sink.note_measurement_reset(2000.0)
    document = to_perfetto(sink.events, measure_start=sink.measure_start)
    assert document["displayTimeUnit"] == "ns"
    events = document["traceEvents"]
    # One process_name metadata record per category seen.
    metas = [e for e in events if e["ph"] == "M"]
    assert {m["args"]["name"] for m in metas} == {"dram", "mitigation"}
    instants = [e for e in events if e["ph"] == "i" and e.get("cat") != "sim"]
    act = next(e for e in instants if e["name"] == "ACT")
    assert act["ts"] == 1.5  # ns -> us
    assert act["pid"] == 1 and act["tid"] == 1  # dram pid, channel track
    assert act["args"]["ts_ns"] == 1500.0 and act["args"]["row"] == 7
    rotate = next(e for e in instants if e["name"] == "dcbf_rotate")
    assert rotate["pid"] == 3  # mitigation pid is stable
    marker = next(e for e in events if e.get("cat") == "sim")
    assert marker["name"] == "measure_start" and marker["ts"] == 2.0
    json.dumps(document)  # JSON-serializable end to end


def test_perfetto_unknown_category_gets_fresh_pid():
    document = to_perfetto([(1.0, "custom", "tick", 0, None)])
    instant = next(e for e in document["traceEvents"] if e["ph"] == "i")
    assert instant["pid"] > 4  # above the reserved category pids


def test_write_perfetto_round_trips(tmp_path):
    sink = TraceSink()
    sink.emit(10.0, "os", "kill", 0, {"thread": 2})
    path = tmp_path / "trace.json"
    document = write_perfetto(path, sink.events, sink.measure_start)
    assert json.loads(path.read_text()) == document


# ----------------------------------------------------------------------
# Epoch metrics collector.
# ----------------------------------------------------------------------
def _tiny_system(tiny_spec, obs=None):
    rng = DeterministicRng(9)
    records = [
        TraceRecord(
            gap=rng.randint(5, 30),
            address=rng.randint(0, 63) * 8192 * 64,
            is_write=rng.uniform() < 0.3,
        )
        for _ in range(300)
    ]
    config = SystemConfig(spec=tiny_spec, seed=5)
    return System(config, [ListTrace(records)], obs=obs)


def test_collector_phases_and_measured_rows(tiny_spec):
    collector = EpochMetricsCollector()
    system = _tiny_system(tiny_spec)
    collector.begin_warmup()
    collector.sample(system, 100.0)
    collector.note_measurement_reset(150.0)
    collector.sample(system, 200.0)
    assert collector.epochs == 2
    phases = {row["phase"] for row in collector.rows}
    assert phases == {"warmup", "measure"}
    assert all(row["phase"] == "measure" for row in collector.measured_rows())
    assert {row["epoch"] for row in collector.measured_rows()} == {1}


def test_collector_samples_queue_depth_and_backlog(tiny_spec):
    collector = EpochMetricsCollector()
    system = _tiny_system(tiny_spec)
    collector.sample(system, 0.0)
    metrics = {row["metric"] for row in collector.rows}
    assert {"read_queue_depth", "write_queue_depth", "vref_backlog"} <= metrics


def test_collector_csv_round_trip(tmp_path, tiny_spec):
    import csv

    collector = EpochMetricsCollector()
    system = _tiny_system(tiny_spec)
    collector.sample(system, 10.0)
    path = tmp_path / "metrics.csv"
    count = write_csv(path, collector.rows)
    assert count == len(collector.rows) > 0
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == count
    assert tuple(rows[0]) == FIELDS


def test_system_schedules_metrics_sampling(tiny_spec):
    """Metrics events ride the ordinary event queue: an enabled bus
    yields samples at the configured cadence without any tracing."""
    bus = TelemetryBus(ObsConfig(metrics=True, metrics_epoch_ns=50.0))
    system = _tiny_system(tiny_spec, obs=bus)
    result = system.run(instructions_per_thread=2_000)
    assert bus.metrics.epochs >= 2
    assert bus.metrics.rows
    assert result.elapsed_ns > 0.0


def test_metrics_do_not_change_results(tiny_spec):
    """Enabling metrics perturbs only ``events_processed`` (the one
    field excluded from result-equality comparisons)."""
    import dataclasses

    plain = _tiny_system(tiny_spec).run(instructions_per_thread=2_000)
    bus = TelemetryBus(ObsConfig(metrics=True, metrics_epoch_ns=50.0))
    observed = _tiny_system(tiny_spec, obs=bus).run(instructions_per_thread=2_000)
    assert dataclasses.replace(plain, events_processed=0) == dataclasses.replace(
        observed, events_processed=0
    )


# ----------------------------------------------------------------------
# Job profiles and the --report-json document.
# ----------------------------------------------------------------------
def test_job_profile_rate():
    profile = JobProfile("mix:a:none", "executed", wall_s=2.0, events=1000)
    assert profile.events_per_sec == 500.0
    assert JobProfile("x", "failed").events_per_sec is None
    assert JobProfile("x", "cached", wall_s=0.0, events=5).events_per_sec is None


def test_report_to_json_shape_and_aggregate():
    from repro.harness.parallel import JobFailure, SweepReport

    report = SweepReport(total=3, cached=1, executed=1, retries=2, elapsed_s=1.2345)
    report.profiles.append(JobProfile("a", "executed", wall_s=2.0, events=1000))
    report.profiles.append(JobProfile("b", "cached", wall_s=0.001, events=500))
    report.failures.append(JobFailure(key=("single", "x"), kind="crash", attempts=3))
    report.profiles.append(JobProfile("single:x", "failed", attempts=3))
    document = report_to_json(report)
    assert document["total"] == 3 and document["retries"] == 2
    assert document["elapsed_s"] == 1.234  # rounded
    assert document["failures"][0]["kind"] == "crash"
    assert len(document["jobs"]) == 3
    # Aggregate throughput covers executed jobs only.
    assert document["aggregate"]["executed_events"] == 1000
    assert document["aggregate"]["events_per_sec"] == 500
    json.dumps(document)


def test_write_report_json(tmp_path):
    from repro.harness.parallel import SweepReport

    path = tmp_path / "report.json"
    document = write_report_json(SweepReport(total=0), path)
    assert json.loads(path.read_text()) == document
    assert document["aggregate"]["events_per_sec"] is None


def test_format_profile_breakdown():
    from repro.harness.parallel import SweepReport

    report = SweepReport()
    assert "no job profiles" in format_profile_breakdown(report)
    report.profiles.append(JobProfile("slow", "executed", wall_s=1.0, events=100))
    report.profiles.append(JobProfile("fast", "executed", wall_s=0.1, events=100))
    report.profiles.append(JobProfile("hit", "cached", wall_s=0.001, events=10))
    text = format_profile_breakdown(report)
    assert "slow" in text and "(2 executed, 1 cached, 0 failed)" in text
    # Slowest first.
    assert text.index("slow") < text.index("fast")
