"""Unit tests for the memory controller."""

import pytest

from repro.dram.address import DecodedAddress
from repro.dram.device import DramDevice
from repro.mem.controller import ControllerConfig, MemoryController
from repro.mem.request import Request, RequestKind
from repro.mitigations.base import MitigationMechanism
from repro.utils.validation import ConfigError

_NEVER = 1.0e30


def make_controller(spec, mitigation=None, num_threads=2, config=None):
    device = DramDevice(spec)
    return MemoryController(
        spec, device, mitigation, config=config, num_threads=num_threads
    )


def make_request(thread=0, bank=0, row=0, col=0, write=False):
    kind = RequestKind.WRITE if write else RequestKind.READ
    return Request(thread, kind, DecodedAddress(0, bank, row, col), arrival=0.0)


def drive(controller, until_ns, start=0.0):
    """Step the controller until ``until_ns`` (or it goes fully idle)."""
    now = start
    while now < until_ns:
        wake = controller.step(now)
        if wake >= _NEVER:
            break
        now = max(wake, now + 0.01)
    return now


def test_read_completes_with_callback(small_spec):
    controller = make_controller(small_spec)
    completions = []
    controller.on_request_complete = lambda req, t: completions.append((req, t))
    request = make_request(row=3)
    assert controller.enqueue(request, 0.0)
    drive(controller, 2000.0)
    assert len(completions) == 1
    done_request, done_time = completions[0]
    assert done_request is request
    expected = small_spec.tRCD + small_spec.tCL + small_spec.tBL
    assert done_time >= expected
    stats = controller.thread_stats[0]
    assert (stats.row_hits, stats.row_misses, stats.row_conflicts) == (0, 1, 0)


def test_row_hit_classification(small_spec):
    controller = make_controller(small_spec)
    controller.on_request_complete = lambda req, t: None
    first = make_request(row=3, col=0)
    second = make_request(row=3, col=1)
    controller.enqueue(first, 0.0)
    drive(controller, 500.0)  # opens row 3
    controller.enqueue(second, 500.0)
    drive(controller, 2000.0, start=500.0)
    stats = controller.thread_stats[0]
    assert (stats.row_hits, stats.row_misses, stats.row_conflicts) == (1, 1, 0)


def test_conflict_classification(small_spec):
    controller = make_controller(small_spec)
    controller.on_request_complete = lambda req, t: None
    first = make_request(row=3)
    conflict = make_request(row=9)
    controller.enqueue(first, 0.0)
    drive(controller, 500.0)
    controller.enqueue(conflict, 500.0)
    drive(controller, 3000.0, start=500.0)
    stats = controller.thread_stats[0]
    assert (stats.row_hits, stats.row_misses, stats.row_conflicts) == (0, 1, 1)


def test_queue_capacity_backpressure(small_spec):
    controller = make_controller(
        small_spec,
        config=ControllerConfig(
            read_queue_depth=2,
            write_queue_depth=2,
            write_drain_high=2,
            write_drain_low=1,
        ),
    )
    assert controller.enqueue(make_request(row=1), 0.0)
    assert controller.enqueue(make_request(row=2), 0.0)
    rejected = make_request(row=3)
    assert not controller.enqueue(rejected, 0.0)
    assert controller.thread_stats[0].blocked_injections == 1


def test_quota_enforcement(small_spec):
    class OneInflight(MitigationMechanism):
        def max_inflight(self, thread, rank, bank):
            return 1 if thread == 0 else None

    controller = make_controller(small_spec, OneInflight())
    assert controller.enqueue(make_request(thread=0, row=1), 0.0)
    assert not controller.enqueue(make_request(thread=0, row=2), 0.0)
    # Other threads and other banks are unaffected.
    assert controller.enqueue(make_request(thread=1, row=2), 0.0)
    assert controller.enqueue(make_request(thread=0, bank=1, row=2), 0.0)


def test_total_quota_enforcement(small_spec):
    class TotalTwo(MitigationMechanism):
        def max_inflight_total(self, thread):
            return 2 if thread == 0 else None

    controller = make_controller(small_spec, TotalTwo())
    assert controller.enqueue(make_request(thread=0, bank=0, row=1), 0.0)
    assert controller.enqueue(make_request(thread=0, bank=1, row=1), 0.0)
    assert not controller.enqueue(make_request(thread=0, bank=2, row=1), 0.0)
    assert controller.enqueue(make_request(thread=1, bank=2, row=1), 0.0)


def test_refresh_issued_when_due(small_spec):
    controller = make_controller(small_spec)
    drive(controller, small_spec.tREFI * 2.5)
    assert sum(controller.refresh.refreshes_issued) >= 2


def test_refresh_drains_open_banks(small_spec):
    controller = make_controller(small_spec)
    controller.on_request_complete = lambda req, t: None
    controller.enqueue(make_request(row=3), 0.0)
    drive(controller, small_spec.tREFI * 1.5)
    assert controller.device.counts.ref >= 1
    # The bank was precharged for the REF.
    assert controller.device.counts.pre >= 1


def test_victim_refresh_executes(small_spec):
    class OneVref(MitigationMechanism):
        def __init__(self):
            super().__init__()
            self.queued = False

        def on_activate(self, rank, bank, row, thread, now):
            if not self.queued:
                self.queue_victim_refresh(rank, bank, row + 1)
                self.queued = True

    mechanism = OneVref()
    controller = make_controller(small_spec, mechanism)
    controller.on_request_complete = lambda req, t: None
    controller.enqueue(make_request(row=3), 0.0)
    drive(controller, 5000.0)
    assert controller.vref_count == 1
    assert controller.device.counts.vref == 1


def test_write_drain_hysteresis(small_spec):
    config = ControllerConfig(
        read_queue_depth=64, write_queue_depth=64, write_drain_high=4, write_drain_low=1
    )
    controller = make_controller(small_spec, config=config)
    controller.on_request_complete = lambda req, t: None
    for i in range(4):
        controller.enqueue(make_request(row=i, bank=i % 2, write=True), 0.0)
    controller.enqueue(make_request(row=9), 0.0)
    drive(controller, 5000.0)
    assert controller.device.counts.wr == 4
    assert controller.device.counts.rd == 1


def test_invalid_controller_config():
    with pytest.raises(ConfigError):
        ControllerConfig(write_drain_high=10, write_drain_low=20)


def test_thread_stats_avg_latency(small_spec):
    controller = make_controller(small_spec)
    controller.on_request_complete = lambda req, t: None
    controller.enqueue(make_request(row=1), 0.0)
    drive(controller, 2000.0)
    stats = controller.thread_stats[0]
    assert stats.read_latency_count == 1
    assert stats.avg_read_latency > small_spec.tCL
    assert stats.row_hit_rate == 0.0
