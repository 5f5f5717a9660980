"""Multi-rank configurations and stress/failure-injection tests."""

from dataclasses import replace

import pytest

from repro.core.blockhammer import BlockHammer
from repro.cpu.trace import ListTrace, TraceRecord
from repro.dram.address import AddressMapping, MappingScheme
from repro.dram.rowhammer import DisturbanceProfile
from repro.dram.spec import DDR4_2400
from repro.mem.controller import ControllerConfig
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.utils.rng import DeterministicRng
from repro.workloads.attacks import double_sided_attack


@pytest.fixture
def two_rank_spec():
    return replace(
        DDR4_2400.scaled(64), ranks=2, banks_per_rank=4, rows_per_bank=4096
    )


def _random_trace(spec, seed=3, count=300):
    rng = DeterministicRng(seed)
    records = [
        TraceRecord(
            gap=rng.randint(5, 40),
            address=rng.randint(0, spec.capacity_bytes - 64),
            is_write=rng.uniform() < 0.2,
        )
        for _ in range(count)
    ]
    return ListTrace(records)


def test_two_rank_system_runs(two_rank_spec):
    config = SystemConfig(spec=two_rank_spec)
    system = System(config, [_random_trace(two_rank_spec)])
    result = system.run(instructions_per_thread=10_000)
    assert result.threads[0].instructions >= 10_000
    # Both ranks see refreshes over a long enough run.
    assert result.counts.act > 0


def test_two_rank_attack_blocked(two_rank_spec):
    mapping = AddressMapping(two_rank_spec, MappingScheme.MOP)
    trace = double_sided_attack(two_rank_spec, mapping, victim_row=64, banks=[0, 1])
    config = SystemConfig(
        spec=two_rank_spec, disturbance=DisturbanceProfile(nrh=128)
    )
    result = System(config, [trace], mitigation_factory=BlockHammer).run(instructions_per_thread=30_000)
    assert result.total_bitflips == 0


def test_tiny_queues_still_make_progress(small_spec):
    config = SystemConfig(
        spec=small_spec,
        controller=ControllerConfig(
            read_queue_depth=2,
            write_queue_depth=2,
            write_drain_high=2,
            write_drain_low=1,
        ),
    )
    system = System(config, [_random_trace(small_spec)])
    result = system.run(instructions_per_thread=5_000)
    assert result.threads[0].instructions >= 5_000


def test_write_heavy_workload_drains(small_spec):
    rng = DeterministicRng(9)
    records = [
        TraceRecord(gap=2, address=rng.randint(0, 1 << 22), is_write=True)
        for _ in range(500)
    ]
    config = SystemConfig(spec=small_spec)
    system = System(config, [ListTrace(records)])
    result = system.run(instructions_per_thread=3_000)
    assert result.counts.wr > 0
    assert result.threads[0].instructions >= 3_000


def test_eight_threads_heavy_contention_completes(small_spec):
    config = SystemConfig(spec=small_spec)
    traces = [_random_trace(small_spec, seed=i, count=200) for i in range(8)]
    system = System(config, traces)
    result = system.run(instructions_per_thread=4_000)
    assert all(t.instructions >= 4_000 for t in result.threads)


def test_refresh_storm_under_increased_rate(small_spec):
    """The increased-refresh-rate mechanism floods REFs yet the system
    still progresses (the interval floor prevents livelock)."""
    from repro.mitigations.refresh_rate import IncreasedRefreshRate

    config = SystemConfig(spec=small_spec, disturbance=DisturbanceProfile(nrh=64))
    system = System(
        config, [_random_trace(small_spec)], mitigation_factory=IncreasedRefreshRate
    )
    result = system.run(instructions_per_thread=5_000)
    assert result.threads[0].instructions >= 5_000
    assert result.refreshes > 0


def test_zero_memory_thread(small_spec):
    """A compute-only thread (one access, huge gaps) finishes cleanly."""
    records = [TraceRecord(gap=1000, address=0)]
    config = SystemConfig(spec=small_spec)
    system = System(config, [ListTrace(records)])
    result = system.run(instructions_per_thread=50_000)
    assert result.threads[0].instructions >= 50_000
