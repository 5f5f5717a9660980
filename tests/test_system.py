"""Integration tests for the full System."""

import pytest

from repro.cpu.trace import ListTrace, TraceRecord
from repro.dram.rowhammer import DisturbanceProfile
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.utils.rng import DeterministicRng
from repro.utils.validation import ConfigError


def make_records(count=200, rows=50, seed=3, spec=None, write_frac=0.2):
    rng = DeterministicRng(seed)
    records = []
    for _ in range(count):
        records.append(
            TraceRecord(
                gap=rng.randint(5, 50),
                address=rng.randint(0, rows - 1) * 8192 * 64,
                is_write=rng.uniform() < write_frac,
            )
        )
    return records


def test_single_thread_completes(small_spec):
    config = SystemConfig(spec=small_spec)
    system = System(config, [ListTrace(make_records())])
    result = system.run(instructions_per_thread=20_000)
    thread = result.threads[0]
    assert thread.instructions >= 20_000
    assert thread.ipc > 0.0
    assert result.counts.act > 0
    assert result.counts.rd > 0


def test_deterministic_repeat(small_spec):
    def run_once():
        config = SystemConfig(spec=small_spec, seed=7)
        system = System(config, [ListTrace(make_records())])
        return system.run(instructions_per_thread=10_000)

    a, b = run_once(), run_once()
    assert a.threads[0].ipc == b.threads[0].ipc
    assert a.counts.act == b.counts.act
    assert a.elapsed_ns == b.elapsed_ns


def test_multi_thread_contention_slows_threads(small_spec):
    records = make_records(count=400, rows=100)
    solo = System(SystemConfig(spec=small_spec), [ListTrace(records)])
    solo_result = solo.run(instructions_per_thread=10_000)
    crowd = System(
        SystemConfig(spec=small_spec), [ListTrace(records) for _ in range(4)]
    )
    crowd_result = crowd.run(instructions_per_thread=10_000)
    assert crowd_result.threads[0].ipc <= solo_result.threads[0].ipc + 1e-9


def test_max_time_caps_run(small_spec):
    config = SystemConfig(spec=small_spec)
    system = System(config, [ListTrace(make_records())])
    result = system.run(instructions_per_thread=100_000_000, max_time_ns=5_000.0)
    assert result.elapsed_ns <= 5_000.0 + 1.0


def test_none_target_thread_does_not_gate(small_spec):
    config = SystemConfig(spec=small_spec)
    system = System(config, [ListTrace(make_records()), ListTrace(make_records())])
    result = system.run(instructions_per_thread=[5_000, None])
    assert result.threads[0].instructions >= 5_000


def test_warmup_resets_counters(small_spec):
    config = SystemConfig(spec=small_spec)
    system = System(config, [ListTrace(make_records())])
    result = system.run(instructions_per_thread=5_000, warmup_ns=2_000.0)
    thread = result.threads[0]
    # Measured instructions start after warmup.
    assert thread.instructions >= 5_000
    assert thread.instructions < 5_000 + 3_000  # warmup work not counted
    assert result.elapsed_ns > 0


def test_refreshes_happen(small_spec):
    config = SystemConfig(spec=small_spec)
    system = System(config, [ListTrace(make_records())])
    result = system.run(instructions_per_thread=40_000)
    if result.threads[0].finish_time_ns > small_spec.tREFI:
        assert result.refreshes >= 1


def test_rbcpki_mpki_derived(small_spec):
    config = SystemConfig(spec=small_spec)
    system = System(config, [ListTrace(make_records())])
    result = system.run(instructions_per_thread=20_000)
    thread = result.threads[0]
    assert thread.mpki > 0
    assert 0 <= thread.rbcpki <= thread.mpki


def test_llc_configuration(small_spec):
    config = SystemConfig(spec=small_spec, use_llc=True, llc_bytes=64 * 1024)
    system = System(config, [ListTrace(make_records(rows=4))])
    result = system.run(instructions_per_thread=20_000)
    # A tiny working set fits in the LLC: far fewer memory accesses.
    assert result.threads[0].mem.accesses < 200


def test_invalid_rowmap_kind(small_spec):
    with pytest.raises(ConfigError):
        SystemConfig(spec=small_spec, rowmap_kind="bogus").build_rowmap()


def test_invalid_assumed_rowmap_kind_fails_at_construction(small_spec):
    with pytest.raises(ConfigError, match="assumed_rowmap_kind"):
        SystemConfig(spec=small_spec, assumed_rowmap_kind="bogus")


def test_mechanism_assumes_device_rowmap_unless_configured(small_spec):
    true = System(
        SystemConfig(spec=small_spec, rowmap_kind="scrambled"),
        [ListTrace(make_records())],
    )
    assert true.mitigation.context.rowmap is true.device.row_mapping
    assumed = System(
        SystemConfig(
            spec=small_spec, rowmap_kind="scrambled", assumed_rowmap_kind="linear"
        ),
        [ListTrace(make_records())],
    )
    assert assumed.mitigation.context.rowmap.logical_neighbors(10, 2) == [9, 11, 8, 12]
    assert assumed.device.row_mapping.logical_neighbors(10, 2) != [9, 11, 8, 12]


def test_bitflips_with_unprotected_hammer(small_spec):
    profile = DisturbanceProfile(nrh=64, blast_radius=1)
    config = SystemConfig(spec=small_spec, disturbance=profile)
    # Hammer two rows of bank 0 (decoded rows 160 and 192) at full rate.
    records = []
    for i in range(200):
        row = 10 if i % 2 == 0 else 12
        records.append(TraceRecord(gap=0, address=row * 8192 * 64))
    system = System(config, [ListTrace(records)])
    result = system.run(instructions_per_thread=50_000)
    assert result.total_bitflips > 0
    victim_rows = {flip.physical_row for flip in result.bitflips}
    assert victim_rows <= {159, 161, 191, 193}
    assert 159 in victim_rows or 161 in victim_rows
