"""The channel-sharded memory system.

Two load-bearing properties:

1. **Single-channel bit-identity** — a one-channel spec must reproduce
   the pre-refactor simulator exactly.  ``tests/golden_fig5.json`` was
   captured from the pre-MemorySystem code (the canonical Figure 5 sweep
   at a tier-1-sized configuration plus one raw attack-mix SimResult);
   every value is compared for float-exact equality.
2. **Channel isolation** — a multi-channel system runs one controller +
   device shard + mitigation instance per channel (distinct objects,
   independently-populated state) and reports both aggregate and
   per-channel statistics that are consistent with each other.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.dram.spec import DDR4_2400
from repro.harness.experiments import fig5_multicore
from repro.harness.runner import HarnessConfig, Runner
from repro.mem.memsystem import MemorySystem
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.utils.validation import ConfigError
from repro.workloads.mixes import attack_mixes

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_fig5.json").read_text()
)


@pytest.fixture(scope="module")
def golden_hcfg() -> HarnessConfig:
    cfg = GOLDEN["config"]
    return HarnessConfig(
        scale=cfg["scale"],
        paper_nrh=cfg["paper_nrh"],
        instructions_per_thread=cfg["instructions_per_thread"],
        warmup_ns=cfg["warmup_ns"],
    )


@pytest.fixture(scope="module")
def hcfg2() -> HarnessConfig:
    """A 2-channel configuration, tier-1 sized."""
    return HarnessConfig(
        scale=128.0,
        base_spec=DDR4_2400.with_channels(2),
        instructions_per_thread=4_000,
        warmup_ns=5_000.0,
    )


# ----------------------------------------------------------------------
# 1. Single-channel bit-identity against pre-refactor golden values.
# ----------------------------------------------------------------------
def test_single_channel_fig5_rows_bit_identical_to_golden(golden_hcfg):
    rows = fig5_multicore(
        golden_hcfg, GOLDEN["num_mixes"], GOLDEN["mechanisms"], workers=1
    )
    got = [
        {
            "mix": r.mix,
            "scenario": r.scenario,
            "mechanism": r.mechanism,
            "metrics": dataclasses.asdict(r.metrics),
            "norm": dataclasses.asdict(r.norm),
            "norm_energy": r.norm_energy,
            "bitflips": r.bitflips,
            "victim_refreshes": r.victim_refreshes,
        }
        for r in rows
    ]
    assert got == GOLDEN["rows"]


def test_single_channel_raw_simresult_bit_identical_to_golden(golden_hcfg):
    outcome = Runner(golden_hcfg).run_mix(attack_mixes(1)[0], "blockhammer")
    res = outcome.result
    g = GOLDEN["attack_mix_blockhammer_simresult"]
    assert res.mitigation == g["mitigation"]
    assert res.elapsed_ns == g["elapsed_ns"]
    assert dataclasses.asdict(res.counts) == g["counts"]
    assert res.active_time_ns == g["active_time_ns"]
    assert res.refreshes == g["refreshes"]
    assert res.victim_refreshes == g["victim_refreshes"]
    assert res.commands_issued == g["commands_issued"]
    assert len(res.bitflips) == g["bitflips"]
    assert outcome.energy.total_j == g["energy_total_j"]
    for thread, gt in zip(res.threads, g["threads"]):
        assert thread.instructions == gt["instructions"]
        assert thread.finish_time_ns == gt["finish_time_ns"]
        assert thread.ipc == gt["ipc"]
        mem = thread.mem
        for field in (
            "reads",
            "writes",
            "row_hits",
            "row_misses",
            "row_conflicts",
            "activations",
            "read_latency_sum",
            "read_latency_count",
            "blocked_injections",
        ):
            assert getattr(mem, field) == gt[field], field
    # Single-channel runs still report one per-channel row (equal to the
    # aggregate) and no redundant per-thread channel split.
    assert len(res.channels) == 1
    assert res.channels[0].counts == res.counts
    assert res.threads[0].mem_per_channel == []


# ----------------------------------------------------------------------
# 2. Multi-channel sharding.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def outcome2(hcfg2):
    return Runner(hcfg2).run_mix(attack_mixes(1)[0], "blockhammer")


def test_per_channel_mitigation_instances_distinct_with_state(outcome2):
    mechanisms = outcome2.mechanisms
    assert len(mechanisms) == 2
    assert len({id(m) for m in mechanisms}) == 2
    # Both instances observed their own channel's traffic: state was
    # populated independently, not mirrored through a shared object.
    for mechanism in mechanisms:
        assert mechanism.delay_stats().total_acts > 0
    assert mechanisms[0].delay_stats() is not mechanisms[1].delay_stats()
    assert mechanisms[0].rowblocker is not mechanisms[1].rowblocker
    assert mechanisms[0].throttler is not mechanisms[1].throttler


def test_both_channels_carry_traffic_and_aggregate_sums(outcome2):
    res = outcome2.result
    assert len(res.channels) == 2
    for ch in res.channels:
        assert ch.counts.act > 0
        assert ch.counts.rd > 0
    assert res.counts.act == sum(ch.counts.act for ch in res.channels)
    assert res.counts.rd == sum(ch.counts.rd for ch in res.channels)
    assert res.counts.ref == sum(ch.counts.ref for ch in res.channels)
    assert res.refreshes == sum(ch.refreshes for ch in res.channels)
    assert res.victim_refreshes == sum(ch.victim_refreshes for ch in res.channels)
    assert res.commands_issued == sum(ch.commands_issued for ch in res.channels)
    # channel-major rank active time: channels x ranks entries.
    assert len(res.active_time_ns) == 2 * len(res.channels[0].active_time_ns)


def test_per_thread_stats_merge_across_channels(outcome2):
    res = outcome2.result
    for thread in res.threads:
        assert len(thread.mem_per_channel) == 2
        assert thread.mem.reads == sum(m.reads for m in thread.mem_per_channel)
        assert thread.mem.activations == sum(
            m.activations for m in thread.mem_per_channel
        )
        assert thread.mem.read_latency_count == sum(
            m.read_latency_count for m in thread.mem_per_channel
        )


def test_channel_attack_covers_every_channel(hcfg2):
    """The channel-aware attack hammers aggressor rows on every channel
    round-robin, so each per-channel mitigation sees the attack."""
    outcome = Runner(hcfg2).run_mix(attack_mixes(1)[0], "none")
    attacker = outcome.result.threads[0]
    acts = [m.activations for m in attacker.mem_per_channel]
    assert all(a > 0 for a in acts)


def test_refresh_phase_staggered_and_deterministic(hcfg2):
    from repro.mitigations.base import NoMitigation

    def build():
        config = SystemConfig(
            spec=hcfg2.spec(),
            disturbance=hcfg2.disturbance(),
            seed=hcfg2.seed,
        )
        return MemorySystem(config, num_threads=1, mitigation_factory=NoMitigation)

    a, b = build(), build()
    phases_a = [c.refresh.phase_offset_ns for c in a.controllers]
    phases_b = [c.refresh.phase_offset_ns for c in b.controllers]
    # Channel 0 keeps the canonical phase; channel 1 is offset within
    # one tREFI; offsets are a pure function of the seed.
    assert phases_a[0] == 0.0
    assert 0.0 < phases_a[1] < hcfg2.spec().tREFI
    assert phases_a == phases_b


def test_shared_mitigation_instance_rejected_for_multi_channel(hcfg2):
    """One instance cannot serve two channels: a factory that returns it
    twice is rejected."""
    from repro.core.blockhammer import BlockHammer

    config = hcfg2.system_config()
    mix = attack_mixes(1)[0]
    traces = mix.build_traces(hcfg2.spec(), hcfg2.mapping(), seed=1)
    shared = BlockHammer()
    with pytest.raises(ConfigError):
        System(config, traces, mitigation_factory=lambda: shared)


def test_requests_route_to_their_channel(hcfg2):
    """Every request a channel's controller served targeted that
    channel (the devices only ever see their own shard's rows)."""
    outcome = Runner(hcfg2).run_mix(attack_mixes(1)[0], "none")
    res = outcome.result
    total_reads = sum(t.mem.reads for t in res.threads)
    per_channel_reads = sum(
        m.reads for t in res.threads for m in t.mem_per_channel
    )
    assert total_reads == per_channel_reads > 0
