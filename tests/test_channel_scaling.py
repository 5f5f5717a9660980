"""The channel-scaling study and per-channel attribution.

Four load-bearing properties:

1. **Single-channel bit-identity** — the ``channel_scaling`` driver's
   ``channels=1`` interleaved rows are the exact ``fig5_multicore``
   rows pinned by ``tests/golden_fig5.json``.
2. **Attribution consistency** — per-channel attribution rows aggregate
   back to the whole-system values: counters (blocked injections,
   blacklist/delay events) sum across channels, RHLI maxes.
3. **Localization** — a channel-pinned attacker accrues RHLI and
   blacklist events only on its own channel.
4. **Cache-backed sweeps** — a warm re-run of the {1, 2, 4} sweep
   performs zero simulations (``SweepReport.executed``) and returns
   identical rows (the perf_smoke entry for ``scripts/perf_smoke.sh``).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.dram.spec import DDR4_2400
from repro.harness.cache import ResultCache
from repro.harness.experiments import channel_scaling
from repro.harness.parallel import SweepReport, mix_job, run_jobs
from repro.harness.runner import HarnessConfig
from repro.mitigations.base import max_thread_rhli, sum_counters
from repro.workloads.mixes import ATTACKER_THREAD, attack_mixes

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
def tiny_hcfg() -> HarnessConfig:
    """Sweep-sized configuration (simulations in tens of milliseconds)."""
    return HarnessConfig(scale=512.0, instructions_per_thread=2_000, warmup_ns=2_000.0)


@pytest.fixture(scope="module")
def rhli_hcfg() -> HarnessConfig:
    """2-channel configuration long enough for the attacker to be
    blacklisted, so RHLI/blacklist attribution is nonzero."""
    return HarnessConfig(
        scale=128.0,
        base_spec=DDR4_2400.with_channels(2),
        instructions_per_thread=4_000,
        warmup_ns=50_000.0,
    )


# ----------------------------------------------------------------------
# 1. Single-channel sweep point == golden fig5 rows, bit-exact.
# ----------------------------------------------------------------------
def test_single_channel_point_bit_identical_to_golden_fig5(golden_hcfg):
    data = channel_scaling(
        golden_hcfg,
        channel_counts=(1,),
        num_mixes=GOLDEN["num_mixes"],
        mechanisms=GOLDEN["mechanisms"],
        workers=1,
    )
    got = [
        {
            "mix": e["row"].mix,
            "scenario": e["row"].scenario,
            "mechanism": e["row"].mechanism,
            "metrics": dataclasses.asdict(e["row"].metrics),
            "norm": dataclasses.asdict(e["row"].norm),
            "norm_energy": e["row"].norm_energy,
            "bitflips": e["row"].bitflips,
            "victim_refreshes": e["row"].victim_refreshes,
        }
        for e in data["mix_rows"]
    ]
    assert all(e["channels"] == 1 and e["layout"] == "interleaved" for e in data["mix_rows"])
    assert got == GOLDEN["rows"]
    # Every mechanism row carries one attribution row per channel.
    assert len(data["attribution"]) == 2 * len(GOLDEN["mechanisms"]) * GOLDEN["num_mixes"]


# ----------------------------------------------------------------------
# 2. Attribution rows aggregate back to the whole-system values.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def attributed(rhli_hcfg):
    """One 2-channel attack mix in observe mode (RHLI-rich)."""
    mix = attack_mixes(1)[0]
    job = mix_job(rhli_hcfg, mix, "blockhammer-observe")
    results = run_jobs([job], workers=1)
    return mix, results[mix_job(rhli_hcfg, mix, "blockhammer-observe")]


def test_per_channel_rhli_maxes_to_aggregate(attributed):
    mix, outcome = attributed
    rows = outcome.telemetry
    aggregate = max_thread_rhli(rows, len(mix.app_names))
    assert len(rows) == 2
    for thread in range(len(mix.app_names)):
        assert aggregate[thread] == max(r.thread_rhli[thread] for r in rows)
    # The observe-mode attacker accrued RHLI on both channels (the
    # channel-aware attack hammers every shard).
    assert all(r.thread_rhli[ATTACKER_THREAD] > 0 for r in rows)


def test_per_channel_counters_sum_to_aggregate(attributed):
    _, outcome = attributed
    res = outcome.result
    # Controller-side throttle events: the per-channel ChannelResult
    # rows sum to the per-thread aggregates.
    total_blocked = sum(t.mem.blocked_injections for t in res.threads)
    assert sum(c.blocked_injections for c in res.channels) == total_blocked
    for channel in range(2):
        per_thread = sum(
            t.mem_per_channel[channel].blocked_injections for t in res.threads
        )
        assert res.channels[channel].blocked_injections == per_thread
    # Mechanism-side counters: per-channel blacklist/delay events sum
    # to the channel-merged counters.  Each channel's RowBlocker saw at
    # least the ACTs its device issued after warmup (its own counters
    # also cover the warmup).
    rows = outcome.telemetry
    for channel, row in enumerate(rows):
        assert row.total_acts >= res.channels[channel].counts.act > 0
    merged = sum_counters(rows)
    assert sum(r.total_acts for r in rows) == merged["total_acts"]
    assert sum(r.delayed_acts for r in rows) == merged["delayed_acts"]
    assert sum(r.false_positive_acts for r in rows) == merged["false_positive_acts"]
    assert merged["blacklisted_acts"] > 0


def test_single_channel_attribution_row_is_the_aggregate(tiny_hcfg):
    mix = attack_mixes(1)[0]
    job = mix_job(tiny_hcfg, mix, "blockhammer")
    outcome = run_jobs([job], workers=1)[mix_job(tiny_hcfg, mix, "blockhammer")]
    rows = outcome.telemetry
    assert len(rows) == 1
    assert rows[0].thread_rhli == max_thread_rhli(rows, len(mix.app_names))
    assert (
        outcome.result.channels[0].blocked_injections
        == sum(t.mem.blocked_injections for t in outcome.result.threads)
    )


def test_attribution_tolerates_mechanisms_without_rhli(tiny_hcfg):
    """Reactive baselines have no RHLI tracking: attribution rows must
    degrade to None/zero, not raise."""
    mix = attack_mixes(1)[0]
    job = mix_job(tiny_hcfg, mix, "graphene")
    outcome = run_jobs([job], workers=1)[mix_job(tiny_hcfg, mix, "graphene")]
    rows = outcome.telemetry
    assert len(rows) == 1
    assert rows[0].thread_rhli is None
    assert rows[0].blacklisted_acts == 0
    assert rows[0].total_acts == 0
    assert max_thread_rhli(rows, len(mix.app_names)) == [None] * len(mix.app_names)


# ----------------------------------------------------------------------
# 3. A channel-pinned attacker accrues RHLI only on its channel.
# ----------------------------------------------------------------------
def test_pinned_attacker_accrues_rhli_only_on_its_channel(rhli_hcfg):
    mix = attack_mixes(1)[0].pinned()
    assert mix.pinned_channel(ATTACKER_THREAD) == 0
    job = mix_job(rhli_hcfg, mix, "blockhammer-observe")
    outcome = run_jobs([job], workers=1)[
        mix_job(rhli_hcfg, mix, "blockhammer-observe")
    ]
    rows = outcome.telemetry
    assert len(rows) == 2
    pinned_row = rows[0]
    other_row = rows[1]
    assert pinned_row.thread_rhli[ATTACKER_THREAD] > 0
    assert other_row.thread_rhli[ATTACKER_THREAD] == 0.0
    assert pinned_row.blacklisted_acts > 0
    assert other_row.blacklisted_acts == 0
    # The attacker's memory traffic itself stayed on channel 0.
    attacker = outcome.result.threads[ATTACKER_THREAD]
    assert attacker.mem_per_channel[0].activations > 0
    assert attacker.mem_per_channel[1].activations == 0


def test_pinned_layout_skipped_at_single_channel_point(tiny_hcfg):
    """On one channel every pinned slot mods to channel 0 and the traces
    degenerate to the interleaved ones; the driver must not re-simulate
    that duplicate layout."""
    data = channel_scaling(
        tiny_hcfg,
        channel_counts=(1, 2),
        num_mixes=1,
        mechanisms=["blockhammer"],
        workers=1,
        include_pinned=True,
    )
    points = {(s["channels"], s["layout"]) for s in data["summary"]}
    assert (1, "pinned") not in points
    assert {(1, "interleaved"), (2, "interleaved"), (2, "pinned")} <= points
    assert not any(
        a["channels"] == 1 and a["layout"] == "pinned" for a in data["attribution"]
    )


# ----------------------------------------------------------------------
# 4. The {1, 2, 4} sweep through the persistent cache: warm re-runs do
#    zero simulations (perf smoke, wired into scripts/perf_smoke.sh).
# ----------------------------------------------------------------------
@pytest.mark.perf_smoke
def test_perf_smoke_channel_sweep_warm_cache_zero_sims(tmp_path, tiny_hcfg):
    cache = ResultCache(tmp_path)
    kwargs = dict(
        channel_counts=(1, 2, 4),
        num_mixes=1,
        mechanisms=["blockhammer"],
        workers=1,
        cache=cache,
    )
    cold_report = SweepReport()
    cold = channel_scaling(tiny_hcfg, report=cold_report, **kwargs)
    assert cold_report.executed > 0
    assert cache.stores == cold_report.executed

    warm_report = SweepReport()
    warm = channel_scaling(tiny_hcfg, report=warm_report, **kwargs)
    assert warm_report.executed == 0  # fully cache-served
    assert warm == cold

    # Per-channel attribution rows exist for every sweep point: one row
    # per (mix, mechanism) per channel.
    for channels in (1, 2, 4):
        rows = [a for a in cold["attribution"] if a["channels"] == channels]
        assert len(rows) == 2 * channels  # benign + attack mix, 1 mechanism
        assert sorted({r["channel"] for r in rows}) == list(range(channels))
    # Summary covers every (channels, scenario) point.
    points = {(s["channels"], s["scenario"]) for s in cold["summary"]}
    assert points == {(c, s) for c in (1, 2, 4) for s in ("no-attack", "attack")}
