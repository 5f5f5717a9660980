"""Acceptance tests: trace events match ``SimResult`` counters.

One attack-mix BlockHammer scenario runs once with full observability
and once without (module-scoped), and the tests assert the ISSUE's
acceptance criteria: no ring drops, trace-event counts equal to the
simulation's own counters (throttle blocks, D-CBF rotations, victim
refreshes), and bit-identical results modulo ``events_processed`` —
the one field metrics sampling legitimately perturbs.

The system is built the way ``Runner.run_mix`` builds it (same traces,
targets, and attacker core parameters) but held directly so the tests
can read controller-side counters after the run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness.runner import ATTACKER_CORE_PARAMS, HarnessConfig
from repro.mitigations.registry import build_mitigation
from repro.obs import ObsConfig, TelemetryBus, to_perfetto
from repro.sim.system import System
from repro.workloads.mixes import attack_mixes

#: Aggressive scaling so the short run crosses several D-CBF epochs
#: (at the default scale=128 the mechanism epoch dwarfs a test run).
HCFG = HarnessConfig(scale=4096.0, instructions_per_thread=12_000, warmup_ns=5_000.0)
MECHANISM = "blockhammer"


def _run_attack(obs=None):
    mix = attack_mixes(1)[0]
    spec = HCFG.spec()
    traces = mix.build_traces(spec, HCFG.mapping(), seed=HCFG.seed)
    targets = [
        None if slot in mix.attacker_threads else HCFG.instructions_per_thread
        for slot in range(len(traces))
    ]
    per_thread = [
        ATTACKER_CORE_PARAMS if slot in mix.attacker_threads else None
        for slot in range(len(traces))
    ]
    kwargs = HCFG.mechanism_kwargs(MECHANISM)
    system = System(
        HCFG.system_config(),
        traces,
        mitigation_factory=lambda: build_mitigation(MECHANISM, **kwargs),
        core_params_per_thread=per_thread,
        obs=obs,
    )
    result = system.run(
        instructions_per_thread=targets,
        max_time_ns=HCFG.max_time_ns,
        warmup_ns=HCFG.warmup_ns,
    )
    return system, result


@pytest.fixture(scope="module")
def traced():
    bus = TelemetryBus(ObsConfig(trace=True, metrics=True, metrics_epoch_ns=5_000.0))
    system, result = _run_attack(obs=bus)
    return bus, system, result


@pytest.fixture(scope="module")
def untraced():
    _, result = _run_attack(obs=None)
    return result


@pytest.mark.obs_smoke
def test_nothing_dropped(traced):
    bus, _, _ = traced
    assert bus.trace.dropped == 0
    assert bus.trace.total_emitted > 0


@pytest.mark.obs_smoke
def test_throttle_events_match_quota_counters(traced):
    """Every measured ``throttle_block`` trace event corresponds to one
    quota-blocked injection in the controllers' per-thread stats (the
    stats reset at the warmup boundary, so only measured events count)."""
    bus, system, _ = traced
    quota_blocked = sum(
        stats.quota_blocked_injections
        for controller in system.controllers
        for stats in controller.thread_stats
    )
    assert quota_blocked > 0  # the attack actually tripped throttling
    assert bus.trace.count("mem", "throttle_block", measured_only=True) == quota_blocked


@pytest.mark.obs_smoke
def test_dcbf_rotations_match_verdict_epochs(traced):
    """Every D-CBF rotation across the whole run (warmup included —
    ``verdict_epoch`` never resets) appears as one trace event."""
    bus, system, _ = traced
    rotations = sum(m.rowblocker.verdict_epoch for m in system.mitigations)
    assert rotations > 0  # the run crossed at least one mechanism epoch
    assert bus.trace.count("mitigation", "dcbf_rotate") == rotations


@pytest.mark.obs_smoke
def test_blacklisted_acts_recorded(traced):
    bus, system, _ = traced
    assert bus.trace.count("mitigation", "blacklist_act") > 0
    assert bus.trace.count("dram", "ACT") > 0  # command stream captured


@pytest.mark.obs_smoke
def test_observability_does_not_change_results(traced, untraced):
    """Full tracing + metrics leaves the simulation bit-identical modulo
    ``events_processed`` (metrics sampling rides the event queue)."""
    _, _, observed = traced
    assert dataclasses.replace(observed, events_processed=0) == dataclasses.replace(
        untraced, events_processed=0
    )


@pytest.mark.obs_smoke
def test_metrics_cover_both_phases(traced):
    bus, _, _ = traced
    phases = {row["phase"] for row in bus.metrics.rows}
    assert phases == {"warmup", "measure"}
    metrics = {row["metric"] for row in bus.metrics.rows}
    assert {"rhli", "blacklist_occupancy", "read_queue_depth"} <= metrics


@pytest.mark.obs_smoke
def test_perfetto_export_of_real_run(traced):
    bus, _, _ = traced
    document = to_perfetto(bus.trace.events, measure_start=bus.trace.measure_start)
    names = {e.get("name") for e in document["traceEvents"]}
    assert {"ACT", "throttle_block", "dcbf_rotate", "measure_start"} <= names
    # Trace timestamps are microseconds; the boundary marker sits where
    # the warmup ended.
    marker = next(
        e for e in document["traceEvents"] if e.get("name") == "measure_start"
    )
    assert marker["ts"] == pytest.approx(HCFG.warmup_ns / 1000.0)


@pytest.mark.obs_smoke
def test_vref_events_match_victim_refreshes():
    """Graphene issues targeted refreshes through the controllers'
    VREF path; each measured ``vref`` trace event is one
    ``SimResult.victim_refreshes`` count."""
    mix = attack_mixes(1)[0]
    hcfg = dataclasses.replace(HCFG, instructions_per_thread=4_000)
    bus = TelemetryBus(ObsConfig(trace=True, trace_commands=False))
    spec = hcfg.spec()
    traces = mix.build_traces(spec, hcfg.mapping(), seed=hcfg.seed)
    targets = [
        None if slot in mix.attacker_threads else hcfg.instructions_per_thread
        for slot in range(len(traces))
    ]
    system = System(
        hcfg.system_config(),
        traces,
        mitigation_factory=lambda: build_mitigation("graphene"),
        obs=bus,
    )
    result = system.run(
        instructions_per_thread=targets, warmup_ns=hcfg.warmup_ns
    )
    assert result.victim_refreshes > 0
    assert (
        bus.trace.count("mem", "vref", measured_only=True)
        == result.victim_refreshes
    )


@pytest.mark.obs_smoke
def test_full_scan_events_land_on_their_channel_track():
    """One scheduling policy object serves every channel's controller,
    so ``sched_full_scan`` events (selects during refresh-drain windows)
    must carry the issuing controller's channel as their track."""
    mix = attack_mixes(1)[0]
    hcfg = dataclasses.replace(HCFG, num_channels=2)
    bus = TelemetryBus(ObsConfig(trace=True, trace_commands=False))
    spec = hcfg.spec()
    traces = mix.build_traces(spec, hcfg.mapping(), seed=hcfg.seed)
    targets = [
        None if slot in mix.attacker_threads else hcfg.instructions_per_thread
        for slot in range(len(traces))
    ]
    system = System(
        hcfg.system_config(),
        traces,
        mitigation_factory=lambda: build_mitigation(MECHANISM),
        obs=bus,
    )
    assert len(system.controllers) == 2
    system.run(instructions_per_thread=targets, warmup_ns=hcfg.warmup_ns)
    tracks = {
        event[3]
        for event in bus.trace.events
        if event[1] == "mem" and event[2] == "sched_full_scan"
    }
    assert tracks == {0, 1}
