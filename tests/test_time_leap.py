"""Time-leap (quiescence-horizon batching) edge cases.

The event loop lets each controller leap through batches of scheduling
steps (:meth:`MemoryController.run_until`) instead of waking tick by
tick; ``System.single_step = True`` restores the legacy cadence.  These
tests pin the refresh-edge interactions the batching must not disturb:

* a REF deadline *is* a leap horizon — an idle controller's next step
  lands exactly on the deadline and the REF issues at that instant;
* per-rank and per-channel refresh staggering survives batching
  (deadlines a fraction of tREFI apart must each get their own step);
* a mitigation whose ``advance_to`` horizon is much shorter than the
  controller's own wake cadence is re-invoked at (never after) every
  horizon it reports;
* property test: batched runs are bit-identical to the tick-by-tick
  oracle — commands, results, and processed-event counts — across
  mechanisms with every time-advance style (none, proactive throttling,
  probabilistic reactive, table-driven reactive).
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest

from bisect import bisect_left

from repro.cpu.trace import ListTrace, TraceRecord
from repro.dram.spec import DDR4_2400
from repro.harness.runner import HarnessConfig, Runner
from repro.mitigations.base import MitigationMechanism
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.mixes import attack_mixes

from differential import TWO_RANK_SPEC, two_rank_traces
from test_system import make_records


def run_system(
    spec,
    traces,
    *,
    single_step,
    mitigation=None,
    num_channels=None,
    max_time_ns=60_000.0,
    seed=7,
):
    """Run a System with per-device command capture, optionally in the
    legacy tick-by-tick mode, and return (system, logs, result)."""
    config = SystemConfig(spec=spec, num_channels=num_channels, seed=seed)
    system = System(config, traces, mitigation=mitigation)
    logs = []
    for device in system.memsys.devices:
        device.command_log = []
        logs.append(device.command_log)
    old = System.single_step
    System.single_step = single_step
    try:
        result = system.run(instructions_per_thread=None, max_time_ns=max_time_ns)
    finally:
        System.single_step = old
    return system, logs, result


def one_touch_trace():
    """One read at t=0, then silence: the second record's compute gap
    (~10 ms of instructions) reaches past every test window, so the
    memory system spends the run with refresh as its only wake source.
    (Traces replay for background threads, so a truly one-record trace
    would re-issue its access forever.)"""
    return ListTrace(
        [
            TraceRecord(gap=1, address=0, is_write=False),
            TraceRecord(gap=50_000_000, address=0, is_write=False),
        ]
    )


def ref_times(log, rank=None):
    return [
        cmd[0] for cmd in log if cmd[1] == "REF" and (rank is None or cmd[2] == rank)
    ]


def deadline_schedule(first_due, interval, count):
    """REF deadlines as RefreshManager computes them: repeated addition
    (bit-exact expectations, no re-association through multiplication)."""
    out = []
    t = first_due
    for _ in range(count):
        out.append(t)
        t += interval
    return out


# ----------------------------------------------------------------------
# REF exactly on a leap horizon.
# ----------------------------------------------------------------------
def test_idle_controller_refreshes_exactly_on_deadline(small_spec):
    """Once the single touch drains, the only wake source is the refresh
    deadline: every leap lands *exactly* on ``next_due`` and the REF
    issues at that instant (float-equal, no drift across leaps).  The
    first REF may slip by a precharge (the touched row is still open);
    from the second on the rank is quiescent and the schedule is exact."""
    system, logs, _ = run_system(
        small_spec, [one_touch_trace()], single_step=False, max_time_ns=60_000.0
    )
    interval = system.controller.refresh.interval
    times = ref_times(logs[0])
    assert len(times) >= 6
    deadlines = deadline_schedule(interval, interval, len(times))
    assert times[0] >= deadlines[0]  # never early
    assert times[0] < deadlines[0] + small_spec.tRP + small_spec.tCK
    assert times[1:] == deadlines[1:]  # exactly on the leap horizon


def test_idle_refresh_schedule_matches_single_step_oracle(small_spec):
    _, batched, _ = run_system(small_spec, [one_touch_trace()], single_step=False)
    _, oracle, _ = run_system(small_spec, [one_touch_trace()], single_step=True)
    assert batched[0] == oracle[0]


# ----------------------------------------------------------------------
# Per-rank / per-channel REF staggering.
# ----------------------------------------------------------------------
def test_per_rank_stagger_survives_batching(small_spec):
    """Two ranks refresh half a tREFI apart; batching must give each
    sub-interval deadline its own scheduling step."""
    spec = replace(small_spec, ranks=2)
    system, logs, _ = run_system(
        spec, [one_touch_trace()], single_step=False, max_time_ns=40_000.0
    )
    interval = system.controller.refresh.interval
    for rank in (0, 1):
        times = ref_times(logs[0], rank=rank)
        assert len(times) >= 3
        # Mirror RefreshManager's own expressions bit-for-bit.
        first_due = interval * (1.0 + rank / 2)
        deadlines = deadline_schedule(first_due, interval, len(times))
        assert deadlines[0] <= times[0] < deadlines[0] + spec.tRP + spec.tCK
        assert times[1:] == deadlines[1:]
    # The two ranks are genuinely interleaved, half a tREFI apart.
    assert ref_times(logs[0], rank=1)[0] - ref_times(logs[0], rank=0)[0] == pytest.approx(
        interval / 2, abs=spec.tRP + spec.tCK
    )


def test_per_channel_stagger_survives_batching(small_spec):
    """Channel 0 refreshes at phase 0; channel 1's deadlines carry a
    seed-derived phase offset within one tREFI.  Idle channels must hit
    their own offsets exactly, and the whole schedule must match the
    tick-by-tick oracle."""
    _, batched, _ = run_system(
        small_spec, [one_touch_trace()], single_step=False, num_channels=2
    )
    system, oracle, _ = run_system(
        small_spec, [one_touch_trace()], single_step=True, num_channels=2
    )
    offsets = [ctrl.refresh.phase_offset_ns for ctrl in system.controllers]
    interval = system.controllers[0].refresh.interval
    assert offsets[0] == 0.0
    assert 0.0 < offsets[1] < interval
    for channel in (0, 1):
        times = ref_times(batched[channel])
        assert len(times) >= 3
        first_due = offsets[channel] + interval * 1.0
        deadlines = deadline_schedule(first_due, interval, len(times))
        slack = small_spec.tRP + small_spec.tCK
        assert deadlines[0] <= times[0] < deadlines[0] + slack
        assert times[1:] == deadlines[1:]
        assert batched[channel] == oracle[channel]


def test_loaded_multichannel_refresh_matches_oracle(small_spec):
    """Same check under real traffic (REFs slip behind bank activity and
    are no longer exactly on their deadlines — the slip itself must be
    bit-identical between batched and tick-by-tick runs)."""
    spec = replace(small_spec, ranks=2)

    def build():
        return [ListTrace(make_records(count=400, rows=100, seed=s)) for s in (3, 4)]

    _, batched, res_b = run_system(
        spec, build(), single_step=False, num_channels=2, max_time_ns=30_000.0
    )
    _, oracle, res_o = run_system(
        spec, build(), single_step=True, num_channels=2, max_time_ns=30_000.0
    )
    assert any(ref_times(log) for log in batched)
    assert batched == oracle
    assert dataclasses.asdict(res_b) == dataclasses.asdict(res_o)


# ----------------------------------------------------------------------
# Mitigation advance_to horizon shorter than the controller's.
# ----------------------------------------------------------------------
class ShortHorizonMechanism(MitigationMechanism):
    """Never interferes, but reports a tiny periodic quiescence horizon
    — much shorter than the controller's refresh/queue horizons — and
    records every ``advance_to`` call so tests can check the contract:
    the controller re-invokes at (never after) each reported horizon."""

    name = "short-horizon"

    def __init__(self, period_ns: float) -> None:
        super().__init__()
        self.period_ns = period_ns
        self.calls: list[tuple[float, float]] = []

    def advance_to(self, now: float) -> float:
        horizon = (now // self.period_ns + 1.0) * self.period_ns
        self.calls.append((now, horizon))
        return horizon


def test_short_mitigation_horizon_bounds_every_leap(small_spec):
    period = 50.0  # far below tREFI (7812.5) and typical queue horizons
    mech = ShortHorizonMechanism(period)
    _, logs, _ = run_system(
        small_spec,
        [ListTrace(make_records(count=300, rows=64))],
        single_step=False,
        mitigation=mech,
        max_time_ns=20_000.0,
    )
    calls = mech.calls
    assert len(calls) >= 100  # the horizon actually throttled the leaps
    assert calls[0][0] == 0.0
    command_times = sorted(cmd[0] for cmd in logs[0])
    for (_, horizon), (t_next, _) in zip(calls, calls[1:]):
        # Never early: advance_to only fires once the previous horizon
        # is reached.
        assert t_next >= horizon
        # Never leapt past: no scheduling step may run at or beyond an
        # unserviced horizon.  A sleeping controller takes no steps (the
        # legacy per-step cadence did not poll an idle channel either),
        # so a gap larger than one period is legal only if no command
        # issued inside [horizon, t_next).
        if t_next >= horizon + period:
            lo = bisect_left(command_times, horizon)
            hi = bisect_left(command_times, t_next)
            assert lo == hi, (
                f"controller issued {hi - lo} command(s) in [{horizon}, {t_next}) "
                "without servicing the mitigation horizon"
            )


def test_short_mitigation_horizon_matches_oracle(small_spec):
    def run(single_step):
        mech = ShortHorizonMechanism(50.0)
        _, logs, result = run_system(
            small_spec,
            [ListTrace(make_records(count=300, rows=64))],
            single_step=single_step,
            mitigation=mech,
            max_time_ns=20_000.0,
        )
        return logs, dataclasses.asdict(result)

    batched_logs, batched_result = run(False)
    oracle_logs, oracle_result = run(True)
    assert batched_logs == oracle_logs
    assert batched_result == oracle_result


# ----------------------------------------------------------------------
# Property test: batched == tick-by-tick across mechanism styles.
# ----------------------------------------------------------------------
def run_harness(
    single_step: bool, mechanism: str, seed: int, channels: int, ranks: int = 1
):
    """One harness-level run (full Runner pipeline: workload generation,
    mechanism construction, energy model) with the batching mode forced.
    Two ranks run the differential harness's two-rank workload (the mix
    generators only address rank 0)."""
    hcfg = HarnessConfig(
        scale=1024.0,
        base_spec=TWO_RANK_SPEC if ranks == 2 else DDR4_2400,
        instructions_per_thread=2000,
        # Two ranks warm up past a REF on each, so refresh drains on one
        # rank overlap traffic on the other.
        warmup_ns=20_000.0 if ranks == 2 else 2_000.0,
        num_channels=channels,
        seed=1 + seed,
    )
    runner = Runner(hcfg, capture_commands=True)
    old = System.single_step
    System.single_step = single_step
    try:
        if ranks == 2:
            traces = two_rank_traces(hcfg.spec(), hcfg.mapping(), seed)
            outcome = runner.run_traces(traces, mechanism, [2000, None])
        else:
            mix = attack_mixes(1, threads=2, master_seed=4000 + seed)[0]
            outcome = runner.run_mix(mix, mechanism)
    finally:
        System.single_step = old
    return outcome.command_logs, dataclasses.asdict(outcome.result)


@pytest.mark.parametrize(
    "channels, ranks", [(1, 1), (2, 1), (1, 2)], ids=["1", "2", "two-rank"]
)
@pytest.mark.parametrize(
    "mechanism", ["none", "blockhammer", "para", "twice", "graphene"]
)
def test_batched_equals_tick_by_tick_oracle(mechanism, channels, ranks):
    """The property at the heart of the refactor: for every time-advance
    style — no-op, proactive throttling with cached verdicts (the fused
    scheduler path), probabilistic reactive refresh, and table-driven
    reactive refresh — a batched run is indistinguishable from the
    legacy tick-by-tick cadence: same commands on every channel, same
    result rows, and the same processed-event count (each batched step
    is accounted exactly like the per-step wake it replaces).  The
    two-rank case drives ACTs and REFs into both ranks."""
    batched_logs, batched_result = run_harness(False, mechanism, 0, channels, ranks)
    oracle_logs, oracle_result = run_harness(True, mechanism, 0, channels, ranks)
    assert len(batched_logs) == channels
    assert all(len(log) > 50 for log in batched_logs)
    for kind in ("ACT", "REF") if ranks == 2 else ("ACT",):
        kind_ranks = {cmd[2] for log in batched_logs for cmd in log if cmd[1] == kind}
        assert kind_ranks == set(range(ranks)), kind
    assert batched_logs == oracle_logs
    assert batched_result == oracle_result
