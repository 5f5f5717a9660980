"""The OS governor subsystem (repro.os): invariants and plumbing.

Governor invariants (ISSUE 5):

* a killed thread issues **zero** requests after its kill timestamp;
* a migrated thread accrues RHLI only on its quarantine channel after
  the migration;
* quota decay/recovery is monotone between strike epochs (strictly
  non-increasing while suspect, non-decreasing while recovering).

Plus the telemetry protocol (duck-typed across mechanisms), the
GovernorSpec factory, and the disabled-governor default costing
nothing (pinned globally by the golden-fixture suites).
"""

from __future__ import annotations

import pytest

from repro.core.blockhammer import BlockHammer
from repro.dram.address import AddressMapping, MappingScheme
from repro.dram.rowhammer import DisturbanceProfile
from repro.mitigations.graphene import Graphene
from repro.os import (
    Governor,
    GovernorSpec,
    KillPolicy,
    MigratePolicy,
    QuotaScalePolicy,
    ThreadTelemetry,
    build_governor,
)
from repro.os.telemetry import TelemetrySample
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.utils.validation import ConfigError
from repro.workloads.attacks import double_sided_attack
from repro.workloads.generator import build_benign_trace
from repro.workloads.profiles import profile_by_name


def build_system(
    small_spec,
    governor,
    channels: int = 1,
    attack_channels=None,
    mechanism_factory=BlockHammer,
):
    """One attacker (thread 0) plus one benign thread under blockhammer
    (or ``mechanism_factory``), with ``governor`` attached to the
    system."""
    spec = small_spec.with_channels(channels) if channels > 1 else small_spec
    mapping = AddressMapping(spec, MappingScheme.MOP)
    attack = double_sided_attack(
        spec, mapping, victim_row=64, banks=[0, 1], channels=attack_channels
    )
    benign = build_benign_trace(
        profile_by_name("429.mcf"), spec, mapping, seed=4, row_offset=1024
    )
    config = SystemConfig(
        spec=spec,
        num_channels=channels,
        disturbance=DisturbanceProfile(nrh=128),
    )
    return System(
        config,
        [attack, benign],
        mitigation_factory=mechanism_factory,
        governor=governor,
    )


# ----------------------------------------------------------------------
# Invariant 1: a killed thread issues zero requests after the kill.
# ----------------------------------------------------------------------
def test_killed_thread_issues_zero_requests_after_kill(small_spec):
    governor = Governor(
        [KillPolicy(kill_rhli=0.03, patience_epochs=1)], epoch_ns=10_000.0
    )
    system = build_system(small_spec, governor)
    result = system.run(instructions_per_thread=[None, 40_000])

    assert governor.killed == {0}
    (kill_thread, kill_time), = governor.kill_log
    assert kill_thread == 0
    attacker = system.cores[0]
    assert attacker.descheduled_at == kill_time
    # The load-bearing invariant: the issue counter froze at the kill.
    assert attacker.requests_issued == attacker.requests_at_deschedule
    # The benign thread was untouched and completed normally.
    assert 1 not in governor.killed
    assert system.cores[1].descheduled_at is None
    assert result.total_bitflips == 0


def test_patience_delays_the_kill(small_spec):
    governor = Governor(
        [KillPolicy(kill_rhli=0.03, patience_epochs=500)], epoch_ns=10_000.0
    )
    system = build_system(small_spec, governor)
    result = system.run(instructions_per_thread=[None, 20_000])
    # Not enough reviews elapse for 500 strikes: the attacker survives
    # (still throttled by the ordinary quotas, so still no bit-flips).
    assert governor.epochs > 0
    assert governor.killed == set()
    assert result.total_bitflips == 0


def test_os_policy_beats_plain_quota_on_attacker_acts(small_spec):
    plain_result = build_system(small_spec, None).run(
        instructions_per_thread=[None, 40_000]
    )
    governor = Governor(
        [KillPolicy(kill_rhli=0.03, patience_epochs=1)], epoch_ns=10_000.0
    )
    governed_result = build_system(small_spec, governor).run(
        instructions_per_thread=[None, 40_000]
    )
    assert governor.killed == {0}
    plain_acts = plain_result.threads[0].mem.activations
    governed_acts = governed_result.threads[0].mem.activations
    assert governed_acts <= plain_acts


def test_killed_thread_does_not_gate_completion(small_spec):
    """A system-level kill stamps the core finished so runs with an
    instruction target on the killed thread still terminate."""
    governor = Governor(
        [KillPolicy(kill_rhli=0.03, patience_epochs=1)], epoch_ns=10_000.0
    )
    system = build_system(small_spec, governor)
    # The attacker carries a target it can never reach once killed.
    result = system.run(instructions_per_thread=[100_000_000, 40_000])
    assert governor.killed == {0}
    assert system.cores[0].finish_time is not None
    assert result.threads[1].instructions >= 40_000


# ----------------------------------------------------------------------
# Invariant 2: a migrated thread accrues RHLI only on its quarantine
# channel (after the migration).
# ----------------------------------------------------------------------
class SnapshottingGovernor(Governor):
    """Records per-channel attacker RHLI at the first review after the
    migration at which the attacker has *no request still in flight* on
    its original channel.  Requests enqueued before the move may
    legally activate blacklisted rows much later (RowBlocker paces them
    by tDelay — tens of microseconds here), so the invariant is "no
    accrual after the old channel drains", not "none after the
    migration instant"."""

    snapshot: list[float] | None = None

    def _review(self, now: float) -> None:
        if self.migrations and self.snapshot is None:
            old_channel = self._system.controllers[0]
            if old_channel._inflight_per_thread.get(0, 0) == 0:
                self.snapshot = [
                    mechanism.thread_max_rhli(0)
                    for mechanism in self._system.memsys.mitigations
                ]
        super()._review(now)


def test_migrated_thread_accrues_rhli_only_on_quarantine_channel(small_spec):
    governor = SnapshottingGovernor(
        [MigratePolicy(suspect_score=0.01, patience_epochs=1, quarantine_channel=1)],
        epoch_ns=10_000.0,
    )
    # Attacker confined to channel 0 of 2 until the governor moves it.
    # The benign target is generous: the attacker must have time to be
    # re-blacklisted on the quarantine channel after the move, and the
    # governor needs at least one post-migration review epoch.
    system = build_system(small_spec, governor, channels=2, attack_channels=[0])
    system.run(instructions_per_thread=[None, 150_000])

    assert governor.migrations == {0: 1}
    assert system.cores[0].repinned_channel == 1
    settled = governor.snapshot  # taken once the old channel drained
    assert settled is not None, "run too short: channel 0 never drained"
    after = [m.thread_max_rhli(0) for m in system.memsys.mitigations]
    # Channel 0 (the original home) accrued nothing after its queue
    # drained; the attack pressure re-emerged on the quarantine channel
    # only.
    assert settled[0] > 0.0  # it *was* hammering channel 0 before
    assert after[0] == settled[0]
    assert after[1] > 0.0
    # The benign thread was not migrated.
    assert system.cores[1].repinned_channel is None


def test_migrate_rejects_out_of_range_quarantine_channel(small_spec):
    governor = Governor(
        [MigratePolicy(suspect_score=0.01, quarantine_channel=7)],
        epoch_ns=10_000.0,
    )
    system = build_system(small_spec, governor, channels=2, attack_channels=[0])
    with pytest.raises(ConfigError):
        system.run(instructions_per_thread=[None, 40_000])


# ----------------------------------------------------------------------
# Invariant 3: quota decay/recovery is monotone between strike epochs.
# ----------------------------------------------------------------------
def _sample(score: float) -> TelemetrySample:
    return TelemetrySample(
        now=0.0,
        epoch=0,
        num_channels=1,
        threads=[ThreadTelemetry(thread=0, rhli=score)],
    )


def test_quota_scale_monotone_decay_then_recovery():
    policy = QuotaScalePolicy(
        suspect_score=0.5, decay=0.5, recovery=2.0, min_scale=1.0 / 16.0
    )
    sink = Governor([policy], epoch_ns=1.0)  # detached sink: records only

    decays = []
    for _ in range(8):
        policy.review(_sample(0.9), sink)
        decays.append(policy.scale(0))
    assert decays == sorted(decays, reverse=True)  # non-increasing
    assert decays[-1] == 1.0 / 16.0  # floored, never zero

    recoveries = []
    for _ in range(8):
        policy.review(_sample(0.0), sink)
        recoveries.append(policy.scale(0))
    assert recoveries == sorted(recoveries)  # non-decreasing
    assert recoveries[-1] == 1.0  # capped at unthrottled
    # Every logged update corresponds to an actual scale transition.
    sequence = [1.0] + decays + recoveries
    transitions = sum(1 for a, b in zip(sequence, sequence[1:]) if a != b)
    assert sink.quota_updates == transitions


def test_quota_scale_applies_to_core_mlp(small_spec):
    governor = Governor(
        [QuotaScalePolicy(suspect_score=0.01, decay=0.5)], epoch_ns=10_000.0
    )
    system = build_system(small_spec, governor)
    system.run(instructions_per_thread=[None, 40_000])
    assert governor.quota_scale.get(0, 1.0) < 1.0
    attacker = system.cores[0]
    assert attacker._mlp_limit < attacker.params.max_outstanding
    assert attacker._mlp_limit >= 1  # never fully unschedulable
    benign = system.cores[1]
    assert benign._mlp_limit == benign.params.max_outstanding


# ----------------------------------------------------------------------
# Telemetry protocol: duck-typed across mechanisms.
# ----------------------------------------------------------------------
def test_mechanism_telemetry_duck_typing(small_spec):
    governor = Governor([KillPolicy(kill_rhli=0.03)], epoch_ns=10_000.0)
    system = build_system(small_spec, governor)
    system.run(instructions_per_thread=[None, 40_000])
    sample = system.memsys.os_telemetry(now=0.0)
    assert [row.thread for row in sample.threads] == [0, 1]
    assert sample.threads[0].rhli is not None
    assert sample.threads[1].rhli == 0.0  # benign threads sit at 0
    assert sample.blacklisted_acts > 0

    reactive = build_system(small_spec, None, mechanism_factory=Graphene)
    reactive.run(instructions_per_thread=[None, 20_000])
    sample = reactive.memsys.os_telemetry(now=0.0)
    assert all(row.rhli is None for row in sample.threads)
    assert sample.blacklisted_acts == 0
    # No RHLI and no quota rejections (graphene never throttles at the
    # source): every thread scores exactly 0, so a governor above a
    # reactive baseline never fires — queue-full backpressure, which
    # *does* happen under load, must not read as suspicion.
    assert all(row.suspect_score == 0.0 for row in sample.threads)


def test_suspect_score_fallback_math():
    tracked = ThreadTelemetry(thread=0, rhli=0.7, quota_blocked=99, requests=1)
    assert tracked.suspect_score == 0.7  # RHLI wins when tracked
    untracked = ThreadTelemetry(
        thread=0, rhli=None, quota_blocked=30, blocked_injections=500, requests=70
    )
    assert untracked.suspect_score == pytest.approx(0.3)
    # Queue-full rejections alone are load, not suspicion.
    backpressured = ThreadTelemetry(
        thread=0, rhli=None, blocked_injections=500, requests=70
    )
    assert backpressured.suspect_score == 0.0
    idle = ThreadTelemetry(thread=0, rhli=None)
    assert idle.suspect_score == 0.0


# ----------------------------------------------------------------------
# GovernorSpec factory and guard rails.
# ----------------------------------------------------------------------
def test_governor_spec_factory():
    assert build_governor(None) is None
    for policy, cls in (
        ("kill", KillPolicy),
        ("quota", QuotaScalePolicy),
        ("migrate", MigratePolicy),
    ):
        governor = build_governor(GovernorSpec(policy=policy, epoch_ns=5.0))
        assert isinstance(governor.policies[0], cls)
        assert governor.epoch_ns == 5.0
    killer = build_governor(
        GovernorSpec(policy="kill", threshold=0.25, patience_epochs=3)
    )
    assert killer.policies[0].kill_rhli == 0.25
    assert killer.policies[0].patience_epochs == 3


def test_governor_spec_multi_policy():
    governor = build_governor(
        GovernorSpec(policy="quota+kill", epoch_ns=5.0, threshold=0.1)
    )
    assert [type(p) for p in governor.policies] == [QuotaScalePolicy, KillPolicy]
    assert governor.policies[0].suspect_score == 0.1
    assert governor.policies[1].kill_rhli == 0.1


def test_governor_spec_rejects_unknown_policy():
    with pytest.raises(ConfigError):
        GovernorSpec(policy="reboot")
    with pytest.raises(ConfigError):
        GovernorSpec(policy="kill+reboot")


@pytest.mark.parametrize(
    "spec_kwargs",
    [
        {"policy": "kill", "threshold": 0.0},
        {"policy": "quota", "decay": 1.5},
        {"policy": "kill", "epoch_ns": 0.0},
        {"policy": "kill", "patience_epochs": 0},
        {"policy": "migrate", "quarantine_channel": -1},
    ],
)
def test_governor_spec_rejects_bad_knobs_at_construction(spec_kwargs):
    """A bad knob fails when the spec is declared, not inside
    ``build_governor`` in a sweep worker."""
    with pytest.raises(ConfigError):
        GovernorSpec(**spec_kwargs)


def test_policy_parameter_validation():
    with pytest.raises(ConfigError):
        KillPolicy(kill_rhli=0.0)
    with pytest.raises(ConfigError):
        KillPolicy(patience_epochs=0)
    with pytest.raises(ConfigError):
        QuotaScalePolicy(decay=1.5)
    with pytest.raises(ConfigError):
        QuotaScalePolicy(recovery=0.5)
    with pytest.raises(ConfigError):
        MigratePolicy(suspect_score=-1.0)
    with pytest.raises(ConfigError):
        Governor([], epoch_ns=0.0)


# ----------------------------------------------------------------------
# Strike bookkeeping (the normalized review-cadence edges).
# ----------------------------------------------------------------------
def test_kill_policy_drops_strike_state_for_killed_threads():
    policy = KillPolicy(kill_rhli=0.5, patience_epochs=2)
    sink = Governor([policy], epoch_ns=1.0)
    policy.review(_sample(0.9), sink)
    assert policy.strikes(0) == 1
    policy.review(_sample(0.9), sink)
    assert sink.killed == {0}
    assert policy.strikes(0) == 0  # no retained entry for the dead thread
    policy.review(_sample(0.9), sink)  # further reviews skip killed threads
    assert policy.strikes(0) == 0
    assert len(sink.kill_log) == 1


def test_review_clock_anchors_to_first_observed_time():
    governor = Governor([KillPolicy(kill_rhli=0.5)], epoch_ns=100.0)
    # Started at t=250 (a nonzero start time): the first review lands
    # one epoch later, not at the start-relative t=100/t=200 instants.
    assert governor.start(250.0) == 350.0
    assert governor.advance(300.0) == 350.0
    assert governor.epochs == 0
