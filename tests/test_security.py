"""Tests for the Section 5 security analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BlockHammerConfig
from repro.security.adversary import (
    OptimalAttacker,
    max_acts_in_any_window,
    simulate_optimal_attack,
)
from repro.security.constraints import AttackConstraints
from repro.security.epochs import EpochModel, EpochType, PREDECESSORS
from repro.security.solver import prove_safety


@pytest.fixture
def table1_config():
    return BlockHammerConfig()


@pytest.fixture
def small_config():
    """A scaled config whose adversary simulation runs in milliseconds."""
    return BlockHammerConfig(
        nrh=256,
        t_refw_ns=500_000.0,
        t_cbf_ns=500_000.0,
        nbl=64,
        cbf_size=1024,
    )


# ----------------------------------------------------------------------
# Epoch model (Table 2).
# ----------------------------------------------------------------------
def test_epoch_bounds_table1(table1_config):
    model = EpochModel(table1_config)
    bounds = {t: model.nepmax(t) for t in EpochType}
    assert bounds[EpochType.T0] == table1_config.nbl - 1
    assert bounds[EpochType.T1] == table1_config.nbl - 1
    # T2: NBL burst + tDelay-spaced remainder.
    expected_t2 = table1_config.nbl + int(
        (model.tep - table1_config.nbl * table1_config.t_rc_ns)
        / table1_config.t_delay_ns
    )
    assert bounds[EpochType.T2] == expected_t2
    # T3/T4: tDelay-spaced all epoch.
    assert bounds[EpochType.T4] == int(model.tep / table1_config.t_delay_ns)
    assert bounds[EpochType.T3] == min(
        table1_config.nbl - 1, bounds[EpochType.T4]
    )


def test_two_epochs_per_refresh_window(table1_config):
    assert EpochModel(table1_config).epochs_per_refresh_window() == 2


def test_predecessor_structure():
    # Un-blacklisted epoch types follow un-blacklisting types.
    for t in (EpochType.T0, EpochType.T1, EpochType.T2):
        assert PREDECESSORS[t] == {EpochType.T0, EpochType.T1, EpochType.T3}
    for t in (EpochType.T3, EpochType.T4):
        assert PREDECESSORS[t] == {EpochType.T2, EpochType.T4}


# ----------------------------------------------------------------------
# Constraints and solver (Table 3 / Section 5).
# ----------------------------------------------------------------------
def test_constraint_vector_checks(table1_config):
    constraints = AttackConstraints.for_config(table1_config)
    assert constraints.satisfied_by((0, 0, 1, 1, 0))
    assert not constraints.satisfied_by((0, 0, 2, 0, 0))  # n2 > n3
    assert not constraints.satisfied_by((3, 0, 0, 0, 0))  # over budget
    assert not constraints.satisfied_by((-1, 0, 1, 1, 0))


def test_proof_table1_is_safe(table1_config):
    proof = prove_safety(table1_config)
    assert proof.safe
    assert proof.lp_max_activations < proof.nrh_star
    assert proof.enumeration_max_activations is not None
    assert proof.enumeration_max_activations <= proof.lp_max_activations + 1e-6
    # The optimum is the T2+T3 schedule, one tick below NRH*.
    assert proof.best_counts == (0, 0, 1, 1, 0)
    # The straddling-window bound lands exactly at the Eq. 1 budget.
    assert proof.fast_delayed_max <= proof.nrh_star
    assert proof.fast_delayed_max == pytest.approx(proof.nrh_star, rel=0.001)


def test_proof_safe_across_table7_configs():
    for nrh in (32768, 16384, 8192, 4096, 2048, 1024):
        proof = prove_safety(BlockHammerConfig.for_nrh(nrh))
        assert proof.safe, f"NRH={nrh} not proven safe"


def test_proof_detects_misconfiguration():
    """Sanity: an overly-lax tCBF breaks the guarantee and the solver
    notices (tCBF = 2 x tREFW doubles the per-window budget)."""
    bad = BlockHammerConfig(t_cbf_ns=128.0 * 10**6, t_refw_ns=64.0 * 10**6)
    proof = prove_safety(bad)
    assert not proof.safe


# ----------------------------------------------------------------------
# Adversarial simulation.
# ----------------------------------------------------------------------
def test_sliding_window_counter():
    times = [0.0, 10.0, 20.0, 100.0, 105.0]
    assert max_acts_in_any_window(times, window_ns=25.0) == 3
    assert max_acts_in_any_window(times, window_ns=5.0) == 1
    assert max_acts_in_any_window([], window_ns=10.0) == 0


def test_greedy_adversary_never_exceeds_nrh_star(small_config):
    """Eq. 1 makes the worst schedule land exactly on the NRH* budget —
    the greedy adversary can reach but never exceed it."""
    observed = simulate_optimal_attack(small_config, num_windows=3.0)
    assert observed <= small_config.nrh_star


def test_greedy_adversary_is_throttled(small_config):
    attacker = OptimalAttacker(small_config)
    times = attacker.run(small_config.t_refw_ns, row=50)
    # The first NBL activations run at tRC pace; afterwards tDelay rules.
    assert len(times) > small_config.nbl
    late_gaps = [b - a for a, b in zip(times[-10:], times[-9:])]
    assert all(gap >= small_config.t_delay_ns * 0.999 for gap in late_gaps)


@given(st.integers(min_value=8, max_value=64))
@settings(max_examples=8, deadline=None)
def test_adversary_bound_property(nbl):
    """For random small configs, the greedy adversary never exceeds the
    analytical per-window bound."""
    config = BlockHammerConfig(
        nrh=nbl * 8,
        t_refw_ns=50_000.0,
        t_cbf_ns=50_000.0,
        nbl=nbl,
        cbf_size=512,
    )
    observed = simulate_optimal_attack(config, num_windows=2.5)
    assert observed <= config.nrh_star
