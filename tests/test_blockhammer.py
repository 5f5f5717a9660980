"""Integration tests for the BlockHammer mechanism (Section 3)."""

import pytest

from repro.core.blockhammer import BlockHammer
from repro.core.config import BlockHammerConfig
from repro.dram.rowhammer import DisturbanceProfile
from repro.dram.spec import scaled_threshold
from repro.mitigations.base import NoMitigation
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.attacks import double_sided_attack
from repro.dram.address import AddressMapping, MappingScheme


def build_attack_system(small_spec, mechanism, nrh=128):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    trace = double_sided_attack(small_spec, mapping, victim_row=64, banks=[0, 1])
    config = SystemConfig(
        spec=small_spec, disturbance=DisturbanceProfile(nrh=nrh, blast_radius=1)
    )
    return System(config, [trace], mitigation_factory=lambda: mechanism)


def test_unprotected_attack_flips_bits(small_spec):
    system = build_attack_system(small_spec, NoMitigation())
    result = system.run(instructions_per_thread=40_000)
    assert result.total_bitflips > 0


def test_blockhammer_prevents_all_bitflips(small_spec):
    mechanism = BlockHammer()
    system = build_attack_system(small_spec, mechanism)
    result = system.run(instructions_per_thread=40_000)
    assert result.total_bitflips == 0


def test_blockhammer_attack_act_rate_bounded(small_spec):
    """Combined victim disturbance never reaches NRH: each aggressor is
    capped at NRH* = NRH/2 (Eq. 3), so even both aggressors of a
    double-sided attack together stay below the flip threshold."""
    mechanism = BlockHammer()
    system = build_attack_system(small_spec, mechanism)
    result = system.run(instructions_per_thread=40_000)
    max_disturbance = max(
        system.device.model(0, b).max_disturbance()
        for b in range(small_spec.banks_per_rank)
    )
    assert max_disturbance < mechanism.config.nrh
    assert result.total_bitflips == 0


def test_config_derived_from_context(small_spec):
    mechanism = BlockHammer()
    system = build_attack_system(small_spec, mechanism, nrh=128)
    assert mechanism.config.nrh == 128
    assert mechanism.config.nbl == 32
    # Derived, not the explicit-config path.
    assert mechanism.rowblocker is not None
    assert mechanism.throttler is not None


def test_explicit_config_respected(small_spec):
    config = BlockHammerConfig.for_nrh(scaled_threshold(32768, 64), small_spec)
    mechanism = BlockHammer(config=config)
    build_attack_system(small_spec, mechanism)
    assert mechanism.config is config


def test_observe_only_never_interferes(small_spec):
    observe = BlockHammer(observe_only=True)
    system = build_attack_system(small_spec, observe)
    result = system.run(instructions_per_thread=30_000)
    # Attack proceeds unthrottled (bit-flips happen!) but RHLI is measured.
    assert result.total_bitflips > 0
    assert observe.thread_max_rhli(0) > 1.0
    assert observe.name == "blockhammer-observe"


def test_full_mode_keeps_rhli_below_one(small_spec):
    mechanism = BlockHammer()
    system = build_attack_system(small_spec, mechanism)
    system.run(instructions_per_thread=30_000)
    assert mechanism.thread_max_rhli(0) <= 1.0


def test_table6_properties():
    mechanism = BlockHammer()
    assert mechanism.comprehensive_protection
    assert mechanism.commodity_compatible
    assert mechanism.scales_with_vulnerability
    assert mechanism.deterministic_protection


def test_blockhammer_issues_no_victim_refreshes(small_spec):
    """BlockHammer never needs the row mapping (Section 9 prop 2)."""
    mechanism = BlockHammer()
    system = build_attack_system(small_spec, mechanism)
    result = system.run(instructions_per_thread=30_000)
    assert result.victim_refreshes == 0


def test_delay_stats_exposed(small_spec):
    mechanism = BlockHammer()
    system = build_attack_system(small_spec, mechanism)
    system.run(instructions_per_thread=30_000)
    stats = mechanism.delay_stats()
    assert stats.total_acts > 0
    assert stats.delayed_acts > 0  # the attack was throttled
