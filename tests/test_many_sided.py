"""Many-sided attack handling (Section 4, Eq. 3).

On chips with a blast radius beyond the immediate neighbor, many-sided
attacks accumulate disturbance from several aggressors.  BlockHammer
counters this by shrinking its effective threshold NRH* per Eq. 3; these
tests run TRRespass-style many-sided attacks against chips with a wider
blast radius and verify protection end to end.
"""

import pytest

from repro.core.blockhammer import BlockHammer
from repro.dram.address import AddressMapping, MappingScheme
from repro.dram.rowhammer import DisturbanceProfile
from repro.mitigations.base import NoMitigation
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.attacks import many_sided_attack


def run_many_sided(small_spec, mechanism, blast_radius=2, nrh=192, sides=6):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    trace = many_sided_attack(small_spec, mapping, first_row=64, sides=sides, banks=[0, 1])
    profile = DisturbanceProfile(nrh=nrh, blast_radius=blast_radius, decay=0.5)
    config = SystemConfig(spec=small_spec, disturbance=profile)
    system = System(config, [trace], mitigation_factory=lambda: mechanism)
    return system.run(instructions_per_thread=60_000)


def test_many_sided_defeats_unprotected_system(small_spec):
    result = run_many_sided(small_spec, NoMitigation())
    assert result.total_bitflips > 0


def test_blockhammer_eq3_blocks_many_sided(small_spec):
    mechanism = BlockHammer()
    result = run_many_sided(small_spec, mechanism)
    # Eq. 3 tightened the threshold for blast radius 2.
    assert mechanism.config.nrh_star == pytest.approx(192 / (2 * 1.5))
    assert result.total_bitflips == 0


def test_blockhammer_misconfigured_blast_radius_is_weaker(small_spec):
    """Configuring for double-sided only (blast radius 1) on a chip with
    blast radius 2 leaves a higher NRH*; this documents why Eq. 3 needs
    the *chip's* characterized blast radius."""
    from repro.core.config import BlockHammerConfig

    correct = BlockHammer()
    run_many_sided(small_spec, correct, blast_radius=2)
    naive_config = BlockHammerConfig.for_nrh(192, small_spec, blast_radius=1)
    assert naive_config.nrh_star > correct.config.nrh_star


def test_cumulative_disturbance_of_many_sided(small_spec):
    """Six aggressors two rows apart disturb interior victims from both
    sides at multiple distances."""
    profile = DisturbanceProfile(nrh=10_000, blast_radius=2, decay=0.5)
    from repro.dram.rowhammer import DisturbanceModel

    model = DisturbanceModel(profile, rows=small_spec.rows_per_bank, rank=0, bank=0)
    for aggressor in (64, 66, 68):
        model.on_activate(aggressor, now=0.0)
    # Victim 65: distance 1 from both 64 and 66 -> 2.0; plus 68 beyond
    # radius 2... distance 3 -> 0. Row 67: d1 from 66,68 (2.0) + d2 ... wait
    # 67 is odd: d(64)=3 -> 0, so 2.0 + 0.5 from 65? 65 not an aggressor.
    assert model.disturbance_of(65) == pytest.approx(2.0)
    # Row 66 is itself an aggressor; its disturbance comes from 64 and 68
    # at distance 2 each: 0.5 + 0.5.
    assert model.disturbance_of(66) == pytest.approx(1.0)
