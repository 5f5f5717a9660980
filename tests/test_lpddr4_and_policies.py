"""Cross-standard (LPDDR4/DDR3) and scheduling-policy coverage.

Section 3.1.3 ("Tuning for Different DRAM Standards"): BlockHammer's
derivation adapts across DDRx/LPDDRx purely through the three public
timing constraints (tRC, tREFW, tFAW).  These tests run end-to-end on
LPDDR4 and DDR3 specs and exercise the FCFS scheduling ablation.
"""

from dataclasses import replace

import pytest

from repro.core.blockhammer import BlockHammer
from repro.core.config import BlockHammerConfig
from repro.cpu.trace import ListTrace, TraceRecord
from repro.dram.address import AddressMapping, MappingScheme
from repro.dram.rowhammer import DisturbanceProfile
from repro.dram.spec import DDR3_1600, LPDDR4_3200
from repro.mem.scheduler import FcfsPolicy
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.attacks import double_sided_attack
from repro.workloads.generator import build_benign_trace
from repro.workloads.profiles import profile_by_name


def _small(spec):
    return replace(spec.scaled(64), banks_per_rank=4, rows_per_bank=4096)


@pytest.mark.parametrize("base_spec", [LPDDR4_3200, DDR3_1600])
def test_blockhammer_protects_other_standards(base_spec):
    spec = _small(base_spec)
    mapping = AddressMapping(spec, MappingScheme.MOP)
    trace = double_sided_attack(spec, mapping, victim_row=64, banks=[0, 1])
    config = SystemConfig(spec=spec, disturbance=DisturbanceProfile(nrh=128))

    unprotected = System(config, [trace]).run(instructions_per_thread=40_000)
    assert unprotected.total_bitflips > 0

    mechanism = BlockHammer()
    protected = System(
        SystemConfig(spec=spec, disturbance=DisturbanceProfile(nrh=128)),
        [double_sided_attack(spec, mapping, victim_row=64, banks=[0, 1])],
        mitigation_factory=lambda: mechanism,
    ).run(instructions_per_thread=40_000)
    assert protected.total_bitflips == 0


def test_lpddr4_tdelay_derivation_follows_spec():
    """LPDDR4's halved tREFW halves tDelay (Section 3.1.3)."""
    ddr4_cfg = BlockHammerConfig.for_nrh(32768)
    lp_cfg = BlockHammerConfig.for_nrh(32768, LPDDR4_3200)
    assert lp_cfg.t_delay_ns == pytest.approx(ddr4_cfg.t_delay_ns / 2, rel=0.02)


def test_fcfs_policy_end_to_end(small_spec):
    """The FCFS ablation runs and loses row locality vs FR-FCFS."""
    mapping = AddressMapping(small_spec, MappingScheme.MOP)

    def traces():
        return [
            build_benign_trace(
                profile_by_name("429.mcf"), small_spec, mapping, seed=3
            )
        ]

    config = SystemConfig(spec=small_spec)
    frfcfs = System(config, traces()).run(instructions_per_thread=30_000)
    fcfs = System(SystemConfig(spec=small_spec), traces(), policy=FcfsPolicy()).run(
        instructions_per_thread=30_000
    )
    assert fcfs.threads[0].ipc <= frfcfs.threads[0].ipc + 1e-9


def test_fcfs_still_protected_by_blockhammer(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    trace = double_sided_attack(small_spec, mapping, victim_row=64, banks=[0, 1])
    config = SystemConfig(spec=small_spec, disturbance=DisturbanceProfile(nrh=128))
    result = System(
        config, [trace], mitigation_factory=BlockHammer, policy=FcfsPolicy()
    ).run(instructions_per_thread=20_000)
    assert result.total_bitflips == 0
