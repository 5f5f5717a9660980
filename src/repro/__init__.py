"""BlockHammer reproduction (HPCA 2021).

A from-scratch Python implementation of *BlockHammer: Preventing
RowHammer at Low Cost by Blacklisting Rapidly-Accessed DRAM Rows*
(Yağlıkçı et al.), together with the full substrate it is evaluated on:
a DRAM system simulator, a DRAM energy model, a hardware cost model, six
state-of-the-art baseline mitigation mechanisms, the paper's workload
methodology, and the Section 5 security proof.

Quickstart::

    from repro import HarnessConfig, Runner, attack_mixes

    hcfg = HarnessConfig(scale=64, paper_nrh=32768)
    runner = Runner(hcfg)
    outcome = runner.run_mix(attack_mixes(1)[0], "blockhammer")
    assert outcome.bitflips == 0

See README.md for the architecture overview and the per-figure
commands, and PAPER.md for the paper's abstract.  The package,
including the Section 5 proof, needs only the standard library.
"""

from repro.core import (
    AttackThrottler,
    BlockHammer,
    BlockHammerConfig,
    BloomFilter,
    CountingBloomFilter,
    DualCountingBloomFilter,
    RowBlocker,
)
from repro.dram import (
    DDR3_1600,
    DDR4_2400,
    LPDDR4_3200,
    DisturbanceProfile,
    DramDevice,
    DramSpec,
)
from repro.energy import EnergyModel, EnergyParams
from repro.harness import HarnessConfig, Runner, experiments, format_table
from repro.hwcost import mechanism_cost, table4_rows
from repro.metrics import compute_metrics
from repro.mitigations import available_mitigations, build_mitigation
from repro.security import prove_safety, simulate_optimal_attack
from repro.sim import SimResult, System, SystemConfig
from repro.workloads import (
    TABLE8_PROFILES,
    attack_mixes,
    benign_mixes,
    build_attack_trace,
    build_benign_trace,
    double_sided_attack,
)

__version__ = "1.0.0"


__all__ = [
    "AttackThrottler",
    "BlockHammer",
    "BlockHammerConfig",
    "BloomFilter",
    "CountingBloomFilter",
    "DualCountingBloomFilter",
    "RowBlocker",
    "DDR3_1600",
    "DDR4_2400",
    "LPDDR4_3200",
    "DisturbanceProfile",
    "DramDevice",
    "DramSpec",
    "EnergyModel",
    "EnergyParams",
    "HarnessConfig",
    "Runner",
    "experiments",
    "format_table",
    "mechanism_cost",
    "table4_rows",
    "compute_metrics",
    "available_mitigations",
    "build_mitigation",
    "prove_safety",
    "simulate_optimal_attack",
    "SimResult",
    "System",
    "SystemConfig",
    "TABLE8_PROFILES",
    "attack_mixes",
    "benign_mixes",
    "build_attack_trace",
    "build_benign_trace",
    "double_sided_attack",
    "__version__",
]
