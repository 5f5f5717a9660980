"""Workload synthesis: Table 8 benign application profiles, the
calibrated trace generator, RowHammer attack traces, and the paper's
multiprogrammed workload mixes."""

from repro.workloads.profiles import (
    WorkloadProfile,
    Category,
    TABLE8_PROFILES,
    profile_by_name,
)
from repro.workloads.generator import ProfileTrace, build_benign_trace
from repro.workloads.attacks import (
    build_attack_trace,
    double_sided_attack,
    many_sided_attack,
    single_sided_attack,
)
from repro.workloads.mixes import WorkloadMix, benign_mixes, attack_mixes

__all__ = [
    "WorkloadProfile",
    "Category",
    "TABLE8_PROFILES",
    "profile_by_name",
    "ProfileTrace",
    "build_benign_trace",
    "build_attack_trace",
    "double_sided_attack",
    "many_sided_attack",
    "single_sided_attack",
    "WorkloadMix",
    "benign_mixes",
    "attack_mixes",
]
