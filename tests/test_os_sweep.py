"""The ossweep experiment driver and CLI (OS governor policy study).

Covers the acceptance properties of the governor sweep: the table
spans ≥ 3 policies × ≥ 2 mechanisms over an attack mix with benign-
slowdown and attacker-RHLI columns, rows assemble identically from a
warm cache with **zero** simulations (the perf_smoke entry for
``scripts/perf_smoke.sh``), and governed jobs are keyed apart from
ungoverned ones (a governor must never poison the ungoverned cache).
"""

from __future__ import annotations

import pytest

from repro.dram.spec import DDR4_2400
from repro.harness.cache import ResultCache
from repro.harness.cli import main
from repro.harness.experiments import (
    OS_SWEEP_POLICIES,
    os_policy_sweep,
    os_sweep_jobs,
)
from repro.harness.parallel import SweepReport, mix_job
from repro.harness.reporting import format_os_policy
from repro.harness.runner import HarnessConfig
from repro.os.spec import GovernorSpec
from repro.utils.validation import ConfigError
from repro.workloads.mixes import attack_mixes


@pytest.fixture(scope="module")
def tiny_hcfg() -> HarnessConfig:
    """Sweep-sized 2-channel configuration — two channels so the
    migrate policy has a quarantine target, and enough warmup for the
    attacker to cross the governor thresholds (reviews run during
    warmup, like a real OS would keep polling)."""
    return HarnessConfig(
        scale=512.0,
        base_spec=DDR4_2400.with_channels(2),
        instructions_per_thread=2_000,
        warmup_ns=30_000.0,
    )


def test_governed_jobs_keyed_apart(tiny_hcfg):
    mix = attack_mixes(1)[0]
    spec = OS_SWEEP_POLICIES["kill"]
    governed = mix_job(tiny_hcfg, mix, "blockhammer", governor=spec)
    ungoverned = mix_job(tiny_hcfg, mix, "blockhammer", governor=None)
    assert governed != ungoverned
    # The spec is hashable and repr-stable (cache key requirements).
    assert hash(spec) == hash(GovernorSpec(**{
        field: getattr(spec, field) for field in spec.__dataclass_fields__
    }))


def test_os_sweep_jobs_always_declare_the_baseline(tiny_hcfg):
    mixes = attack_mixes(1)
    jobs = os_sweep_jobs(tiny_hcfg, mixes, ["blockhammer"], ["kill"])
    governors = {job.governor for job in jobs}
    assert None in governors  # the slowdown-normalization control
    assert OS_SWEEP_POLICIES["kill"] in governors


def test_os_policy_sweep_rejects_unknown_policy(tiny_hcfg):
    with pytest.raises(ConfigError):
        os_policy_sweep(tiny_hcfg, policies=["reboot"])


@pytest.mark.perf_smoke
def test_perf_smoke_ossweep_warm_cache_zero_sims(tmp_path, tiny_hcfg):
    cache = ResultCache(tmp_path / "cache")
    cold = os_policy_sweep(tiny_hcfg, num_mixes=1, workers=1, cache=cache)

    # Acceptance shape: >= 3 policies x >= 2 mechanisms on an attack
    # mix, with benign-slowdown and attacker-RHLI columns present.
    assert len({row["policy"] for row in cold}) >= 4  # none + 3 policies
    assert len({row["mechanism"] for row in cold}) >= 2
    for row in cold:
        assert "benign_slowdown_mean" in row and "attacker_rhli" in row
    # The no-governor control normalizes to itself.
    for row in cold:
        if row["policy"] == "none":
            assert row["benign_slowdown_mean"] == pytest.approx(1.0)
            assert row["governor_epochs"] == 0
    # At least one policy actually acted on the attack mix.
    assert any(
        row["kills"] + row["migrations"] + row["quota_updates"] > 0 for row in cold
    )
    # The table renders with the required columns.
    table = format_os_policy(cold)
    assert "ben slow" in table and "atk RHLI" in table

    # Warm re-run: identical rows, zero simulations.
    report = SweepReport()
    warm = os_policy_sweep(
        tiny_hcfg, num_mixes=1, workers=1, cache=cache, report=report
    )
    assert report.executed == 0
    assert warm == cold


def test_cli_ossweep_smoke(tmp_path, capsys):
    code = main(
        [
            "ossweep",
            "--scale",
            "512",
            "--instructions",
            "1500",
            "--warmup-us",
            "2",
            "--mixes",
            "1",
            "--mechanisms",
            "blockhammer-observe",
            "--policies",
            "kill",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "policy" in out and "kill" in out and "atk RHLI" in out
