"""Tests for the experiment harness (runner + drivers).

These use aggressively-scaled configurations so the whole file runs in
tens of seconds; the benchmarks use larger settings.
"""

import pytest

from repro.dram.spec import DDR4_2400
from repro.harness import cli, experiments
from repro.harness.experiments import _benign_ipc_maps, mix_sweep_jobs
from repro.harness.parallel import mix_job, run_jobs
from repro.harness.reporting import format_table
from repro.harness.runner import HarnessConfig, Runner
from repro.obs.probe import ObsConfig
from repro.utils.validation import ConfigError
from repro.workloads.mixes import attack_mixes, benign_mixes


@pytest.fixture(scope="module")
def hcfg():
    return HarnessConfig(scale=256, instructions_per_thread=20_000, warmup_ns=20_000.0)


@pytest.fixture(scope="module")
def runner(hcfg):
    return Runner(hcfg)


def test_scaled_nrh_consistency(hcfg):
    assert hcfg.sim_nrh == 128
    assert hcfg.spec().tREFW == pytest.approx(64e6 / 256)
    assert hcfg.disturbance().nrh == 128


@pytest.mark.parametrize(
    "field, value",
    [
        ("scale", 0.0),
        ("scale", 0.5),
        ("paper_nrh", 0),
        ("instructions_per_thread", 0),
        ("instructions_per_thread", -3),
        ("warmup_ns", -1.0),
        ("blast_radius", 0),
        ("blast_decay", 0.0),
        ("blast_decay", 1.5),
        ("rowmap_kind", "bogus"),
        ("assumed_rowmap_kind", "bogus"),
        ("max_time_ns", 0.0),
    ],
)
def test_harness_config_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        HarnessConfig(**{field: value})


def test_harness_config_rejects_zero_channels():
    with pytest.raises(ConfigError, match="channels"):
        HarnessConfig(base_spec=DDR4_2400.with_channels(0))


def test_runner_rejects_obs_with_capture_commands():
    """Both claim the device command-log hook: the obs trace would
    silently lose every DRAM command."""
    with pytest.raises(ConfigError, match="mutually exclusive"):
        Runner(HarnessConfig(), capture_commands=True, obs=ObsConfig())


def test_observed_runner_gives_each_run_its_own_bus():
    """A runner holds an ObsConfig, not a live bus: running the same mix
    twice returns two independent buses with equal records, so no run
    adds to another's events or metric rows."""
    hcfg = HarnessConfig(scale=4096.0, instructions_per_thread=2_000, warmup_ns=5_000.0)
    runner = Runner(hcfg, obs=ObsConfig(trace=True, metrics=True))
    mix = attack_mixes(1)[0]
    first = runner.run_mix(mix, "blockhammer")
    second = runner.run_mix(mix, "blockhammer")
    assert first.obs is not second.obs
    record = first.obs.record()
    assert record["events"] and record["metric_rows"]
    assert second.obs.record() == record


def test_cli_rejects_bad_config_before_dispatch(monkeypatch):
    def dispatched(*args, **kwargs):
        pytest.fail("a job was dispatched for an invalid configuration")

    monkeypatch.setattr(experiments, "run_jobs", dispatched)
    with pytest.raises(ConfigError, match="instructions_per_thread"):
        cli.main(["fig5", "--instructions", "0"])


def test_mechanism_kwargs_paper_scale_para(hcfg):
    kwargs = hcfg.mechanism_kwargs("para")
    # Tuned at paper NRH (16K effective), not the scaled 64.
    assert kwargs["probability"] == pytest.approx(0.0042, rel=0.05)
    assert hcfg.mechanism_kwargs("blockhammer") == {}


def test_run_single_produces_result(runner):
    outcome = runner.run_single("403.gcc", "none")
    assert outcome.result.threads[0].instructions >= 20_000
    assert outcome.energy.total_j > 0.0


def test_run_mix_benign(runner):
    outcome = runner.run_mix(benign_mixes(1)[0], "none")
    assert len(outcome.result.threads) == 8
    assert all(t.instructions >= 20_000 for t in outcome.result.threads)


def test_run_mix_attack_thread_untargeted(runner):
    outcome = runner.run_mix(attack_mixes(1)[0], "none")
    benign = outcome.result.threads[1:]
    assert all(t.instructions >= 20_000 for t in benign)
    # The attacker keeps running but never gates completion.
    assert outcome.result.threads[0].mem.activations > 0


def test_benign_ipc_maps_exclude_attacker(hcfg):
    mix = attack_mixes(1)[0]
    jobs = mix_sweep_jobs(hcfg, [mix], [])
    # No alone run is declared for the attacker slot.
    assert {job.slot for job in jobs if job.kind == "single"} == set(range(1, 8))
    results = run_jobs(jobs)
    outcome = results[mix_job(hcfg, mix, "none")]
    shared, alone = _benign_ipc_maps(hcfg, mix, outcome, results)
    assert 0 not in shared
    assert set(shared) == set(alone) == set(range(1, 8))
    assert all(ipc > 0.0 for ipc in alone.values())


def test_alone_trace_mirrors_mix_width(runner, hcfg):
    """The alone-IPC trace must replay the mix slot's trace bit-exactly
    for any mix width (the row-stripe stride follows the width)."""
    from repro.workloads.mixes import WorkloadMix
    from repro.workloads.profiles import profile_by_name

    mix = WorkloadMix(
        name="w4",
        app_names=("403.gcc", "429.mcf", "473.astar", "450.soplex"),
        has_attack=False,
    )
    traces = mix.build_traces(hcfg.spec(), hcfg.mapping(), seed=hcfg.seed)
    alone = runner._benign_trace(profile_by_name("429.mcf"), slot=1, threads=4)
    for _ in range(100):
        ra, rb = traces[1].next_record(), alone.next_record()
        assert (ra.gap, ra.address, ra.is_write) == (rb.gap, rb.address, rb.is_write)


def test_with_nrh_rebuilds_config(hcfg):
    smaller = hcfg.with_nrh(1024)
    assert smaller.sim_nrh == 4
    assert smaller.scale == hcfg.scale


def test_format_table_aligns():
    text = format_table(["a", "bb"], [[1, 2.5], ["x", 0.001]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
