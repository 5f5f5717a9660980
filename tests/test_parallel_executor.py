"""The job-based parallel experiment executor.

Determinism is the load-bearing property: a sweep must produce the same
rows whether it runs serially in-process or fans out over a process
pool, because paper figures are compared across machines and worker
counts.  These tests run a small Figure 4 subset and a tiny mix sweep
both ways and require *identical* row dicts (same values, same order).
"""

from __future__ import annotations

import pytest

from repro.harness.experiments import (
    assemble_mix_rows,
    fig4_singlecore,
    fig5_multicore,
    mix_sweep_jobs,
)
from repro.harness.parallel import (
    SimJob,
    dedupe_jobs,
    execute_job,
    mix_job,
    run_jobs,
    single_job,
    single_key,
)
from repro.harness.runner import HarnessConfig


@pytest.fixture(scope="module")
def tiny_hcfg() -> HarnessConfig:
    """Small enough for tier-1, large enough to exercise scheduling."""
    return HarnessConfig(
        scale=128.0,
        paper_nrh=32768,
        instructions_per_thread=4_000,
        warmup_ns=5_000.0,
    )


# ----------------------------------------------------------------------
# Job declaration and deduplication.
# ----------------------------------------------------------------------
def test_single_job_keys_are_stable(tiny_hcfg):
    a = single_job(tiny_hcfg, "403.gcc", "blockhammer")
    b = single_job(tiny_hcfg, "403.gcc", "blockhammer")
    assert a.key == b.key
    assert dedupe_jobs([a, b]) == [a]


def test_dedupe_merges_extracts(tiny_hcfg):
    from repro.workloads.mixes import attack_mixes

    mix = attack_mixes(1)[0]
    a = mix_job(tiny_hcfg, mix, "blockhammer", extract=("thread_rhli",))
    b = mix_job(tiny_hcfg, mix, "blockhammer", extract=("delay_stats",))
    merged = dedupe_jobs([a, b])
    assert len(merged) == 1
    assert merged[0].extract == ("thread_rhli", "delay_stats")


def test_dedupe_rejects_conflicting_reuse(tiny_hcfg):
    a = single_job(tiny_hcfg, "403.gcc")
    b = SimJob(key=a.key, hcfg=tiny_hcfg, kind="single", app="429.mcf")
    with pytest.raises(ValueError):
        dedupe_jobs([a, b])


def test_job_validation(tiny_hcfg):
    with pytest.raises(ValueError):
        SimJob(key=("x",), hcfg=tiny_hcfg, kind="nope")
    with pytest.raises(ValueError):
        SimJob(key=("x",), hcfg=tiny_hcfg, kind="single")  # no app
    with pytest.raises(ValueError):
        single_job(tiny_hcfg, "403.gcc", extract=("no_such_extractor",))
    # Unknown mechanisms fail here, not after the retry ladder in a
    # worker; the retired BlockHammer-plus-kill-governor name included.
    for name in ("blockhammer-0s", "blockhammer-os"):
        with pytest.raises(ValueError, match="unknown mitigation"):
            single_job(tiny_hcfg, "403.gcc", name)


def test_mix_sweep_jobs_share_alone_runs(tiny_hcfg):
    """Alone-IPC jobs deduplicate across sweeps batched into one
    execution (the same mixes swept under different mechanism lists
    declare identical alone runs, which must collapse to one job)."""
    from repro.workloads.mixes import benign_mixes

    mixes = benign_mixes(2)
    jobs = mix_sweep_jobs(tiny_hcfg, mixes, ["blockhammer"])
    jobs += mix_sweep_jobs(tiny_hcfg, mixes, ["para"])
    singles = [j for j in jobs if j.kind == "single"]
    unique_singles = [j for j in dedupe_jobs(jobs) if j.kind == "single"]
    assert len(singles) == 2 * len(unique_singles)


def test_mix_sweep_jobs_share_alone_runs_across_mixes(tiny_hcfg):
    """Alone-IPC jobs also deduplicate across mixes and scenarios when
    two mixes place the same app in the same slot (with this master
    seed, 3+3 mixes are enough to guarantee collisions)."""
    from repro.workloads.mixes import attack_mixes, benign_mixes

    jobs = mix_sweep_jobs(tiny_hcfg, benign_mixes(3), ["blockhammer"])
    jobs += mix_sweep_jobs(tiny_hcfg, attack_mixes(3), ["blockhammer"])
    singles = [j for j in jobs if j.kind == "single"]
    unique_singles = [j for j in dedupe_jobs(jobs) if j.kind == "single"]
    assert len(unique_singles) < len(singles)


# ----------------------------------------------------------------------
# Serial/parallel determinism (the acceptance property).
# ----------------------------------------------------------------------
def test_fig4_subset_serial_vs_parallel_identical(tiny_hcfg):
    apps = ["403.gcc", "429.mcf"]
    mechanisms = ["graphene", "blockhammer"]
    serial = fig4_singlecore(tiny_hcfg, apps, mechanisms, workers=1)
    parallel = fig4_singlecore(tiny_hcfg, apps, mechanisms, workers=2)
    assert serial == parallel  # identical row dicts, identical order


def test_mix_sweep_serial_vs_parallel_identical(tiny_hcfg):
    rows_serial = fig5_multicore(tiny_hcfg, 1, ["blockhammer"], workers=1)
    rows_parallel = fig5_multicore(tiny_hcfg, 1, ["blockhammer"], workers=2)
    assert rows_serial == rows_parallel


# ----------------------------------------------------------------------
# Interrupted sweeps still flush a final progress report.
# ----------------------------------------------------------------------
def test_interrupt_flushes_final_report_before_propagating(
    tiny_hcfg, monkeypatch, capsys
):
    """Ctrl-C mid-sweep under ``--progress`` must print the final
    SweepReport (how many jobs are already checkpointed, so the user
    knows a resume is warm) *before* the KeyboardInterrupt propagates."""
    import repro.harness.parallel as parallel

    real = parallel.execute_job
    executed = []

    def fake(job):
        if executed:
            raise KeyboardInterrupt
        executed.append(job.key)
        return real(job)

    monkeypatch.setattr(parallel, "execute_job", fake)
    jobs = [
        single_job(tiny_hcfg, "403.gcc", "none"),
        single_job(tiny_hcfg, "403.gcc", "blockhammer"),
    ]
    with pytest.raises(KeyboardInterrupt):
        run_jobs(jobs, workers=1, progress=True)
    err = capsys.readouterr().err
    assert "interrupted: 1 completed job(s) checkpointed" in err
    assert "sweep: 2 job(s) — 0 cached, 1 executed" in err


def test_interrupt_is_silent_without_progress(tiny_hcfg, monkeypatch, capsys):
    """Without ``--progress`` the interrupt propagates without extra
    output (quiet mode stays quiet)."""
    import repro.harness.parallel as parallel

    monkeypatch.setattr(
        parallel, "execute_job", lambda job: (_ for _ in ()).throw(KeyboardInterrupt)
    )
    with pytest.raises(KeyboardInterrupt):
        run_jobs([single_job(tiny_hcfg, "403.gcc", "none")], workers=1)
    assert "interrupted" not in capsys.readouterr().err


# ----------------------------------------------------------------------
# Tier-1 smoke: one tiny sweep through the parallel path.
# ----------------------------------------------------------------------
@pytest.mark.perf_smoke
def test_perf_smoke_parallel_path(tiny_hcfg):
    """A minimal sweep through the pool-backed executor: exercises job
    pickling, worker fan-out, extractor transport, and keyed assembly."""
    jobs = [
        single_job(tiny_hcfg, "403.gcc", "none"),
        single_job(tiny_hcfg, "403.gcc", "blockhammer"),
    ]
    results = run_jobs(jobs, workers=2)
    assert set(results) == {j.key for j in jobs}
    base = results[single_key(tiny_hcfg, "403.gcc", 0, "none")]
    bh = results[single_key(tiny_hcfg, "403.gcc", 0, "blockhammer")]
    assert base.result.threads[0].instructions >= tiny_hcfg.instructions_per_thread
    assert bh.mechanism_name == "blockhammer"
    assert bh.bitflips == 0
    # The pool path and the in-process path agree exactly.
    assert execute_job(jobs[0]).result == base.result


@pytest.mark.perf_smoke
def test_perf_smoke_extractors_cross_process(tiny_hcfg):
    from repro.workloads.mixes import attack_mixes

    mix = attack_mixes(1)[0]
    job = mix_job(tiny_hcfg, mix, "blockhammer", extract=("thread_rhli", "delay_stats"))
    results = run_jobs([job], workers=2)
    res = results[job.key]
    rhli = res.extras["thread_rhli"]
    assert len(rhli) == len(mix.app_names)
    assert res.extras["delay_stats"].total_acts > 0
