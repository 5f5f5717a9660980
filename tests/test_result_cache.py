"""The persistent cross-sweep result cache.

The acceptance property: a warm-cache re-run of an unchanged sweep
performs **zero** simulations (asserted via ``SweepReport.executed``)
and returns rows identical to both the serial and the parallel
execution of the same sweep — including on multi-channel
configurations, whose results carry per-channel rows through the JSON
round-trip.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.dram.spec import DDR4_2400
from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache, source_fingerprint
from repro.harness.experiments import OS_SWEEP_POLICIES, channel_scaling, fig5_multicore
from repro.harness.parallel import (
    SweepReport,
    execute_job,
    mix_job,
    run_jobs,
    single_job,
)
from repro.harness.runner import HarnessConfig
from repro.obs.probe import ObsConfig
from repro.workloads.mixes import attack_mixes


@pytest.fixture(scope="module")
def hcfg2() -> HarnessConfig:
    """2-channel, tier-1 sized."""
    return HarnessConfig(
        scale=128.0,
        base_spec=DDR4_2400.with_channels(2),
        instructions_per_thread=4_000,
        warmup_ns=5_000.0,
    )


# ----------------------------------------------------------------------
# Round-trip fidelity.
# ----------------------------------------------------------------------
def test_job_result_json_roundtrip_exact(tmp_path, hcfg2):
    cache = ResultCache(tmp_path)
    # Warmup long enough for the attacker to accrue RHLI and be killed.
    hcfg = dataclasses.replace(hcfg2, warmup_ns=50_000.0)
    job = mix_job(
        hcfg, attack_mixes(1)[0], "blockhammer-observe", governor=OS_SWEEP_POLICIES["kill"]
    )
    fresh = execute_job(job)
    # Non-trivial telemetry on both channels and a governor that acted.
    assert len(fresh.telemetry) == 2
    assert all(t.total_acts > 0 and t.thread_rhli[0] > 0 for t in fresh.telemetry)
    assert fresh.governor_actions["kills"]
    fresh.extras["tracer"] = {}  # a tracer's side channel: not stored
    cache.put(job, fresh)
    cached = cache.get(job)
    assert cached is not None
    # Dataclass equality is recursive and float-exact: threads, memory
    # stats, per-channel rows, bit-flips, energy, telemetry.
    assert cached.result == fresh.result
    assert cached.energy == fresh.energy
    assert cached.key.mechanism == fresh.key.mechanism
    assert cached.telemetry == fresh.telemetry
    assert cached.governor_actions == fresh.governor_actions
    assert cached.extras == {}
    assert cached.key == job.key


def test_observed_job_record_roundtrips(tmp_path):
    """An observed job's telemetry-bus record (trace events, drop count,
    warmup boundary, metric rows) comes back from the cache unchanged."""
    hcfg = HarnessConfig(scale=4096.0, instructions_per_thread=2_000, warmup_ns=5_000.0)
    obs = ObsConfig(trace=True, metrics=True, metrics_epoch_ns=5_000.0)
    job = mix_job(hcfg, attack_mixes(1)[0], "blockhammer", obs=obs)
    fresh = execute_job(job)
    record = fresh.obs_record
    assert record["events"] and record["metric_rows"]
    assert record["measure_start"] is not None
    cache = ResultCache(tmp_path)
    cache.put(job, fresh)
    cached = cache.get(job)
    assert cached.obs_record == record
    assert cached.result == fresh.result
    # The unobserved job is another job, and it records nothing.
    assert cache.get(dataclasses.replace(job, obs=None)) is None
    assert execute_job(dataclasses.replace(job, obs=None)).obs_record is None


def test_serial_parallel_and_cache_hit_rows_identical(tmp_path, hcfg2):
    """serial == parallel == cache-hit for a multi-channel sweep."""
    cache = ResultCache(tmp_path)
    serial = fig5_multicore(hcfg2, 1, ["blockhammer"], workers=1)
    parallel_rows = fig5_multicore(hcfg2, 1, ["blockhammer"], workers=2)
    cold = fig5_multicore(hcfg2, 1, ["blockhammer"], workers=1, cache=cache)
    report = SweepReport()
    warm = fig5_multicore(
        hcfg2, 1, ["blockhammer"], workers=1, cache=cache, report=report
    )
    assert report.executed == 0  # zero simulations on the warm run
    assert serial == parallel_rows == cold == warm
    assert cache.hits >= cache.stores > 0


def test_warm_run_serves_every_job_from_disk(tmp_path, hcfg2):
    cache = ResultCache(tmp_path)
    jobs = [
        single_job(hcfg2, "403.gcc", "none"),
        single_job(hcfg2, "403.gcc", "blockhammer"),
    ]
    run_jobs(jobs, workers=1, cache=cache)
    assert cache.stores == 2
    warm_cache = ResultCache(tmp_path)  # fresh instance, same directory
    report = SweepReport()
    results = run_jobs(jobs, workers=1, cache=warm_cache, report=report)
    assert report.executed == 0
    assert warm_cache.hits == 2 and warm_cache.misses == 0
    assert set(results) == {job.key for job in jobs}


# ----------------------------------------------------------------------
# Invalidation and key hygiene.
# ----------------------------------------------------------------------
def test_source_fingerprint_invalidates(tmp_path, hcfg2):
    job = single_job(hcfg2, "403.gcc", "none")
    cache = ResultCache(tmp_path)
    cache.put(job, execute_job(job))
    assert ResultCache(tmp_path).get(job) is not None
    stale = ResultCache(tmp_path, fingerprint="deadbeef")
    assert stale.get(job) is None  # simulated source change: clean miss
    assert stale.misses == 1


def test_different_jobs_do_not_collide(tmp_path, hcfg2):
    cache = ResultCache(tmp_path)
    a = single_job(hcfg2, "403.gcc", "none")
    b = single_job(hcfg2, "403.gcc", "blockhammer")
    cache.put(a, execute_job(a))
    assert cache.get(b) is None


def test_fig5_cache_serves_channel_scaling(tmp_path):
    """Every entry carries the full end-of-run record, and a point's
    config equals the one-channel config it came from, so a fig5 sweep
    on disk serves the channel-scaling driver's one-channel point
    without a single simulation."""
    hcfg = HarnessConfig(
        scale=128.0, instructions_per_thread=4_000, warmup_ns=5_000.0
    )
    cache = ResultCache(tmp_path)
    fig5_multicore(hcfg, 1, ["blockhammer"], cache=cache)
    report = SweepReport()
    data = channel_scaling(hcfg, (1,), 1, ["blockhammer"], cache=cache, report=report)
    assert report.executed == 0
    assert report.cached == report.total > 0
    assert len(data["attribution"]) == 2  # one per (scenario, channel)


def test_corrupt_entry_is_a_miss(tmp_path, hcfg2):
    cache = ResultCache(tmp_path)
    job = single_job(hcfg2, "403.gcc", "none")
    cache.put(job, execute_job(job))
    path = cache._path(job)
    path.write_text("{ not json")
    assert cache.get(job) is None


def test_corrupt_entry_is_quarantined_and_counted(tmp_path, hcfg2):
    """Garbage JSON is renamed to *.corrupt (not re-parsed forever, not
    silently deleted) and tallied in the ``corrupt`` stat; a re-store
    then overwrites the slot cleanly."""
    cache = ResultCache(tmp_path)
    job = single_job(hcfg2, "403.gcc", "none")
    fresh = execute_job(job)
    cache.put(job, fresh)
    path = cache._path(job)
    path.write_text("\x00garbage\x00")
    assert cache.get(job) is None
    assert cache.corrupt == 1 and cache.misses == 1
    assert not path.exists()
    assert path.with_suffix(".corrupt").exists()
    cache.put(job, fresh)
    hit = cache.get(job)
    assert hit is not None and hit.result == fresh.result


def test_mangled_payload_is_quarantined(tmp_path, hcfg2):
    """A schema-valid envelope around a broken payload (e.g. a partial
    overwrite) quarantines like bad JSON instead of crashing decode."""
    cache = ResultCache(tmp_path)
    job = single_job(hcfg2, "403.gcc", "none")
    cache.put(job, execute_job(job))
    path = cache._path(job)
    data = json.loads(path.read_text())
    data["result"] = {"mangled": True}
    path.write_text(json.dumps(data))
    assert cache.get(job) is None
    assert cache.corrupt == 1
    assert path.with_suffix(".corrupt").exists()


def test_schema_mismatch_is_a_plain_miss_not_corruption(tmp_path, hcfg2):
    """Stale-but-well-formed entries (old fingerprint, the format-1
    layout with ``extras``) are ordinary misses: no quarantine, no
    corrupt tally."""
    job = single_job(hcfg2, "403.gcc", "none")
    cache = ResultCache(tmp_path)
    cache.put(job, execute_job(job))
    stale = ResultCache(tmp_path, fingerprint="deadbeef")
    assert stale.get(job) is None
    assert stale.corrupt == 0
    assert cache._path(job).exists()  # entry left in place
    path = cache._path(job)
    data = json.loads(path.read_text())
    del data["telemetry"], data["governor_actions"]
    data.update(format=1, extras={"thread_rhli": [0.0]})
    path.write_text(json.dumps(data))
    assert cache.get(job) is None
    assert cache.corrupt == 0
    assert path.exists()


def test_quarantined_files_do_not_count_toward_eviction_cap(tmp_path, hcfg2):
    """*.corrupt files live outside the *.json lookup namespace, so the
    LRU cap neither deletes them nor counts them as entries."""
    cache = ResultCache(tmp_path, max_entries=2)
    jobs = [
        single_job(hcfg2, app, "none") for app in ("403.gcc", "401.bzip2")
    ]
    for job in jobs:
        cache.put(job, execute_job(job))
    cache._path(jobs[0]).write_text("junk")
    assert cache.get(jobs[0]) is None  # quarantined
    third = single_job(hcfg2, "445.gobmk", "none")
    cache.put(third, execute_job(third))
    assert cache.evictions == 0  # one .json slot was freed by quarantine
    assert cache._path(jobs[0]).with_suffix(".corrupt").exists()


def test_source_fingerprint_is_stable():
    assert source_fingerprint() == source_fingerprint()
    assert len(source_fingerprint()) == 64


# ----------------------------------------------------------------------
# On-disk layout.
# ----------------------------------------------------------------------
def test_entries_are_json_files_under_root(tmp_path, hcfg2):
    cache = ResultCache(tmp_path)
    job = single_job(hcfg2, "403.gcc", "none")
    cache.put(job, execute_job(job))
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    data = json.loads(files[0].read_text())
    assert data["key"] == repr(job.key)
    assert data["fingerprint"] == cache.fingerprint


# ----------------------------------------------------------------------
# Tier-1 smoke: a 2-channel job through the pool + cache path.
# ----------------------------------------------------------------------
@pytest.mark.perf_smoke
def test_perf_smoke_two_channel_pool_and_cache(tmp_path, hcfg2):
    """Cold: one 2-channel sweep through the process-pool executor with
    the cache storing results.  Warm: the same sweep again, asserting
    zero simulations ran and the rows came back identical."""
    cache = ResultCache(tmp_path)
    jobs = [
        single_job(hcfg2, "403.gcc", "none"),
        single_job(hcfg2, "403.gcc", "blockhammer"),
    ]
    cold = run_jobs(jobs, workers=2, cache=cache)
    assert cache.stores == 2
    warm = run_jobs(jobs, workers=2, cache=cache)
    # Every warm job hit (and only the cold run missed): run_jobs only
    # dispatches misses, so zero simulations ran in *any* process.
    assert cache.hits == 2
    assert cache.misses == 2
    for key in cold:
        assert warm[key].result == cold[key].result
        assert warm[key].energy == cold[key].energy
        assert len(warm[key].result.channels) == 2


# ----------------------------------------------------------------------
# Eviction cap (LRU).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hcfg_tiny() -> HarnessConfig:
    """Single-channel, eviction-test sized (simulations in milliseconds)."""
    return HarnessConfig(
        scale=128.0, instructions_per_thread=1_500, warmup_ns=1_000.0
    )


def _tiny_jobs(hcfg, apps):
    return [single_job(hcfg, app, "none") for app in apps]


def _set_mtimes(cache, jobs, start=1_000_000):
    """Deterministic, strictly-increasing mtimes in job order."""
    import os

    for index, job in enumerate(jobs):
        when = start + index
        os.utime(cache._path(job), times=(when, when))


def test_cap_evicts_oldest_entries_and_warm_hits_skip_simulation(tmp_path, hcfg_tiny):
    """Fill past the cap: the oldest entries are evicted, the survivors
    still serve warm runs with zero simulations."""
    apps = ["403.gcc", "401.bzip2", "445.gobmk", "458.sjeng", "444.namd"]
    jobs = _tiny_jobs(hcfg_tiny, apps)
    cache = ResultCache(tmp_path, max_entries=3)
    for job in jobs:
        cache.put(job, execute_job(job))
        _set_mtimes(cache, [j for j in jobs if cache._path(j).exists()])
    assert len(list(tmp_path.glob("*.json"))) == 3
    assert cache.evictions == 2
    # The two oldest are gone; the three newest survive.
    fresh = ResultCache(tmp_path, max_entries=3)
    assert fresh.get(jobs[0]) is None
    assert fresh.get(jobs[1]) is None
    for job in jobs[2:]:
        assert fresh.get(job) is not None
    # Warm hits on the survivors still skip simulation entirely.
    report = SweepReport()
    results = run_jobs(
        jobs[2:], workers=1, cache=ResultCache(tmp_path, max_entries=3), report=report
    )
    assert report.executed == 0
    assert set(results) == {job.key for job in jobs[2:]}


def test_hits_refresh_recency_so_the_working_set_survives(tmp_path, hcfg_tiny):
    """A get() counts as a use: the least-recently-USED entry is the
    one evicted, not the least-recently-stored."""
    apps = ["403.gcc", "401.bzip2", "445.gobmk"]
    jobs = _tiny_jobs(hcfg_tiny, apps)
    cache = ResultCache(tmp_path, max_entries=3)
    for job in jobs:
        cache.put(job, execute_job(job))
    _set_mtimes(cache, jobs)
    # Touch the oldest-stored entry, then overflow the cap.
    assert cache.get(jobs[0]) is not None
    newcomer = single_job(hcfg_tiny, "458.sjeng", "none")
    cache.put(newcomer, execute_job(newcomer))
    assert cache.evictions == 1
    assert cache.get(jobs[0]) is not None  # recently used: survived
    assert cache.get(jobs[1]) is None  # least recently used: evicted
    assert cache.get(jobs[2]) is not None
    assert cache.get(newcomer) is not None


def test_cap_validation_and_unbounded_default(tmp_path):
    with pytest.raises(ValueError):
        ResultCache(tmp_path, max_entries=0)
    assert ResultCache(tmp_path).max_entries is None


def test_cli_flag_builds_a_capped_cache(tmp_path):
    from repro.harness.cli import _execution, build_parser

    def _cache(args):
        return _execution(args, SweepReport())["cache"]

    parser = build_parser()
    args = parser.parse_args(
        ["fig5", "--cache-dir", str(tmp_path), "--cache-max-entries", "5"]
    )
    cache = _cache(args)
    assert isinstance(cache, ResultCache)
    assert cache.max_entries == 5
    assert cache.root == tmp_path
    # The cap alone implies --cache (default directory).
    implied = _cache(parser.parse_args(["fig5", "--cache-max-entries", "9"]))
    assert isinstance(implied, ResultCache)
    assert implied.max_entries == 9
    assert str(implied.root) == DEFAULT_CACHE_DIR


def test_cli_rejects_non_positive_cap(capsys):
    from repro.harness.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig5", "--cache-max-entries", "0"])
    assert "must be >= 1" in capsys.readouterr().err
