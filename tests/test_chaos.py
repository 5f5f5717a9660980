"""Chaos tests for the fault-tolerant sweep executor.

The contract under test: a sweep that hits worker crashes, hangs, or
corrupted cache entries must converge to rows **bit-identical** to a
fault-free run (jobs are pure functions of their key, so a retry is a
replay), and an interrupted sweep must resume from its checkpoints,
re-executing only the jobs that never finished.

Faults are injected deterministically via :mod:`repro.harness.faults`
(a picklable plan evaluated inside workers), never by monkeypatching
the executor — the production dispatch/retry/checkpoint code runs
unmodified.  Pool-based tests skip when the sandbox cannot spawn
process pools (``parallel.pool_available()``); the serial degradations
(`SimulatedCrash`, checkpoint-then-``KeyboardInterrupt``) run anywhere.
"""

from __future__ import annotations

import pickle

import pytest

from repro.harness import parallel
from repro.harness.cache import ResultCache
from repro.harness.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SimulatedCrash,
    corrupt_cache_entry,
    crash_once,
    hang_once,
)
from repro.harness.parallel import (
    JobExecutionError,
    JobFailure,
    SweepReport,
    failed,
    run_jobs,
    single_job,
)
from repro.harness.retry import ExecPolicy, jitter_fraction
from repro.harness.runner import HarnessConfig

needs_pool = pytest.mark.skipif(
    not parallel.pool_available(), reason="process pools unavailable in sandbox"
)

#: Fast retries for tests: three attempts, near-zero backoff.
FAST = ExecPolicy(attempts=3, backoff_base_s=0.01, backoff_max_s=0.05)


@pytest.fixture(scope="module")
def hcfg() -> HarnessConfig:
    """Small enough that a 4-job sweep runs in well under a second."""
    return HarnessConfig(
        scale=128.0, instructions_per_thread=1_500, warmup_ns=1_000.0
    )


@pytest.fixture(scope="module")
def jobs(hcfg):
    apps = ["403.gcc", "401.bzip2", "445.gobmk", "458.sjeng"]
    return [single_job(hcfg, app, "none") for app in apps]


@pytest.fixture(scope="module")
def fault_free(jobs):
    """Reference rows from a clean serial run (no faults, no cache)."""
    return run_jobs(jobs, workers=1)


def assert_identical(results, reference):
    assert set(results) == set(reference)
    for key, ref in reference.items():
        got = results[key]
        assert not failed(got)
        assert got.result == ref.result
        assert got.energy == ref.energy


# ----------------------------------------------------------------------
# Retry policy unit tests.
# ----------------------------------------------------------------------
def test_backoff_grows_and_caps():
    policy = ExecPolicy(backoff_base_s=0.1, backoff_max_s=0.3, jitter=0.0)
    delays = [policy.backoff_delay(("k",), a) for a in (1, 2, 3, 4, 5)]
    assert delays == [0.1, 0.2, 0.3, 0.3, 0.3]


def test_jitter_is_deterministic_and_bounded():
    key = ("single", "403.gcc", "none")
    assert jitter_fraction(key, 1) == jitter_fraction(key, 1)
    assert jitter_fraction(key, 1) != jitter_fraction(key, 2)
    for attempt in range(1, 20):
        assert 0.0 <= jitter_fraction(key, attempt) < 1.0
    policy = ExecPolicy(backoff_base_s=0.1, backoff_max_s=10.0, jitter=0.25)
    delay = policy.backoff_delay(key, 1)
    assert 0.1 <= delay <= 0.1 * 1.25
    assert delay == policy.backoff_delay(key, 1)  # reproducible


def test_may_retry_budget_and_deadline():
    policy = ExecPolicy(attempts=3, retry_deadline_s=10.0)
    assert policy.may_retry(1, 0.0) and policy.may_retry(2, 9.9)
    assert not policy.may_retry(3, 0.0)  # attempt budget exhausted
    assert not policy.may_retry(1, 10.1)  # deadline exceeded


def test_policy_validation():
    with pytest.raises(ValueError):
        ExecPolicy(attempts=0)
    with pytest.raises(ValueError):
        ExecPolicy(jitter=-0.1)
    with pytest.raises(ValueError):
        ExecPolicy(job_timeout_s=0.0)
    with pytest.raises(ValueError):
        ExecPolicy(on_error="explode")


# ----------------------------------------------------------------------
# Fault plan unit tests.
# ----------------------------------------------------------------------
def test_fault_spec_matching(jobs):
    spec = FaultSpec(match="401.bzip2", action="error", attempts=(1, 3))
    assert spec.applies(jobs[1], 1) and spec.applies(jobs[1], 3)
    assert not spec.applies(jobs[1], 2)  # attempt not listed
    assert not spec.applies(jobs[0], 1)  # key does not match
    always = FaultSpec(match="401.bzip2", action="error", attempts=None)
    assert all(always.applies(jobs[1], a) for a in (1, 2, 7))


def test_fault_plan_is_picklable_and_validates(jobs):
    plan = FaultPlan(
        (
            FaultSpec(match="403.gcc", action="crash"),
            FaultSpec(match="445.gobmk", action="hang", seconds=9.0),
        )
    )
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.spec_for(jobs[0], 1).action == "crash"
    assert clone.spec_for(jobs[0], 2) is None  # crash_once-style default
    with pytest.raises(ValueError):
        FaultSpec(match="x", action="segfault")
    with pytest.raises(ValueError):
        FaultSpec(match="x", action="hang", seconds=-1.0)
    with pytest.raises(ValueError):
        FaultSpec(match="x", action="crash", attempts=(0,))


def test_error_fault_raises_in_process(jobs):
    plan = FaultPlan((FaultSpec(match="403.gcc", action="error"),))
    with pytest.raises(InjectedFault):
        plan.apply(jobs[0], 1, in_process=True)
    plan.apply(jobs[1], 1, in_process=True)  # non-matching: no-op


# ----------------------------------------------------------------------
# Chaos: crash / hang / timeout recovery through the real pool.
# ----------------------------------------------------------------------
@needs_pool
@pytest.mark.chaos_smoke
def test_worker_crash_retries_to_identical_rows(jobs, fault_free):
    """A worker that dies mid-job (os._exit inside the child) breaks the
    pool; the executor rebuilds it, replays the victim, and the sweep
    still produces bit-identical rows."""
    report = SweepReport()
    results = run_jobs(
        jobs,
        workers=2,
        policy=FAST,
        faults=crash_once("401.bzip2"),
        report=report,
    )
    assert_identical(results, fault_free)
    assert report.crashes >= 1 and report.retries >= 1
    assert not report.failures


@needs_pool
@pytest.mark.chaos_smoke
def test_hang_hits_timeout_then_retry_succeeds(jobs, fault_free):
    """A first-attempt hang trips the per-job wall-clock timeout; the
    hung worker is killed and the retry (fault expired) converges."""
    policy = ExecPolicy(
        attempts=3, backoff_base_s=0.01, backoff_max_s=0.05, job_timeout_s=1.5
    )
    report = SweepReport()
    results = run_jobs(
        jobs,
        workers=2,
        policy=policy,
        faults=hang_once("445.gobmk", seconds=60.0),
        report=report,
    )
    assert_identical(results, fault_free)
    assert report.timeouts == 1
    assert not report.failures


@needs_pool
@pytest.mark.chaos_smoke
def test_persistent_hang_exhausts_attempts_and_skips(jobs, fault_free):
    """A job that hangs on *every* attempt burns its budget and lands as
    a structured timeout failure under on_error='skip'; innocent jobs
    sharing the pool still complete with correct rows."""
    plan = FaultPlan(
        (FaultSpec(match="458.sjeng", action="hang", attempts=None, seconds=60.0),)
    )
    policy = ExecPolicy(
        attempts=2, backoff_base_s=0.01, backoff_max_s=0.05, job_timeout_s=1.0
    )
    report = SweepReport()
    results = run_jobs(
        jobs, workers=2, policy=policy, on_error="skip", faults=plan, report=report
    )
    failures = [entry for entry in results.values() if failed(entry)]
    assert len(failures) == 1
    assert isinstance(failures[0], JobFailure)
    assert failures[0].kind == "timeout" and failures[0].attempts == 2
    assert report.timeouts == 2 and report.failures == failures
    good = {k: v for k, v in results.items() if not failed(v)}
    for key, entry in good.items():
        assert entry.result == fault_free[key].result


@needs_pool
@pytest.mark.chaos_smoke
def test_crash_exit_code_is_the_documented_one():
    """The injected crash kills the worker with CRASH_EXIT_CODE — proof
    the chaos plan executes inside the child, not in the parent."""
    import concurrent.futures as cf
    import multiprocessing as mp

    ctx = mp.get_context("spawn") if hasattr(mp, "get_context") else mp
    proc = ctx.Process(target=__import__("os")._exit, args=(CRASH_EXIT_CODE,))
    proc.start()
    proc.join()
    assert proc.exitcode == CRASH_EXIT_CODE
    assert issubclass(cf.process.BrokenProcessPool, cf.BrokenExecutor)


def test_exhausted_crash_raises_by_default(jobs):
    """on_error='raise' (the default) surfaces a JobExecutionError that
    names every failed job; serial crashes degrade to SimulatedCrash."""
    plan = FaultPlan((FaultSpec(match="458.sjeng", action="crash", attempts=None),))
    policy = ExecPolicy(attempts=2, backoff_base_s=0.01, backoff_max_s=0.05)
    with pytest.raises(JobExecutionError) as excinfo:
        run_jobs(jobs, workers=1, policy=policy, faults=plan)
    [failure] = excinfo.value.failures
    assert failure.kind == "crash" and failure.attempts == 2
    assert "SimulatedCrash" in failure.error


def test_serial_crash_skip_still_checkpoints_good_jobs(tmp_path, jobs, fault_free):
    """on_error='skip' on the serial path: the failing job becomes a
    JobFailure row, every other job lands in the cache."""
    cache = ResultCache(tmp_path)
    plan = FaultPlan((FaultSpec(match="401.bzip2", action="crash", attempts=None),))
    policy = ExecPolicy(attempts=2, backoff_base_s=0.01, backoff_max_s=0.05)
    report = SweepReport()
    results = run_jobs(
        jobs, workers=1, policy=policy, on_error="skip",
        faults=plan, cache=cache, report=report,
    )
    assert cache.stores == len(jobs) - 1
    assert report.crashes == 2  # one per attempt
    failures = [entry for entry in results.values() if failed(entry)]
    assert len(failures) == 1 and failures[0].kind == "crash"


def test_serial_transient_crash_recovers(jobs, fault_free):
    """First-attempt crash on the serial path (SimulatedCrash) retries
    in-process and converges to identical rows."""
    report = SweepReport()
    results = run_jobs(
        jobs, workers=1, policy=FAST, faults=crash_once("403.gcc"), report=report
    )
    assert_identical(results, fault_free)
    assert report.crashes == 1 and report.retries == 1


# ----------------------------------------------------------------------
# Chaos: cache corruption and interrupted-sweep resume.
# ----------------------------------------------------------------------
@pytest.mark.chaos_smoke
def test_corrupt_cache_entry_quarantined_and_resimulated(tmp_path, jobs, fault_free):
    cache = ResultCache(tmp_path)
    run_jobs(jobs, workers=1, cache=cache)
    assert cache.stores == len(jobs)
    corrupt_cache_entry(cache, jobs[1])

    report = SweepReport()
    warm = ResultCache(tmp_path)
    results = run_jobs(jobs, workers=1, cache=warm, report=report)
    assert report.executed == 1  # only the corrupted job re-runs
    assert warm.corrupt == 1 and warm.hits == len(jobs) - 1
    assert_identical(results, fault_free)
    # Quarantined out of the lookup namespace, rewritten on re-store.
    assert len(list(tmp_path.glob("*.corrupt"))) == 1
    assert warm.stores == 1
    fresh = ResultCache(tmp_path)
    run_jobs(jobs, workers=1, cache=fresh)
    assert fresh.hits == len(jobs) and fresh.corrupt == 0


@pytest.mark.chaos_smoke
def test_truncated_cache_entry_quarantined(tmp_path, jobs):
    cache = ResultCache(tmp_path)
    run_jobs(jobs, workers=1, cache=cache)
    corrupt_cache_entry(cache, jobs[2], mode="truncate")
    warm = ResultCache(tmp_path)
    report = SweepReport()
    run_jobs(jobs, workers=1, cache=warm, report=report)
    assert report.executed == 1
    assert warm.corrupt == 1


@pytest.mark.chaos_smoke
def test_interrupted_sweep_resumes_from_checkpoints(tmp_path, jobs, fault_free):
    """Ctrl-C mid-sweep: completed jobs are already on disk, and the
    rerun executes only the jobs that never finished."""
    cache = ResultCache(tmp_path)
    plan = FaultPlan((FaultSpec(match="445.gobmk", action="interrupt"),))
    with pytest.raises(KeyboardInterrupt):
        run_jobs(jobs, workers=1, cache=cache, faults=plan)
    assert cache.stores == 2  # gcc and bzip2 landed before the interrupt

    report = SweepReport()
    warm = ResultCache(tmp_path)
    results = run_jobs(jobs, workers=1, cache=warm, report=report)
    assert report.executed == 2  # only gobmk and sjeng
    assert warm.hits == 2
    assert_identical(results, fault_free)


# ----------------------------------------------------------------------
# Acceptance: the kitchen sink — crash + hang + corrupted cache entry
# in one sweep, bit-identical to the fault-free reference.
# ----------------------------------------------------------------------
@needs_pool
@pytest.mark.chaos_smoke
def test_combined_faults_converge_bit_identical(tmp_path, jobs, fault_free):
    cache = ResultCache(tmp_path)
    run_jobs([jobs[0]], workers=1, cache=cache)  # pre-populate, then corrupt
    corrupt_cache_entry(cache, jobs[0])

    # The hang fires on attempts 1 AND 2: a worker crash (os._exit)
    # breaks the whole pool, so if gobmk happens to be in flight when
    # bzip2 dies, its first attempt is consumed as a collateral crash —
    # which interleaving occurs depends on wall-clock job durations.
    # Arming attempt 2 as well guarantees at least one hang survives to
    # the per-job timeout regardless of scheduling.
    plan = FaultPlan(
        (
            FaultSpec(match="401.bzip2", action="crash", attempts=(1,)),
            FaultSpec(
                match="445.gobmk", action="hang", attempts=(1, 2), seconds=60.0
            ),
        )
    )
    policy = ExecPolicy(
        attempts=3, backoff_base_s=0.01, backoff_max_s=0.05, job_timeout_s=1.5
    )
    report = SweepReport()
    chaotic = ResultCache(tmp_path)
    results = run_jobs(
        jobs, workers=2, policy=policy, faults=plan, cache=chaotic, report=report
    )
    assert_identical(results, fault_free)
    assert chaotic.corrupt == 1  # the poisoned entry was quarantined
    assert report.crashes >= 1 and report.timeouts >= 1
    assert not report.failures and report.completed
    # Everything the sweep recovered is now checkpointed: a fresh run
    # over the same directory performs zero simulations.
    rerun_report = SweepReport()
    warm = ResultCache(tmp_path)
    rerun = run_jobs(jobs, workers=1, cache=warm, report=rerun_report)
    assert rerun_report.executed == 0 and warm.hits == len(jobs)
    assert_identical(rerun, fault_free)


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------
def test_sweep_report_rendering(jobs):
    from repro.harness.reporting import format_sweep_report

    report = SweepReport()
    run_jobs(jobs[:2], workers=1, report=report)
    text = format_sweep_report(report)
    assert "2 job(s)" in text and "0 crashes" in text and "0 failed" in text

    report.failures.append(
        JobFailure(key=jobs[0].key, kind="timeout", attempts=3, error="hung")
    )
    text = format_sweep_report(report)
    assert "FAILED [timeout] after 3 attempt(s)" in text


def test_passed_report_tracks_the_sweep(jobs):
    report = SweepReport()
    run_jobs(jobs[:2], workers=1, report=report)
    assert report.total == 2 and report.completed == 2
    assert len(report.profiles) == 2
