"""Chaos tests for the fault-tolerant sweep executor.

The contract under test: a sweep that hits worker crashes, hangs, or
corrupted cache entries must converge to rows **bit-identical** to a
fault-free run (jobs are pure functions of their key, so a retry is a
replay), and an interrupted sweep must resume from its checkpoints,
re-executing only the jobs that never finished.

Faults are injected deterministically via :mod:`repro.harness.faults`
(a picklable plan evaluated inside workers), never by monkeypatching
the executor — the production dispatch/retry/checkpoint code runs
unmodified; only the tests of a host that cannot spawn workers replace
the process-pool class.  Pool-based tests skip when the sandbox cannot
spawn process pools (``parallel.pool_available()``); the in-process
degradations (`SimulatedCrash`, checkpoint-then-``KeyboardInterrupt``)
run anywhere.
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
from repro.harness.retry import ExecPolicy, backoff_delay
from repro.harness.runner import HarnessConfig

needs_pool = pytest.mark.skipif(
    not parallel.pool_available(), reason="process pools unavailable in sandbox"
)

#: Three attempts with the default backoff (0.05 s, then 0.1 s).
FAST = ExecPolicy(attempts=3)


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


def _record_attempts(monkeypatch, match: str) -> list[int]:
    """Wrap ``FaultPlan.apply`` to record, in order, the attempt numbers
    this process runs for jobs whose key contains ``match`` (attempts
    that run in a worker process are not seen)."""
    seen: list[int] = []
    real = FaultPlan.apply

    def apply(self, job, attempt, in_process):
        if match in repr(job.key):
            seen.append(attempt)
        return real(self, job, attempt, in_process)

    monkeypatch.setattr(FaultPlan, "apply", apply)
    return seen


def _pools_that_spawn(monkeypatch, spawnable: int) -> None:
    """Make only the first ``spawnable`` process pools the executor
    builds work; every later pool's ``submit`` raises ``OSError``, as
    on a host that can no longer start worker processes."""
    built = []

    class Pool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)
            self.spawns = len(built) <= spawnable

        def submit(self, *args, **kwargs):
            if not self.spawns:
                raise OSError("cannot spawn worker processes")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Pool)


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
    delays = [backoff_delay(attempt) for attempt in range(1, 9)]
    assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]


def test_attempt_budget_bounds_the_loop(monkeypatch, jobs):
    """A job that fails on every attempt runs exactly ``attempts`` times,
    then becomes a failure; the other jobs are untouched."""
    seen = _record_attempts(monkeypatch, "401.bzip2")
    plan = FaultPlan((FaultSpec(match="401.bzip2", action="error", attempts=None),))
    report = SweepReport()
    results = run_jobs(
        jobs, workers=1, policy=FAST, on_error="skip", faults=plan, report=report
    )
    assert seen == [1, 2, 3]
    [failure] = [entry for entry in results.values() if failed(entry)]
    assert failure.kind == "error" and failure.attempts == 3
    assert report.retries == 2 and report.executed == len(jobs) - 1


def test_policy_validation():
    with pytest.raises(ValueError):
        ExecPolicy(attempts=0)
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
    policy = ExecPolicy(attempts=3, job_timeout_s=1.5)
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
    policy = ExecPolicy(attempts=2, job_timeout_s=1.0)
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
def test_one_job_sweep_runs_on_the_pool_and_times_out(jobs):
    """``workers > 1`` puts even a one-job sweep on a pool, so the job
    timeout preempts its hang instead of the job sleeping in-process."""
    policy = ExecPolicy(attempts=1, job_timeout_s=0.5)
    report = SweepReport()
    results = run_jobs(
        jobs[:1],
        workers=2,
        policy=policy,
        on_error="skip",
        faults=hang_once("403.gcc", seconds=5.0),
        report=report,
    )
    [entry] = results.values()
    assert isinstance(entry, JobFailure)
    assert entry.kind == "timeout" and entry.attempts == 1
    assert report.timeouts == 1 and report.executed == 0


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


@needs_pool
def test_losing_the_pool_keeps_the_attempt_budget(monkeypatch, jobs, fault_free):
    """A crash breaks the pool and no new pool can spawn: the sweep moves
    in-process, and the crashed job continues at attempt 2 of its
    2-attempt budget instead of starting over at attempt 1."""
    _pools_that_spawn(monkeypatch, 1)
    seen = _record_attempts(monkeypatch, "401.bzip2")
    plan = FaultPlan((FaultSpec("401.bzip2", "crash", attempts=None),))
    policy = ExecPolicy(attempts=2, on_error="skip")
    results = run_jobs(jobs[:3], workers=2, policy=policy, faults=plan)
    assert seen == [2]  # attempt 1 ran (and died) in a worker
    [failure] = [entry for entry in results.values() if failed(entry)]
    assert failure.kind == "crash" and failure.attempts == 2
    for job in jobs[:3]:
        if job.key != failure.key:
            assert results[job.key].result == fault_free[job.key].result


def test_pool_that_never_spawns_runs_in_process(monkeypatch, jobs, fault_free):
    """``workers=2`` on a host that cannot spawn workers runs the whole
    sweep in-process, with the serial run's rows and no crash counted."""
    _pools_that_spawn(monkeypatch, 0)
    report = SweepReport()
    results = run_jobs(jobs, workers=2, report=report)
    assert_identical(results, fault_free)
    assert report.crashes == 0 and report.executed == len(jobs)


def test_exhausted_crash_raises_by_default(jobs):
    """on_error='raise' (the default) surfaces a JobExecutionError that
    names every failed job; serial crashes degrade to SimulatedCrash."""
    plan = FaultPlan((FaultSpec(match="458.sjeng", action="crash", attempts=None),))
    policy = ExecPolicy(attempts=2)
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
    policy = ExecPolicy(attempts=2)
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
    policy = ExecPolicy(attempts=3, job_timeout_s=1.5)
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
