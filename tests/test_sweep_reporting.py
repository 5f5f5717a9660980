"""Sweep-report edge cases and per-job profiles.

``format_sweep_report`` must render degenerate sweeps (zero jobs,
all-cached, failures-only) sensibly, and the ``SweepReport`` counters
must add up under retry+timeout combinations and across calls.
"""

from __future__ import annotations

import pytest

from repro.harness import parallel
from repro.harness.cache import ResultCache
from repro.harness.faults import FaultPlan, FaultSpec, crash_once, hang_once
from repro.harness.parallel import (
    JobExecutionError,
    JobFailure,
    SweepReport,
    failed,
    run_jobs,
    single_job,
)
from repro.harness.reporting import format_sweep_report
from repro.harness.retry import ExecPolicy
from repro.harness.runner import HarnessConfig
from repro.obs.profile import report_to_json

needs_pool = pytest.mark.skipif(
    not parallel.pool_available(), reason="process pools unavailable in sandbox"
)

FAST = ExecPolicy(attempts=3)


@pytest.fixture(scope="module")
def hcfg() -> HarnessConfig:
    return HarnessConfig(scale=128.0, instructions_per_thread=1_500, warmup_ns=1_000.0)


@pytest.fixture(scope="module")
def jobs(hcfg):
    apps = ["403.gcc", "401.bzip2", "445.gobmk"]
    return [single_job(hcfg, app, "none") for app in apps]


# ----------------------------------------------------------------------
# format_sweep_report edge cases.
# ----------------------------------------------------------------------
def test_format_zero_job_sweep():
    text = format_sweep_report(SweepReport())
    assert "0 job(s)" in text
    assert "0 failed" in text
    assert "FAILED" not in text
    assert len(text.splitlines()) == 1  # headline only


def test_format_all_cached_sweep(tmp_path, jobs):
    cache = ResultCache(tmp_path)
    run_jobs(jobs, workers=1, cache=cache)
    report = SweepReport()
    run_jobs(jobs, workers=1, cache=cache, report=report)
    assert report.cached == report.total == len(jobs)
    assert report.executed == 0
    assert [p.status for p in report.profiles] == ["cached"] * len(jobs)
    text = format_sweep_report(report)
    assert f"{len(jobs)} cached, 0 executed" in text


def test_format_failures_only_sweep(jobs):
    plan = FaultPlan((FaultSpec(match="", action="crash", attempts=None),))
    report = SweepReport()
    results = run_jobs(
        jobs, workers=1, policy=FAST, on_error="skip", faults=plan, report=report
    )
    assert all(failed(entry) for entry in results.values())
    assert report.executed == 0 and len(report.failures) == len(jobs)
    assert {p.status for p in report.profiles} == {"failed"}
    assert all(p.attempts == FAST.attempts for p in report.profiles)
    text = format_sweep_report(report)
    assert text.count("FAILED [crash]") == len(jobs)


def test_failure_without_error_text_is_named_by_label(jobs):
    """An empty error falls back to the job's short label, not its repr
    (which embeds the whole HarnessConfig); the JSON report keeps the
    full repr."""
    failure = JobFailure(jobs[0], "timeout", 3)
    report = SweepReport(total=1, failures=[failure])
    line = format_sweep_report(report).splitlines()[1]
    assert line == "  FAILED [timeout] after 3 attempt(s): single:403.gcc:none"
    assert str(JobExecutionError([failure])) == (
        "1 job(s) failed: timeout after 3 attempt(s): single:403.gcc:none"
    )
    assert report_to_json(report)["failures"][0]["key"] == repr(jobs[0])


# ----------------------------------------------------------------------
# Counter totals under retry/timeout combinations.
# ----------------------------------------------------------------------
def test_serial_retry_counters_add_up(jobs):
    """One transient crash: counters record the retry and the profile
    records both attempts; every job still executes exactly once."""
    report = SweepReport()
    results = run_jobs(
        jobs, workers=1, policy=FAST, faults=crash_once("401.bzip2"), report=report
    )
    assert not any(failed(entry) for entry in results.values())
    assert report.executed == report.total == len(jobs)
    assert report.crashes == 1 and report.retries == 1
    assert not report.failures
    by_label = {p.label: p for p in report.profiles}
    assert by_label["single:401.bzip2:none"].attempts == 2
    assert by_label["single:403.gcc:none"].attempts == 1


@needs_pool
def test_pool_crash_and_hang_counters_add_up(jobs):
    """A crash on one job plus a first-attempt hang on another: both
    faults land in the counters and both jobs converge.  The hang may
    be recorded as a timeout *or* as a crash casualty — a worker crash
    breaks the shared pool, and a hang collected during the rebuild is
    accounted as a crash — so the assertion is on the combined total."""
    plan = FaultPlan(
        crash_once("401.bzip2").specs + hang_once("445.gobmk", seconds=60.0).specs
    )
    policy = ExecPolicy(attempts=3, job_timeout_s=2.5)
    report = SweepReport()
    results = run_jobs(jobs, workers=2, policy=policy, faults=plan, report=report)
    assert not any(failed(entry) for entry in results.values())
    assert report.executed == report.total == len(jobs)
    assert report.crashes >= 1
    assert report.crashes + report.timeouts >= 2  # both faults counted
    assert report.retries >= 2  # one per injected fault
    assert not report.failures
    executed = [p for p in report.profiles if p.status == "executed"]
    assert len(executed) == len(jobs)
    assert all(p.wall_s > 0.0 and p.events > 0 for p in executed)


def test_report_accumulates_across_runs(tmp_path, jobs):
    """One report instance passed to two ``run_jobs`` calls keeps a
    running total (the documented accumulation contract)."""
    cache = ResultCache(tmp_path)
    report = SweepReport()
    run_jobs(jobs[:2], workers=1, cache=cache, report=report)
    run_jobs(jobs, workers=1, cache=cache, report=report)
    assert report.total == 5
    assert report.executed == 3 and report.cached == 2
    assert len(report.profiles) == 5
