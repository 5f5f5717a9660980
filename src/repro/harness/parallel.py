"""Job-based parallel experiment execution.

Every paper figure this repository reproduces is a sweep of *independent*
simulations — (app × mechanism), (mix × scenario × mechanism),
(NRH point × mechanism).  This module turns those sweeps into explicit
job lists that fan out over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* :class:`SimJob` — a picklable, self-contained description of one
  simulation (configuration + workload + mechanism + which mechanism
  statistics to extract).  Jobs carry a deterministic ``key``; jobs with
  equal keys are executed once and shared (this is how the Runner's
  alone-IPC cache generalizes across processes: every "app running
  alone on the baseline" run is a job keyed by (config, app, slot) and
  deduplicated across mixes, scenarios, and mechanisms).
* :func:`run_jobs` — executes a job list, in worker processes when
  ``workers > 1`` and serially otherwise, and returns results keyed by
  job key.  Result assembly is therefore order-independent: drivers
  iterate their declared structure, not the completion order, so serial
  and parallel execution produce **identical** rows.  Each job runs a
  fully self-contained simulation with its own deterministic RNGs, so
  results are also bit-identical across worker counts.

Drivers in :mod:`repro.harness.experiments` follow a declare-jobs →
execute → assemble-rows shape on top of these primitives.

On top of in-batch deduplication, :func:`run_jobs` can consult the
persistent cross-sweep result cache (:mod:`repro.harness.cache`): jobs
whose key + source fingerprint match a stored entry are returned from
disk before any dispatch, so re-running an unchanged sweep performs
zero simulations and yields bit-identical rows.

Execution is **fault-tolerant** (see :mod:`repro.harness.retry` for the
policy knobs and :mod:`repro.harness.faults` for the chaos harness that
tests them):

* every finished :class:`JobResult` is **checkpointed into the cache
  the moment it lands** — an interrupted or crashed sweep resumes from
  its completed jobs, never from zero;
* a dead worker (``BrokenProcessPool``) rebuilds the pool and retries
  only the affected jobs, with bounded exponential backoff and
  deterministic jitter — retried jobs are bit-identical because every
  job is a self-contained deterministic simulation;
* jobs running past the per-job wall-clock timeout have their worker
  killed and re-enter the retry ladder (kill → retry → … → skip);
* with ``on_error="skip"`` exhausted jobs become structured
  :class:`JobFailure` records in the returned mapping (drivers render
  them as ``-`` rows) instead of raising :class:`JobExecutionError`.

Mechanism objects hold closures (the adjacency oracle) and cannot cross
a process boundary; anything a driver needs from the mechanism after
the run is declared up front via ``SimJob.extract`` and computed inside
the worker (see :data:`EXTRACTORS`).
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.energy.drampower import EnergyBreakdown
from repro.harness.cache import CACHEABLE_EXTRAS, ResultCache
from repro.harness.faults import FaultPlan, SimulatedCrash
from repro.harness.retry import ExecPolicy
from repro.harness.runner import HarnessConfig, Runner, RunOutcome
from repro.mitigations.registry import available_mitigations
from repro.obs.profile import JobProfile
from repro.os.spec import GovernorSpec
from repro.sim.stats import SimResult
from repro.utils.aggregate import merge_fields
from repro.workloads.mixes import DEFAULT_MIX_THREADS, WorkloadMix

JobKey = tuple


def _extract_delay_stats(outcome: RunOutcome):
    """BlockHammer's Section 8.4 delay statistics, merged over the
    per-channel mechanism instances (counter sums, delay-list concat)."""
    parts = [mechanism.delay_stats() for mechanism in outcome.mechanisms]
    if len(parts) == 1:
        return parts[0]
    from repro.core.rowblocker import DelayStats

    merged = DelayStats()
    for part in parts:
        merge_fields(merged, part)  # counters sum, delay lists concat
    return merged


def _extract_thread_rhli(outcome: RunOutcome) -> list[float | None]:
    """Per-thread maximum RHLI at end of run (Section 3.2.1), maxed over
    the per-channel mechanism instances (the paper's RHLI is the worst
    exposure anywhere in the system).  Threads report ``None`` when no
    channel's mechanism tracks RHLI (reactive baselines in the governor
    sweeps) — the BlockHammer-family sweeps always get floats."""
    out: list[float | None] = []
    for thread in range(len(outcome.result.threads)):
        values = [
            mechanism.thread_max_rhli(thread)
            for mechanism in outcome.mechanisms
            if hasattr(mechanism, "thread_max_rhli")
        ]
        out.append(max(values) if values else None)
    return out


def _extract_channel_attribution(outcome: RunOutcome) -> list[dict]:
    """Mechanism-side per-channel attribution rows (the BreakHammer
    direction: localize which channel accrues RHLI and throttling).

    One dict per channel, straight from the mechanism's OS telemetry
    snapshot (:meth:`~repro.mitigations.base.MitigationMechanism.os_telemetry`
    — the same duck-typed interface the OS governor samples):
    ``thread_rhli`` (per-thread maximum RHLI on that channel's
    mechanism instance, ``None`` for mechanisms without RHLI tracking),
    ``blacklisted_acts`` (AttackThrottler events), and the RowBlocker
    delay counters (``total_acts``/``delayed_acts``/
    ``false_positive_acts``; zero for mechanisms without delay stats).
    Controller-side throttle events (blocked injections) live on
    :class:`~repro.sim.stats.ChannelResult` instead.  Aggregation
    contract: counters sum across channels, RHLI maxes — mirrored by
    :func:`_extract_thread_rhli` and asserted by the attribution tests.
    """
    rows = []
    for channel, mechanism in enumerate(outcome.mechanisms):
        telemetry = mechanism.os_telemetry()
        rows.append(
            {
                "channel": channel,
                "thread_rhli": telemetry.thread_rhli,
                "blacklisted_acts": telemetry.blacklisted_acts,
                "total_acts": telemetry.total_acts,
                "delayed_acts": telemetry.delayed_acts,
                "false_positive_acts": telemetry.false_positive_acts,
            }
        )
    return rows


def _extract_governor_actions(outcome: RunOutcome) -> dict | None:
    """The OS governor's action record (``None`` for ungoverned runs):
    review-epoch count, kill/migration logs, and quota-scale state —
    plain lists of scalars so the result cache round-trips it exactly."""
    if outcome.governor is None:
        return None
    return outcome.governor.actions_summary()


#: Named, picklable-result extractors applied to the finished run
#: inside the worker process.
EXTRACTORS = {
    "delay_stats": _extract_delay_stats,
    "thread_rhli": _extract_thread_rhli,
    "channel_attribution": _extract_channel_attribution,
    "governor_actions": _extract_governor_actions,
}

# Every extractor must have a cache codec, or jobs requesting it would
# be silently uncacheable (each re-run would miss and re-simulate).
# Fail loudly at import time instead.
_UNCACHEABLE = set(EXTRACTORS) - CACHEABLE_EXTRAS
if _UNCACHEABLE:
    raise RuntimeError(
        f"extractors without a cache codec in repro.harness.cache: "
        f"{sorted(_UNCACHEABLE)}"
    )


@dataclass(frozen=True)
class SimJob:
    """One independent simulation in a sweep.

    ``kind`` selects the workload shape:

    * ``"single"`` — one benign application (``app``) running alone,
      seeded as mix slot ``slot`` (slot 0 reproduces ``Runner.run_single``;
      other slots reproduce the alone-IPC runs used by multiprogram
      metrics).  ``pinned`` confines the working set to one memory
      channel and ``threads`` is the mirrored mix's width (row-stripe
      stride), matching the slot of the mix being normalized.
    * ``"mix"`` — a multiprogrammed :class:`WorkloadMix`.

    ``key`` must be hashable, deterministic, and unique per distinct
    simulation; jobs with equal keys are deduplicated by
    :func:`run_jobs` (their ``extract`` tuples are unioned).
    """

    key: JobKey
    hcfg: HarnessConfig
    kind: str
    mechanism: str = "none"
    app: str | None = None
    slot: int = 0
    pinned: int | None = None
    threads: int = DEFAULT_MIX_THREADS
    mix: WorkloadMix | None = None
    #: OS governor configuration for this run (None = ungoverned); a
    #: frozen spec rather than a live Governor so the job stays
    #: picklable and the cache can key on its repr.
    governor: GovernorSpec | None = None
    extract: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("single", "mix"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        known = available_mitigations()
        if self.mechanism not in known:
            raise ValueError(
                f"unknown mitigation {self.mechanism!r}; known: {', '.join(known)}"
            )
        if self.kind == "single" and self.app is None:
            raise ValueError("single jobs need an app name")
        if self.kind == "mix" and self.mix is None:
            raise ValueError("mix jobs need a WorkloadMix")
        if self.kind == "single" and self.governor is not None:
            raise ValueError("governors apply to mix jobs only")
        for name in self.extract:
            if name not in EXTRACTORS:
                raise ValueError(f"unknown extractor {name!r}")


@dataclass
class JobResult:
    """The picklable outcome of one :class:`SimJob`."""

    key: JobKey
    mechanism_name: str
    result: SimResult
    energy: EnergyBreakdown
    extras: dict = field(default_factory=dict)

    @property
    def bitflips(self) -> int:
        return self.result.total_bitflips


@dataclass
class JobFailure:
    """A job that exhausted its retry budget (``on_error="skip"``).

    Stored in the ``run_jobs`` result mapping under the job's key, in
    place of a :class:`JobResult`; drivers test entries with
    :func:`failed` and render failed rows as ``-``.  ``kind`` is
    ``"crash"`` (worker death), ``"timeout"`` (per-job wall-clock
    limit), or ``"error"`` (the job raised).
    """

    key: JobKey
    kind: str
    attempts: int
    error: str = ""


def failed(entry) -> bool:
    """Whether a ``run_jobs`` result entry is a :class:`JobFailure`."""
    return isinstance(entry, JobFailure)


class JobExecutionError(RuntimeError):
    """Raised by ``run_jobs(..., on_error="raise")`` after the sweep
    drains, carrying every :class:`JobFailure`.  Completed jobs are
    already checkpointed in the result cache, so a re-run resumes from
    them."""

    def __init__(self, failures: list[JobFailure]) -> None:
        self.failures = failures
        detail = "; ".join(
            f"{f.kind} after {f.attempts} attempt(s): {f.error or f.key!r}"
            for f in failures[:3]
        )
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(f"{len(failures)} job(s) failed: {detail}{more}")


@dataclass
class SweepReport:
    """Progress/failure accounting for one or more ``run_jobs`` calls.

    Pass an instance via ``run_jobs(..., report=...)`` to observe a
    sweep; one instance accumulates across calls.  Render with
    :func:`repro.harness.reporting.format_sweep_report`.
    """

    total: int = 0
    cached: int = 0
    executed: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    failures: list[JobFailure] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Per-job execution profiles (:class:`~repro.obs.profile.JobProfile`):
    #: wall-clock, simulated events/second, cache disposition, attempts.
    #: Rendered by ``repro.obs.profile.report_to_json`` (the CLI's
    #: ``--report-json`` artifact) and ``format_profile_breakdown``.
    profiles: list[JobProfile] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.cached + self.executed


# ----------------------------------------------------------------------
# Job execution (runs inside worker processes for parallel sweeps).
# ----------------------------------------------------------------------
#: Per-process Runner cache: a worker executes many jobs against the
#: same configuration; rebuilding the Runner per job is pure waste.
_RUNNERS: dict[HarnessConfig, Runner] = {}


def _runner_for(hcfg: HarnessConfig) -> Runner:
    runner = _RUNNERS.get(hcfg)
    if runner is None:
        runner = Runner(hcfg)
        _RUNNERS[hcfg] = runner
    return runner


def execute_job(job: SimJob) -> JobResult:
    """Run one job to completion (callable in any process)."""
    runner = _runner_for(job.hcfg)
    if job.kind == "single":
        outcome = runner.run_single(
            job.app,
            job.mechanism,
            slot=job.slot,
            pinned=job.pinned,
            threads=job.threads,
        )
    else:
        outcome = runner.run_mix(job.mix, job.mechanism, governor=job.governor)
    extras = {name: EXTRACTORS[name](outcome) for name in job.extract}
    return JobResult(
        key=job.key,
        mechanism_name=outcome.mechanism_name,
        result=outcome.result,
        energy=outcome.energy,
        extras=extras,
    )


# ----------------------------------------------------------------------
# The executor.
# ----------------------------------------------------------------------
def dedupe_jobs(jobs: list[SimJob]) -> list[SimJob]:
    """Unique jobs in first-occurrence order.

    Jobs sharing a key must describe the same simulation; their
    ``extract`` tuples are unioned so one run serves every consumer.
    """
    unique: dict[JobKey, SimJob] = {}
    for job in jobs:
        existing = unique.get(job.key)
        if existing is None:
            unique[job.key] = job
            continue
        if replace(existing, extract=()) != replace(job, extract=()):
            raise ValueError(f"job key {job.key!r} reused for a different simulation")
        if job.extract != existing.extract:
            merged = existing.extract + tuple(
                name for name in job.extract if name not in existing.extract
            )
            unique[job.key] = replace(existing, extract=merged)
    return list(unique.values())


def _invoke_job(job: SimJob, attempt: int, faults: FaultPlan | None) -> JobResult:
    """One job attempt (the unit the pool dispatches): fire any injected
    fault for this ``(job, attempt)``, then run the simulation."""
    if faults is not None:
        faults.apply(job, attempt, in_process=False)
    return execute_job(job)


def _job_label(job: SimJob) -> str:
    """A short human label for progress lines (full keys embed the whole
    HarnessConfig repr)."""
    what = job.app if job.kind == "single" else job.mix.name
    return f"{job.kind}:{what}:{job.mechanism}"


def _print_progress(report: SweepReport, job: SimJob, status: str) -> None:
    """One ``--progress`` line per completed/cached/failed job."""
    done = report.completed + len(report.failures)
    print(
        f"[{done}/{report.total}] {status:>7} {_job_label(job)}",
        file=sys.stderr,
        flush=True,
    )


@lru_cache(maxsize=1)
def pool_available() -> bool:
    """Whether this platform can spawn worker processes at all (the
    chaos tests skip pool scenarios where it cannot)."""
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            pool.submit(os.getpid).result()
        return True
    except Exception:
        return False


def run_jobs(
    jobs: list[SimJob],
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: ExecPolicy | None = None,
    on_error: str | None = None,
    faults: FaultPlan | None = None,
    report: SweepReport | None = None,
    progress: bool = False,
) -> dict[JobKey, JobResult | JobFailure]:
    """Execute ``jobs`` (deduplicated) and return results by job key.

    ``workers`` of ``None`` or ``<= 1`` runs serially in-process;
    ``workers > 1`` fans out over a process pool, falling back to serial
    execution when the platform cannot spawn worker processes (e.g.
    sandboxed CI).  Result
    content is identical either way — each job is a self-contained
    deterministic simulation — and the returned mapping lets callers
    assemble rows in declaration order, independent of completion order.

    ``cache`` (a :class:`ResultCache`, or ``None`` for off) activates
    the persistent cross-sweep result cache (see
    :mod:`repro.harness.cache`).  Cached jobs are resolved before
    dispatch — a fully warm sweep performs zero simulations — and every
    fresh result is **checkpointed to the cache as it lands** (in the
    dispatching process; workers never touch the cache directory), so an
    interrupted sweep resumes from its completed jobs.

    ``policy`` (default ``ExecPolicy()``) governs retries, backoff, and
    per-job timeouts — see :class:`~repro.harness.retry.ExecPolicy`;
    ``on_error`` overrides its disposition.  ``faults`` injects
    deterministic chaos (tests only).  ``report`` receives the sweep's
    progress/failure counts and per-job profiles, accumulating across
    calls.  ``progress`` streams one stderr line per finished job.
    """
    ordered = dedupe_jobs(jobs)
    pol = policy if policy is not None else ExecPolicy()
    if on_error is not None:
        pol = replace(pol, on_error=on_error)
    rep = report if report is not None else SweepReport()
    rep.total += len(ordered)
    start = time.monotonic()
    results: dict[JobKey, JobResult | JobFailure] = {}
    pending = ordered
    try:
        if cache is not None:
            pending = []
            for job in ordered:
                load_start = time.perf_counter()
                hit = cache.get(job)
                load_s = time.perf_counter() - load_start
                if hit is not None:
                    results[job.key] = hit
                    rep.cached += 1
                    rep.profiles.append(
                        JobProfile(
                            _job_label(job),
                            "cached",
                            wall_s=load_s,
                            events=hit.result.events_processed,
                        )
                    )
                    if progress:
                        _print_progress(rep, job, "cached")
                else:
                    pending.append(job)

        def checkpoint(
            job: SimJob, result: JobResult, wall_s: float = 0.0, attempts: int = 1
        ) -> None:
            results[job.key] = result
            if cache is not None:
                cache.put(job, result)
            rep.executed += 1
            rep.profiles.append(
                JobProfile(
                    _job_label(job),
                    "executed",
                    wall_s=wall_s,
                    events=result.result.events_processed,
                    attempts=attempts,
                )
            )
            if progress:
                _print_progress(rep, job, "done")

        failures = _execute_jobs(pending, workers, pol, faults, checkpoint, rep)
    except KeyboardInterrupt:
        # An interrupted sweep still reports what it checkpointed: the
        # final SweepReport line tells a resuming user how many jobs
        # are already in the cache before the interrupt propagates.
        if progress:
            rep.elapsed_s += time.monotonic() - start
            start = time.monotonic()  # the finally below adds ~0 more
            from repro.harness.reporting import format_sweep_report

            print(
                f"{format_sweep_report(rep)}\ninterrupted: "
                f"{rep.completed} completed job(s) checkpointed",
                file=sys.stderr,
                flush=True,
            )
        raise
    finally:
        rep.elapsed_s += time.monotonic() - start
    rep.failures.extend(failures)
    if failures:
        by_key = {job.key: job for job in pending}
        for failure in failures:
            rep.profiles.append(
                JobProfile(
                    _job_label(by_key[failure.key]),
                    "failed",
                    attempts=failure.attempts,
                )
            )
        if progress:
            for failure in failures:
                _print_progress(rep, by_key[failure.key], failure.kind.upper())
        if pol.on_error == "raise":
            raise JobExecutionError(failures)
        for failure in failures:
            results[failure.key] = failure
    return results


class _PoolUnavailable(Exception):
    """Worker processes cannot be spawned (restricted environments);
    carries any failures already recorded before the pool died."""

    def __init__(self, failures: list[JobFailure] | None = None) -> None:
        super().__init__("process pool unavailable")
        self.failures = failures or []


def _execute_jobs(
    ordered: list[SimJob],
    workers: int | None,
    policy: ExecPolicy,
    faults: FaultPlan | None,
    checkpoint,
    report: SweepReport,
) -> list[JobFailure]:
    """Execute deduplicated jobs, over a pool when possible.

    Calls ``checkpoint(job, result)`` the moment each job lands; returns
    the :class:`JobFailure` records of jobs that exhausted the policy's
    retry ladder.
    """
    if not ordered:
        return []
    count = max(1, workers or 1)
    completed: set[JobKey] = set()

    def _checkpoint(
        job: SimJob, result: JobResult, wall_s: float = 0.0, attempts: int = 1
    ) -> None:
        completed.add(job.key)
        checkpoint(job, result, wall_s, attempts)

    if count > 1 and len(ordered) > 1:
        try:
            return _pool_execute(ordered, count, policy, faults, _checkpoint, report)
        except _PoolUnavailable as unavailable:
            # Process pools are unavailable (restricted environments):
            # fall back to the serial path, which produces identical
            # results, resuming from whatever already checkpointed.
            done = completed | {f.key for f in unavailable.failures}
            remaining = [job for job in ordered if job.key not in done]
            return unavailable.failures + _serial_execute(
                remaining, policy, faults, _checkpoint, report
            )
    return _serial_execute(ordered, policy, faults, _checkpoint, report)


# ----------------------------------------------------------------------
# The serial path.
# ----------------------------------------------------------------------
def _serial_execute(
    ordered: list[SimJob],
    policy: ExecPolicy,
    faults: FaultPlan | None,
    checkpoint,
    report: SweepReport,
) -> list[JobFailure]:
    """In-process execution with the same retry ladder as the pool path.

    Worker "crashes" degrade to :class:`SimulatedCrash` exceptions (the
    process *is* the sweep), and per-job timeouts cannot preempt a
    running simulation — injected hangs simply sleep.  Incremental
    checkpointing still holds: a ``KeyboardInterrupt`` propagates with
    every completed job already stored.
    """
    failures: list[JobFailure] = []
    for job in ordered:
        attempt = 1
        first_failure: float | None = None
        while True:
            try:
                if faults is not None:
                    faults.apply(job, attempt, in_process=True)
                attempt_start = time.perf_counter()
                result = execute_job(job)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                kind = "crash" if isinstance(exc, SimulatedCrash) else "error"
                if kind == "crash":
                    report.crashes += 1
                now = time.monotonic()
                if first_failure is None:
                    first_failure = now
                if not policy.may_retry(attempt, now - first_failure):
                    failures.append(
                        JobFailure(job.key, kind, attempt, repr(exc))
                    )
                    break
                report.retries += 1
                time.sleep(policy.backoff_delay(job.key, attempt))
                attempt += 1
            else:
                checkpoint(
                    job, result, time.perf_counter() - attempt_start, attempt
                )
                break
    return failures


# ----------------------------------------------------------------------
# The pool path.
# ----------------------------------------------------------------------
@dataclass
class _Attempt:
    """One queued/in-flight dispatch of a job."""

    job: SimJob
    attempt: int = 1
    ready_at: float = 0.0  # earliest re-dispatch time (backoff)
    first_failure: float | None = None
    deadline: float | None = None  # per-job wall-clock kill time
    dispatched_at: float = 0.0  # when this attempt entered the pool


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly terminate a pool's workers (hung jobs cannot be
    cancelled; killing the processes is the only preemption there is)
    and release the executor without waiting."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _pool_execute(
    ordered: list[SimJob],
    count: int,
    policy: ExecPolicy,
    faults: FaultPlan | None,
    checkpoint,
    report: SweepReport,
) -> list[JobFailure]:
    """Per-future dispatch over a process pool that survives worker
    death and enforces per-job timeouts.

    Invariants: at most ``count`` attempts are in flight (so a job's
    wall-clock deadline starts when a worker actually picks it up);
    results checkpoint the moment their future resolves; a broken pool
    is rebuilt and only the affected jobs re-enter the queue.  Raises
    :class:`_PoolUnavailable` if workers cannot be spawned at all.
    """
    failures: list[JobFailure] = []
    queue: deque[_Attempt] = deque(_Attempt(job) for job in ordered)
    inflight: dict = {}  # future -> _Attempt
    pool: ProcessPoolExecutor | None = None

    def retry_or_fail(entry: _Attempt, kind: str, message: str, now: float) -> None:
        if entry.first_failure is None:
            entry.first_failure = now
        if not policy.may_retry(entry.attempt, now - entry.first_failure):
            failures.append(
                JobFailure(entry.job.key, kind, entry.attempt, message)
            )
            return
        report.retries += 1
        queue.append(
            replace(
                entry,
                attempt=entry.attempt + 1,
                ready_at=now + policy.backoff_delay(entry.job.key, entry.attempt),
                deadline=None,
            )
        )

    try:
        while queue or inflight:
            now = time.monotonic()
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=min(count, max(1, len(queue)))
                )
                try:
                    # Probe before dispatching real work: worker
                    # processes spawn lazily, so "this platform cannot
                    # run process pools" only surfaces on first use.
                    pool.submit(os.getpid).result()
                except (OSError, PermissionError, RuntimeError):
                    raise _PoolUnavailable(failures) from None
            # Dispatch up to the worker count, skipping entries still
            # backing off.
            while queue and len(inflight) < count:
                index = next(
                    (i for i, e in enumerate(queue) if e.ready_at <= now), None
                )
                if index is None:
                    break
                entry = queue[index]
                del queue[index]
                try:
                    future = pool.submit(
                        _invoke_job, entry.job, entry.attempt, faults
                    )
                except (BrokenExecutor, OSError, RuntimeError):
                    # The pool broke between dispatches (a worker died
                    # while we were still submitting).  Requeue this
                    # entry untouched; in-flight futures surface the
                    # break below, or we rebuild immediately.
                    queue.appendleft(entry)
                    if not inflight:
                        _kill_pool(pool)
                        pool = None
                    break
                entry.deadline = (
                    now + policy.job_timeout_s
                    if policy.job_timeout_s is not None
                    else None
                )
                entry.dispatched_at = now
                inflight[future] = entry
            if pool is None:
                continue
            if not inflight:
                # Everything queued is backing off: sleep to the next
                # ready time.
                time.sleep(max(0.0, min(e.ready_at for e in queue) - now))
                continue
            wakeups = [e.deadline for e in inflight.values() if e.deadline is not None]
            wakeups += [e.ready_at for e in queue if e.ready_at > now]
            timeout = max(0.0, min(wakeups) - now) if wakeups else None
            done, _ = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            pool_broken = False
            for future in done:
                entry = inflight.pop(future)
                try:
                    result = future.result()
                except BrokenExecutor as exc:
                    # BrokenProcessPool: a worker died.  Every in-flight
                    # job is collateral — the pool cannot say which one
                    # crashed it, so all of them consume a retry.
                    pool_broken = True
                    report.crashes += 1
                    retry_or_fail(entry, "crash", repr(exc), now)
                except Exception as exc:
                    retry_or_fail(entry, "error", repr(exc), now)
                else:
                    # Pool wall-clock is dispatch-to-result: it includes
                    # queue-to-worker latency, which is what the sweep
                    # actually paid for the job.
                    checkpoint(
                        entry.job, result, now - entry.dispatched_at, entry.attempt
                    )
            if pool_broken:
                for future, entry in inflight.items():
                    report.crashes += 1
                    retry_or_fail(entry, "crash", "worker pool died mid-run", now)
                inflight.clear()
                _kill_pool(pool)
                pool = None
                continue
            expired = {
                future: entry
                for future, entry in inflight.items()
                if entry.deadline is not None and now >= entry.deadline
            }
            if expired:
                # The only way to preempt a hung worker is to kill the
                # pool; timed-out jobs consume a retry, innocent
                # in-flight jobs are re-queued without consuming one.
                for entry in expired.values():
                    report.timeouts += 1
                    retry_or_fail(
                        entry,
                        "timeout",
                        f"exceeded job timeout of {policy.job_timeout_s}s "
                        f"(attempt {entry.attempt})",
                        now,
                    )
                for future, entry in inflight.items():
                    if future not in expired:
                        queue.append(replace(entry, ready_at=now, deadline=None))
                inflight.clear()
                _kill_pool(pool)
                pool = None
    finally:
        if pool is not None:
            if inflight:
                _kill_pool(pool)  # interrupted mid-sweep: do not hang
            else:
                pool.shutdown()
    return failures


# ----------------------------------------------------------------------
# Key helpers shared by the experiment drivers.
# ----------------------------------------------------------------------
def single_key(
    hcfg: HarnessConfig,
    app: str,
    slot: int,
    mechanism: str,
    pinned: int | None = None,
    threads: int = DEFAULT_MIX_THREADS,
) -> JobKey:
    """Key for an application running alone (slot-seeded; ``pinned``
    and ``threads`` identify the channel-affine/stripe-layout variant
    of the trace — mixes of different widths must not share alone
    runs)."""
    return ("single", hcfg, app, slot, mechanism, pinned, threads)


def mix_key(
    hcfg: HarnessConfig,
    mix: WorkloadMix,
    mechanism: str,
    governor: GovernorSpec | None = None,
) -> JobKey:
    """Key for a multiprogrammed mix under a mechanism.

    Covers every field that defines the simulation — ``has_attack``
    changes core parameters and completion targets, ``attack_seed``
    selects the attack trace, ``pinned_channels`` the channel layout,
    and ``governor`` the OS policy above the memory system — so mixes
    differing only there must not share a key.
    """
    return (
        "mix",
        hcfg,
        mix.name,
        mix.app_names,
        mix.has_attack,
        mix.attack_seed,
        mix.pinned_channels,
        mechanism,
        governor,
    )


def single_job(
    hcfg: HarnessConfig,
    app: str,
    mechanism: str = "none",
    slot: int = 0,
    extract: tuple[str, ...] = (),
    pinned: int | None = None,
    threads: int = DEFAULT_MIX_THREADS,
) -> SimJob:
    return SimJob(
        key=single_key(hcfg, app, slot, mechanism, pinned, threads),
        hcfg=hcfg,
        kind="single",
        mechanism=mechanism,
        app=app,
        slot=slot,
        pinned=pinned,
        threads=threads,
        extract=extract,
    )


def mix_job(
    hcfg: HarnessConfig,
    mix: WorkloadMix,
    mechanism: str = "none",
    extract: tuple[str, ...] = (),
    governor: GovernorSpec | None = None,
) -> SimJob:
    return SimJob(
        key=mix_key(hcfg, mix, mechanism, governor),
        hcfg=hcfg,
        kind="mix",
        mechanism=mechanism,
        mix=mix,
        governor=governor,
        extract=extract,
    )
