"""Job-based parallel experiment execution.

Every paper figure this repository reproduces is a sweep of *independent*
simulations — (app × mechanism), (mix × scenario × mechanism),
(NRH point × mechanism), (mechanism × assumed row mapping).  This
module turns those sweeps into explicit job lists that fan out over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* :class:`SimJob` — a picklable, self-contained description of one
  simulation (configuration + workload + mechanism).  A job is its own
  key: frozen-dataclass equality over every field is its identity, so
  equal jobs are executed once and shared (every "app running alone on
  the baseline" run is deduplicated across mixes, scenarios, and
  mechanisms), and a field added to the job is part of the key without
  anyone listing it.
* :func:`run_jobs` — executes a job list, in worker processes when
  ``workers > 1`` and serially otherwise, and returns results keyed by
  job.  Result assembly is therefore order-independent: drivers iterate
  their declared structure, not the completion order, so serial and
  parallel execution produce **identical** rows.  Each job runs a
  fully self-contained simulation with its own deterministic RNGs, so
  results are also bit-identical across worker counts.

Drivers in :mod:`repro.harness.experiments` follow a declare-jobs →
execute → assemble-rows shape on top of these primitives.

On top of in-batch deduplication, :func:`run_jobs` can consult the
persistent cross-sweep result cache (:mod:`repro.harness.cache`): jobs
whose ``repr`` + source fingerprint match a stored entry are returned from
disk before any dispatch, so re-running an unchanged sweep performs
zero simulations and yields bit-identical rows.

Execution is **fault-tolerant** (see :mod:`repro.harness.retry` for the
policy knobs and :mod:`repro.harness.faults` for the chaos harness that
tests them):

* every finished :class:`JobResult` is **checkpointed into the cache
  the moment it lands** — an interrupted or crashed sweep resumes from
  its completed jobs, never from zero;
* one loop holds the retry ladder for every sweep; it dispatches to a
  process pool or, for serial sweeps, to an in-process executor whose
  ``submit`` runs the job and returns a finished future;
* a dead worker (``BrokenProcessPool``) rebuilds the pool and retries
  only the affected jobs, with bounded exponential backoff — retried
  jobs are bit-identical because every job is a self-contained
  deterministic simulation;
* jobs running past the per-job wall-clock timeout have their worker
  killed and re-enter the retry ladder (kill → retry → … → skip);
* with ``on_error="skip"`` exhausted jobs become structured
  :class:`JobFailure` records in the returned mapping (drivers render
  them as ``-`` rows) instead of raising :class:`JobExecutionError`.

Mechanism objects are live per-run state (counter tables, filters, the
context they were attached with), which neither crosses the process
boundary nor enters the cache; every job instead returns the same
end-of-run record of them, taken inside the worker: one
:class:`~repro.mitigations.base.MechanismTelemetry` per channel
(``JobResult.telemetry``) and the OS governor's action summary
(``JobResult.governor_actions``).  Likewise a job carries only its
:class:`~repro.obs.probe.ObsConfig` (``SimJob.obs``) and returns the
live bus's plain-data record (``JobResult.obs_record``).
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.energy.drampower import EnergyBreakdown
from repro.harness.cache import ResultCache
from repro.harness.faults import FaultPlan, SimulatedCrash
from repro.harness.retry import ExecPolicy, backoff_delay
from repro.harness.runner import HarnessConfig, Runner
from repro.mitigations.base import MechanismTelemetry
from repro.mitigations.registry import available_mitigations
from repro.obs.probe import ObsConfig
from repro.obs.profile import JobProfile
from repro.os.spec import GovernorSpec
from repro.sim.stats import SimResult
from repro.workloads.mixes import DEFAULT_MIX_THREADS, WorkloadMix

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
    * ``"ablation"`` — the row-map ablation's fixed-duration attack
      workload (``Runner.run_ablation``); ``hcfg`` carries the chip's
      and the mechanism's row-map kinds and the run's duration.

    Equal jobs describe the same simulation: :func:`run_jobs`
    deduplicates them and keys its results by job, and the result cache
    addresses entries by ``repr(job)``.
    """

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
    #: Observability (None = off); metric sampling adds events.
    obs: ObsConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("single", "mix", "ablation"):
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
        if self.kind != "mix" and self.governor is not None:
            raise ValueError("governors apply to mix jobs only")

    @property
    def key(self) -> SimJob:
        """The job itself: ``results[job.key]`` and ``results[job]`` are
        the same lookup."""
        return self


@dataclass
class JobResult:
    """The picklable outcome of one :class:`SimJob`.

    Every job carries the same end-of-run record of its mechanisms:
    ``telemetry`` holds one snapshot per channel (aggregate it with
    :func:`~repro.mitigations.base.max_thread_rhli` and
    :func:`~repro.mitigations.base.sum_counters`), and
    ``governor_actions`` is ``Governor.actions_summary()``, ``None``
    for an ungoverned run; ``obs_record`` is ``TelemetryBus.record()`` or
    ``None``.  ``extras`` is a side channel for tracing tools; the
    result cache does not store it.
    """

    key: SimJob
    result: SimResult
    energy: EnergyBreakdown
    telemetry: list[MechanismTelemetry] = field(default_factory=list)
    governor_actions: dict | None = None
    obs_record: dict | None = None
    extras: dict = field(default_factory=dict)

    @property
    def bitflips(self) -> int:
        return self.result.total_bitflips


@dataclass
class JobFailure:
    """A job that exhausted its retry budget (``on_error="skip"``).

    Stored in the ``run_jobs`` result mapping under its job, in
    place of a :class:`JobResult`; drivers test entries with
    :func:`failed` and render failed rows as ``-``.  ``kind`` is
    ``"crash"`` (worker death), ``"timeout"`` (per-job wall-clock
    limit), or ``"error"`` (the job raised).
    """

    key: SimJob
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
            f"{f.kind} after {f.attempts} attempt(s): {f.error or _job_label(f.key)}"
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
def execute_job(job: SimJob) -> JobResult:
    """Run one job to completion (callable in any process)."""
    runner = Runner(job.hcfg, obs=job.obs)
    if job.kind == "single":
        outcome = runner.run_single(
            job.app,
            job.mechanism,
            slot=job.slot,
            pinned=job.pinned,
            threads=job.threads,
        )
    elif job.kind == "mix":
        outcome = runner.run_mix(job.mix, job.mechanism, governor=job.governor)
    else:
        outcome = runner.run_ablation(job.mechanism)
    return JobResult(
        key=job,
        result=outcome.result,
        energy=outcome.energy,
        telemetry=[mechanism.os_telemetry() for mechanism in outcome.mechanisms],
        governor_actions=(
            outcome.governor.actions_summary() if outcome.governor is not None else None
        ),
        obs_record=outcome.obs.record() if outcome.obs is not None else None,
    )


# ----------------------------------------------------------------------
# Sweep entry point.
# ----------------------------------------------------------------------
def dedupe_jobs(jobs: list[SimJob]) -> list[SimJob]:
    """Unique jobs in first-occurrence order."""
    return list(dict.fromkeys(jobs))


def _invoke_job(
    job: SimJob, attempt: int, faults: FaultPlan | None, in_process: bool
) -> JobResult:
    """One job attempt (the unit the executor dispatches): fire any
    injected fault for this ``(job, attempt)``, then run the simulation.
    ``in_process`` tells the fault plan whether a crash may kill the
    process it runs in."""
    if faults is not None:
        faults.apply(job, attempt, in_process)
    return execute_job(job)


def _job_label(job: SimJob) -> str:
    """A short human label for progress and failure lines (a job's repr
    embeds the whole HarnessConfig)."""
    # An ablation job is labelled by the row mapping its mechanism assumes.
    what = job.app or (job.mix.name if job.mix else job.hcfg.assumed_rowmap_kind or "true")
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
    pool = _spawn_pool(1)
    if pool is not None:
        pool.shutdown()
    return pool is not None


def run_jobs(
    jobs: list[SimJob],
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: ExecPolicy | None = None,
    on_error: str | None = None,
    faults: FaultPlan | None = None,
    report: SweepReport | None = None,
    progress: bool = False,
) -> dict[SimJob, JobResult | JobFailure]:
    """Execute ``jobs`` (deduplicated) and return results by job.

    ``workers`` of ``None`` or ``<= 1`` runs serially in-process;
    ``workers > 1`` fans out over a process pool, moving in-process when
    the platform cannot spawn worker processes (e.g. sandboxed CI).
    Result content is identical either way — each job is a self-contained
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
    results: dict[SimJob, JobResult | JobFailure] = {}
    pending = ordered
    try:
        if cache is not None:
            pending = []
            for job in ordered:
                load_start = time.perf_counter()
                hit = cache.get(job)
                load_s = time.perf_counter() - load_start
                if hit is not None:
                    results[job] = hit
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
            job: SimJob, result: JobResult, wall_s: float, attempts: int
        ) -> None:
            results[job] = result
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
        for failure in failures:
            rep.profiles.append(
                JobProfile(
                    _job_label(failure.key),
                    "failed",
                    attempts=failure.attempts,
                )
            )
        if progress:
            for failure in failures:
                _print_progress(rep, failure.key, failure.kind.upper())
        if pol.on_error == "raise":
            raise JobExecutionError(failures)
        for failure in failures:
            results[failure.key] = failure
    return results


# ----------------------------------------------------------------------
# The execution loop.
# ----------------------------------------------------------------------
class _InlineExecutor(Executor):
    """Runs each submitted call in the dispatching process and returns an
    already-finished future, so a serial sweep goes through the same loop
    as a pool.  A ``KeyboardInterrupt`` propagates out of ``submit``."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


@dataclass
class _Attempt:
    """One queued/in-flight dispatch of a job."""

    job: SimJob
    attempt: int = 1
    ready_at: float = 0.0  # earliest re-dispatch time (backoff)
    deadline: float | None = None  # per-job wall-clock kill time
    dispatched_at: float = 0.0  # when this attempt entered the executor


def _kill_pool(pool: Executor) -> None:
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


def _spawn_pool(workers: int) -> ProcessPoolExecutor | None:
    """A process pool with a live worker, or ``None`` when this platform
    cannot spawn one (restricted environments).  Workers start lazily,
    so the probe job is what surfaces the failure."""
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
        pool.submit(os.getpid).result()
        return pool
    except (OSError, RuntimeError):
        if pool is not None:
            _kill_pool(pool)
        return None


def _execute_jobs(
    ordered: list[SimJob],
    workers: int | None,
    policy: ExecPolicy,
    faults: FaultPlan | None,
    checkpoint,
    report: SweepReport,
) -> list[JobFailure]:
    """The one retry, backoff and timeout loop: per-future dispatch over
    an executor, calling ``checkpoint(job, result, wall_s, attempts)``
    the moment each job lands.  Returns the :class:`JobFailure` records
    of jobs that exhausted the policy's attempt budget.

    The executor is chosen once per sweep: a process pool when
    ``workers > 1``, even for one job, so ``job_timeout_s`` can preempt
    it; else an :class:`_InlineExecutor`.  A broken pool is rebuilt as a
    pool, so a retried job stays preemptible by its timeout; only a pool
    that can no longer spawn moves the rest of the sweep in-process, and
    every job keeps the attempts it has already used.

    Invariants: at most ``count`` attempts are in flight (one
    in-process, so an interrupt loses no finished result; on a pool, a
    job's wall-clock deadline starts when a worker actually picks it
    up), and only the jobs a failure affected re-enter the queue.
    """
    failures: list[JobFailure] = []
    queue: deque[_Attempt] = deque(_Attempt(job) for job in ordered)
    inflight: dict = {}  # future -> _Attempt
    count = max(1, workers or 1)
    in_process = count == 1
    executor: Executor | None = None

    def retry_or_fail(entry: _Attempt, kind: str, message: str, now: float) -> None:
        if entry.attempt >= policy.attempts:
            failures.append(JobFailure(entry.job, kind, entry.attempt, message))
            return
        report.retries += 1
        queue.append(
            replace(
                entry,
                attempt=entry.attempt + 1,
                ready_at=now + backoff_delay(entry.attempt),
                deadline=None,
            )
        )

    try:
        while queue or inflight:
            now = time.monotonic()
            if executor is None and not in_process:
                executor = _spawn_pool(min(count, len(queue)))
                in_process = executor is None
            if executor is None:
                executor, count = _InlineExecutor(), 1
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
                    future = executor.submit(
                        _invoke_job, entry.job, entry.attempt, faults, in_process
                    )
                except (BrokenExecutor, OSError, RuntimeError):
                    # The pool broke between dispatches (a worker died
                    # while we were still submitting).  Requeue this
                    # entry untouched; in-flight futures surface the
                    # break below, or we rebuild immediately.
                    queue.appendleft(entry)
                    if not inflight:
                        _kill_pool(executor)
                        executor = None
                    break
                entry.deadline = (
                    now + policy.job_timeout_s
                    if policy.job_timeout_s is not None
                    else None
                )
                entry.dispatched_at = now
                inflight[future] = entry
            if executor is None:
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
                except SimulatedCrash as exc:
                    report.crashes += 1  # the in-process worker death
                    retry_or_fail(entry, "crash", repr(exc), now)
                except Exception as exc:
                    retry_or_fail(entry, "error", repr(exc), now)
                else:
                    # Wall-clock is dispatch-to-result: on a pool it
                    # includes queue-to-worker latency, which is what the
                    # sweep actually paid for the job.
                    checkpoint(
                        entry.job, result, now - entry.dispatched_at, entry.attempt
                    )
            if pool_broken:
                for future, entry in inflight.items():
                    report.crashes += 1
                    retry_or_fail(entry, "crash", "worker pool died mid-run", now)
                inflight.clear()
                _kill_pool(executor)
                executor = None
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
                _kill_pool(executor)
                executor = None
    finally:
        if executor is not None:
            if inflight:
                _kill_pool(executor)  # interrupted mid-sweep: do not hang
            else:
                executor.shutdown()
    return failures


# ----------------------------------------------------------------------
# Job constructors shared by the experiment drivers.
# ----------------------------------------------------------------------
def single_job(
    hcfg: HarnessConfig,
    app: str,
    mechanism: str = "none",
    slot: int = 0,
    pinned: int | None = None,
    threads: int = DEFAULT_MIX_THREADS,
) -> SimJob:
    return SimJob(
        hcfg=hcfg,
        kind="single",
        mechanism=mechanism,
        app=app,
        slot=slot,
        pinned=pinned,
        threads=threads,
    )


def mix_job(
    hcfg: HarnessConfig,
    mix: WorkloadMix,
    mechanism: str = "none",
    governor: GovernorSpec | None = None,
    obs: ObsConfig | None = None,
) -> SimJob:
    return SimJob(hcfg, "mix", mechanism, mix=mix, governor=governor, obs=obs)


def ablation_job(hcfg: HarnessConfig, mechanism: str = "none") -> SimJob:
    # ``hcfg`` holds both row-map kinds and the run's duration.
    return SimJob(hcfg=hcfg, kind="ablation", mechanism=mechanism)
