"""The benchmark's workloads, their output digests and trace set-up.

Every workload runs at the canonical harness configuration
(``bench_speed.CANONICAL``: scale 128, NRH 32K, one channel, one rank).
Its mixes come from the mix master seed (default 2021); the run seed is
``HarnessConfig.seed``, which drives every benign trace stream, the
seeded attack victim rows and the system RNG.

A *pass* is one unit of measured work.  Every simulation in a pass is
one operation whose ``SimResult`` is digested (``events_processed``
excluded: it counts loop mechanics, not simulated behaviour); the sweep
adds its assembled rows, and every warm replay is one more operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from bench_speed import CANONICAL
from repro.harness import parallel
from repro.harness.cache import ResultCache
from repro.harness.experiments import assemble_mix_rows, mix_sweep_jobs
from repro.harness.parallel import SweepReport, failed, mix_job, run_jobs
from repro.harness.runner import HarnessConfig, Runner
from repro.mem.scheduler import ReferenceFrFcfsPolicy
from repro.mitigations.registry import PAPER_MECHANISMS
from repro.workloads import generator
from repro.workloads.mixes import attack_mixes, benign_mixes

#: Pool width of the sweep workload (the benchmark host has 2 CPUs).
SWEEP_WORKERS = 2
#: Warm replays per pass: one replay takes milliseconds, so several are
#: timed and the median reported.
WARM_REPLAYS = 10


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_digest(result) -> str:
    data = dataclasses.asdict(result)
    del data["events_processed"]
    return digest(data)


def job_label(job) -> str:
    if job.kind == "single":
        return f"single:{job.app}:{job.slot}"
    return f"mix:{job.mix.name}:{job.mechanism}"


@dataclass
class PassResult:
    """One pass: its timings and every operation's outcome."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    instructions: int = 0
    #: Operation label -> output digest (simulations and sweep rows).
    digests: dict[str, str] = field(default_factory=dict)
    #: Operation label -> why it failed (raised, JobFailure, flips).
    failures: dict[str, str] = field(default_factory=dict)
    warm_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    jobs: int = 0
    executed: int = 0
    cached: int = 0

    def note_sweep(self, report: SweepReport) -> None:
        self.jobs += report.total
        self.executed += report.executed
        self.cached += report.cached


def _cpu_now() -> float:
    """CPU seconds of this process plus every reaped child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Workload:
    """Shared plumbing: trace set-up, per-job checks, warm replays."""

    name = ""
    workers = 1

    def __init__(self, seed: int, mix_seed: int, out_dir) -> None:
        self.hcfg = HarnessConfig(**CANONICAL, seed=seed)
        self.mix_seed = mix_seed
        self.out_dir = out_dir
        self.mixes = self.build_mixes()
        self.jobs = self.build_jobs()

    def build_mixes(self) -> list:
        raise NotImplementedError

    def build_jobs(self) -> list:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Set-up: build every trace the workload uses.
    # ------------------------------------------------------------------
    def build_traces(self, lengths: dict) -> None:
        """Build every trace of every mix and materialise each shared
        benign record stream to ``lengths[key]`` records (what one pass
        consumes), so timed passes replay instead of generating.

        The record streams live in the generator's process-wide cache,
        which a first simulation would otherwise fill lazily; it is
        emptied first so that each set-up repeats the whole build.
        """
        generator._STREAM_CACHE.clear()
        spec, mapping = self.hcfg.spec(), self.hcfg.mapping()
        for mix in self.mixes:
            mix.build_traces(spec, mapping, seed=self.hcfg.seed)
        for key, stream in generator._STREAM_CACHE.items():
            replay = generator.ReplayTrace(stream)
            for _ in range(lengths.get(key, 0)):
                replay.next_record()

    @staticmethod
    def stream_lengths() -> dict:
        return {key: len(s.records) for key, s in generator._STREAM_CACHE.items()}

    # ------------------------------------------------------------------
    def check_job(self, out: PassResult, job, entry) -> None:
        label = job_label(job)
        out.attempted += 1
        if failed(entry):
            out.failures[label] = f"{entry.kind}: {entry.error}"
            return
        result = entry.result
        if job.mechanism == "blockhammer" and result.total_bitflips:
            out.failures[label] = f"{result.total_bitflips} bit flips under blockhammer"
            return
        out.digests[label] = result_digest(result)

    def warm_replay(self, out: PassResult, cache, fresh: dict, span) -> None:
        """Serve the pass's jobs again from ``cache``: zero simulations,
        identical outputs."""
        for _ in range(WARM_REPLAYS):
            report = SweepReport()
            with span("bench.warm_replay"):
                start = time.perf_counter()
                results = run_jobs(
                    self.jobs, self.workers, cache=cache, on_error="skip", report=report
                )
                rows = self.assemble(results, span)
                elapsed = time.perf_counter() - start
            out.note_sweep(report)
            same = all(
                not failed(results[job.key])
                and result_digest(results[job.key].result) == fresh.get(job_label(job))
                for job in self.jobs
            ) and (rows is None or digest(rows) == fresh.get("rows"))
            if report.executed or not same:
                out.failures[f"warm-replay-{len(out.warm_ms)}"] = (
                    f"{report.executed} simulations executed, outputs identical: {same}"
                )
            out.warm_ms.append(elapsed * 1e3)
            out.attempted += 1

    def assemble(self, results: dict, span):
        return None

    def run_pass(self, workers: int, span=None) -> PassResult:
        raise NotImplementedError

    def reference_check(self) -> None:
        """Record mode: one job must equal the naive reference FR-FCFS."""


class SerialWorkload(Workload):
    """Mixes under one mechanism, simulated serially in this process
    through ``execute_job`` (no ``run_jobs``, no pool)."""

    mechanism = ""
    num_mixes = 0
    #: Index of the job cross-checked against the reference scheduler.
    reference_job = 0

    def build_jobs(self) -> list:
        return [mix_job(self.hcfg, mix, self.mechanism) for mix in self.mixes]

    def run_pass(self, workers: int = 1, span=None) -> PassResult:
        span = span or _no_span
        out = PassResult()
        fresh = {}
        with span("bench.pass"):
            cpu = _cpu_now()
            start = time.perf_counter()
            for job in self.jobs:
                try:
                    fresh[job.key] = parallel.execute_job(job)
                except Exception:
                    out.attempted += 1
                    out.failures[job_label(job)] = traceback.format_exc()
            out.wall_s = time.perf_counter() - start
            out.cpu_s = _cpu_now() - cpu
        for job in self.jobs:
            if job.key in fresh:
                self.check_job(out, job, fresh[job.key])
                out.instructions += fresh[job.key].result.total_instructions
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.out_dir)
        try:
            cache = ResultCache(cache_dir)
            for job in self.jobs:
                if job.key in fresh:
                    cache.put(job, fresh[job.key])
            self.warm_replay(out, cache, dict(out.digests), span)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return out

    def reference_check(self) -> None:
        job = self.jobs[self.reference_job]
        fast = parallel.execute_job(job).result
        ref = Runner(self.hcfg, policy=ReferenceFrFcfsPolicy()).run_mix(
            job.mix, job.mechanism
        )
        if result_digest(ref.result) != result_digest(fast):
            raise SystemExit(f"{self.name}: {job_label(job)} differs from the reference scheduler")


class AttackBlockHammer(SerialWorkload):
    """Attack mixes 0-3 under BlockHammer.  Mixes 1-3 trip the RowBlocker
    ACT gate, the D-CBF and AttackThrottler quotas; mix 0's fixed attack
    is never throttled."""

    name = "attack-blockhammer"
    mechanism = "blockhammer"
    num_mixes = 4
    reference_job = 1  # attack-001 is throttled; attack-000 never is

    def build_mixes(self) -> list:
        return attack_mixes(self.num_mixes, master_seed=self.mix_seed)


class BenignNone(SerialWorkload):
    """Benign mixes 0-5 with no mitigation: the mitigation layer idles,
    so a change to it must leave this workload unchanged."""

    name = "benign-none"
    mechanism = "none"
    num_mixes = 6

    def build_mixes(self) -> list:
        return benign_mixes(self.num_mixes, master_seed=self.mix_seed)


class Fig5Sweep(Workload):
    """A reduced canonical Figure 5 sweep through ``run_jobs`` on a pool
    with a throwaway result cache, then warm replays from that cache."""

    name = "fig5-sweep"
    workers = SWEEP_WORKERS
    num_mixes = 1

    def build_mixes(self) -> list:
        self.benign = benign_mixes(self.num_mixes, master_seed=self.mix_seed)
        self.attack = attack_mixes(self.num_mixes, master_seed=self.mix_seed)
        return self.benign + self.attack

    def build_jobs(self) -> list:
        return parallel.dedupe_jobs(
            mix_sweep_jobs(self.hcfg, self.benign, PAPER_MECHANISMS)
            + mix_sweep_jobs(self.hcfg, self.attack, PAPER_MECHANISMS)
        )

    def assemble(self, results: dict, span):
        with span("harness.assemble"):
            rows = assemble_mix_rows(
                self.hcfg, self.benign, PAPER_MECHANISMS, "no-attack", results
            )
            rows += assemble_mix_rows(
                self.hcfg, self.attack, PAPER_MECHANISMS, "attack", results
            )
        return [dataclasses.asdict(row) for row in rows]

    def run_pass(self, workers: int = SWEEP_WORKERS, span=None) -> PassResult:
        span = span or _no_span
        out = PassResult()
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.out_dir)
        try:
            cache = ResultCache(cache_dir)
            report = SweepReport()
            with span("bench.pass"):
                cpu = _cpu_now()
                start = time.perf_counter()
                results = run_jobs(
                    self.jobs, workers, cache=cache, on_error="skip", report=report
                )
                rows = self.assemble(results, span)
                out.wall_s = time.perf_counter() - start
                out.cpu_s = _cpu_now() - cpu
            out.note_sweep(report)
            for job in self.jobs:
                self.check_job(out, job, results[job.key])
                if not failed(results[job.key]):
                    out.instructions += results[job.key].result.total_instructions
            out.digests["rows"] = digest(rows)
            out.attempted += 1
            self.warm_replay(out, cache, dict(out.digests), span)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return out


def _no_span(name):
    return nullcontext()


WORKLOADS = {cls.name: cls for cls in (AttackBlockHammer, BenignNone, Fig5Sweep)}
