"""Persistent cross-sweep result cache.

A :class:`~repro.harness.parallel.SimJob`'s result is a pure function of
the job (configuration + workload + mechanism) and of the simulator
source code.  This module stores finished :class:`JobResult`\\ s as JSON
on disk, content-addressed by ``sha256(source_fingerprint + repr(job))``
(the job's dataclass repr spells out every field it has), so re-running
an unchanged sweep (``fig4``/``fig5``/``chansweep``/``fig6``/``rhli``/
``sec84``/``table8``/``rowmap_ablation``) performs **zero** simulations
and returns bit-identical rows — floats survive the JSON round-trip
exactly (``repr`` shortest-round-trip encoding).  Every entry carries
the job's full end-of-run record — results, energy, per-channel
mechanism telemetry, governor actions and an observed job's telemetry
record (trace events, metric rows) — so any driver can be served by an
entry another driver stored: a ``fig5`` sweep on disk serves the
``chansweep``, ``rhli`` and ``sec84`` jobs of the same configuration.
``JobResult.extras`` (a tracing side channel) is not stored.

Invalidation is automatic and conservative: the fingerprint hashes every
``repro`` source file, so *any* simulator change misses the whole cache.
Manual invalidation is ``rm -rf .repro_cache/`` (or pointing
``--cache-dir`` somewhere fresh).

The cache is off unless a :class:`ResultCache` is passed to
``run_jobs``/the experiment drivers; the CLI builds one for
``--cache`` / ``--cache-dir DIR`` / ``--cache-max-entries N``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from functools import lru_cache

from repro.dram.device import CommandCounts
from repro.dram.rowhammer import BitFlip
from repro.energy.drampower import EnergyBreakdown
from repro.mem.controller import ThreadMemStats
from repro.mitigations.base import MechanismTelemetry
from repro.sim.stats import ChannelResult, SimResult, ThreadResult

#: Default on-disk location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Bump when the JSON layout changes (old entries are ignored).
_FORMAT = 4


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Hash of every ``repro`` source file (path + content).

    Computed once per process; any simulator change produces a new
    fingerprint and therefore a clean cache miss for every job.
    """
    import repro

    root = pathlib.Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# JSON codecs.  Encoding is a recursive dataclasses.asdict; decoding
# reconstructs the exact dataclass tree (field-for-field, so cached rows
# compare equal to freshly-simulated ones).
# ----------------------------------------------------------------------
def _decode_thread(data: dict) -> ThreadResult:
    return ThreadResult(
        thread=data["thread"],
        instructions=data["instructions"],
        finish_time_ns=data["finish_time_ns"],
        ipc=data["ipc"],
        mem=ThreadMemStats(**data["mem"]),
        mem_per_channel=[ThreadMemStats(**m) for m in data["mem_per_channel"]],
    )


def _decode_channel(data: dict) -> ChannelResult:
    return ChannelResult(
        channel=data["channel"],
        counts=CommandCounts(**data["counts"]),
        active_time_ns=data["active_time_ns"],
        bitflips=data["bitflips"],
        refreshes=data["refreshes"],
        victim_refreshes=data["victim_refreshes"],
        commands_issued=data["commands_issued"],
        refresh_phase_ns=data["refresh_phase_ns"],
        blocked_injections=data["blocked_injections"],
    )


def _decode_result(data: dict) -> SimResult:
    return SimResult(
        mitigation=data["mitigation"],
        threads=[_decode_thread(t) for t in data["threads"]],
        elapsed_ns=data["elapsed_ns"],
        counts=CommandCounts(**data["counts"]),
        active_time_ns=data["active_time_ns"],
        bitflips=[BitFlip(**b) for b in data["bitflips"]],
        refreshes=data["refreshes"],
        victim_refreshes=data["victim_refreshes"],
        commands_issued=data["commands_issued"],
        events_processed=data["events_processed"],
        channels=[_decode_channel(c) for c in data["channels"]],
    )


class ResultCache:
    """Content-addressed on-disk store of finished :class:`JobResult`\\ s.

    One JSON file per job, named by
    ``sha256(fingerprint | repr(job))``; the stored job repr is
    re-verified on load so a truncated-hash collision can never serve the
    wrong simulation.

    ``max_entries`` bounds the store (ROADMAP: entries used to be kept
    forever): after every ``put`` the least-recently-used files beyond
    the cap are deleted.  Recency is file mtime — refreshed on every
    hit — so a warm working set survives while dead fingerprints and
    abandoned sweeps age out.  ``None`` (default) keeps the store
    unbounded; the CLI exposes ``--cache-max-entries``.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        fingerprint: str | None = None,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("cache max_entries must be >= 1")
        self.root = pathlib.Path(root)
        self.fingerprint = fingerprint or source_fingerprint()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    def _path(self, job) -> pathlib.Path:
        name = hashlib.sha256(
            f"{self.fingerprint}|{job!r}".encode()
        ).hexdigest()[:40]
        return self.root / f"{name}.json"

    def get(self, job):
        """The cached :class:`JobResult` for ``job``, or None.

        A hit requires the format, fingerprint and job repr to match
        exactly.  Corrupt entries — truncated or garbage JSON, or JSON whose
        decode blows up — are **quarantined** (renamed to ``*.corrupt``)
        and counted in :attr:`corrupt`, so they stop being re-parsed on
        every run and the job cleanly re-simulates.
        """
        from repro.harness.parallel import JobResult

        path = self._path(job)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("cache entry is not a JSON object")
        except ValueError:
            self._quarantine(path)
            self.misses += 1
            return None
        if (
            data.get("format") != _FORMAT
            or data.get("fingerprint") != self.fingerprint
            or data.get("key") != repr(job)
        ):
            self.misses += 1
            return None
        try:
            result = JobResult(
                key=job,
                result=_decode_result(data["result"]),
                energy=EnergyBreakdown(**data["energy"]),
                telemetry=[MechanismTelemetry(**t) for t in data["telemetry"]],
                governor_actions=data["governor_actions"],
                obs_record=data["obs_record"],
            )
        except (KeyError, TypeError, ValueError):
            # Schema-valid envelope around a mangled payload (e.g. a
            # partially-overwritten entry): same treatment as bad JSON.
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # LRU touch: a hit is a use
        except OSError:
            pass
        return result

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry out of the lookup namespace (best
        effort: a concurrent deletion just means it is already gone)."""
        self.corrupt += 1
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def put(self, job, result) -> None:
        """Store a finished job (atomic write)."""
        data = {
            "format": _FORMAT,
            "fingerprint": self.fingerprint,
            "key": repr(job),
            "result": dataclasses.asdict(result.result),
            "energy": dataclasses.asdict(result.energy),
            "telemetry": [dataclasses.asdict(t) for t in result.telemetry],
            # Governor.actions_summary() is JSON-safe by contract (lists
            # of scalars, string keys); ungoverned runs store None.
            "governor_actions": result.governor_actions,
            # TelemetryBus.record() is JSON-safe too (None = unobserved).
            "obs_record": result.obs_record,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(job)
        # Per-writer temp name: concurrent processes sharing a cache
        # directory must never interleave writes into one temp file.
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(data))
        os.replace(tmp, path)
        self.stores += 1
        if self.max_entries is not None:
            self._evict()

    def _evict(self) -> None:
        """Delete least-recently-used entries beyond ``max_entries``.

        Best-effort by design: a concurrently-deleted file is skipped,
        and two writers sharing a directory both converge on the cap.
        """
        try:
            entries = [
                (path.stat().st_mtime, path) for path in self.root.glob("*.json")
            ]
        except OSError:
            return
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        entries.sort(key=lambda pair: pair[0])
        for _, path in entries[:excess]:
            try:
                path.unlink()
                self.evictions += 1
            except OSError:
                pass

