"""Deterministic chaos injection for the sweep executor.

A :class:`FaultPlan` is a picklable, declarative description of which
jobs misbehave, how, and on which attempts.  The executor threads the
plan into every job invocation (:func:`repro.harness.parallel._invoke_job`),
so faults fire *inside worker processes* exactly like real failures:

* ``"crash"``  — the worker process dies (``os._exit``), breaking the
  process pool mid-sweep.  On the in-process executor — where killing
  the process would kill the sweep itself — it degrades to raising
  :class:`SimulatedCrash`, which the same retry ladder counts as a
  crash.
* ``"hang"``   — the job sleeps ``seconds`` before running, tripping
  the per-job wall-clock timeout (kill → retry → … → skip).
* ``"delay"``  — the job sleeps ``seconds`` and then *completes*
  normally: a late result, not a failure.
* ``"error"``  — the job raises :class:`InjectedFault` (a transient
  in-job exception; retried like any other).
* ``"interrupt"`` — the job raises ``KeyboardInterrupt``, simulating a
  user interrupt mid-sweep (used to test checkpoint/resume: completed
  jobs must already be in the result cache).

Faults are matched by a substring of ``repr(job)`` (a job's repr embeds
the app/mix name and mechanism, so ``"403.gcc"`` or ``"blockhammer"``
are natural selectors) plus an optional 1-based attempt tuple — a fault on
``attempts=(1,)`` fires once and lets the retry succeed, which is how
the chaos tests prove retried sweeps are bit-identical to fault-free
ones.

Cache-corruption injectors (:func:`corrupt_cache_entry`) damage
persistent :class:`~repro.harness.cache.ResultCache` entries on disk to
exercise the quarantine path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

#: Valid fault actions.
FAULT_ACTIONS = ("crash", "hang", "delay", "error", "interrupt")

#: Exit code used by injected worker crashes (visible in pool logs).
CRASH_EXIT_CODE = 42


class InjectedFault(RuntimeError):
    """A transient in-job failure raised by an ``"error"`` fault."""


class SimulatedCrash(RuntimeError):
    """The in-process stand-in for a worker death (in-process executor)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: *which* jobs (``match`` — substring of
    ``repr(job)``), *when* (``attempts`` — 1-based attempt numbers,
    ``None`` = every attempt), and *what* (``action`` + ``seconds``)."""

    match: str
    action: str
    attempts: tuple[int, ...] | None = (1,)
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; known: {FAULT_ACTIONS}"
            )
        if self.attempts is not None and any(a < 1 for a in self.attempts):
            raise ValueError("fault attempts are 1-based")
        if self.seconds < 0:
            raise ValueError("fault seconds must be >= 0")

    def applies(self, job, attempt: int) -> bool:
        if self.match not in repr(job):
            return False
        return self.attempts is None or attempt in self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultSpec`\\ s; the first spec matching
    ``(job, attempt)`` fires.  Frozen and built from plain scalars so it
    pickles across the process boundary unchanged."""

    specs: tuple[FaultSpec, ...]

    def spec_for(self, job, attempt: int) -> FaultSpec | None:
        for spec in self.specs:
            if spec.applies(job, attempt):
                return spec
        return None

    def apply(self, job, attempt: int, in_process: bool) -> None:
        """Fire the matching fault for ``(job, attempt)``, if any.

        Called at the top of every job invocation.  ``in_process`` marks
        the in-process executor, where a real process kill would take
        the sweep down with it — crashes degrade to
        :class:`SimulatedCrash` there.
        """
        spec = self.spec_for(job, attempt)
        if spec is None:
            return
        if spec.action in ("hang", "delay"):
            time.sleep(spec.seconds)
            return  # "delay": late but successful; "hang" relies on the
            # timeout killing the worker before the sleep ends.
        if spec.action == "error":
            raise InjectedFault(f"injected error (attempt {attempt}): {spec.match}")
        if spec.action == "interrupt":
            raise KeyboardInterrupt(f"injected interrupt: {spec.match}")
        # "crash"
        if in_process:
            raise SimulatedCrash(f"injected crash (attempt {attempt}): {spec.match}")
        os._exit(CRASH_EXIT_CODE)


def crash_once(match: str) -> FaultPlan:
    """A plan that kills the worker on the first attempt of the matching
    job (the canonical crash-retry chaos scenario)."""
    return FaultPlan((FaultSpec(match=match, action="crash", attempts=(1,)),))


def hang_once(match: str, seconds: float = 30.0) -> FaultPlan:
    """A plan that hangs the matching job's first attempt for
    ``seconds`` (long enough for the per-job timeout to fire first)."""
    return FaultPlan(
        (FaultSpec(match=match, action="hang", attempts=(1,), seconds=seconds),)
    )


# ----------------------------------------------------------------------
# Cache-corruption injectors.
# ----------------------------------------------------------------------
def corrupt_cache_entry(cache, job, mode: str = "garbage"):
    """Damage the persistent cache entry for ``job`` in place.

    ``mode="garbage"`` overwrites it with non-JSON bytes;
    ``mode="truncate"`` cuts the JSON off mid-document (a torn write).
    Returns the entry path.  The next ``cache.get`` must quarantine the
    file (rename to ``*.corrupt``), count it in ``cache.corrupt``, and
    report a miss so the job re-simulates.
    """
    path = cache._path(job)
    if mode == "garbage":
        path.write_text("{ this is not json !!")
    elif mode == "truncate":
        text = path.read_text()
        path.write_text(text[: max(1, len(text) // 3)])
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path
