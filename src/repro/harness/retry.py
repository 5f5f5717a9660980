"""Retry and execution policy for the fault-tolerant sweep executor.

:class:`ExecPolicy` bundles everything :func:`repro.harness.parallel.run_jobs`
needs to survive worker failures without sacrificing determinism:

* **attempt budget** — each job may execute at most ``attempts`` times
  (first run + retries).  Retried jobs are bit-identical to first-try
  jobs because every :class:`~repro.harness.parallel.SimJob` is a
  self-contained deterministic simulation.
* **bounded exponential backoff with deterministic jitter** — the delay
  before attempt *n+1* is ``min(backoff_max_s, backoff_base_s * 2**(n-1))``
  scaled by a jitter fraction derived from ``sha256(key, attempt)``, so
  two sweeps replaying the same failure wait the same amount of time
  (no wall-clock or RNG dependence).
* **retry deadline** — once a job has been failing for
  ``retry_deadline_s`` seconds it stops retrying even with budget left.
* **per-job wall-clock timeout** — on the process-pool path a job
  running past ``job_timeout_s`` has its worker killed and re-enters
  the retry ladder (kill → retry → … → skip/raise).  The serial path
  cannot preempt a running simulation and therefore does not enforce
  timeouts (injected hangs simply sleep there).
* **failure disposition** — ``on_error="raise"`` (default) raises
  :class:`~repro.harness.parallel.JobExecutionError` after the sweep
  drains; ``on_error="skip"`` returns structured
  :class:`~repro.harness.parallel.JobFailure` records instead, which
  the drivers render as ``-`` rows.

The CLI builds one policy from ``--retries`` / ``--job-timeout`` /
``--on-error``; ``run_jobs`` defaults to ``ExecPolicy()``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Valid ``on_error`` dispositions.
ON_ERROR_MODES = ("raise", "skip")

#: Default retry count (attempts = retries + 1).
DEFAULT_RETRIES = 2


@dataclass(frozen=True)
class ExecPolicy:
    """Execution policy for one ``run_jobs`` sweep (see module doc)."""

    attempts: int = DEFAULT_RETRIES + 1
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    retry_deadline_s: float | None = None
    jitter: float = 0.25
    job_timeout_s: float | None = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be > 0")
        if self.retry_deadline_s is not None and self.retry_deadline_s <= 0:
            raise ValueError("retry_deadline_s must be > 0")
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )

    # ------------------------------------------------------------------
    def backoff_delay(self, key, attempt: int) -> float:
        """Delay in seconds before re-dispatching ``key`` after failed
        attempt number ``attempt`` (1-based).  Deterministic: the jitter
        fraction is a pure function of ``(key, attempt)``."""
        base = min(self.backoff_max_s, self.backoff_base_s * (2 ** (attempt - 1)))
        return base * (1.0 + self.jitter * jitter_fraction(key, attempt))

    def may_retry(self, attempt: int, failing_for_s: float) -> bool:
        """Whether a job that just failed its ``attempt``-th attempt and
        has been failing for ``failing_for_s`` seconds gets another."""
        if attempt >= self.attempts:
            return False
        if self.retry_deadline_s is not None and failing_for_s >= self.retry_deadline_s:
            return False
        return True


def jitter_fraction(key, attempt: int) -> float:
    """A deterministic fraction in ``[0, 1)`` from ``(key, attempt)``.

    Uses sha256 rather than ``hash()`` (which is salted per process) so
    retried jobs back off identically across runs and machines.
    """
    digest = hashlib.sha256(f"{key!r}|{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64

