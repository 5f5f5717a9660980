"""Retry and execution policy for the fault-tolerant sweep executor.

:class:`ExecPolicy` holds the three knobs the CLI sets for
:func:`repro.harness.parallel.run_jobs`:

* **attempt budget** — each job may execute at most ``attempts`` times
  (first run + retries).  Retried jobs are bit-identical to first-try
  jobs because every :class:`~repro.harness.parallel.SimJob` is a
  self-contained deterministic simulation.
* **per-job wall-clock timeout** — on a process pool a job running past
  ``job_timeout_s`` has its worker killed and re-enters the retry
  ladder (kill → retry → … → skip/raise).  The in-process executor
  cannot preempt a running simulation, so there the timeout never fires
  (injected hangs simply sleep).
* **failure disposition** — ``on_error="raise"`` (default) raises
  :class:`~repro.harness.parallel.JobExecutionError` after the sweep
  drains; ``on_error="skip"`` returns structured
  :class:`~repro.harness.parallel.JobFailure` records instead, which
  the drivers render as ``-`` rows.

Between attempts a job backs off for :func:`backoff_delay` seconds, a
bounded exponential that depends only on the attempt number.

The CLI builds one policy from ``--retries`` / ``--job-timeout`` /
``--on-error``; ``run_jobs`` defaults to ``ExecPolicy()``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Valid ``on_error`` dispositions.
ON_ERROR_MODES = ("raise", "skip")

#: Default retry count (attempts = retries + 1).
DEFAULT_RETRIES = 2

#: Backoff before the first retry, and the cap the doubling stops at.
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0


@dataclass(frozen=True)
class ExecPolicy:
    """Execution policy for one ``run_jobs`` sweep (see module doc)."""

    attempts: int = DEFAULT_RETRIES + 1
    job_timeout_s: float | None = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be > 0")
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )


def backoff_delay(attempt: int) -> float:
    """Seconds to wait before re-dispatching a job whose ``attempt``-th
    attempt (1-based) failed."""
    return min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2 ** (attempt - 1))
