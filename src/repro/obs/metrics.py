"""Per-epoch metrics sampling: time-resolved rows beside ``SimResult``.

The end-of-run aggregates say *how much* a mechanism acted; these rows
say *when*.  Once per sampling epoch (an event the
:class:`~repro.sim.system.System` schedules, exactly like a governor
review) the collector snapshots, per channel:

* **RHLI per thread** — the mechanism's OS telemetry (BlockHammer
  family; mechanisms without RHLI tracking contribute no rows);
* **blacklist occupancy** — rows at/above the blacklisting threshold in
  the active D-CBF window (mechanisms exposing
  ``blacklist_occupancy()``);
* **queue depths** — total read/write queue depth plus per-bank depth
  for occupied banks;
* **throttle-block counters** — cumulative per-thread blocked/quota-
  blocked injections (deltas between epochs give the rate);
* **victim-refresh backlog** — VREFs queued but not yet issued.

Rows are *tidy*: one ``(epoch, time_ns, phase, channel, metric, index,
value)`` record per observation, so downstream analysis pivots freely.
``phase`` distinguishes warmup samples from measured ones (counters
reset at the warmup boundary, which the collector is notified of).
Sampling events ride the ordinary event queue and therefore only
perturb ``SimResult.events_processed`` — the one field excluded from
result-equality comparisons — so enabling metrics never changes
simulation results.
"""

from __future__ import annotations

import csv

#: Tidy-row field order (also the CSV header).
FIELDS = ("epoch", "time_ns", "phase", "channel", "metric", "index", "value")


class EpochMetricsCollector:
    """Accumulates tidy per-epoch metric rows from a running system."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self.epochs = 0
        self.phase = "measure"

    # ------------------------------------------------------------------
    def note_measurement_reset(self, now: float) -> None:
        """Warmup ended at ``now``: later samples read reset counters."""
        self.phase = "measure"

    def begin_warmup(self) -> None:
        """Mark samples as warmup-phase until the measurement reset."""
        self.phase = "warmup"

    # ------------------------------------------------------------------
    def sample(self, system, now: float) -> None:
        """Record one epoch's rows from ``system`` (duck-typed: anything
        with the :class:`~repro.sim.system.System` surface works)."""
        epoch = self.epochs
        self.epochs += 1
        rows = self.rows
        phase = self.phase
        memsys = system.memsys
        telemetry = memsys.mechanism_telemetry()

        def add(channel: int, metric: str, index, value) -> None:
            rows.append(
                {
                    "epoch": epoch,
                    "time_ns": now,
                    "phase": phase,
                    "channel": channel,
                    "metric": metric,
                    "index": index,
                    "value": value,
                }
            )

        for channel, controller in enumerate(memsys.controllers):
            tele = telemetry[channel]
            if tele.thread_rhli is not None:
                for thread, value in enumerate(tele.thread_rhli):
                    add(channel, "rhli", thread, value)
            occupancy = getattr(
                memsys.mitigations[channel], "blacklist_occupancy", None
            )
            if occupancy is not None:
                add(channel, "blacklist_occupancy", "", occupancy())
            for metric, queue in (
                ("read_queue_depth", controller.read_queue),
                ("write_queue_depth", controller.write_queue),
            ):
                add(channel, metric, "", len(queue))
                for bank_key, bucket in queue.by_bank.items():
                    if bucket:
                        add(channel, f"{metric}_bank", bank_key, len(bucket))
            add(channel, "vref_backlog", "", controller._pending_vref_count)
            for thread, stats in enumerate(controller.thread_stats):
                blocked = stats.blocked_injections
                quota = stats.quota_blocked_injections
                if blocked:
                    add(channel, "blocked_injections", thread, blocked)
                if quota:
                    add(channel, "throttle_blocked", thread, quota)

    # ------------------------------------------------------------------
    def measured_rows(self) -> list[dict]:
        """Rows sampled during the measured phase only."""
        return [row for row in self.rows if row["phase"] == "measure"]


def write_csv(path, rows: list[dict]) -> int:
    """Write tidy metric rows to ``path`` as CSV; returns the row count."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)
