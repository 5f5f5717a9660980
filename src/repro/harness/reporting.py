"""Plain-text table formatting for benchmark and CLI output.

Besides the generic :func:`format_table`, this module renders the
channel-scaling study's two row families (see
:func:`repro.harness.experiments.channel_scaling`): the per-point
summary table and the per-channel attribution table — per-channel RHLI
(attacker vs benign), blacklist/delay event counts, throttle events
(blocked injections), and the per-thread-per-channel slowdown proxy
that localizes attack pressure to a channel.
"""

from __future__ import annotations

from typing import Iterable

from repro.harness.parallel import _job_label


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def round_or_none(value, digits: int):
    """``round`` that passes ``None`` through — statistics over empty
    populations (benign-only / single-thread mixes, threads with no
    reads on a channel) report None and render as ``-``."""
    return None if value is None else round(value, digits)


def format_table(headers: list[str], rows: Iterable[Iterable]) -> str:
    """Align a table for terminal output (``None`` renders as ``-``)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_channel_summary(summary: list[dict]) -> str:
    """The channel-scaling summary table (one row per channels × layout
    × scenario × mechanism point)."""
    return format_table(
        ["ch", "layout", "scenario", "mechanism", "WS", "HS", "MS", "energy", "flips"],
        [
            [
                s["channels"],
                s["layout"],
                s["scenario"],
                s["mechanism"],
                round_or_none(s["norm_ws_mean"], 3),
                round_or_none(s["norm_hs_mean"], 3),
                round_or_none(s["norm_ms_mean"], 3),
                round_or_none(s["norm_energy_mean"], 3),
                s["bitflips"],
            ]
            for s in summary
        ],
    )


def format_os_policy(rows: list[dict]) -> str:
    """The OS governor policy-comparison table (one row per mix ×
    mechanism × policy, from
    :func:`repro.harness.experiments.os_policy_sweep`).  Benign
    slowdowns are relative to the same mechanism without a governor
    (< 1 = the policy recovered benign performance); attacker RHLI is
    ``-`` for mechanisms without RHLI tracking."""
    return format_table(
        [
            "mix",
            "mechanism",
            "policy",
            "ben slow",
            "ben slow max",
            "atk RHLI",
            "atk reqs",
            "epochs",
            "kills",
            "ben killed",
            "migr",
            "quota upd",
            "flips",
        ],
        [
            [
                r["mix"],
                r["mechanism"],
                r["policy"],
                round_or_none(r["benign_slowdown_mean"], 3),
                round_or_none(r["benign_slowdown_max"], 3),
                round_or_none(r["attacker_rhli"], 3),
                r["attacker_requests"],
                r["governor_epochs"],
                r["kills"],
                r["benign_killed"],
                r["migrations"],
                r["quota_updates"],
                r["bitflips"],
            ]
            for r in rows
        ],
    )


def format_sweep_report(report) -> str:
    """Render a :class:`~repro.harness.parallel.SweepReport`: one
    headline line of sweep-level progress counters, plus one line per
    structured job failure (kind, attempts, and the error, or the job's
    label when the error text is empty).  The CLI prints this to stderr
    under ``--progress``; a fault-free sweep reads ``0 retries,
    0 timeouts, 0 crashes, 0 failed``."""
    lines = [
        f"sweep: {report.total} job(s) — {report.cached} cached, "
        f"{report.executed} executed, {report.retries} retries, "
        f"{report.timeouts} timeouts, {report.crashes} crashes, "
        f"{len(report.failures)} failed in {report.elapsed_s:.2f}s"
    ]
    for failure in report.failures:
        lines.append(
            f"  FAILED [{failure.kind}] after {failure.attempts} attempt(s): "
            f"{failure.error or _job_label(failure.key)}"
        )
    return "\n".join(lines)


def format_attribution(attribution: list[dict]) -> str:
    """The per-channel attribution table (one row per mix × mechanism ×
    channel).  RHLI and slowdown cells are ``-`` where the statistic has
    no population (mechanisms without RHLI tracking, threads with no
    reads on the channel)."""
    return format_table(
        [
            "ch",
            "layout",
            "scenario",
            "mix",
            "mechanism",
            "#",
            "atk RHLI",
            "ben RHLI",
            "blacklist",
            "delayed",
            "blocked",
            "atk slow",
            "ben slow",
        ],
        [
            [
                a["channels"],
                a["layout"],
                a["scenario"],
                a["mix"],
                a["mechanism"],
                a["channel"],
                round_or_none(a["attacker_rhli"], 3),
                round_or_none(a["benign_rhli_max"], 4),
                a["blacklisted_acts"],
                a["delayed_acts"],
                a["blocked_injections"],
                round_or_none(a["attacker_slowdown"], 3),
                round_or_none(a["benign_slowdown_max"], 3),
            ]
            for a in attribution
        ],
    )
