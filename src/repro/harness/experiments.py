"""Experiment drivers: one function per paper table/figure.

Each driver returns plain data (lists of row dicts) so benchmarks,
tests, and examples can share them.  The benchmark for each under
``benchmarks/`` asserts the paper's claim for it.

Every sweep driver follows the same three-stage shape on top of
:mod:`repro.harness.parallel`:

1. **declare jobs** — enumerate the independent simulations (including
   the shared baseline and alone-IPC runs, which are equal jobs, so
   they execute once and serve every mechanism/scenario);
2. **execute** — :func:`~repro.harness.parallel.run_jobs`, serially or
   over a process pool; each driver forwards its ``**execution``
   keywords (``workers``, ``cache``, ``policy``, ``report``, …) to it
   unchanged;
3. **assemble rows** — walk the declared structure and build rows from
   the results indexed by the declared jobs, so row order and content
   are independent of how (and in what order) the jobs ran.

Under ``run_jobs(..., on_error="skip")`` the result mapping may carry
structured :class:`~repro.harness.parallel.JobFailure` records for jobs
that exhausted the retry ladder.  Every assembly stage tolerates them:
rows whose inputs failed keep their position but carry ``None`` metric
values, which the reporting layer renders as ``-`` — a sweep with a
dead corner degrades instead of dying.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace as dataclass_replace

from repro.core.config import BlockHammerConfig
from repro.harness.parallel import (
    JobResult,
    SimJob,
    ablation_job,
    failed,
    mix_job,
    run_jobs,
    single_job,
)
from repro.harness.runner import HarnessConfig
from repro.metrics.speedup import MultiprogramMetrics, compute_metrics
from repro.mitigations.base import max_thread_rhli, sum_counters
from repro.mitigations.registry import PAPER_MECHANISMS
from repro.os.spec import GovernorSpec
from repro.utils.validation import require
from repro.workloads.mixes import (
    ATTACKER_THREAD,
    WorkloadMix,
    attack_mixes,
    benign_mixes,
)
from repro.workloads.profiles import TABLE8_PROFILES, Category


def _stat(fn, values):
    """``fn(values)`` with an empty-input guard: benign-only modes and
    single-thread mixes produce empty attacker/benign statistic lists,
    which must report as ``None`` rather than raising."""
    values = list(values)
    return fn(values) if values else None


# ----------------------------------------------------------------------
# Figure 4 — single-core normalized execution time and DRAM energy.
# ----------------------------------------------------------------------
def fig4_jobs(
    hcfg: HarnessConfig, apps: list[str], mechanisms: list[str]
) -> list[SimJob]:
    """One baseline plus one job per (app, mechanism)."""
    jobs = []
    for app in apps:
        jobs.append(single_job(hcfg, app, "none"))
        for mechanism in mechanisms:
            jobs.append(single_job(hcfg, app, mechanism))
    return jobs


def fig4_singlecore(
    hcfg: HarnessConfig,
    app_names: list[str] | None = None,
    mechanisms: list[str] | None = None,
    **execution,
) -> list[dict]:
    """Rows: app, category, mechanism, norm_time, norm_energy."""
    mechanisms = mechanisms or PAPER_MECHANISMS
    apps = app_names or [p.name for p in TABLE8_PROFILES]
    results = run_jobs(fig4_jobs(hcfg, apps, mechanisms), **execution)
    rows = []
    for app in apps:
        profile = next(p for p in TABLE8_PROFILES if p.name == app)
        base = results[single_job(hcfg, app, "none")]
        if not failed(base):
            base_time = base.result.threads[0].finish_time_ns
            base_energy = base.energy.total_j
        for mechanism in mechanisms:
            outcome = results[single_job(hcfg, app, mechanism)]
            if failed(base) or failed(outcome):
                rows.append(
                    {
                        "app": app,
                        "category": profile.category.value,
                        "mechanism": mechanism,
                        "norm_time": None,
                        "norm_energy": None,
                        "bitflips": None,
                    }
                )
                continue
            rows.append(
                {
                    "app": app,
                    "category": profile.category.value,
                    "mechanism": mechanism,
                    "norm_time": outcome.result.threads[0].finish_time_ns / base_time,
                    "norm_energy": outcome.energy.total_j / base_energy,
                    "bitflips": outcome.bitflips,
                }
            )
    return rows


def fig4_group_means(rows: list[dict]) -> list[dict]:
    """Aggregate Figure 4 rows by (category, mechanism).  Failed rows
    (``None`` metrics, from ``on_error="skip"``) are excluded from the
    means and counted in ``failed``."""
    grouped: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        grouped.setdefault((row["category"], row["mechanism"]), []).append(row)
    out = []
    for (category, mechanism), items in sorted(grouped.items()):
        ok = [r for r in items if r["norm_time"] is not None]
        out.append(
            {
                "category": category,
                "mechanism": mechanism,
                "norm_time": _stat(statistics.mean, (r["norm_time"] for r in ok)),
                "norm_energy": _stat(statistics.mean, (r["norm_energy"] for r in ok)),
                "failed": len(items) - len(ok),
            }
        )
    return out


# ----------------------------------------------------------------------
# Figure 5 — multiprogrammed workloads, with and without an attack.
# ----------------------------------------------------------------------
@dataclass
class MixOutcomeRow:
    """One (mix, mechanism) multiprogrammed data point.  Metric fields
    are ``None`` when the point's jobs failed under
    ``on_error="skip"`` (rendered as ``-``)."""

    mix: str
    scenario: str  # "no-attack" | "attack"
    mechanism: str
    metrics: MultiprogramMetrics | None
    norm: MultiprogramMetrics | None  # normalized to the baseline system
    norm_energy: float | None
    bitflips: int | None
    victim_refreshes: int | None


def mix_sweep_jobs(
    hcfg: HarnessConfig,
    mixes: list[WorkloadMix],
    mechanisms: list[str],
) -> list[SimJob]:
    """Jobs for a (mix × mechanism) sweep: the shared baseline run, one
    run per mechanism, and the benign alone-IPC runs
    (:func:`_alone_jobs`), which deduplicate across mixes, scenarios,
    and NRH-sweep call sites batched into one execution."""
    jobs = []
    for mix in mixes:
        jobs.append(mix_job(hcfg, mix, "none"))
        for mechanism in mechanisms:
            jobs.append(mix_job(hcfg, mix, mechanism))
        jobs += _alone_jobs(hcfg, mix).values()
    return jobs


def _alone_jobs(hcfg: HarnessConfig, mix: WorkloadMix) -> dict[int, SimJob]:
    """Each benign slot's alone-IPC job: the slot's app alone on the
    baseline, seeded as that slot, with the mix's row-stripe width and
    the slot's channel pinning, so it replays the mix slot's trace
    bit-exactly."""
    return {
        slot: single_job(
            hcfg,
            app,
            "none",
            slot=slot,
            pinned=mix.pinned_channel(slot),
            threads=len(mix.app_names),
        )
        for slot, app in enumerate(mix.app_names)
        if slot not in mix.attacker_threads
    }


def _benign_ipc_maps(
    hcfg: HarnessConfig,
    mix: WorkloadMix,
    outcome: JobResult,
    results: dict,
) -> tuple[dict[int, float], dict[int, float]]:
    """(shared, alone) IPC maps over the mix's benign threads."""
    alone = {
        slot: results[job].result.threads[0].ipc
        for slot, job in _alone_jobs(hcfg, mix).items()
    }
    shared = {slot: outcome.result.threads[slot].ipc for slot in alone}
    return shared, alone


def _mix_inputs_failed(
    hcfg: HarnessConfig, mix: WorkloadMix, results: dict
) -> bool:
    """Whether the shared inputs of a mix's rows — the baseline run or
    any benign alone-IPC run — are :class:`JobFailure` records."""
    inputs = [mix_job(hcfg, mix, "none"), *_alone_jobs(hcfg, mix).values()]
    return any(failed(results[job]) for job in inputs)


def assemble_mix_rows(
    hcfg: HarnessConfig,
    mixes: list[WorkloadMix],
    mechanisms: list[str],
    scenario: str,
    results: dict,
) -> list[MixOutcomeRow]:
    """Build normalized rows from executed mix-sweep jobs.

    Rows whose inputs failed (the mechanism run itself, or the shared
    baseline/alone runs every row of the mix normalizes against) keep
    their position but carry ``None`` metrics — the ``-`` rows of a
    degraded sweep.
    """
    rows = []
    for mix in mixes:
        shared_failed = _mix_inputs_failed(hcfg, mix, results)
        if not shared_failed:
            base = results[mix_job(hcfg, mix, "none")]
            shared, alone = _benign_ipc_maps(hcfg, mix, base, results)
            base_metrics = compute_metrics(shared, alone)
            base_energy = base.energy.total_j
        for mechanism in mechanisms:
            outcome = results[mix_job(hcfg, mix, mechanism)]
            if shared_failed or failed(outcome):
                rows.append(
                    MixOutcomeRow(
                        mix=mix.name,
                        scenario=scenario,
                        mechanism=mechanism,
                        metrics=None,
                        norm=None,
                        norm_energy=None,
                        bitflips=None,
                        victim_refreshes=None,
                    )
                )
                continue
            shared, alone = _benign_ipc_maps(hcfg, mix, outcome, results)
            metrics = compute_metrics(shared, alone)
            rows.append(
                MixOutcomeRow(
                    mix=mix.name,
                    scenario=scenario,
                    mechanism=mechanism,
                    metrics=metrics,
                    norm=metrics.normalized_to(base_metrics),
                    norm_energy=outcome.energy.total_j / base_energy,
                    bitflips=outcome.bitflips,
                    victim_refreshes=outcome.result.victim_refreshes,
                )
            )
    return rows


def fig5_multicore(
    hcfg: HarnessConfig,
    num_mixes: int = 3,
    mechanisms: list[str] | None = None,
    **execution,
) -> list[MixOutcomeRow]:
    """Both Figure 5 scenarios over ``num_mixes`` mixes each.

    Declared as one job batch so the alone-IPC runs are shared between
    the no-attack and attack scenarios (and across mechanisms), then
    assembled in the fixed scenario order.
    """
    mechanisms = mechanisms or PAPER_MECHANISMS
    benign = benign_mixes(num_mixes)
    attack = attack_mixes(num_mixes)
    jobs = mix_sweep_jobs(hcfg, benign, mechanisms) + mix_sweep_jobs(
        hcfg, attack, mechanisms
    )
    results = run_jobs(jobs, **execution)
    rows = assemble_mix_rows(hcfg, benign, mechanisms, "no-attack", results)
    rows += assemble_mix_rows(hcfg, attack, mechanisms, "attack", results)
    return rows


def summarize_mix_rows(rows: list[MixOutcomeRow]) -> list[dict]:
    """Mean/min/max of normalized metrics by (scenario, mechanism).

    Failed rows (``None`` metrics) are excluded from every statistic and
    counted in ``failed``; a group with no surviving rows reports
    ``None`` throughout.
    """
    grouped: dict[tuple[str, str], list[MixOutcomeRow]] = {}
    for row in rows:
        grouped.setdefault((row.scenario, row.mechanism), []).append(row)
    out = []
    for (scenario, mechanism), items in sorted(grouped.items()):
        ok = [r for r in items if r.norm is not None]
        ws = [r.norm.weighted_speedup for r in ok]
        hs = [r.norm.harmonic_speedup for r in ok]
        ms = [r.norm.maximum_slowdown for r in ok]
        energy = [r.norm_energy for r in ok]
        out.append(
            {
                "scenario": scenario,
                "mechanism": mechanism,
                "norm_ws_mean": _stat(statistics.mean, ws),
                "norm_ws_max": _stat(max, ws),
                "norm_hs_mean": _stat(statistics.mean, hs),
                "norm_ms_mean": _stat(statistics.mean, ms),
                "norm_energy_mean": _stat(statistics.mean, energy),
                "bitflips": sum(r.bitflips for r in ok) if ok else None,
                "failed": len(items) - len(ok),
            }
        )
    return out


# ----------------------------------------------------------------------
# Channel-scaling study (ABACuS-style) with per-channel attribution
# rows (BreakHammer direction).
# ----------------------------------------------------------------------
def _thread_channel_stats(result, channel: int):
    """Per-thread :class:`~repro.mem.controller.ThreadMemStats` on one
    channel.  Single-channel runs report no per-thread channel split —
    their aggregate *is* the per-channel row."""
    if result.num_channels == 1:
        return [t.mem for t in result.threads]
    return [t.mem_per_channel[channel] for t in result.threads]


def assemble_attribution_rows(
    hcfg: HarnessConfig,
    mixes: list[WorkloadMix],
    mechanisms: list[str],
    scenario: str,
    results: dict,
    layout: str = "interleaved",
) -> list[dict]:
    """Per-channel attribution rows from executed mix-sweep jobs, read
    from each mechanism run's per-channel ``telemetry``.

    One row per (mix, mechanism, channel): per-thread RHLI split into
    attacker/benign maxima, blacklist and delay event counts
    (mechanism-side), blocked injections (controller-side throttle
    events, from :class:`~repro.sim.stats.ChannelResult`), and the
    per-thread-per-channel slowdown proxy — each thread's average read
    latency on that channel, normalized to the baseline (``none``) run
    (``None`` where a thread issued no reads on the channel).  Together
    these localize attack pressure to a channel, the data BreakHammer-
    style targeted throttling keys on.
    """
    rows = []
    for mix in mixes:
        attackers = sorted(mix.attacker_threads)
        base = results[mix_job(hcfg, mix, "none")]
        for mechanism in mechanisms:
            outcome = results[mix_job(hcfg, mix, mechanism)]
            if failed(base) or failed(outcome):
                continue  # no per-channel data to attribute
            for channel, telemetry in enumerate(outcome.telemetry):
                mech_stats = _thread_channel_stats(outcome.result, channel)
                base_stats = _thread_channel_stats(base.result, channel)
                slowdowns = [
                    (
                        m.avg_read_latency / b.avg_read_latency
                        if m.read_latency_count and b.read_latency_count
                        else None
                    )
                    for m, b in zip(mech_stats, base_stats)
                ]
                rhli = telemetry.thread_rhli
                benign_slots = [
                    t for t in range(len(mech_stats)) if t not in mix.attacker_threads
                ]
                blocked = [m.blocked_injections for m in mech_stats]
                rows.append(
                    {
                        "channels": hcfg.base_spec.channels,
                        "layout": layout,
                        "scenario": scenario,
                        "mix": mix.name,
                        "mechanism": mechanism,
                        "channel": channel,
                        "attacker_rhli": (
                            _stat(max, (rhli[t] for t in attackers))
                            if rhli is not None
                            else None
                        ),
                        "benign_rhli_max": (
                            _stat(max, (rhli[t] for t in benign_slots))
                            if rhli is not None
                            else None
                        ),
                        "blacklisted_acts": telemetry.blacklisted_acts,
                        "total_acts": telemetry.total_acts,
                        "delayed_acts": telemetry.delayed_acts,
                        "false_positive_acts": telemetry.false_positive_acts,
                        "blocked_injections": outcome.result.channels[
                            channel
                        ].blocked_injections,
                        "attacker_blocked_injections": sum(
                            blocked[t] for t in attackers
                        ),
                        "attacker_slowdown": _stat(
                            max,
                            (s for t, s in enumerate(slowdowns)
                             if t in mix.attacker_threads and s is not None),
                        ),
                        "benign_slowdown_max": _stat(
                            max,
                            (s for t, s in enumerate(slowdowns)
                             if t not in mix.attacker_threads and s is not None),
                        ),
                        "thread_slowdown": slowdowns,
                    }
                )
    return rows


def _with_channels(hcfg: HarnessConfig, channels: int) -> HarnessConfig:
    """``hcfg`` at one channel-count sweep point."""
    return dataclass_replace(hcfg, base_spec=hcfg.base_spec.with_channels(channels))


def _point_layouts(channels: int, layouts: list) -> list:
    """Layouts actually simulated at one channel-count point: pinned
    mixes degenerate record-for-record to the interleaved traces on a
    single channel (every slot mods to channel 0), so the pinned layout
    would only duplicate every simulation there — skip it."""
    return [entry for entry in layouts if channels > 1 or entry[0] == "interleaved"]


def channel_scaling_jobs(
    hcfg: HarnessConfig,
    channel_counts: tuple[int, ...],
    layouts: list[tuple[str, list[WorkloadMix], list[WorkloadMix]]],
    mechanisms: list[str],
) -> list[SimJob]:
    """One job batch covering every (channel count × layout) sweep
    point.  Each job carries its per-point configuration, so the
    batch dedups anything shared in-process and the persistent result
    cache dedups across runs: re-running the sweep is fully warm, and a
    one-channel fig5 sweep of the same configuration already on disk
    serves every job of this driver's single-channel point."""
    jobs: list[SimJob] = []
    for channels in channel_counts:
        point = _with_channels(hcfg, channels)
        for _, benign, attack in _point_layouts(channels, layouts):
            jobs += mix_sweep_jobs(point, benign, mechanisms)
            jobs += mix_sweep_jobs(point, attack, mechanisms)
    return jobs


def channel_scaling(
    hcfg: HarnessConfig,
    channel_counts: tuple[int, ...] = (1, 2, 4),
    num_mixes: int = 1,
    mechanisms: list[str] | None = None,
    include_pinned: bool = False,
    **execution,
) -> dict:
    """The channel-scaling study: the Figure 5 sweep repeated at each
    channel count (ABACuS-style scaling axis), with per-channel
    attribution rows.

    ``include_pinned`` additionally runs the channel-affine variant of
    every mix (slot *k* pinned to channel *k*, the attacker confined to
    channel 0) next to the interleaved layout, so pinned-vs-interleaved
    contention and attribution can be compared point for point.  At a
    1-channel point the pinned traces degenerate to the interleaved
    ones record for record, so the pinned layout is skipped there
    rather than re-simulated (no ``layout="pinned"`` rows at
    ``channels=1``).

    Returns ``{"summary", "attribution", "mix_rows"}``:

    * ``summary`` — :func:`summarize_mix_rows` dicts annotated with
      ``channels`` and ``layout``;
    * ``attribution`` — :func:`assemble_attribution_rows` dicts (one
      per mix × mechanism × channel);
    * ``mix_rows`` — ``{"channels", "layout", "row": MixOutcomeRow}``
      per (mix, mechanism) point; the single-channel interleaved rows
      are bit-identical to a plain :func:`fig5_multicore` run of the
      same configuration (pinned by the golden-fixture tests).
    """
    mechanisms = mechanisms or PAPER_MECHANISMS
    benign = benign_mixes(num_mixes)
    attack = attack_mixes(num_mixes)
    layouts = [("interleaved", benign, attack)]
    if include_pinned:
        layouts.append(
            ("pinned", [m.pinned() for m in benign], [m.pinned() for m in attack])
        )
    jobs = channel_scaling_jobs(hcfg, tuple(channel_counts), layouts, mechanisms)
    results = run_jobs(jobs, **execution)

    summary: list[dict] = []
    attribution: list[dict] = []
    mix_rows: list[dict] = []
    for channels in channel_counts:
        point = _with_channels(hcfg, channels)
        for layout, layout_benign, layout_attack in _point_layouts(channels, layouts):
            rows = assemble_mix_rows(point, layout_benign, mechanisms, "no-attack", results)
            rows += assemble_mix_rows(point, layout_attack, mechanisms, "attack", results)
            mix_rows += [
                {"channels": channels, "layout": layout, "row": row} for row in rows
            ]
            for item in summarize_mix_rows(rows):
                item["channels"] = channels
                item["layout"] = layout
                summary.append(item)
            attribution += assemble_attribution_rows(
                point, layout_benign, mechanisms, "no-attack", results, layout
            )
            attribution += assemble_attribution_rows(
                point, layout_attack, mechanisms, "attack", results, layout
            )
    return {"summary": summary, "attribution": attribution, "mix_rows": mix_rows}


# ----------------------------------------------------------------------
# OS governor policy comparison (ossweep): the BreakHammer direction —
# does a software response above the mitigation recover benign
# performance while containing the attacker?
# ----------------------------------------------------------------------
#: The sweep's policy points.  ``none`` is the no-governor control; the
#: three governor specs review every 10 us (an OS polling the Section
#: 3.2.3 RHLI interface; several reviews within even short runs).
#: Thresholds are calibrated to the scaled harness: benign threads sit
#: at RHLI exactly 0 while a throttled attacker's *per-epoch* RHLI
#: still reads a few percent (the rotating counters clear each epoch),
#: so a small positive threshold separates them cleanly — the same
#: regime the kill-policy tests in ``tests/test_os_governor.py`` use.
OS_SWEEP_POLICIES: dict[str, GovernorSpec | None] = {
    "none": None,
    "kill": GovernorSpec(
        policy="kill", epoch_ns=10_000.0, threshold=0.02, patience_epochs=1
    ),
    "quota": GovernorSpec(policy="quota", epoch_ns=10_000.0, threshold=0.02),
    "migrate": GovernorSpec(
        policy="migrate", epoch_ns=10_000.0, threshold=0.02, patience_epochs=1
    ),
}

#: Default mechanism axis: full-functional BlockHammer (hardware
#: throttling + OS response) next to observe-only BlockHammer, where
#: the hardware never interferes and the *governor alone* must contain
#: the attack — the starkest software-response comparison.  Reactive
#: baselines (graphene, para, …) are accepted too and degrade
#: gracefully: with no RHLI telemetry and no throttle pressure the
#: governor simply never fires.
OS_SWEEP_MECHANISMS = ["blockhammer", "blockhammer-observe"]


def os_sweep_jobs(
    hcfg: HarnessConfig,
    mixes: list[WorkloadMix],
    mechanisms: list[str],
    policies: list[str],
) -> list[SimJob]:
    """One job per (mix × mechanism × policy); the ``none`` policy rows
    double as the no-governor baselines the slowdown column normalizes
    against, so they are declared whether or not requested."""
    return [
        mix_job(hcfg, mix, mechanism, governor=OS_SWEEP_POLICIES[policy])
        for mix in mixes
        for mechanism in mechanisms
        for policy in dict.fromkeys(["none", *policies])
    ]


def os_policy_sweep(
    hcfg: HarnessConfig,
    num_mixes: int = 1,
    mechanisms: list[str] | None = None,
    policies: list[str] | None = None,
    **execution,
) -> list[dict]:
    """Compare OS governor policies over attack mixes.

    One row per (mix × mechanism × policy): mean/max benign slowdown
    relative to the same mechanism *without* a governor (values < 1
    mean the policy recovered benign performance, the BreakHammer
    claim), end-of-run attacker RHLI (max over attacker threads and
    channels; ``None`` for mechanisms without RHLI tracking), attacker
    memory-request volume, the governor's action counts, and bit-flips.

    Benign slowdown is computed over benign threads that still ran
    (``ipc > 0``); ``benign_killed`` counts benign threads the
    governor descheduled — a policy false positive — so a kill-happy
    policy cannot launder dead benign work out of the headline metric
    unnoticed.
    """
    mechanisms = mechanisms or OS_SWEEP_MECHANISMS
    policies = list(policies) if policies is not None else list(OS_SWEEP_POLICIES)
    for policy in policies:
        require(
            policy in OS_SWEEP_POLICIES,
            f"unknown OS policy {policy!r}; known: "
            f"{', '.join(OS_SWEEP_POLICIES)}",
        )
    mixes = attack_mixes(num_mixes)
    jobs = os_sweep_jobs(hcfg, mixes, mechanisms, policies)
    results = run_jobs(jobs, **execution)
    rows = []
    for mix in mixes:
        attackers = sorted(mix.attacker_threads)
        benign = [
            slot
            for slot in range(len(mix.app_names))
            if slot not in mix.attacker_threads
        ]
        for mechanism in mechanisms:
            base = results[mix_job(hcfg, mix, mechanism, governor=None)]
            if not failed(base):
                base_ipc = {slot: base.result.threads[slot].ipc for slot in benign}
            for policy in policies:
                spec = OS_SWEEP_POLICIES[policy]
                outcome = results[mix_job(hcfg, mix, mechanism, governor=spec)]
                if failed(base) or failed(outcome):
                    rows.append(
                        {
                            "mix": mix.name,
                            "mechanism": mechanism,
                            "policy": policy,
                            "benign_slowdown_mean": None,
                            "benign_slowdown_max": None,
                            "attacker_rhli": None,
                            "attacker_requests": None,
                            "governor_epochs": None,
                            "kills": None,
                            "benign_killed": None,
                            "migrations": None,
                            "quota_updates": None,
                            "bitflips": None,
                        }
                    )
                    continue
                rhli = max_thread_rhli(outcome.telemetry, len(mix.app_names))
                actions = outcome.governor_actions
                killed = (
                    {thread for thread, _ in actions["kills"]} if actions else set()
                )
                slowdowns = [
                    base_ipc[slot] / outcome.result.threads[slot].ipc
                    for slot in benign
                    if outcome.result.threads[slot].ipc > 0.0
                ]
                rows.append(
                    {
                        "mix": mix.name,
                        "mechanism": mechanism,
                        "policy": policy,
                        "benign_slowdown_mean": _stat(statistics.mean, slowdowns),
                        "benign_slowdown_max": _stat(max, slowdowns),
                        "attacker_rhli": _stat(
                            max,
                            (rhli[t] for t in attackers if rhli[t] is not None),
                        ),
                        "attacker_requests": sum(
                            outcome.result.threads[t].mem.accesses
                            for t in attackers
                        ),
                        "governor_epochs": actions["epochs"] if actions else 0,
                        "kills": len(actions["kills"]) if actions else 0,
                        "benign_killed": sum(
                            1 for slot in benign if slot in killed
                        ),
                        "migrations": len(actions["migrations"]) if actions else 0,
                        "quota_updates": (
                            actions["quota_updates"] if actions else 0
                        ),
                        "bitflips": outcome.bitflips,
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Figure 6 — scaling with worsening RowHammer vulnerability.
# ----------------------------------------------------------------------
FIG6_MECHANISMS = ["para", "twice", "graphene", "blockhammer"]


def fig6_scaling(
    hcfg: HarnessConfig,
    paper_nrh_values: list[int],
    num_mixes: int = 2,
    mechanisms: list[str] | None = None,
    **execution,
) -> list[dict]:
    """Figure 6: normalized metrics vs NRH, both scenarios.

    All NRH points are declared into a single job batch, so a parallel
    run fans out across the whole (NRH × mix × scenario × mechanism)
    grid at once.
    """
    mechanisms = mechanisms or FIG6_MECHANISMS
    benign = benign_mixes(num_mixes)
    attack = attack_mixes(num_mixes)
    points = [(paper_nrh, hcfg.with_nrh(paper_nrh)) for paper_nrh in paper_nrh_values]
    jobs: list[SimJob] = []
    for _, nrh_cfg in points:
        jobs += mix_sweep_jobs(nrh_cfg, benign, mechanisms)
        jobs += mix_sweep_jobs(nrh_cfg, attack, mechanisms)
    results = run_jobs(jobs, **execution)
    out = []
    for paper_nrh, nrh_cfg in points:
        rows = assemble_mix_rows(nrh_cfg, benign, mechanisms, "no-attack", results)
        rows += assemble_mix_rows(nrh_cfg, attack, mechanisms, "attack", results)
        for summary in summarize_mix_rows(rows):
            summary["paper_nrh"] = paper_nrh
            out.append(summary)
    return out


# ----------------------------------------------------------------------
# Section 3.2.1 — RHLI of benign vs attack threads.
# ----------------------------------------------------------------------
def rhli_experiment(
    hcfg: HarnessConfig,
    num_mixes: int = 2,
    mixes: list[WorkloadMix] | None = None,
    **execution,
) -> list[dict]:
    """RHLI statistics in observe-only and full-functional modes.

    ``mixes`` overrides the default attack mixes (e.g. benign-only or
    single-thread mixes).  Statistics whose population is empty — no
    attacker threads in benign-only mixes, no benign threads in a
    one-thread attack mix — report ``None`` instead of raising.
    """
    modes = ("blockhammer-observe", "blockhammer")
    mixes = mixes if mixes is not None else attack_mixes(num_mixes)
    jobs = [mix_job(hcfg, mix, mode) for mode in modes for mix in mixes]
    results = run_jobs(jobs, **execution)
    rows = []
    for mode in modes:
        attacker_rhli = []
        benign_rhli = []
        for mix in mixes:
            entry = results[mix_job(hcfg, mix, mode)]
            if failed(entry):
                continue  # excluded from the mode's statistics
            rhli = max_thread_rhli(entry.telemetry, len(mix.app_names))
            for slot in range(len(mix.app_names)):
                if slot in mix.attacker_threads:
                    attacker_rhli.append(rhli[slot])
                else:
                    benign_rhli.append(rhli[slot])
        rows.append(
            {
                "mode": mode,
                "attacker_rhli_mean": _stat(statistics.mean, attacker_rhli),
                "attacker_rhli_max": _stat(max, attacker_rhli),
                "attacker_rhli_min": _stat(min, attacker_rhli),
                "benign_rhli_max": _stat(max, benign_rhli),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Section 8.4 — false positives and delay distribution.
# ----------------------------------------------------------------------
def sec84_internals(
    hcfg: HarnessConfig,
    num_mixes: int = 2,
    **execution,
) -> dict:
    """BlockHammer's false-positive rate and delay percentiles over
    benign multiprogrammed workloads, next to the tDelay bound of the
    configuration BlockHammer derives for ``hcfg``."""
    mixes = benign_mixes(num_mixes)
    jobs = [mix_job(hcfg, mix, "blockhammer") for mix in mixes]
    results = run_jobs(jobs, **execution)
    total_acts = 0
    fp_acts = 0
    delays: list[float] = []
    for mix in mixes:
        entry = results[mix_job(hcfg, mix, "blockhammer")]
        if failed(entry):
            continue  # excluded from the aggregate statistics
        counters = sum_counters(entry.telemetry)
        total_acts += counters["total_acts"]
        fp_acts += counters["false_positive_acts"]
        for telemetry in entry.telemetry:
            delays.extend(telemetry.false_positive_delays_ns)
    delays.sort()
    config = BlockHammerConfig.for_nrh(
        hcfg.sim_nrh,
        hcfg.spec(),
        blast_radius=hcfg.blast_radius,
        blast_decay=hcfg.blast_decay,
    )

    def pct(p: float) -> float:
        if not delays:
            return 0.0
        return delays[min(len(delays) - 1, int(p / 100.0 * len(delays)))]

    return {
        "total_acts": total_acts,
        "false_positive_acts": fp_acts,
        "false_positive_rate": fp_acts / total_acts if total_acts else 0.0,
        "fp_delay_p50_ns": pct(50),
        "fp_delay_p90_ns": pct(90),
        "fp_delay_p100_ns": delays[-1] if delays else 0.0,
        "t_delay_ns": config.t_delay_ns,
    }


# ----------------------------------------------------------------------
# Table 8 — workload calibration.
# ----------------------------------------------------------------------
def table8_calibration(
    hcfg: HarnessConfig,
    app_names: list[str] | None = None,
    **execution,
) -> list[dict]:
    """Measured vs target MPKI/RBCPKI for the benign generator."""
    apps = app_names or [p.name for p in TABLE8_PROFILES]
    jobs = [single_job(hcfg, app, "none") for app in apps]
    results = run_jobs(jobs, **execution)
    rows = []
    for app in apps:
        profile = next(p for p in TABLE8_PROFILES if p.name == app)
        entry = results[single_job(hcfg, app, "none")]
        thread = None if failed(entry) else entry.result.threads[0]
        rows.append(
            {
                "app": app,
                "category": profile.category.value,
                "target_mpki": profile.mpki,
                "measured_mpki": None if thread is None else thread.mpki,
                "target_rbcpki": profile.rbcpki,
                "measured_rbcpki": None if thread is None else thread.rbcpki,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Row-mapping ablation (ours): reactive refresh vs scrambled mapping.
# ----------------------------------------------------------------------
def rowmap_ablation(
    hcfg: HarnessConfig, mechanisms: list[str] | None = None, **execution
) -> list[dict]:
    """Attack outcomes when the in-DRAM mapping is scrambled, with each
    reactive mechanism given the true mapping (vendor knowledge) or
    assuming a linear one (the Section 2.3 challenge).

    Under a scrambled mapping the two "double-sided" aggressors land on
    unrelated physical rows, so each hammers its own physical neighbors
    single-sided and needs twice the activations to flip a bit; each job
    (:meth:`~repro.harness.runner.Runner.run_ablation`) therefore runs
    for a fixed simulated duration long enough for the unprotected attack
    to succeed.  A ``none`` row is always included to establish that the
    attack is effective.  One job per (mechanism, assumption): the
    assumption is ``HarnessConfig.assumed_rowmap_kind``.
    """
    mechanisms = mechanisms or ["graphene", "para", "blockhammer"]
    # Duration: a single-sided aggressor at the tFAW-bound per-row rate
    # needs NRH_sim activations; triple that for scheduling slack.
    spec = hcfg.spec()
    per_row_rate = 4.0 / spec.tFAW / (2 * spec.banks_per_rank)
    scrambled = dataclass_replace(
        hcfg,
        rowmap_kind="scrambled",
        max_time_ns=3.0 * hcfg.sim_nrh / per_row_rate,
        warmup_ns=0.0,
    )
    # (mechanism, adjacency label, assumed row-map kind)
    cases = [("none", "n/a", None)] + [
        (mechanism, label, assumed)
        for mechanism in mechanisms
        for label, assumed in (("true", None), ("assumed-linear", "linear"))
    ]
    jobs = [
        ablation_job(dataclass_replace(scrambled, assumed_rowmap_kind=assumed), mechanism)
        for mechanism, _, assumed in cases
    ]
    results = run_jobs(jobs, **execution)
    rows = []
    for (mechanism, label, _), job in zip(cases, jobs):
        entry = None if failed(results[job]) else results[job]
        rows.append(
            {
                "mechanism": mechanism,
                "adjacency": label,
                "bitflips": None if entry is None else entry.bitflips,
                "victim_refreshes": None if entry is None else entry.result.victim_refreshes,
            }
        )
    return rows
