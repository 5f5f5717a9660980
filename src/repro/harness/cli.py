"""Command-line experiment runner.

Usage::

    python -m repro.harness.cli table1
    python -m repro.harness.cli security
    python -m repro.harness.cli fig5 --mixes 2 --scale 128
    python -m repro.harness.cli chansweep --channel-sweep 1,2,4 --pinned
    python -m repro.harness.cli ossweep --policies kill quota migrate
    python -m repro.harness.cli rhli
    python -m repro.harness.cli table4

Each subcommand regenerates one paper table/figure and prints it; the
benchmarks under ``benchmarks/`` run the same drivers with assertions.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import BlockHammerConfig
from repro.dram.spec import DDR4_2400
from repro.harness import experiments
from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.harness.parallel import SweepReport, failed, mix_job, run_jobs
from repro.harness.reporting import (
    format_attribution,
    format_channel_summary,
    format_os_policy,
    format_sweep_report,
    format_table,
    round_or_none,
)
from repro.harness.retry import DEFAULT_RETRIES, ON_ERROR_MODES, ExecPolicy
from repro.harness.runner import HarnessConfig
from repro.hwcost.mechanisms import table4_rows
from repro.mitigations.registry import available_mitigations
from repro.obs import ObsConfig, write_perfetto
from repro.obs.metrics import write_csv
from repro.obs.profile import format_profile_breakdown, write_report_json
from repro.security.solver import prove_safety
from repro.workloads.mixes import attack_mixes


def _hcfg(args, default_channels: int = 1) -> HarnessConfig:
    channels = default_channels if args.channels is None else args.channels
    return HarnessConfig(
        scale=args.scale,
        paper_nrh=args.nrh,
        base_spec=DDR4_2400.with_channels(channels),
        instructions_per_thread=args.instructions,
        warmup_ns=args.warmup_us * 1000.0,
    )


def _execution(args, report: SweepReport) -> dict:
    """The ``run_jobs`` keywords every sweep command forwards to its
    driver: one policy, the result cache when a cache flag is given,
    and the caller's report."""
    cache = None
    if args.cache or args.cache_dir or args.cache_max_entries is not None:
        cache = ResultCache(
            args.cache_dir or DEFAULT_CACHE_DIR, max_entries=args.cache_max_entries
        )
    return {
        "workers": args.workers,
        "cache": cache,
        "policy": ExecPolicy(
            attempts=args.retries + 1,
            job_timeout_s=args.job_timeout,
            on_error=args.on_error,
        ),
        "report": report,
        "progress": args.progress,
    }


def cmd_table1(args, execution) -> str:
    cfg = BlockHammerConfig.for_nrh(args.nrh)
    return format_table(["parameter", "value"], list(cfg.summary().items()))


def cmd_security(args, execution) -> str:
    rows = []
    for nrh in (32768, 16384, 8192, 4096, 2048, 1024):
        proof = prove_safety(BlockHammerConfig.for_nrh(nrh))
        rows.append(
            [
                nrh,
                int(proof.nrh_star),
                round(proof.lp_max_activations),
                round(proof.fast_delayed_max),
                "SAFE" if proof.safe else "UNSAFE",
            ]
        )
    return format_table(["NRH", "NRH*", "LP max", "window bound", "verdict"], rows)


def cmd_table4(args, execution) -> str:
    rows = [
        [
            c.name,
            c.nrh,
            round(c.sram_kb, 2),
            round(c.cam_kb, 2),
            round(c.total_area_mm2, 3),
            round(c.access_energy_pj, 1),
            round(c.static_power_mw, 1),
        ]
        for c in table4_rows()
    ]
    return format_table(
        ["mechanism", "NRH", "SRAM KB", "CAM KB", "mm2", "pJ", "mW"], rows
    )


def cmd_fig4(args, execution) -> str:
    rows = experiments.fig4_singlecore(
        _hcfg(args), args.apps, args.mechanisms, **execution
    )
    means = experiments.fig4_group_means(rows)
    return format_table(
        ["category", "mechanism", "norm time", "norm energy"],
        [
            [
                m["category"],
                m["mechanism"],
                round_or_none(m["norm_time"], 4),
                round_or_none(m["norm_energy"], 4),
            ]
            for m in means
        ],
    )


def cmd_fig5(args, execution) -> str:
    rows = experiments.fig5_multicore(
        _hcfg(args),
        num_mixes=args.mixes,
        mechanisms=args.mechanisms,
        **execution,
    )
    summary = experiments.summarize_mix_rows(rows)
    return format_table(
        ["scenario", "mechanism", "WS", "HS", "MS", "energy", "flips"],
        [
            [
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


def cmd_rhli(args, execution) -> str:
    rows = experiments.rhli_experiment(_hcfg(args), num_mixes=args.mixes, **execution)

    return format_table(
        ["mode", "attacker mean", "attacker max", "benign max"],
        [
            [
                r["mode"],
                round_or_none(r["attacker_rhli_mean"], 2),
                round_or_none(r["attacker_rhli_max"], 2),
                round_or_none(r["benign_rhli_max"], 4),
            ]
            for r in rows
        ],
    )


def cmd_chansweep(args, execution) -> str:
    """Channel-scaling study: fig5-style sweep at each channel count,
    plus per-channel attribution rows."""
    data = experiments.channel_scaling(
        _hcfg(args),
        channel_counts=tuple(args.channel_sweep),
        num_mixes=args.mixes,
        mechanisms=args.mechanisms,
        include_pinned=args.pinned,
        **execution,
    )
    return "\n".join(
        [
            format_channel_summary(data["summary"]),
            "",
            "per-channel attribution (RHLI / blacklist / throttle events):",
            format_attribution(data["attribution"]),
        ]
    )


def cmd_ossweep(args, execution) -> str:
    """OS governor policy comparison: {no-governor, kill, quota,
    migrate} × mechanisms over attack mixes, with benign slowdown
    (vs the ungoverned run) and attacker RHLI per policy."""
    # Channel migration needs somewhere to migrate *to*: default to two
    # channels unless the user pinned a count explicitly.
    hcfg = _hcfg(args, default_channels=2)
    rows = experiments.os_policy_sweep(
        hcfg,
        num_mixes=args.mixes,
        mechanisms=args.mechanisms,
        policies=args.policies,
        **execution,
    )
    return format_os_policy(rows)


def cmd_table8(args, execution) -> str:
    rows = experiments.table8_calibration(_hcfg(args), args.apps, **execution)
    return format_table(
        ["app", "cat", "MPKI target", "MPKI", "RBCPKI target", "RBCPKI"],
        [
            [
                r["app"],
                r["category"],
                r["target_mpki"],
                round_or_none(r["measured_mpki"], 2),
                r["target_rbcpki"],
                round_or_none(r["measured_rbcpki"], 2),
            ]
            for r in rows
        ],
    )


def cmd_trace(args, execution) -> str:
    """Run one attack-mix scenario with tracing and epoch metrics on,
    writing a Perfetto ``trace_event`` JSON and a tidy metrics CSV.  It
    is a one-job sweep, so the pool, cache, retry and report flags apply."""
    mechanism = args.mechanisms[0] if args.mechanisms else "blockhammer"
    mix = attack_mixes(1)[0]
    obs = ObsConfig(
        trace=True,
        trace_limit=args.trace_limit,
        metrics=True,
        metrics_epoch_ns=args.metrics_epoch_ns,
    )
    job = mix_job(_hcfg(args), mix, mechanism, obs=obs)
    entry = run_jobs([job], **execution)[job]
    if failed(entry):
        return f"trace job failed ({entry.kind}): {entry.error}; nothing written"
    record = entry.obs_record
    document = write_perfetto(args.trace_out, record["events"], record["measure_start"])
    metric_rows = write_csv(args.metrics_out, record["metric_rows"])
    return format_table(
        ["key", "value"],
        [
            ["mechanism", mechanism],
            ["mix", mix.name],
            ["trace events", len(record["events"])],
            ["dropped", record["dropped"]],
            ["perfetto events", len(document["traceEvents"])],
            ["metric rows", metric_rows],
            ["victim refreshes", entry.result.victim_refreshes],
            ["trace file", args.trace_out],
            ["metrics file", args.metrics_out],
        ],
    )


_COMMANDS = {
    "table1": cmd_table1,
    "security": cmd_security,
    "table4": cmd_table4,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "chansweep": cmd_chansweep,
    "ossweep": cmd_ossweep,
    "rhli": cmd_rhli,
    "table8": cmd_table8,
    "trace": cmd_trace,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate BlockHammer paper tables and figures.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--scale", type=float, default=128.0, help="tREFW shrink factor")
    parser.add_argument("--nrh", type=int, default=32768, help="paper-scale NRH")
    parser.add_argument(
        "--mixes", type=_positive_int, default=1, help="mixes per scenario"
    )
    parser.add_argument(
        "--instructions", type=int, default=80_000, help="benign instructions per thread"
    )
    parser.add_argument("--warmup-us", type=float, default=50.0, help="warmup time (us)")
    parser.add_argument(
        "--apps", nargs="*", default=None, help="application subset (default: all)"
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="simulation worker processes (default: serial)",
    )
    parser.add_argument(
        "--channels",
        type=_positive_int,
        default=None,
        help="memory channels, one controller + mitigation instance each "
        "(default: 1; ossweep: 2)",
    )
    parser.add_argument(
        "--channel-sweep",
        type=_channel_list,
        default=[1, 2, 4],
        help="comma-separated channel counts for the chansweep command "
        "(default: 1,2,4)",
    )
    parser.add_argument(
        "--mechanisms",
        nargs="+",
        choices=available_mitigations(),
        metavar="MECHANISM",
        default=None,
        help="mechanism subset for the fig4/fig5/chansweep/ossweep sweeps; "
        "trace runs the first one (default: all paper mechanisms for the "
        "figure sweeps, blockhammer+blockhammer-observe for ossweep, "
        "blockhammer for trace; known: "
        f"{', '.join(available_mitigations())})",
    )
    parser.add_argument(
        "--policies",
        nargs="+",
        choices=sorted(experiments.OS_SWEEP_POLICIES),
        metavar="POLICY",
        default=None,
        help="OS governor policies for the ossweep command (default: "
        f"all; known: {', '.join(experiments.OS_SWEEP_POLICIES)})",
    )
    parser.add_argument(
        "--pinned",
        action="store_true",
        help="chansweep: also run channel-affine (pinned) variants of "
        "every mix, with the attacker confined to channel 0",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help=f"reuse cached results from {DEFAULT_CACHE_DIR}/",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (implies --cache)",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=_positive_int,
        default=None,
        help="LRU cap on stored cache entries; oldest-used entries beyond "
        "the cap are evicted after each store (implies --cache)",
    )
    parser.add_argument(
        "--retries",
        type=_non_negative_int,
        default=DEFAULT_RETRIES,
        help="retries per job after the first attempt, with bounded "
        "exponential backoff; retried jobs are bit-identical "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--job-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout on the pool path: the worker is "
        "killed and the job re-enters the retry ladder (default: none)",
    )
    parser.add_argument(
        "--on-error",
        choices=ON_ERROR_MODES,
        default="raise",
        help="disposition for jobs that exhaust their retries: 'raise' "
        "aborts the sweep (completed jobs stay checkpointed in the "
        "cache), 'skip' renders them as '-' rows (default: %(default)s)",
    )
    parser.add_argument(
        "--trace-out",
        default="trace.json",
        help="trace command: Perfetto trace_event JSON output path",
    )
    parser.add_argument(
        "--metrics-out",
        default="metrics.csv",
        help="trace command: epoch-metrics CSV output path",
    )
    parser.add_argument(
        "--trace-limit",
        type=_positive_int,
        default=500_000,
        help="trace command: ring-buffer bound on retained trace events "
        "(oldest events drop beyond it; the report counts drops)",
    )
    parser.add_argument(
        "--metrics-epoch-ns",
        type=_positive_float,
        default=None,
        help="trace command: metrics sampling period in ns (default: the "
        "mechanism's epoch, else half the refresh window)",
    )
    parser.add_argument(
        "--report-json",
        default=None,
        metavar="PATH",
        help="write the sweep execution report (counters, failures, "
        "per-job wall-clock/throughput profiles) as JSON to PATH",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream one line per completed/cached/failed job to stderr "
        "and print the sweep report (jobs, retries, timeouts, crashes, "
        "failures) when the command finishes",
    )
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _channel_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("must be comma-separated integers") from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("channel counts must be >= 1")
    if len(set(values)) != len(values):
        # A duplicated point would duplicate every output row (the
        # equal simulations themselves run once).
        raise argparse.ArgumentTypeError("channel counts must be distinct")
    return values


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report = SweepReport()  # total == 0 afterwards: no sweep ran
    print(_COMMANDS[args.command](args, _execution(args, report)))
    if args.progress and report.total:
        print(format_sweep_report(report), file=sys.stderr)
        breakdown = format_profile_breakdown(report)
        if breakdown:
            print(breakdown, file=sys.stderr)
    if args.report_json:
        if report.total:
            write_report_json(report, args.report_json)
        else:
            print(
                f"--report-json: no sweep ran; {args.report_json} not written",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    raise SystemExit(main())
