"""Wall-clock speed benchmark: the canonical Figure 5 sweep, cold and warm.

Measures three things and emits ``BENCH_speed.json`` at the repo root:

1. **Canonical Figure 5 sweep** — ``fig5_multicore`` over
   ``--mixes`` mixes per scenario and all paper mechanisms, run
   serially (``workers=1``) and through the process-pool executor
   (``--workers``, default 4).  The two runs must produce *identical*
   rows; the JSON records both times and their ratio.
2. **Cached re-run** — the same sweep through the persistent result
   cache (throwaway directory): a cold run that stores every job, then
   a warm run that must perform **zero** simulations and reproduce the
   rows exactly.
3. **Channel-scaling sweep** — the ``channel_scaling`` driver over
   channels {1, 2, 4} (one mix per scenario, BlockHammer), cold through
   a throwaway result cache and warm again: the warm run must perform
   zero simulations while reproducing the summary/attribution rows
   exactly.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_speed.py
    PYTHONPATH=src python benchmarks/bench_speed.py --mixes 1 --out /tmp/speed.json

The hot loop is gated by ``scripts/perf_guard.py`` (exact layer counts
plus a parent-vs-change CPU A/B), not by these wall-clock numbers.
``CANONICAL`` and ``provenance`` are shared with ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_speed.json"

#: Canonical benchmark configuration (kept small enough to finish in
#: minutes on one core while exercising every hot path).
CANONICAL = {
    "scale": 128.0,
    "paper_nrh": 32768,
    "instructions_per_thread": 20_000,
    "warmup_ns": 20_000.0,
}


def _hcfg():
    from repro.harness.runner import HarnessConfig

    return HarnessConfig(**CANONICAL)


def provenance() -> dict:
    """Where and how this report was produced: numbers in
    ``BENCH_speed.json`` are only comparable across commits when the
    interpreter and host class match, so stamp them."""
    import platform

    head = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": head.stdout.strip() or None,
    }


def measure_sweep(num_mixes: int, **execution):
    """(elapsed seconds, rows) for the canonical Fig. 5 sweep;
    ``execution`` is forwarded to ``run_jobs``."""
    from repro.harness.experiments import fig5_multicore

    start = time.perf_counter()
    rows = fig5_multicore(_hcfg(), num_mixes, None, **execution)
    return time.perf_counter() - start, rows


def measure_cached_rerun(num_mixes: int, reference_rows):
    """Cold-store then warm-hit sweep through the persistent result
    cache (a throwaway directory): the warm run must perform zero
    simulations and reproduce the reference rows exactly."""
    import shutil
    import tempfile

    from repro.harness.cache import ResultCache
    from repro.harness.parallel import SweepReport

    cache_dir = tempfile.mkdtemp(prefix="bench-repro-cache-")
    try:
        cache = ResultCache(cache_dir)
        cold_s, cold_rows = measure_sweep(num_mixes, workers=1, cache=cache)
        warm = SweepReport()
        warm_s, warm_rows = measure_sweep(
            num_mixes, workers=1, cache=cache, report=warm
        )
        warm_sims = warm.executed
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    # warm_s stays unrounded so speedup ratios are computed from the
    # true elapsed time; the report rounds display fields only.
    return {
        "cold_store_s": round(cold_s, 2),
        "warm_s": warm_s,
        "warm_simulations_executed": warm_sims,
        "rows_identical": cold_rows == warm_rows == reference_rows,
    }


def measure_channel_sweep(channel_counts=(1, 2, 4)):
    """Cold-store then warm-replay the channel-scaling study through a
    throwaway result cache; the warm run must perform zero simulations
    and reproduce the rows exactly."""
    import shutil
    import tempfile

    from repro.harness.cache import ResultCache
    from repro.harness.experiments import channel_scaling
    from repro.harness.parallel import SweepReport

    cache_dir = tempfile.mkdtemp(prefix="bench-repro-chansweep-")
    kwargs = dict(
        channel_counts=tuple(channel_counts),
        num_mixes=1,
        mechanisms=["blockhammer"],
        workers=1,
    )
    try:
        cache = ResultCache(cache_dir)
        start = time.perf_counter()
        cold = channel_scaling(_hcfg(), cache=cache, **kwargs)
        cold_s = time.perf_counter() - start
        report = SweepReport()
        start = time.perf_counter()
        warm = channel_scaling(_hcfg(), cache=cache, report=report, **kwargs)
        warm_s = time.perf_counter() - start
        warm_sims = report.executed
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "channel_counts": list(channel_counts),
        "cold_store_s": round(cold_s, 2),
        "warm_s": round(warm_s, 4),
        "warm_simulations_executed": warm_sims,
        "rows_identical": warm == cold,
        "attribution_rows": len(cold["attribution"]),
    }


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--mixes", type=int, default=2, help="mixes per scenario")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    print(f"canonical fig5 sweep: {args.mixes} mixes/scenario, all paper mechanisms")
    serial_s, serial_rows = measure_sweep(args.mixes, workers=1)
    print(f"  serial      : {serial_s:7.2f} s ({len(serial_rows)} rows)")
    parallel_s, parallel_rows = measure_sweep(args.mixes, workers=args.workers)
    print(f"  {args.workers} workers   : {parallel_s:7.2f} s")
    identical = serial_rows == parallel_rows
    print(f"  identical rows: {identical}")
    cache_stats = measure_cached_rerun(args.mixes, serial_rows)
    print(
        f"  cache       : {cache_stats['cold_store_s']:7.2f} s cold-store, "
        f"{cache_stats['warm_s']:7.3f} s warm "
        f"({cache_stats['warm_simulations_executed']} sims, "
        f"identical={cache_stats['rows_identical']})"
    )
    channel_sweep = measure_channel_sweep()
    print(
        f"  chan sweep  : {channel_sweep['cold_store_s']:7.2f} s cold "
        f"({channel_sweep['channel_counts']} channels, "
        f"{channel_sweep['attribution_rows']} attribution rows), "
        f"{channel_sweep['warm_s']:7.4f} s warm "
        f"({channel_sweep['warm_simulations_executed']} sims, "
        f"identical={channel_sweep['rows_identical']})"
    )

    report = {
        "benchmark": "canonical fig5 sweep, cold and warm",
        "config": dict(CANONICAL, num_mixes_per_scenario=args.mixes),
        "machine": {"cpu_count": os.cpu_count(), "workers": args.workers},
        "provenance": provenance(),
        "current": {
            "sweep_serial_s": round(serial_s, 2),
            "sweep_parallel_s": round(parallel_s, 2),
            "serial_parallel_identical": identical,
            "cached_rerun": cache_stats,
            "channel_sweep": channel_sweep,
        },
    }
    speedups = {
        "parallel_vs_serial": round(serial_s / parallel_s, 2),
        # Ratio from the unrounded warm time (rounded for display below).
        "cached_rerun_vs_serial": round(serial_s / max(cache_stats["warm_s"], 1e-6)),
    }
    cache_stats["warm_s"] = round(cache_stats["warm_s"], 4)
    report["speedups"] = speedups
    if (os.cpu_count() or 1) < args.workers:
        report["note"] = (
            f"only {os.cpu_count()} CPU(s) available: the {args.workers}-worker "
            f"run can use at most {os.cpu_count()} of them on this machine; on a "
            f">= {args.workers}-core host the parallel sweep scales with the "
            "worker count"
        )

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    print(json.dumps(report["speedups"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
