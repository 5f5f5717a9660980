"""Layered simulator benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload attack-blockhammer --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --record 0,1,2     # re-record expected digests

``--trace 0`` reports the end-to-end host-time metrics of untraced
passes; ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
EXPECTED = HERE / "expected.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT)]

#: Set-up repetitions: the median import time of fresh interpreters
#: plus the median trace build is the set-up time.
SETUP_REPEATS = 5
DEFAULT_MIX_SEED = 2021


def load_expected() -> dict:
    if EXPECTED.exists():
        return json.loads(EXPECTED.read_text())
    return {"digests": {}}


def expected_for(expected: dict, workload: str, mix_seed: int, seed: int) -> dict | None:
    return expected["digests"].get(workload, {}).get(f"{mix_seed}/{seed}")


class Ledger:
    """Failure accounting across every pass of one run."""

    def __init__(self, reference: dict | None) -> None:
        #: Recorded digests, else (held-out seed) the first pass's.
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, tag: str, result) -> None:
        self.attempted += result.attempted
        self.failures += [f"{tag} {label}: {why}" for label, why in result.failures.items()]
        if self.reference is None:
            self.reference = dict(result.digests)
            return
        for label, value in result.digests.items():
            if self.reference.get(label) != value:
                self.failures.append(f"{tag} {label}: digest {value} != {self.reference.get(label)}")
        for label in self.reference.keys() - result.digests.keys() - result.failures.keys():
            self.failures.append(f"{tag} {label}: missing")


def end_to_end(import_s, setup_runs, passes, peak_rss_mb) -> dict:
    med = statistics.median
    return {
        "setup_s": (import_s + med(setup_runs), "s"),
        "wall_s": (med(p.wall_s for p in passes), "s"),
        "cpu_s": (med(p.cpu_s for p in passes), "s"),
        "sim_kips": (med(p.instructions / p.wall_s / 1e3 for p in passes), "kinstr/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(snap: dict, traced, untraced, build_s: float, workers: int) -> dict:
    calls, self_s, total_s = snap["calls"], snap["self_s"], snap["total_s"]
    c = snap["counters"]

    def n(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def ratio(a, b):
        return a / b if b else 0.0

    run_until = n("mem.run_until")
    select = n("mem.select") + n("mem.scan_select")
    issue = n("dram.issue")
    act_query = n("mitigation.act_query")
    return {
        "sim.self_s": (t("sim.run", "sim.push", "sim.pop", "sim.pop_at"), "s"),
        "sim.events": (c.get("sim.events", 0), "count"),
        "sim.events_per_sim_us": (
            ratio(c.get("sim.events", 0), c.get("sim.sim_ns", 0) / 1e3),
            "1/us",
        ),
        "sim.heap_push": (n("sim.push"), "count"),
        "sim.heap_pop": (n("sim.pop") + c.get("sim.pop_at_hits", 0), "count"),
        "mem.self_s": (t("mem.run_until", "mem.select", "mem.scan_select", "mem.enqueue"), "s"),
        "mem.run_until_calls": (run_until, "count"),
        "mem.steps": (c.get("mem.steps", 0), "count"),
        "mem.steps_per_batch": (ratio(c.get("mem.steps", 0), run_until), "ratio"),
        "mem.one_step_batch_frac": (ratio(c.get("mem.one_step_batches", 0), run_until), "ratio"),
        "mem.ctrl_self_s": (t("mem.run_until"), "s"),
        "mem.select_calls": (select, "count"),
        "mem.select_per_cmd": (ratio(select, issue), "ratio"),
        "mem.select_self_s": (t("mem.select", "mem.scan_select"), "s"),
        "mem.scan_select_calls": (n("mem.scan_select"), "count"),
        "mem.queue_full_rejects": (c.get("mem.queue_full_rejects", 0), "count"),
        "mem.quota_rejects": (c.get("mem.quota_rejects", 0), "count"),
        "mitigation.self_s": (
            t("mitigation.act_query", "mitigation.on_activate", "mitigation.advance"),
            "s",
        ),
        "mitigation.act_query_calls": (act_query, "count"),
        "mitigation.act_query_self_s": (t("mitigation.act_query"), "s"),
        "mitigation.act_blocked_frac": (ratio(c.get("mitigation.act_blocked", 0), act_query), "ratio"),
        "mitigation.on_activate_calls": (n("mitigation.on_activate"), "count"),
        "mitigation.on_activate_self_s": (t("mitigation.on_activate"), "s"),
        "mitigation.advance_calls": (n("mitigation.advance"), "count"),
        "mitigation.delayed_acts": (c.get("mitigation.delayed_acts", 0), "count"),
        "dram.issue_calls": (issue, "count"),
        "dram.self_s": (t("dram.issue"), "s"),
        **{
            f"dram.{kind}": (c.get(f"dram.{kind}", 0), "count")
            for kind in ("act", "pre", "rd", "wr", "ref", "vref")
        },
        "dram.row_hit_rate": (ratio(c.get("dram.row_hits", 0), c.get("dram.classified", 0)), "ratio"),
        "cpu.wake_calls": (n("cpu.wake"), "count"),
        "cpu.self_s": (t("cpu.wake"), "s"),
        "cpu.enqueue_reject_frac": (ratio(c.get("cpu.enqueue_rejects", 0), n("mem.enqueue")), "ratio"),
        "workloads.trace_build_s": (build_s, "s"),
        "workloads.next_record_calls": (n("workloads.next_record"), "count"),
        "harness.jobs": (traced.jobs, "count"),
        "harness.executed": (traced.executed, "count"),
        "harness.cached": (traced.cached, "count"),
        "harness.job_cpu_s": (c.get("harness.job_cpu_s", 0.0), "s"),
        "harness.worker_busy_frac": (
            ratio(total_s.get("harness.execute_job", 0.0), workers * traced.wall_s),
            "s/s",
        ),
        "harness.cache_put_s": (total_s.get("harness.cache_put", 0.0), "s"),
        "harness.cache_get_s": (total_s.get("harness.cache_get", 0.0), "s"),
        "harness.result_bytes": (c.get("harness.result_bytes", 0), "bytes"),
        "harness.assemble_s": (total_s.get("harness.assemble", 0.0), "s"),
        "harness.warm_replay_ms": (statistics.median(untraced.warm_ms), "ms"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
    }


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the simulator and the
    benchmark's workloads (interpreter start-up excluded)."""
    code = (
        "import sys, time; sys.path[:0] = %r; start = time.perf_counter(); "
        "import perfbench.workloads; print(time.perf_counter() - start)"
    ) % (sys.path[:3],)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return float(proc.stdout)


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def measure(args) -> dict:
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.mix_seed, OUT_DIR)
    ledger = Ledger(expected_for(load_expected(), args.workload, args.mix_seed, args.seed))

    # Set-up.  A first serial pass fills the lazily generated trace
    # streams and fixes how many records each one needs; the build of
    # every trace to those lengths is then timed on its own, repeatedly.
    workload.build_traces({})
    ledger.check("warm-up", workload.run_pass(workers=1))
    lengths = workload.stream_lengths()

    if not args.trace:
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.build_traces(lengths)
            setup_runs.append(time.perf_counter() - start)
        # Start another pass only if it should end within --seconds.
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(workload.run_pass(workload.workers))
            ledger.check(f"pass-{len(passes)}", passes[-1])
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        import_s = statistics.median(import_seconds() for _ in range(3))
        metrics = end_to_end(import_s, setup_runs, passes, peak_rss_mb())
    else:
        untraced = workload.run_pass(workload.workers)
        ledger.check("untraced", untraced)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("workloads.trace_build"):
                build_start = time.perf_counter()
                workload.build_traces(lengths)
                build_s = time.perf_counter() - build_start
            traced = workload.run_pass(workload.workers, span=tracer.span)
        finally:
            tracer.uninstall()
        ledger.check("traced", traced)
        metrics = per_layer(tracer.merged(), traced, untraced, build_s, workload.workers)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.npz")

    for line in ledger.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} mix_seed={args.mix_seed}: "
          f"{ledger.attempted} ops, failed_ops={len(ledger.failures)}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:32s} {value:14.6g} {unit}")
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def record(args) -> None:
    """Re-record the expected digests for the given run seeds, after
    cross-checking one job per serial workload against the reference
    FR-FCFS scheduler."""
    from bench_speed import provenance
    from perfbench.workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    expected = load_expected()
    names = [args.workload] if args.workload else list(WORKLOADS)
    for seed in (int(s) for s in args.record.split(",")):
        for name in names:
            workload = WORKLOADS[name](seed, args.mix_seed, OUT_DIR)
            workload.build_traces({})
            result = workload.run_pass(workers=1)
            if result.failures:
                raise SystemExit(f"{name} seed {seed}: {result.failures}")
            workload.reference_check()
            expected["digests"].setdefault(name, {})[f"{args.mix_seed}/{seed}"] = result.digests
            print(f"recorded {name} {args.mix_seed}/{seed}: {len(result.digests)} digests")
    expected["provenance"] = provenance()
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no simulator source under {ROOT / 'src'}")
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Layered simulator benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="run seed (HarnessConfig.seed)")
    parser.add_argument("--mix-seed", type=int, default=DEFAULT_MIX_SEED, help="mix master seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", metavar="SEEDS", help="comma-separated run seeds to record")
    args = parser.parse_args(argv)
    if args.record:
        record(args)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
