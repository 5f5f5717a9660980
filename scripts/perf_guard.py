#!/usr/bin/env python3
"""The repo's one performance gate: exact layer counts and a CPU/memory A/B.

1. **Count record.** Runs ``perfbench/run.py --seed 1 --trace 1`` on
   every workload of ``BENCHMARK.json``.  Each run must be ``correct``
   with no failed operations, and every ``count``-unit metric must equal
   the committed ``benchmarks/layer_counts.json``.  The counts are
   deterministic and do not drift with the host, so any differing,
   missing or extra metric fails.
2. **CPU and memory A/B.** Extracts the parent tree with ``git
   archive`` and runs interleaved parent/change pairs of
   ``attack-blockhammer --trace 0`` on this host.  Fails when the
   median change ``cpu_s`` exceeds the median parent ``cpu_s`` by more
   than 20%, when the median change ``peak_rss_mb`` exceeds the median
   parent ``peak_rss_mb`` by more than the ``peak_rss_mb`` bound of
   ``BENCHMARK.json``, or when any run is not ``correct``.  The parent
   is ``HEAD`` when tracked files differ from it (a local change) and
   ``HEAD^`` otherwise (a checked-out commit).

Run it from anywhere in the checkout::

    python3 scripts/perf_guard.py           # both checks
    python3 scripts/perf_guard.py --record  # rewrite the count record only

A change that alters a count on purpose re-records the file with
``--record`` and explains each change.  Exit status: 0 = pass,
1 = a check failed, 2 = no parent tree to compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = ROOT / "benchmarks" / "layer_counts.json"
SEED = 1
AB_WORKLOAD = "attack-blockhammer"
AB_PAIRS = 3
AB_SECONDS = 10
AB_BOUND = 0.20


def perfbench(tree: pathlib.Path, workload: str, *flags: str) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line, or
    an incorrect result when the run crashes."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), *flags],
        cwd=tree, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "failed": None, "metrics": {}}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_failures(label: str, result: dict) -> list[str]:
    """Why a perfbench run cannot be trusted, if it cannot."""
    if result.get("correct") is True and result.get("failed") == 0:
        return []
    return [f"{label}: correct={result.get('correct')} failed={result.get('failed')}"]


def count_metrics(result: dict) -> dict[str, int]:
    """The ``count``-unit metrics of one traced perfbench run."""
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count"
    }


def count_failures(workload: str, recorded: dict, measured: dict) -> list[str]:
    """Every metric whose measured count differs from the record."""
    return [
        f"{workload}: {name} recorded {recorded.get(name, 'missing')}, "
        f"measured {measured.get(name, 'missing')}"
        for name in sorted(recorded.keys() | measured.keys())
        if recorded.get(name) != measured.get(name)
    ]


def declared_bound(metric: str) -> float:
    """The bound ``BENCHMARK.json`` declares for an end-to-end metric."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return next(entry["bound"] for entry in declared if entry["name"] == metric)


def ab_failures(
    parent: list[float], change: list[float], metric: str = "cpu_s",
    bound: float = AB_BOUND,
) -> list[str]:
    """A failure when the median change ``metric`` (lower is better)
    is past ``bound`` relative to the median parent."""
    ratio = statistics.median(change) / statistics.median(parent)
    verdict = "past" if ratio > 1 + bound else "within"
    message = (f"{AB_WORKLOAD}: median {metric} change/parent {ratio:.3f}, "
               f"{verdict} the {1 + bound:.2f} bound")
    print(f"perf-guard: {message}")
    return [message] if verdict == "past" else []


def check_counts(record: bool) -> list[str]:
    """Run the traced passes; compare with, or rewrite, the record."""
    recorded = {} if record else json.loads(RECORD.read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    measured, failures = {}, []
    for workload in (entry["name"] for entry in declared):
        result = perfbench(ROOT, workload, "--trace", "1")
        failures += run_failures(f"{workload} traced", result)
        measured[workload] = count_metrics(result)
        if not record:
            failures += count_failures(
                workload, recorded.get(workload, {}), measured[workload]
            )
            print(f"perf-guard: {workload}: {len(measured[workload])} counts checked")
    for workload in recorded.keys() - measured.keys():
        failures.append(f"{workload}: recorded but not a declared workload")
    if record and not failures:
        RECORD.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        print(f"perf-guard: wrote {RECORD.relative_to(ROOT)}")
    return failures


def parent_rev() -> str:
    """``HEAD`` under an uncommitted change to tracked files, else ``HEAD^``."""
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--"], cwd=ROOT)
    return "HEAD" if dirty.returncode else "HEAD^"


def extract(rev: str, dest: str) -> bool:
    """``git archive rev | tar -x -C dest``; False when it fails."""
    archive = subprocess.Popen(
        ["git", "archive", rev], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    return archive.wait() == 0 and untar.returncode == 0


def check_ab(parent: pathlib.Path) -> list[str]:
    """Interleaved parent/change ``--trace 0`` pairs, alternating order."""
    trees = {"parent": parent, "change": ROOT}
    cpu = {"parent": [], "change": []}
    rss = {"parent": [], "change": []}
    failures = []
    for pair in range(AB_PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            label = f"{AB_WORKLOAD} pair {pair + 1} {side}"
            result = perfbench(trees[side], AB_WORKLOAD,
                               "--seconds", str(AB_SECONDS), "--trace", "0")
            failures += run_failures(label, result)
            if result["metrics"]:
                cpu[side].append(result["metrics"]["cpu_s"]["value"])
                rss[side].append(result["metrics"]["peak_rss_mb"]["value"])
                print(f"perf-guard: {label}: cpu_s {cpu[side][-1]:.2f}, "
                      f"peak_rss_mb {rss[side][-1]:.1f}")
    if failures:
        return failures
    return ab_failures(cpu["parent"], cpu["change"]) + ab_failures(
        rss["parent"], rss["change"], "peak_rss_mb", declared_bound("peak_rss_mb")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true",
        help="rewrite benchmarks/layer_counts.json from a fresh run; skip the A/B",
    )
    args = parser.parse_args(argv)

    failures = check_counts(args.record)
    extracted = True
    if not args.record:
        rev = parent_rev()
        with tempfile.TemporaryDirectory(prefix="perf-guard-parent-") as parent:
            extracted = extract(rev, parent)
            if extracted:
                print(f"perf-guard: A/B against {rev}")
                failures += check_ab(pathlib.Path(parent))
            else:
                print(f"perf-guard: cannot extract the parent tree {rev}",
                      file=sys.stderr)
    for line in failures:
        print(f"perf-guard: FAIL {line}", file=sys.stderr)
    if failures:
        return 1
    return 0 if extracted else 2

if __name__ == "__main__":
    raise SystemExit(main())
