"""Self-test of the benchmark (about four minutes on a 2-CPU host).

Run from the repository root::

    python3 perfbench/selftest.py

For every workload, at minimal length (one timed pass):

* an untraced run emits every end-to-end metric of ``BENCHMARK.json``
  with its unit, and no operation fails;
* two traced runs emit every per-layer metric with its unit, and every
  metric that is not a time repeats exactly, with zero tolerance;
* the workload exercises what it was chosen for (BlockHammer delays
  ACTs and rejects requests on quota; the benign mixes never see a
  blocked ACT; the sweep issues victim refreshes).

Finally the benchmark must fail, without printing a result, in a
directory holding only ``BENCHMARK.json`` and the benchmark itself.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd=ROOT) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(out: dict, declared: list[dict]) -> None:
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
    for metric in declared:
        got = out["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric, got)
        assert isinstance(got["value"], (int, float)), got
    assert set(out["metrics"]) == {m["name"] for m in declared}


def main() -> int:
    layers = {}
    # benign-none is not declared in BENCHMARK.json but stays runnable.
    for workload in ("attack-blockhammer", "benign-none", "fig5-sweep"):
        check_metrics(run(workload, 0), SPEC["end_to_end"])
        first, second = run(workload, 1), run(workload, 1)
        for out in (first, second):
            check_metrics(out, SPEC["per_layer"])
        for metric in SPEC["per_layer"]:
            if metric["unit"] not in ("s", "ms", "s/s"):
                name = metric["name"]
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                assert a == b, f"{workload} {name}: {a} != {b}"
        layers[workload] = {k: v["value"] for k, v in first["metrics"].items()}
        print(f"ok {workload}")

    attack, benign, sweep = (
        layers["attack-blockhammer"], layers["benign-none"], layers["fig5-sweep"],
    )
    assert attack["mitigation.delayed_acts"] > 0 and attack["mem.quota_rejects"] > 0
    assert benign["mitigation.act_blocked_frac"] == 0
    assert sweep["dram.vref"] > 0 and sweep["harness.cached"] > 0

    (HERE / "out").mkdir(exist_ok=True)
    bare = pathlib.Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = SPEC["command"] + ["--workload", "benign-none", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare checkout fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
