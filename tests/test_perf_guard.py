"""Tests for the decision functions of ``scripts/perf_guard.py``.

No perfbench run happens here: the gate's verdicts are pure functions
of perfbench's JSON results and the committed count record.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_guard", ROOT / "scripts" / "perf_guard.py"
)
perf_guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_guard)

RECORDED = {"mem.select_calls": 314972, "dram.act": 42313}


def _result(counts, correct=True, failed=0):
    metrics = {name: {"value": value, "unit": "count"} for name, value in counts.items()}
    metrics["cpu_s"] = {"value": 9.5, "unit": "s"}
    return {"correct": correct, "attempted": 42, "failed": failed, "metrics": metrics}


def test_identical_counts_pass():
    measured = perf_guard.count_metrics(_result(RECORDED))
    assert measured == RECORDED
    assert perf_guard.count_failures("w", RECORDED, measured) == []


def test_extra_select_fails_naming_the_metric():
    measured = dict(RECORDED, **{"mem.select_calls": 314973})
    (failure,) = perf_guard.count_failures("w", RECORDED, measured)
    assert "mem.select_calls" in failure
    assert "314972" in failure and "314973" in failure


def test_missing_and_extra_metrics_fail():
    missing = {"mem.select_calls": 314972}
    (failure,) = perf_guard.count_failures("w", RECORDED, missing)
    assert "dram.act" in failure and "missing" in failure
    extra = dict(RECORDED, **{"dram.vref": 0})
    (failure,) = perf_guard.count_failures("w", RECORDED, extra)
    assert "dram.vref" in failure


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1), (False, None)])
def test_incorrect_run_fails(correct, failed):
    assert perf_guard.run_failures("w", _result(RECORDED, correct, failed))
    assert perf_guard.run_failures("w", _result(RECORDED)) == []


@pytest.mark.parametrize("ratio, fails", [(1.21, True), (1.19, False), (0.8, False)])
def test_ab_bound(ratio, fails):
    parent = [10.0, 9.0, 11.0]
    change = [10.0 * ratio, 50.0, 1.0]
    assert bool(perf_guard.ab_failures(parent, change)) is fails


def test_count_record_covers_exactly_the_declared_count_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(perf_guard.RECORD.read_text())
    assert sorted(record) == sorted(w["name"] for w in declared["workloads"])
    counts = {m["name"] for m in declared["per_layer"] if m["unit"] == "count"}
    for workload, metrics in record.items():
        assert set(metrics) == counts, workload
        assert all(isinstance(value, int) for value in metrics.values())


@pytest.mark.parametrize("ratio, fails", [(1.16, True), (1.14, False), (0.7, False)])
def test_rss_ab_uses_the_declared_bound(ratio, fails):
    bound = perf_guard.declared_bound("peak_rss_mb")
    assert bound == 0.15
    parent = [80.0, 90.0, 85.0]
    change = [85.0 * ratio, 200.0, 1.0]
    failures = perf_guard.ab_failures(parent, change, "peak_rss_mb", bound)
    assert bool(failures) is fails
    assert all("peak_rss_mb" in failure for failure in failures)
