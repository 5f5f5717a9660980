"""Smoke tests for the per-figure experiment drivers.

Tiny configurations: these verify driver plumbing (row shapes,
normalization, aggregation), not the paper's numbers — the benchmarks
do that at full fidelity.
"""

import pytest

from repro.harness.cache import ResultCache
from repro.harness.experiments import (
    fig4_group_means,
    fig4_singlecore,
    fig5_multicore,
    rhli_experiment,
    rowmap_ablation,
    sec84_internals,
    summarize_mix_rows,
    table8_calibration,
)
from repro.harness.parallel import SweepReport
from repro.harness.runner import HarnessConfig
from repro.workloads.mixes import WorkloadMix, benign_mixes


@pytest.fixture(scope="module")
def tiny_hcfg():
    return HarnessConfig(scale=512, instructions_per_thread=8_000, warmup_ns=5_000.0)


def test_fig4_driver_rows(tiny_hcfg):
    rows = fig4_singlecore(tiny_hcfg, ["403.gcc"], mechanisms=["blockhammer"])
    assert len(rows) == 1
    row = rows[0]
    assert row["app"] == "403.gcc"
    assert row["mechanism"] == "blockhammer"
    assert row["norm_time"] > 0
    assert row["norm_energy"] > 0


def test_fig4_group_means_aggregates():
    rows = [
        {"category": "L", "mechanism": "x", "norm_time": 1.0, "norm_energy": 2.0},
        {"category": "L", "mechanism": "x", "norm_time": 3.0, "norm_energy": 4.0},
    ]
    means = fig4_group_means(rows)
    assert means == [
        {
            "category": "L",
            "mechanism": "x",
            "norm_time": 2.0,
            "norm_energy": 3.0,
            "failed": 0,
        }
    ]


def test_fig4_group_means_counts_failed_rows():
    rows = [
        {"category": "L", "mechanism": "x", "norm_time": 1.0, "norm_energy": 2.0},
        {"category": "L", "mechanism": "x", "norm_time": None, "norm_energy": None},
    ]
    means = fig4_group_means(rows)
    assert means == [
        {
            "category": "L",
            "mechanism": "x",
            "norm_time": 1.0,
            "norm_energy": 2.0,
            "failed": 1,
        }
    ]


def test_fig5_driver_and_summary(tiny_hcfg):
    rows = fig5_multicore(tiny_hcfg, num_mixes=1, mechanisms=["blockhammer"])
    assert len(rows) == 2  # one no-attack + one attack row
    scenarios = {r.scenario for r in rows}
    assert scenarios == {"no-attack", "attack"}
    summary = summarize_mix_rows(rows)
    assert len(summary) == 2
    assert all(s["mechanism"] == "blockhammer" for s in summary)
    assert all(s["norm_ws_mean"] > 0 for s in summary)


def test_rhli_driver_shapes(tiny_hcfg):
    rows = rhli_experiment(tiny_hcfg, num_mixes=1)
    assert [r["mode"] for r in rows] == ["blockhammer-observe", "blockhammer"]
    assert all("attacker_rhli_mean" in r for r in rows)


def test_rhli_benign_only_mixes_report_none_attacker_stats(tiny_hcfg):
    """Benign-only mixes have an empty attacker-RHLI population: the
    driver must emit None, not raise on statistics.mean/max of []."""
    rows = rhli_experiment(tiny_hcfg, mixes=benign_mixes(1))
    for row in rows:
        assert row["attacker_rhli_mean"] is None
        assert row["attacker_rhli_max"] is None
        assert row["attacker_rhli_min"] is None
        assert isinstance(row["benign_rhli_max"], float)


def test_rhli_single_thread_attack_mix_reports_none_benign_stats():
    """A one-thread attack-only mix has no benign threads; the run is
    time-bounded because an attacker never gates completion."""
    hcfg = HarnessConfig(
        scale=512,
        instructions_per_thread=2_000,
        warmup_ns=1_000.0,
        max_time_ns=20_000.0,
    )
    solo = WorkloadMix(name="solo-attack", app_names=("attack",), has_attack=True)
    rows = rhli_experiment(hcfg, mixes=[solo])
    for row in rows:
        assert row["benign_rhli_max"] is None
        assert isinstance(row["attacker_rhli_mean"], float)


def test_sec84_driver_shape(tiny_hcfg):
    stats = sec84_internals(tiny_hcfg, num_mixes=1)
    assert stats["total_acts"] > 0
    assert 0.0 <= stats["false_positive_rate"] <= 1.0
    assert stats["fp_delay_p100_ns"] >= stats["fp_delay_p50_ns"]
    # No mistaken delay exceeds the tDelay bound of the run's config.
    assert stats["t_delay_ns"] > 0
    assert stats["fp_delay_p100_ns"] <= stats["t_delay_ns"] * 1.001


def test_table8_driver_shape(tiny_hcfg):
    rows = table8_calibration(tiny_hcfg, ["429.mcf"])
    assert rows[0]["app"] == "429.mcf"
    assert rows[0]["measured_mpki"] > 0


def test_rowmap_ablation_rows_workers_and_warm_cache(tmp_path):
    """The row-map ablation is an ordinary job sweep: pinned rows, the
    same rows on a pool, and a warm rerun that simulates nothing."""
    hcfg = HarnessConfig(scale=1024, paper_nrh=32768, instructions_per_thread=2000)
    mechanisms = ["graphene", "blockhammer"]
    cache = ResultCache(tmp_path)
    rows = rowmap_ablation(hcfg, mechanisms, workers=1, cache=cache)
    assert [
        (r["mechanism"], r["adjacency"], r["bitflips"], r["victim_refreshes"])
        for r in rows
    ] == [
        ("none", "n/a", 64, 0),
        ("graphene", "true", 0, 660),
        ("graphene", "assumed-linear", 64, 660),
        ("blockhammer", "true", 0, 0),
        ("blockhammer", "assumed-linear", 0, 0),
    ]
    assert rowmap_ablation(hcfg, mechanisms, workers=2) == rows
    report = SweepReport()
    assert rowmap_ablation(hcfg, mechanisms, cache=cache, report=report) == rows
    assert report.executed == 0 and report.cached == len(rows)
