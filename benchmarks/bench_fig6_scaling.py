"""Figure 6: scaling with worsening RowHammer vulnerability — normalized
performance and DRAM energy as NRH shrinks from 32K to 1K, for PARA,
TWiCe, Graphene, and BlockHammer, with and without an attack.

Paper shape:
* no attack: PARA's overhead grows sharply at low NRH (its refresh
  probability explodes); the deterministic mechanisms stay ~1.0;
* attack present: BlockHammer's benign-performance benefit *grows* as
  NRH shrinks (paper: +71% WS at 1K) because it throttles the attacker
  harder, while others stay at or below baseline.

NRH points {32K, 16K, 8K} with one mix per scenario: these are the
points where the 1/128-window scaling keeps threshold fidelity (at
paper-NRH 8K the scaled NBL is 16; below that, benign per-row counts
collide with single-digit NBL values and false-positive throttling
artifacts dominate).  Lower paper
thresholds require proportionally smaller scale factors:
``fig6_scaling(HarnessConfig(scale=16, ...), [1024])`` reproduces the
paper's 1K point at ~40x the runtime.
"""

from repro.harness.experiments import fig6_scaling
from repro.harness.reporting import format_table

_NRH_POINTS = [32768, 16384, 8192]


def test_fig6_scaling(benchmark, sim_hcfg, save_report):
    rows = benchmark.pedantic(
        fig6_scaling,
        args=(sim_hcfg, _NRH_POINTS),
        kwargs={"num_mixes": 1},
        rounds=1,
        iterations=1,
    )
    save_report(
        "fig6_scaling",
        format_table(
            ["NRH", "scenario", "mechanism", "WS mean", "MS mean", "energy", "flips"],
            [
                [
                    r["paper_nrh"],
                    r["scenario"],
                    r["mechanism"],
                    round(r["norm_ws_mean"], 3),
                    round(r["norm_ms_mean"], 3),
                    round(r["norm_energy_mean"], 3),
                    r["bitflips"],
                ]
                for r in rows
            ],
        ),
    )
    by_key = {(r["paper_nrh"], r["scenario"], r["mechanism"]): r for r in rows}

    # BlockHammer under attack: a large benign-performance benefit at
    # every threshold in the sweep (single-mix values are noisy — the
    # robust claim is the persistent, large win, paper Section 8.3).
    for nrh in _NRH_POINTS:
        bh = by_key[(nrh, "attack", "blockhammer")]
        assert bh["norm_ws_mean"] > 1.25, nrh
        assert bh["norm_energy_mean"] < 0.8, nrh

    # BlockHammer stays flip-free at every threshold.
    for nrh in _NRH_POINTS:
        assert by_key[(nrh, "attack", "blockhammer")]["bitflips"] == 0

    # Benign-only: BlockHammer overhead stays small across the sweep.
    assert by_key[(8192, "no-attack", "blockhammer")]["norm_ws_mean"] > 0.95
