"""Figure 5: eight-core multiprogrammed workloads — weighted speedup,
harmonic speedup, maximum slowdown, and DRAM energy, normalized to the
unprotected baseline, with and without a RowHammer attack present.

Paper shape (NRH = 32K):
* no attack: every mechanism ~1.0 (BlockHammer <1% overhead);
* attack present: BlockHammer *improves* benign weighted speedup (paper:
  +45% mean) and cuts DRAM energy (paper: -28.9%), while reactive
  mechanisms hover at baseline.

Two mixes per scenario keep the benchmark tractable; the paper uses 125.
Bit-flip counts for the probabilistic mechanisms (PARA/PRoHIT/MRLoc) are
a window-compression artifact under scaling and are reported, not
asserted.
"""

from repro.harness.experiments import fig5_multicore, summarize_mix_rows
from repro.harness.reporting import format_table

_NUM_MIXES = 2


def test_fig5_multicore(benchmark, sim_hcfg, save_report):
    rows = benchmark.pedantic(
        fig5_multicore, args=(sim_hcfg, _NUM_MIXES), rounds=1, iterations=1
    )
    summary = summarize_mix_rows(rows)
    save_report(
        "fig5_multicore",
        format_table(
            ["scenario", "mechanism", "WS mean", "WS max", "HS mean", "MS mean", "energy", "flips"],
            [
                [
                    s["scenario"],
                    s["mechanism"],
                    round(s["norm_ws_mean"], 3),
                    round(s["norm_ws_max"], 3),
                    round(s["norm_hs_mean"], 3),
                    round(s["norm_ms_mean"], 3),
                    round(s["norm_energy_mean"], 3),
                    s["bitflips"],
                ]
                for s in summary
            ],
        ),
    )
    by_key = {(s["scenario"], s["mechanism"]): s for s in summary}

    # No attack: BlockHammer within 3% of baseline on every metric.
    no_attack = by_key[("no-attack", "blockhammer")]
    assert no_attack["norm_ws_mean"] > 0.97
    assert no_attack["norm_energy_mean"] < 1.03

    # Attack present: BlockHammer improves benign performance and energy;
    # deterministic reactive mechanisms do not improve performance.
    attack = by_key[("attack", "blockhammer")]
    assert attack["norm_ws_mean"] > 1.10
    assert attack["norm_energy_mean"] < 0.90
    assert attack["bitflips"] == 0
    graphene = by_key[("attack", "graphene")]
    assert graphene["norm_ws_mean"] < attack["norm_ws_mean"]
    assert graphene["bitflips"] == 0
