#!/usr/bin/env python3
"""Compare all seven mitigation mechanisms under an active attack.

Reproduces a single-mix slice of Figure 5's "RowHammer attack present"
scenario: for each mechanism, benign weighted speedup (normalized to the
unprotected baseline), DRAM energy, victim refreshes issued, and whether
any bit flipped.

Run:  python examples/mechanism_comparison.py
"""

from repro import HarnessConfig, attack_mixes, format_table
from repro.harness.experiments import assemble_mix_rows, mix_sweep_jobs
from repro.harness.parallel import mix_job, run_jobs
from repro.mitigations.registry import PAPER_MECHANISMS


def main() -> None:
    hcfg = HarnessConfig(scale=128, paper_nrh=32768, instructions_per_thread=80_000)
    mix = attack_mixes(1)[0]
    print(f"workload: attacker + {', '.join(mix.app_names[1:])}\n")

    # One baseline run, one run per mechanism, and the benign threads'
    # alone runs the speedup metrics normalize against.
    results = run_jobs(mix_sweep_jobs(hcfg, [mix], PAPER_MECHANISMS))
    baseline = results[mix_job(hcfg, mix, "none")]

    rows = [["none (baseline)", 1.0, 1.0, 0, baseline.bitflips]]
    for row in assemble_mix_rows(hcfg, [mix], PAPER_MECHANISMS, "attack", results):
        rows.append(
            [
                row.mechanism,
                round(row.norm.weighted_speedup, 3),
                round(row.norm_energy, 3),
                row.victim_refreshes,
                row.bitflips,
            ]
        )

    print(
        format_table(
            ["mechanism", "norm. weighted speedup", "norm. DRAM energy", "victim refreshes", "bit-flips"],
            rows,
        )
    )
    print(
        "\nreading the table: reactive mechanisms (PARA...Graphene) spend"
        "\nvictim refreshes to stop the attack but leave benign performance"
        "\nat baseline; BlockHammer throttles the attacker instead, so"
        "\nbenign threads speed up and DRAM energy drops."
        "\n(probabilistic mechanisms may show residual flips here: their"
        "\nper-ACT probabilities are paper-scale-tuned, and the scaled"
        "\nwindow compresses NRH.)"
    )


if __name__ == "__main__":
    main()
