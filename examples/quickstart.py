#!/usr/bin/env python3
"""Quickstart: protect a simulated system with BlockHammer.

Builds an eight-thread system (one double-sided RowHammer attacker plus
seven benign SPEC-like applications), runs it unprotected and then under
BlockHammer, and prints the paper's headline comparison: bit-flips,
benign performance, attacker throughput, and DRAM energy.

Run:  python examples/quickstart.py
"""

from repro import HarnessConfig, Runner, attack_mixes, format_table


def main() -> None:
    # A 1/128-scale refresh window keeps the simulation snappy while
    # preserving every threshold ratio (NRH is scaled by the same factor).
    hcfg = HarnessConfig(scale=128, paper_nrh=32768, instructions_per_thread=80_000)
    runner = Runner(hcfg)
    mix = attack_mixes(1)[0]
    print(f"workload: {', '.join(mix.app_names)}")
    print(f"RowHammer threshold: {hcfg.paper_nrh} (simulated at {hcfg.sim_nrh})\n")

    rows = []
    for mechanism in ("none", "blockhammer"):
        outcome = runner.run_mix(mix, mechanism)
        benign_ipc = sum(t.ipc for t in outcome.result.threads[1:]) / 7
        attacker = outcome.result.threads[0]
        rows.append(
            [
                mechanism,
                outcome.bitflips,
                round(benign_ipc, 3),
                attacker.mem.activations,
                round(outcome.energy.total_mj, 3),
            ]
        )

    print(
        format_table(
            ["mechanism", "bit-flips", "benign IPC", "attacker ACTs", "DRAM energy (mJ)"],
            rows,
        )
    )
    base, bh = rows
    print(
        f"\nBlockHammer: {base[1]} -> {bh[1]} bit-flips, "
        f"benign IPC {base[2]} -> {bh[2]} "
        f"({(bh[2] / base[2] - 1) * 100:+.1f}%), "
        f"DRAM energy {(bh[4] / base[4] - 1) * 100:+.1f}%"
    )


if __name__ == "__main__":
    main()
