"""Capture ``tests/golden_multichannel.json``.

Runs the canonical attack mix under BlockHammer (and one benign mix
under Graphene for reactive-refresh coverage) at 2 and 4 channels and
records every scheduling-sensitive ``SimResult`` field, per channel.
The fixture pins multi-channel results across scheduler rewrites the
same way ``golden_fig5.json`` pins single-channel results.

Provenance: first captured from the code *before* the incremental
FR-FCFS rewrite (PR 3); re-captured once during that PR when
``Selection.next_ready`` became a normative pure function of simulator
state.  The 2-channel rows and the single-channel ``golden_fig5.json``
were unchanged by the rewrite; the 4-channel attack row legitimately
shifted (~1.6% elapsed time) because the old policy's wake times were
implementation artifacts of its caching structure.  The re-captured
values are exactly what the naive :class:`ReferenceFrFcfsPolicy`
produces — verified bit-identical by ``tests/test_differential_scheduler
.py`` and re-asserted at capture time below — so the fixture's truth
now rests on the reference implementation, not on any historical
accident.

Usage::

    PYTHONPATH=src python scripts/capture_golden_multichannel.py

Only rerun this when a deliberate, differentially-validated semantic
change shifts multi-channel results; the point of the file is that the
current tree cannot quietly regenerate its own truth.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.dram.spec import DDR4_2400
from repro.harness.runner import HarnessConfig, Runner
from repro.workloads.mixes import attack_mixes, benign_mixes

CONFIG = {
    "scale": 128.0,
    "paper_nrh": 32768,
    "instructions_per_thread": 4000,
    "warmup_ns": 5000.0,
}

THREAD_FIELDS = (
    "reads",
    "writes",
    "row_hits",
    "row_misses",
    "row_conflicts",
    "activations",
    "read_latency_sum",
    "read_latency_count",
    "blocked_injections",
)


def capture(result, energy) -> dict:
    """Everything scheduling-sensitive in one JSON-friendly dict."""
    return {
        "mitigation": result.mitigation,
        "elapsed_ns": result.elapsed_ns,
        "counts": dataclasses.asdict(result.counts),
        "active_time_ns": result.active_time_ns,
        "refreshes": result.refreshes,
        "victim_refreshes": result.victim_refreshes,
        "commands_issued": result.commands_issued,
        "bitflips": len(result.bitflips),
        "energy_total_j": energy.total_j,
        "threads": [
            {
                "instructions": t.instructions,
                "finish_time_ns": t.finish_time_ns,
                "ipc": t.ipc,
                **{f: getattr(t.mem, f) for f in THREAD_FIELDS},
                "per_channel": [
                    {f: getattr(m, f) for f in THREAD_FIELDS}
                    for m in t.mem_per_channel
                ],
            }
            for t in result.threads
        ],
        "channels": [
            {
                "channel": c.channel,
                "counts": dataclasses.asdict(c.counts),
                "active_time_ns": c.active_time_ns,
                "bitflips": c.bitflips,
                "refreshes": c.refreshes,
                "victim_refreshes": c.victim_refreshes,
                "commands_issued": c.commands_issued,
                "refresh_phase_ns": c.refresh_phase_ns,
            }
            for c in result.channels
        ],
    }


def main() -> None:
    from repro.mem.scheduler import ReferenceFrFcfsPolicy

    runs = {}
    for channels in (2, 4):
        hcfg = HarnessConfig(base_spec=DDR4_2400.with_channels(channels), **CONFIG)
        runner = Runner(hcfg)
        attack = runner.run_mix(attack_mixes(1)[0], "blockhammer")
        benign = runner.run_mix(benign_mixes(1)[0], "graphene")
        rows = {
            "attack_blockhammer": capture(attack.result, attack.energy),
            "benign_graphene": capture(benign.result, benign.energy),
        }
        # The fixture's legitimacy check: what we pin is exactly what
        # the naive reference policy produces.
        ref = Runner(hcfg, policy=ReferenceFrFcfsPolicy())
        ref_attack = ref.run_mix(attack_mixes(1)[0], "blockhammer")
        assert capture(ref_attack.result, ref_attack.energy) == rows["attack_blockhammer"], (
            f"fast policy disagrees with ReferenceFrFcfsPolicy at {channels} channels"
        )
        runs[str(channels)] = rows
    out = {"config": CONFIG, "runs": runs}
    path = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden_multichannel.json"
    path.write_text(json.dumps(out, indent=1))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
