"""Multi-channel golden fixture: 2/4-channel results must not drift.

``tests/golden_multichannel.json`` extends the ``golden_fig5.json``
mechanism to the channel dimension: it pins every scheduling-sensitive
``SimResult`` field of the canonical attack mix (BlockHammer) and one
benign mix (Graphene, reactive-refresh coverage) at 2 and 4 channels,
per channel, float-exact.  The incremental FR-FCFS scheduler — or any
future scheduler/event-loop work — cannot change multi-channel results
without tripping this test.

The fixture is regenerated only by
``scripts/capture_golden_multichannel.py`` (see its docstring for
provenance), which asserts at capture time that the pinned values are
exactly what the naive ``ReferenceFrFcfsPolicy`` produces.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.dram.spec import DDR4_2400
from repro.harness.runner import HarnessConfig, Runner
from repro.workloads.mixes import attack_mixes, benign_mixes

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_multichannel.json").read_text()
)

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


def _capture(result, energy) -> dict:
    """Mirror of the capture script's row extraction (kept in sync so a
    fixture regenerated by the script compares field-for-field)."""
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


def _hcfg(channels: int) -> HarnessConfig:
    return HarnessConfig(
        base_spec=DDR4_2400.with_channels(channels), **GOLDEN["config"]
    )


@pytest.mark.parametrize("channels", [2, 4])
def test_attack_blockhammer_matches_golden(channels):
    runner = Runner(_hcfg(channels))
    outcome = runner.run_mix(attack_mixes(1)[0], "blockhammer")
    got = _capture(outcome.result, outcome.energy)
    assert got == GOLDEN["runs"][str(channels)]["attack_blockhammer"]


@pytest.mark.parametrize("channels", [2, 4])
def test_benign_graphene_matches_golden(channels):
    runner = Runner(_hcfg(channels))
    outcome = runner.run_mix(benign_mixes(1)[0], "graphene")
    got = _capture(outcome.result, outcome.energy)
    assert got == GOLDEN["runs"][str(channels)]["benign_graphene"]
