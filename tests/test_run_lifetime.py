"""A System runs once, a finished run frees itself, and no result
depends on what ran before it in the process.

Every edge from a component back to its System (the controllers'
completion hook, the per-entity wake callables, still-queued events,
the governor's binding, a core's own wake dispatch) lives only while
``System.run`` executes.  Once the caller drops the run's outcome,
reference counting alone must free the whole simulation — its address
mapping and the job's Runner included: these tests run with the cyclic
collector disabled and then require it to find nothing.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.cpu.trace import ListTrace
from repro.dram.address import AddressMapping, MappingScheme
from repro.dram.spec import DDR4_2400
from repro.harness import parallel
from repro.harness.runner import HarnessConfig, Runner
from repro.obs import ObsConfig
from repro.os.spec import GovernorSpec
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.generator import build_benign_trace
from repro.workloads.mixes import attack_mixes
from repro.workloads.profiles import profile_by_name

from test_system import make_records

HCFG = HarnessConfig(instructions_per_thread=3_000, warmup_ns=5_000.0)
#: Scale at which governors act within a few thousand instructions.
_ACTIVE_HCFG = dataclasses.replace(HCFG, scale=4096.0)


def test_second_run_raises(small_spec):
    system = System(SystemConfig(spec=small_spec), [ListTrace(make_records())])
    first = system.run(instructions_per_thread=5_000)
    assert first.elapsed_ns > 0.0
    with pytest.raises(RuntimeError, match="spent"):
        system.run(instructions_per_thread=5_000)


def test_finished_system_keeps_its_components(small_spec):
    system = System(SystemConfig(spec=small_spec), [ListTrace(make_records())])
    result = system.run(instructions_per_thread=5_000)
    assert system.controllers[0] is system.controller
    assert system.controller.on_request_complete is None
    assert system.mitigations[0] is system.mitigation
    assert system.cores[0].instructions_retired == result.threads[0].instructions
    assert system.events_processed == result.events_processed


def _run_plain():
    return parallel.execute_job(
        parallel.mix_job(HCFG, attack_mixes(1)[0], "blockhammer")
    )


def _run_governed():
    spec = GovernorSpec(policy="quota+kill", epoch_ns=1_000.0, threshold=0.01)
    return parallel.execute_job(
        parallel.mix_job(
            _ACTIVE_HCFG, attack_mixes(1)[0], "blockhammer", governor=spec
        )
    )


def _run_migrated():
    spec = GovernorSpec(
        policy="migrate", epoch_ns=1_000.0, threshold=0.01, quarantine_channel=1
    )
    hcfg = dataclasses.replace(
        _ACTIVE_HCFG, base_spec=_ACTIVE_HCFG.base_spec.with_channels(2)
    )
    mix = attack_mixes(1)[0].pinned()
    return parallel.execute_job(
        parallel.mix_job(hcfg, mix, "blockhammer", governor=spec)
    )


def _run_observed():
    obs = ObsConfig(trace=True, metrics=True, metrics_epoch_ns=2_000.0)
    return Runner(HCFG, obs=obs).run_mix(attack_mixes(1)[0], "blockhammer")


def _run_two_channel():
    hcfg = HarnessConfig(
        base_spec=DDR4_2400.with_channels(2),
        instructions_per_thread=3_000,
        warmup_ns=5_000.0,
    )
    return Runner(hcfg).run_mix(attack_mixes(1)[0], "blockhammer")


@pytest.mark.parametrize(
    "run",
    [_run_plain, _run_governed, _run_migrated, _run_observed, _run_two_channel],
    ids=["plain", "governed", "migrated", "obs", "two-channel"],
)
def test_finished_run_frees_itself(run, monkeypatch):
    built: list[tuple[weakref.ref, ...]] = []
    build = Runner._build_system

    def tracking_build(runner, *args, **kwargs):
        system = build(runner, *args, **kwargs)
        built.append(
            (weakref.ref(system), weakref.ref(system.mapping), weakref.ref(runner))
        )
        return system

    monkeypatch.setattr(Runner, "_build_system", tracking_build)
    run()  # warm the process-wide trace-stream cache
    built.clear()
    gc.collect()
    gc.disable()
    try:
        outcome = run()
        assert len(built) == 1
        del outcome
        system, mapping, runner = built[0]
        assert system() is None, "the finished System outlived its outcome"
        assert mapping() is None, "the run's AddressMapping outlived its outcome"
        assert runner() is None, "the run's Runner outlived its outcome"
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            leaked = collections.Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert found == 0, f"cyclic garbage after the run: {leaked.most_common(8)}"
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Order independence: a result is a function of its job alone.
# ----------------------------------------------------------------------
def _result_digest(result) -> str:
    return hashlib.sha256(repr(dataclasses.asdict(result)).encode()).hexdigest()


def _run_seed_2():
    hcfg = dataclasses.replace(HCFG, seed=2)
    return parallel.execute_job(
        parallel.mix_job(hcfg, attack_mixes(1)[0], "blockhammer")
    )


def _run_row_bank_col():
    spec = HCFG.spec()
    mapping = AddressMapping(spec, MappingScheme.ROW_BANK_COL)
    traces = [
        build_benign_trace(
            profile_by_name(name), spec, mapping, seed=3, row_offset=slot * 512
        )
        for slot, name in enumerate(("429.mcf", "403.gcc"))
    ]
    config = SystemConfig(spec=spec, mapping_scheme=MappingScheme.ROW_BANK_COL)
    return System(config, traces).run(instructions_per_thread=3_000)


#: Case name -> one run of it (a ``JobResult``, a ``RunOutcome`` or a
#: bare ``SimResult``).
_ORDER_CASES = {
    "plain": _run_plain,
    "seed-2": _run_seed_2,
    "two-channel": _run_two_channel,
    "quota+kill": _run_governed,
    "migrate": _run_migrated,
    "row-bank-col": _run_row_bank_col,
}


def _case_digest(name: str) -> str:
    outcome = _ORDER_CASES[name]()
    return _result_digest(getattr(outcome, "result", outcome))


def _fresh_process_digest(name: str) -> str:
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import test_run_lifetime as t; print(t._case_digest({name!r}))",
        ],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout.strip()


def test_governed_cases_act():
    """The governed cases exercise the paths they are there for: kills
    and quota updates, and a channel re-pin of the attacker's core."""
    actions = _run_governed().governor_actions
    assert actions["kills"] and actions["quota_updates"]
    assert _run_migrated().governor_actions["migrations"]


def test_results_do_not_depend_on_run_order():
    """Each case gives the same SimResult in one process whichever
    order the cases run in, and the same as in a fresh interpreter."""
    fresh = {name: _fresh_process_digest(name) for name in _ORDER_CASES}
    for order in (list(_ORDER_CASES), list(reversed(_ORDER_CASES))):
        assert {name: _case_digest(name) for name in order} == fresh
