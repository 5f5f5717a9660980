"""A System runs once and a finished run frees itself.

Every edge from a component back to its System (the controllers'
completion hook, the per-entity wake callables, still-queued events,
the governor's binding, a core's own wake dispatch) lives only while
``System.run`` executes.  Once the caller drops the run's outcome,
reference counting alone must free the whole simulation: these tests
run with the cyclic collector disabled and then require it to find
nothing.
"""

from __future__ import annotations

import collections
import gc
import weakref

import pytest

from repro.cpu.trace import ListTrace
from repro.harness import parallel
from repro.harness.runner import HarnessConfig, Runner
from repro.obs import ObsConfig, TelemetryBus
from repro.os.spec import GovernorSpec
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.mixes import attack_mixes

from test_system import make_records

HCFG = HarnessConfig(instructions_per_thread=3_000, warmup_ns=5_000.0)


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
    spec = GovernorSpec(policy="quota+kill", epoch_ns=2_000.0, threshold=0.01)
    return parallel.execute_job(
        parallel.mix_job(HCFG, attack_mixes(1)[0], "blockhammer", governor=spec)
    )


def _run_observed():
    bus = TelemetryBus(ObsConfig(trace=True, metrics=True, metrics_epoch_ns=2_000.0))
    return Runner(HCFG, obs=bus).run_mix(attack_mixes(1)[0], "blockhammer")


def _run_two_channel():
    hcfg = HarnessConfig(
        num_channels=2, instructions_per_thread=3_000, warmup_ns=5_000.0
    )
    return Runner(hcfg).run_mix(attack_mixes(1)[0], "blockhammer")


@pytest.mark.parametrize(
    "run",
    [_run_plain, _run_governed, _run_observed, _run_two_channel],
    ids=["plain", "governed", "obs", "two-channel"],
)
def test_finished_run_frees_itself(run, monkeypatch):
    systems: list[weakref.ref] = []
    build = Runner._build_system

    def tracking_build(runner, *args, **kwargs):
        system = build(runner, *args, **kwargs)
        systems.append(weakref.ref(system))
        return system

    monkeypatch.setattr(Runner, "_build_system", tracking_build)
    run()  # warm process-wide caches (trace streams, mappings, runners)
    systems.clear()
    gc.collect()
    gc.disable()
    try:
        outcome = run()
        assert len(systems) == 1
        del outcome
        assert systems[0]() is None, "the finished System outlived its outcome"
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
