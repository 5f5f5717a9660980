#!/bin/sh
# Fast perf smoke: tiny sweeps through the parallel experiment executor
# (job pickling, pool fan-out, telemetry transport, keyed assembly),
# through the persistent result cache — one 2-channel job goes through
# the pool+cache path cold then warm, asserting the warm run performs
# zero simulations — a cached channel-sweep smoke: the {1,2,4}
# channel-scaling driver cold-stores then warm-replays with zero
# simulations while emitting per-channel attribution rows for every
# sweep point — and a differential scheduler smoke: one attack seed
# simulated under both the incremental FR-FCFS policy and the naive
# ReferenceFrFcfsPolicy, asserting bit-identical command streams and
# result rows — and an OS-governor sweep smoke: the ossweep driver
# cold-stores then warm-replays with zero simulations while governor
# policies (kill/quota/migrate) actually fire — plus the observability
# acceptance smokes (obs_smoke): a traced attack-mix BlockHammer run
# whose trace-event counts match the SimResult counters exactly and
# whose results stay bit-identical with tracing on.  Runs in seconds;
# part of tier-1 via the markers.
#
# Usage: scripts/perf_smoke.sh [extra pytest args]
set -e
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" exec python -m pytest -q -m "perf_smoke or obs_smoke" "$@"
