"""Span tracing installed from outside the simulator.

:class:`Tracer` wraps the public entry points of each simulator layer
(class attributes and module functions) before any ``System`` is built,
so bound methods and closures captured at construction time resolve to
the wrappers.  Every call records one span ``(name, start, end,
parent)`` into flat arrays kept in memory; a layer's self time is its
span's duration minus the durations of its direct children.  Optional
hooks read a call's arguments or result to keep exact counters (steps
per batch, blocked ACT queries, commands by kind, ...).

Pool workers inherit the wrappers through ``fork``.  A worker resets
the tracer at the start of each job and ships the job's per-name
aggregates back inside the ``JobResult``; the dispatching process strips
them off in ``ResultCache.put`` before the result is stored, so stored
and returned results are exactly those of an untraced run.
"""

from __future__ import annotations

import os
import pickle
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: ``JobResult.extras`` key carrying a worker's span aggregates home.
REMOTE_KEY = "perfbench.spans"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(int)
        self.remote: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span named ``name`` per call; ``after``
        (if given) sees ``(result, args, kwargs)`` once the span closed."""
        nid = self._id(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block (the benchmark's own
        phases: trace build, pass, warm replay, row assembly)."""
        index = len(self._start)
        self._name.append(self._id(name))
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        try:
            yield
        finally:
            self._end[index] = time.perf_counter()
            self._stack.pop()

    def reset(self) -> None:
        """Drop everything recorded so far (in place: the wrappers hold
        the arrays)."""
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]
        self._stack.clear()
        self.counters.clear()
        self.remote.clear()

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-name calls, total and self seconds, plus the counters."""
        n = len(self.names)
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        self_s = np.bincount(names, weights=dur - child, minlength=n)
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "total_s": {name: float(total[i]) for i, name in enumerate(self.names)},
            "self_s": {name: float(self_s[i]) for i, name in enumerate(self.names)},
            "counters": dict(self.counters),
        }

    def merged(self) -> dict:
        """This process's snapshot plus every worker snapshot received."""
        out = self.snapshot()
        for part in self.remote:
            for key in ("calls", "total_s", "self_s", "counters"):
                bucket = out[key]
                for name, value in part[key].items():
                    bucket[name] = bucket.get(name, 0) + value
        return out

    def write(self, path) -> None:
        """Write this process's spans as ``.npz`` (worker spans stay in
        the workers; only their aggregates come back)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def install(self) -> None:
        """Wrap every traced entry point (see the module docstring)."""
        from repro.core import blockhammer, os_policy  # noqa: F401  (registers subclasses)
        from repro.core.rowblocker import RowBlocker
        from repro.cpu.core import Core
        from repro.dram.device import DramDevice
        from repro.harness import parallel
        from repro.harness.cache import ResultCache
        from repro.mem.controller import MemoryController
        from repro.mem.memsystem import MemorySystem
        from repro.mem.scheduler import FrFcfsPolicy
        from repro.mitigations import registry  # noqa: F401  (registers subclasses)
        from repro.mitigations.base import MitigationMechanism
        from repro.sim.engine import EventQueue
        from repro.sim.system import System
        from repro.workloads import generator, mixes

        count = self.counters

        def after_run(result, args, kwargs):
            system = args[0]
            count["sim.events"] += result.events_processed
            # Whole nanoseconds keep the sum exact in any merge order.
            count["sim.sim_ns"] += round(result.elapsed_ns + kwargs.get("warmup_ns", 0.0))
            for thread in result.threads:
                mem = thread.mem
                count["mem.quota_rejects"] += mem.quota_blocked_injections
                count["mem.queue_full_rejects"] += (
                    mem.blocked_injections - mem.quota_blocked_injections
                )
                count["dram.row_hits"] += mem.row_hits
                count["dram.classified"] += mem.row_hits + mem.row_misses + mem.row_conflicts
            for mitigation in system.mitigations:
                delay_stats = getattr(mitigation, "delay_stats", None)
                if delay_stats is not None:
                    count["mitigation.delayed_acts"] += delay_stats().delayed_acts

        def after_pop_at(result, args, kwargs):
            if result is not None:
                count["sim.pop_at_hits"] += 1

        def after_run_until(result, args, kwargs):
            steps = result[0]
            count["mem.steps"] += steps
            if steps == 1:
                count["mem.one_step_batches"] += 1

        def after_enqueue(result, args, kwargs):
            if not result:
                count["cpu.enqueue_rejects"] += 1

        def after_issue(result, args, kwargs):
            count["dram." + args[1].kind.name.lower()] += 1

        def after_act_query(result, args, kwargs):
            if result > args[-1]:
                count["mitigation.act_blocked"] += 1

        self._patch(System, "run", "sim.run", after_run)
        self._patch(EventQueue, "push", "sim.push")
        self._patch(EventQueue, "pop", "sim.pop")
        self._patch(EventQueue, "pop_at", "sim.pop_at", after_pop_at)
        # Core.wake is an instance attribute bound to _wake_running at
        # construction; patching the class function reaches it.
        self._patch(Core, "_wake_running", "cpu.wake")
        self._patch(MemorySystem, "enqueue", "mem.enqueue", after_enqueue)
        self._patch(MemoryController, "run_until", "mem.run_until", after_run_until)
        self._patch(FrFcfsPolicy, "select_raw", "mem.select")
        self._patch(FrFcfsPolicy, "_scan_select", "mem.scan_select")
        make_fused = FrFcfsPolicy.__dict__["make_fused"]
        self._undo.append((FrFcfsPolicy, "make_fused", make_fused))

        def traced_make_fused(policy, *args):
            fused = make_fused(policy, *args)
            return None if fused is None else self.wrap("mem.select", fused)

        FrFcfsPolicy.make_fused = traced_make_fused
        self._patch(DramDevice, "issue", "dram.issue", after_issue)
        # BlockHammer binds its ACT gate straight to RowBlocker.allowed_at
        # at attach time, so the gate is traced there.
        self._patch(RowBlocker, "allowed_at", "mitigation.act_query", after_act_query)
        for cls in _subclasses(MitigationMechanism):
            if "act_allowed_at" in cls.__dict__:
                self._patch(cls, "act_allowed_at", "mitigation.act_query", after_act_query)
            if "on_activate" in cls.__dict__:
                self._patch(cls, "on_activate", "mitigation.on_activate")
            if "advance_to" in cls.__dict__:
                self._patch(cls, "advance_to", "mitigation.advance")
        self._patch(generator.ProfileTrace, "next_record", "workloads.next_record")
        traced_build = self.wrap("workloads.build_trace", generator.build_benign_trace)
        for module in (generator, mixes):
            self._undo.append((module, "build_benign_trace", module.build_benign_trace))
            module.build_benign_trace = traced_build
        self._patch(ResultCache, "get", "harness.cache_get")
        self._install_put(ResultCache)
        self._install_execute_job(parallel)

    def _install_put(self, cache_cls) -> None:
        put = self.wrap("harness.cache_put", cache_cls.__dict__["put"])
        self._undo.append((cache_cls, "put", cache_cls.__dict__["put"]))
        count = self.counters

        def traced_put(cache, job, result):
            remote = result.extras.pop(REMOTE_KEY, None)
            if remote is not None:
                self.remote.append(remote)
            count["harness.result_bytes"] += len(pickle.dumps(result))
            return put(cache, job, result)

        cache_cls.put = traced_put

    def _install_execute_job(self, parallel) -> None:
        original = parallel.execute_job
        traced = self.wrap("harness.execute_job", original)
        self._undo.append((parallel, "execute_job", original))
        count = self.counters

        def traced_execute_job(job):
            in_worker = os.getpid() != self.pid
            if in_worker:
                self.reset()
            cpu = time.process_time()
            result = traced(job)
            count["harness.job_cpu_s"] += time.process_time() - cpu
            if in_worker:
                result.extras[REMOTE_KEY] = self.snapshot()
            return result

        parallel.execute_job = traced_execute_job

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _subclasses(cls) -> list[type]:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen
