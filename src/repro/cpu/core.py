"""A bounded-MLP trace-replay core model.

Models the paper's cores (3.2 GHz, 4-wide issue, 128-entry instruction
window) at the fidelity DRAM studies need: compute instructions execute
at the issue width, reads occupy one of ``max_outstanding`` miss slots
until their data returns (bounding memory-level parallelism, as the
instruction window does), and writes are posted (they retire on queue
acceptance but still occupy DRAM bandwidth).

The core is event-driven: :meth:`wake` makes as much forward progress as
possible at the current time and reports when it next needs the clock;
the System calls :meth:`on_complete` when a read returns.

``wake``/``_fetch_next`` are the second-hottest path in the simulator
after the FR-FCFS scheduler (~15% of a baseline run): per-wake work is
kept to plain locals, the per-instruction time step and the trace/
mapping entry points are bound once instead of re-resolved per record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.cache import SetAssocCache
from repro.cpu.trace import Trace
from repro.dram.address import AddressMapping
from repro.mem.request import Request, RequestKind
from repro.utils.validation import require


@dataclass(frozen=True)
class CoreParams:
    """Core microarchitecture knobs (Table 5 defaults)."""

    freq_ghz: float = 3.2
    issue_width: int = 4
    max_outstanding: int = 8
    retry_delay_ns: float = 10.0
    retry_backoff_max_ns: float = 1000.0

    def __post_init__(self) -> None:
        require(self.freq_ghz > 0, "frequency must be positive")
        require(self.issue_width >= 1, "issue width must be >= 1")
        require(self.max_outstanding >= 1, "MLP must be >= 1")

    @property
    def ns_per_instruction(self) -> float:
        """Compute time per instruction at full issue width."""
        return 1.0 / (self.freq_ghz * self.issue_width)


class Core:
    """One thread's core, replaying a trace against the memory system.

    ``controller`` is anything with the controller enqueue interface —
    a single :class:`~repro.mem.controller.MemoryController` or the
    channel-routing :class:`~repro.mem.memsystem.MemorySystem`.
    """

    def __init__(
        self,
        thread_id: int,
        trace: Trace,
        controller,
        mapping: AddressMapping,
        params: CoreParams | None = None,
        llc: SetAssocCache | None = None,
    ) -> None:
        self.thread_id = thread_id
        self.trace = trace
        self.controller = controller
        self.mapping = mapping
        self.params = params or CoreParams()
        self.llc = llc
        self.instructions_target: int | None = None
        self.instructions_retired = 0
        self.finish_time: float | None = None
        self.measure_start = 0.0
        self._exec_head = 0.0  # virtual execution clock
        self._outstanding_reads: set[Request] = set()
        self._pending: Request | None = None  # injection-blocked request
        self._pending_writeback: Request | None = None
        self._retry_delay = self.params.retry_delay_ns
        self._trace_done = False
        # OS governor hooks (repro.os): a descheduled core issues no
        # further requests; the MLP limit starts at the parameter value
        # and an OS quota policy may scale it down/back up; migration
        # rebinds the decoder to re-pin future requests to one channel.
        self.descheduled_at: float | None = None
        self.requests_issued = 0
        self.requests_at_deschedule: int | None = None
        self.repinned_channel: int | None = None
        self._mlp_limit = self.params.max_outstanding
        # Hot-path bindings, resolved once per core instead of per wake:
        # the per-instruction time step (a property computing a division)
        # and the mapping's decoder.
        self._ns_per_instr = self.params.ns_per_instruction
        self._decode = mapping.decode

    # ------------------------------------------------------------------
    @property
    def trace(self) -> Trace:
        return self._trace

    @trace.setter
    def trace(self, trace: Trace) -> None:
        # Rebind the hot fetch entry point whenever the trace changes.
        self._trace = trace
        self._next_record = trace.next_record

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Target instructions retired and all reads returned."""
        if self.instructions_target is None:
            return False
        return (
            self.instructions_retired >= self.instructions_target or self._trace_done
        ) and not self._outstanding_reads

    def _goal_reached(self) -> bool:
        if self._trace_done:
            return True
        if self.instructions_target is None:
            return False
        return self.instructions_retired >= self.instructions_target

    # ------------------------------------------------------------------
    def wake(self, now: float) -> float | None:
        """Advance the core as far as possible at ``now``.

        Returns the next time the core needs waking, or None when it is
        blocked waiting for a read completion (or finished).  A killed
        (descheduled) core issues nothing more.
        """
        if self.descheduled_at is not None:
            return None
        return self._wake_running(now)

    def _wake_running(self, now: float) -> float | None:
        """:meth:`wake` for a core that is still scheduled."""
        controller = self.controller
        outstanding = self._outstanding_reads
        max_outstanding = self._mlp_limit
        while True:
            # Drain any stashed request first: it belongs to already-
            # retired instructions and must issue even if the retirement
            # goal has been reached meanwhile.
            request = self._pending or self._pending_writeback
            if request is None:
                if self._goal_reached():
                    self._maybe_finish(now)
                    return None
                fetched = self._fetch_next(now)
                if fetched is None:
                    continue  # LLC hit: account and fetch again
                request = fetched
            if now < self._exec_head:
                # Compute phase not finished yet; hold the request.
                self._stash(request)
                return self._exec_head

            if not request.is_write and len(outstanding) >= max_outstanding:
                self._stash(request)
                return None  # wait for a read to return

            request.arrival = now
            if not controller.enqueue(request, now):
                self._stash(request)
                delay = self._retry_delay
                self._retry_delay = min(
                    self._retry_delay * 2.0, self.params.retry_backoff_max_ns
                )
                return now + delay

            # Accepted.
            self.requests_issued += 1
            self._retry_delay = self.params.retry_delay_ns
            if request is self._pending:
                self._pending = None
            elif request is self._pending_writeback:
                self._pending_writeback = None
            if not request.is_write:
                outstanding.add(request)

    def on_complete(self, request: Request, now: float) -> None:
        """A read this core issued has returned its data."""
        self._outstanding_reads.discard(request)
        self._maybe_finish(now)

    # ------------------------------------------------------------------
    # OS governor hooks (repro.os): deschedule / quota / migrate.
    # ------------------------------------------------------------------
    def deschedule(self, now: float) -> None:
        """Kill this thread: no request issues after ``now``.

        In-flight requests drain normally (they were issued before the
        kill); the stashed pending request, if any, never issues.
        """
        if self.descheduled_at is None:
            self.descheduled_at = now
            self.requests_at_deschedule = self.requests_issued

    def set_mlp_scale(self, scale: float) -> None:
        """Scale the MLP limit (OS quota): effective max-outstanding is
        ``max(1, floor(max_outstanding * scale))`` — a quota of one
        request keeps even a fully-decayed thread schedulable, matching
        AttackThrottler's nonzero floor below RHLI 1."""
        require(scale > 0.0, "quota scale must be positive")
        self._mlp_limit = max(1, int(self.params.max_outstanding * min(scale, 1.0)))

    def repin_channel(self, channel: int) -> None:
        """Re-pin future requests to ``channel`` (OS migration).

        Rebinds the decoder so every address decodes onto the
        quarantine channel; bank/row coordinates are unchanged
        (modeling the OS remapping the thread's pages channel-wise).
        """
        if self.repinned_channel == channel:
            return
        self.repinned_channel = channel
        base_decode = self.mapping.decode

        def decode(address: int, _base=base_decode, _channel=channel):
            return _base(address)._replace(channel=_channel)

        self._decode = decode

    # ------------------------------------------------------------------
    def _stash(self, request: Request) -> None:
        if request.is_write and self._pending is not None:
            self._pending_writeback = request
        elif request is not self._pending and request is not self._pending_writeback:
            self._pending = request

    def _fetch_next(self, now: float) -> Request | None:
        """Fetch the next trace record, filter it through the LLC.

        Returns a Request to inject, or None when the access hit in the
        LLC (instructions were still retired).
        """
        try:
            record = self._next_record()
        except StopIteration:
            self._trace_done = True
            self._maybe_finish(now)
            return None
        gap = record.gap
        self.instructions_retired += gap + 1
        exec_head = self._exec_head
        if exec_head < 0.0:
            exec_head = 0.0
        self._exec_head = exec_head + gap * self._ns_per_instr
        if self.llc is not None:
            result = self.llc.access(record.address, record.is_write)
            if result.hit:
                return None
            if result.writeback_address is not None:
                wb = Request(
                    self.thread_id,
                    RequestKind.WRITE,
                    self._decode(result.writeback_address),
                    arrival=now,
                )
                self._pending_writeback = wb
            # A write miss allocates the line: the DRAM-side request is a
            # line fill (read); the dirty data leaves later as writeback.
            kind = RequestKind.READ
        else:
            kind = RequestKind.WRITE if record.is_write else RequestKind.READ
        return Request(self.thread_id, kind, self._decode(record.address), arrival=now)

    def _maybe_finish(self, now: float) -> None:
        if self.finish_time is None and self.done:
            self.finish_time = now

    # ------------------------------------------------------------------
    def reset_measurement(self, now: float, target: int | None) -> None:
        """Zero performance counters after a warmup phase."""
        self.instructions_retired = 0
        self.finish_time = None
        self.measure_start = now
        self.instructions_target = target

    def ipc(self) -> float:
        """Retired instructions per *CPU cycle* over the measured span."""
        if self.finish_time is None:
            return 0.0
        span = self.finish_time - self.measure_start
        if span <= 0.0:
            return 0.0
        return self.instructions_retired / (span * self.params.freq_ghz)
