"""CPU-side substrate: post-LLC access traces and a bounded-MLP core
model (3.2 GHz, 4-wide, 128-entry window per Table 5)."""

from repro.cpu.trace import TraceRecord, Trace, ListTrace, CallableTrace
from repro.cpu.core import Core, CoreParams

__all__ = [
    "TraceRecord",
    "Trace",
    "ListTrace",
    "CallableTrace",
    "Core",
    "CoreParams",
]
