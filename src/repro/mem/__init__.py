"""Memory controller substrate: requests, queues, FR-FCFS scheduling,
refresh management, and the controller itself."""

from repro.mem.request import Request, RequestKind
from repro.mem.queues import RequestQueue
from repro.mem.scheduler import SchedulingPolicy, FrFcfsPolicy
from repro.mem.refresh import RefreshManager
from repro.mem.controller import MemoryController, ControllerConfig, ThreadMemStats

__all__ = [
    "Request",
    "RequestKind",
    "RequestQueue",
    "SchedulingPolicy",
    "FrFcfsPolicy",
    "RefreshManager",
    "MemoryController",
    "ControllerConfig",
    "ThreadMemStats",
]
