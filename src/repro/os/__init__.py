"""The OS governor subsystem: closed-loop scheduling above the memory
system.

BlockHammer Section 3.2.3 exposes per-thread RHLI to system software
and leaves OS policy design to future work; this package is that layer.
An epoch-driven :class:`~repro.os.governor.Governor` samples the
per-thread/per-channel telemetry every mitigation mechanism exposes
(:meth:`~repro.mitigations.base.MitigationMechanism.os_telemetry` —
RHLI, blacklist/delay counters — plus the controllers' blocked-
injection counts) and drives pluggable scheduling policies:

* :class:`~repro.os.policies.KillPolicy` — deschedule a thread after N
  consecutive suspect epochs (the paper's "kill or deschedule");
* :class:`~repro.os.policies.QuotaScalePolicy` — BreakHammer-style
  multiplicative MLP-quota decay on suspect threads with multiplicative
  recovery once they behave;
* :class:`~repro.os.policies.MigratePolicy` — re-pin a suspect thread's
  future requests to a quarantine channel, isolating its interference.

The governor is attached to a :class:`~repro.sim.system.System`
(harness jobs carry it as a picklable
:class:`~repro.os.spec.GovernorSpec`), reviewed from the event loop,
and acts on cores.  Disabled (the default) it costs nothing: no events
are scheduled and no hooks fire.
"""

from repro.os.governor import Governor
from repro.os.policies import KillPolicy, MigratePolicy, OsPolicy, QuotaScalePolicy
from repro.os.spec import GovernorSpec, build_governor
from repro.os.telemetry import TelemetrySample, ThreadTelemetry, sample_telemetry

__all__ = [
    "Governor",
    "GovernorSpec",
    "KillPolicy",
    "MigratePolicy",
    "OsPolicy",
    "QuotaScalePolicy",
    "TelemetrySample",
    "ThreadTelemetry",
    "build_governor",
    "sample_telemetry",
]
