"""Placeholder for the retired BlockHammer-plus-kill-governor mechanism.

The OS response to RHLI (Section 3.2.3: the system "might kill or
deschedule an attacking thread") lives in :mod:`repro.os`: attach a
:class:`~repro.os.governor.Governor` to the
:class:`~repro.sim.system.System`, or give a harness job
``GovernorSpec(policy="kill")`` (CLI ``ossweep --policies kill``).

The module stays importable because the layer tracer imports it by
name alongside :mod:`repro.core.blockhammer`.
"""
