"""Declarative governor configuration for the experiment harness.

A :class:`GovernorSpec` is the picklable, hashable description of a
governor — what a :class:`~repro.harness.parallel.SimJob` can carry
across a process boundary and what the persistent result cache can key
on (its ``repr`` is stable and covers every field).  The spec names a
policy by registry string and carries that policy's knobs;
:func:`build_governor` turns it into a live
:class:`~repro.os.governor.Governor` inside the worker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.os.governor import Governor
from repro.os.policies import KillPolicy, MigratePolicy, QuotaScalePolicy
from repro.utils.validation import ConfigError, require

#: Policy registry names a spec may carry.
OS_POLICY_NAMES = ("kill", "quota", "migrate")


@dataclass(frozen=True)
class GovernorSpec:
    """One governor configuration (its policies + their knobs).

    ``policy`` is a registry name, or several joined with ``+``
    (``"quota+kill"``) for a multi-policy governor — policies review in
    the listed order each epoch.  ``threshold`` is the suspect
    threshold shared by every listed policy (``kill_rhli`` for kill,
    ``suspect_score`` for quota/migrate); ``None`` defers to each
    policy's own default.  ``epoch_ns`` of ``None`` defers to the
    attach-time default (the mechanism's RHLI epoch).
    """

    policy: str
    epoch_ns: float | None = None
    threshold: float | None = None
    patience_epochs: int = 1
    decay: float = 0.5
    recovery: float = 2.0
    min_scale: float = 1.0 / 64.0
    quarantine_channel: int | None = None

    @property
    def policy_names(self) -> tuple[str, ...]:
        return tuple(self.policy.split("+"))

    def __post_init__(self) -> None:
        require(len(self.policy_names) >= 1, "governor spec needs a policy")
        for name in self.policy_names:
            require(
                name in OS_POLICY_NAMES,
                f"unknown governor policy {name!r}; "
                f"known: {', '.join(OS_POLICY_NAMES)}",
            )
        # Build once so a bad knob fails here, not later in a worker.
        build_governor(self)


def _build_policy(spec: GovernorSpec, name: str):
    if name == "kill":
        return KillPolicy(
            patience_epochs=spec.patience_epochs,
            **({"kill_rhli": spec.threshold} if spec.threshold is not None else {}),
        )
    if name == "quota":
        return QuotaScalePolicy(
            decay=spec.decay,
            recovery=spec.recovery,
            min_scale=spec.min_scale,
            **(
                {"suspect_score": spec.threshold}
                if spec.threshold is not None
                else {}
            ),
        )
    if name == "migrate":
        return MigratePolicy(
            patience_epochs=spec.patience_epochs,
            quarantine_channel=spec.quarantine_channel,
            **(
                {"suspect_score": spec.threshold}
                if spec.threshold is not None
                else {}
            ),
        )
    # pragma: no cover - __post_init__ rejects unknown names
    raise ConfigError(f"unknown governor policy {name!r}")


def build_governor(spec: GovernorSpec | None) -> Governor | None:
    """Instantiate the governor a spec describes (``None`` passes
    through, meaning "no governor")."""
    if spec is None:
        return None
    policies = [_build_policy(spec, name) for name in spec.policy_names]
    return Governor(policies, epoch_ns=spec.epoch_ns)
