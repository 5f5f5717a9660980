"""Factory registry mapping mechanism names to constructors.

The experiment harness and benchmarks refer to mechanisms by name; this
keeps sweep definitions declarative (``for name in MECHANISMS: ...``).
"""

from __future__ import annotations

from typing import Callable

from repro.mitigations.base import MitigationMechanism, NoMitigation
from repro.mitigations.cbt import CounterBasedTree
from repro.mitigations.graphene import Graphene
from repro.mitigations.mrloc import MrLoc
from repro.mitigations.naive_throttle import NaiveThrottling
from repro.mitigations.para import Para
from repro.mitigations.prohit import ProHit
from repro.mitigations.refresh_rate import IncreasedRefreshRate
from repro.mitigations.twice import TWiCe
from repro.utils.validation import ConfigError

def _blockhammer(**kwargs) -> MitigationMechanism:
    # Imported lazily: repro.core.blockhammer imports this package's
    # ``base`` module, so a top-level import here would be circular.
    from repro.core.blockhammer import BlockHammer

    return BlockHammer(**kwargs)


def _blockhammer_observe(**kwargs) -> MitigationMechanism:
    from repro.core.blockhammer import BlockHammer

    return BlockHammer(observe_only=True, **kwargs)


_FACTORIES: dict[str, Callable[..., MitigationMechanism]] = {
    "none": NoMitigation,
    "para": Para,
    "prohit": ProHit,
    "mrloc": MrLoc,
    "cbt": CounterBasedTree,
    "twice": TWiCe,
    "graphene": Graphene,
    "blockhammer": _blockhammer,
    "blockhammer-observe": _blockhammer_observe,
    "refresh-rate": IncreasedRefreshRate,
    "naive-throttle": NaiveThrottling,
}

#: The six state-of-the-art baselines of the paper's evaluation plus
#: BlockHammer, in the order of Figure 4/5 legends.
PAPER_MECHANISMS = ["para", "prohit", "mrloc", "cbt", "twice", "graphene", "blockhammer"]


def available_mitigations() -> list[str]:
    """All registered mechanism names."""
    return sorted(_FACTORIES)


def build_mitigation(name: str, **kwargs) -> MitigationMechanism:
    """Instantiate a mechanism by registry name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown mitigation {name!r}; known: {', '.join(available_mitigations())}"
        ) from None
    return factory(**kwargs)
