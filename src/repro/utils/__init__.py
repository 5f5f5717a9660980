"""Shared utilities: time units, deterministic RNG, validation helpers."""

from repro.utils.units import NS, US, MS, SEC
from repro.utils.rng import DeterministicRng, splitmix64
from repro.utils.validation import ConfigError, require

__all__ = [
    "NS",
    "US",
    "MS",
    "SEC",
    "DeterministicRng",
    "splitmix64",
    "ConfigError",
    "require",
]
