"""BlockHammer: the paper's primary contribution.

RowBlocker (Section 3.1) tracks per-row activation rates with dual
counting Bloom filters and delays activations to blacklisted,
recently-activated rows; AttackThrottler (Section 3.2) identifies attack
threads via the RowHammer Likelihood Index and throttles their in-flight
requests.  :class:`BlockHammer` packages both behind the standard
mitigation interface.
"""

from repro.core.hashing import MixHashFamily
from repro.core.bloom import BloomFilter, CountingBloomFilter
from repro.core.dcbf import DualCountingBloomFilter
from repro.core.history import ActivationHistoryBuffer
from repro.core.config import BlockHammerConfig
from repro.core.rowblocker import RowBlocker, RowBlockerBL, DelayStats
from repro.core.throttler import AttackThrottler
from repro.core.blockhammer import BlockHammer

__all__ = [
    "MixHashFamily",
    "BloomFilter",
    "CountingBloomFilter",
    "DualCountingBloomFilter",
    "ActivationHistoryBuffer",
    "BlockHammerConfig",
    "RowBlocker",
    "RowBlockerBL",
    "DelayStats",
    "AttackThrottler",
    "BlockHammer",
]
