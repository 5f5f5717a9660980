"""The hash family of the Bloom filters.

The paper uses four H3-class hash functions [17] built from hardwired
shifts and a seed XOR-mask; the seed is re-randomized whenever a filter
is cleared so an aggressor row aliases with a different set of rows each
epoch (Section 3.1.1).  :class:`MixHashFamily` models them with a
SplitMix64 finalizer over ``key ^ seed_i``: statistically comparable for
our purposes and several times faster in Python than a bit-serial H3.
``reseed()`` models the epoch-boundary seed swap.
"""

from __future__ import annotations

from repro.utils.rng import DeterministicRng
from repro.utils.validation import require

_MASK64 = (1 << 64) - 1


class MixHashFamily:
    """k 64-bit-mixer hash functions mapping integer keys into [0, size).

    ``indices`` results are memoized per seed epoch: row keys repeat
    heavily between reseeds (a hammered row is hashed on every ACT and
    on every blacklist re-query), and the memo is invalidated wholesale
    when :meth:`reseed` swaps the seeds at an epoch boundary.  The memo
    is bounded by the number of distinct keys seen per epoch (at most
    the rows touched per bank per epoch).  Callers must not mutate the
    returned list.
    """

    def __init__(self, k: int, size: int, rng: DeterministicRng) -> None:
        require(k >= 1, "need at least one hash function")
        require(size >= 2, "hash range must be >= 2")
        self.k = k
        self.size = size
        self._rng = rng
        self.reseed()

    def reseed(self) -> None:
        """Draw fresh per-function seeds (called on every filter clear)."""
        self._seeds = [self._rng.next_seed() for _ in range(self.k)]
        self._memo: dict[int, list[int]] = {}

    def indices(self, key: int) -> list[int]:
        """The k array indices for ``key``."""
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        out = []
        size = self.size
        for seed in self._seeds:
            z = (key ^ seed) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            z ^= z >> 31
            out.append(z % size)
        self._memo[key] = out
        return out
