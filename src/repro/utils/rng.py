"""Deterministic random number generation.

All stochastic components (trace generators, probabilistic mitigation
mechanisms, Bloom filter reseeding) draw from explicitly-seeded RNGs so
that every experiment is reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import random

from repro.utils.validation import require

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state and return ``(new_state, output)``.

    SplitMix64 is a tiny, statistically solid 64-bit mixer.  We use it to
    derive independent hash seeds (e.g. for H3 hash functions) from a
    single experiment seed without correlation between consecutive seeds.
    """
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def _zero() -> int:
    return 0


class DeterministicRng:
    """A seeded RNG facade used throughout the simulator.

    Wraps :class:`random.Random` (Mersenne Twister) for distribution
    sampling and exposes a SplitMix64 stream for deriving hash seeds.
    Components should never use the global ``random`` module.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._random = random.Random(seed)
        self._splitmix_state = seed & _MASK64

    def next_seed(self) -> int:
        """Return the next 64-bit seed from the SplitMix64 stream."""
        self._splitmix_state, out = splitmix64(self._splitmix_state)
        return out

    def uniform(self) -> float:
        """Return a float in [0, 1)."""
        return self._random.random()

    def uniform_sampler(self):
        """A zero-argument :meth:`uniform`: the bound
        ``random.Random.random`` itself, so a draw runs no Python frame."""
        return self._random.random

    def randint(self, low: int, high: int) -> int:
        """Return an integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, items):
        """Return a uniformly random element of ``items``."""
        return self._random.choice(items)

    def shuffle(self, items) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def geometric(self, mean: float) -> int:
        """Sample a geometric-ish gap with the given mean (>= 0).

        Used by trace generators for inter-request instruction gaps.
        """
        return self.geometric_sampler(mean)()

    def geometric_sampler(self, mean: float):
        """A zero-argument :meth:`geometric` for a fixed ``mean``.

        Each call draws from this RNG exactly as ``geometric(mean)``
        would; ``log(1 - p)`` is computed once instead of per sample.
        """
        if mean <= 0.0:
            return _zero
        # Inverse-CDF sampling of a geometric distribution with the
        # requested mean; p = 1 / (mean + 1).
        draw = self._random.random
        log = math.log
        log_q = log(1.0 - 1.0 / (mean + 1.0))

        def sample() -> int:
            u = draw()
            return int(log(u if u > 1e-12 else 1e-12) / log_q)

        return sample

    def int_sampler(self, low: int, high: int):
        """A zero-argument :meth:`randint` for a fixed ``[low, high]``.

        Each call draws from this RNG exactly as ``randint(low, high)``
        would, in one Python frame instead of three.  CPython's
        ``randint(a, b)`` is ``a + _randbelow(b - a + 1)``, and
        ``random.Random._randbelow`` is ``_randbelow_with_getrandbits``:
        rejection sampling over ``getrandbits(n.bit_length())``.  This is
        the one place that relies on that internal; the record-stream
        digest (``tests/trace_digest.py``) and ``tests/test_rng.py``
        check it against ``randint`` on every supported interpreter.
        """
        require(high >= low, f"empty integer range [{low}, {high}]")
        n = high - low + 1
        bits = n.bit_length()
        getrandbits = self._random.getrandbits

        def sample() -> int:
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            return low + r

        return sample

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent child RNG from this one.

        The child seed mixes the parent seed with a stable hash of
        ``label`` so that adding a new consumer does not perturb the
        streams of existing consumers.
        """
        label_hash = 0
        for ch in label:
            label_hash = (label_hash * 131 + ord(ch)) & _MASK64
        _, derived = splitmix64((self.seed ^ label_hash) & _MASK64)
        return DeterministicRng(derived)
