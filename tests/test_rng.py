"""Unit tests for the deterministic RNG."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import DeterministicRng, splitmix64
from repro.utils.validation import ConfigError


def test_same_seed_same_stream():
    a = DeterministicRng(42)
    b = DeterministicRng(42)
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]
    assert [a.next_seed() for _ in range(20)] == [b.next_seed() for _ in range(20)]


def test_different_seeds_differ():
    a = DeterministicRng(1)
    b = DeterministicRng(2)
    assert [a.next_seed() for _ in range(4)] != [b.next_seed() for _ in range(4)]


def test_fork_is_deterministic_and_independent():
    parent = DeterministicRng(7)
    child1 = parent.fork("bloom")
    child2 = DeterministicRng(7).fork("bloom")
    other = DeterministicRng(7).fork("history")
    s1 = [child1.next_seed() for _ in range(5)]
    assert s1 == [child2.next_seed() for _ in range(5)]
    assert s1 != [other.next_seed() for _ in range(5)]


def test_fork_does_not_consume_parent_stream():
    a = DeterministicRng(9)
    b = DeterministicRng(9)
    a.fork("x")
    assert a.uniform() == b.uniform()


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_splitmix_output_is_64bit(state):
    new_state, out = splitmix64(state)
    assert 0 <= new_state < (1 << 64)
    assert 0 <= out < (1 << 64)


def test_splitmix_advances_state():
    s0 = 12345
    s1, o1 = splitmix64(s0)
    s2, o2 = splitmix64(s1)
    assert s1 != s0 and s2 != s1
    assert o1 != o2


@given(st.floats(min_value=0.5, max_value=500.0))
def test_geometric_mean_nonnegative(mean):
    rng = DeterministicRng(3)
    samples = [rng.geometric(mean) for _ in range(200)]
    assert all(s >= 0 for s in samples)


def test_geometric_mean_tracks_target():
    rng = DeterministicRng(3)
    mean = 50.0
    samples = [rng.geometric(mean) for _ in range(5000)]
    observed = sum(samples) / len(samples)
    assert 0.7 * mean < observed < 1.3 * mean


def test_geometric_zero_mean():
    rng = DeterministicRng(3)
    assert rng.geometric(0.0) == 0


@pytest.mark.parametrize(
    "low, high", [(0, 2047), (2, 3), (5, 5), (-3, 1000), (0, (1 << 40) + 3)]
)
def test_int_sampler_matches_randint(low, high):
    """Same values, same RNG consumption: a same-seeded ``randint``
    stream, and the next ``uniform`` draw, agree exactly."""
    a, b = DeterministicRng(11), DeterministicRng(11)
    draw = a.int_sampler(low, high)
    assert [draw() for _ in range(10_000)] == [b.randint(low, high) for _ in range(10_000)]
    assert a.uniform_sampler()() == b.uniform()


def test_int_sampler_rejects_empty_range():
    with pytest.raises(ConfigError):
        DeterministicRng(1).int_sampler(3, 2)
