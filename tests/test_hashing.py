"""Unit tests for the Bloom filters' hash family."""

import pytest
from hypothesis import given, strategies as st

from repro.core.hashing import MixHashFamily
from repro.utils.rng import DeterministicRng
from repro.utils.validation import ConfigError


@pytest.fixture(params=[MixHashFamily])
def family(request):
    return request.param(k=4, size=1024, rng=DeterministicRng(5))


def test_indices_in_range(family):
    for key in range(0, 70000, 997):
        for index in family.indices(key):
            assert 0 <= index < family.size


def test_indices_deterministic(family):
    assert family.indices(12345) == family.indices(12345)


def test_reseed_changes_mapping(family):
    before = family.indices(12345)
    family.reseed()
    after = family.indices(12345)
    assert before != after  # astronomically unlikely to collide on 4 indices


def test_k_functions_returned(family):
    assert len(family.indices(7)) == 4


def test_distribution_roughly_uniform(family):
    counts = [0] * family.size
    for key in range(4000):
        for index in family.indices(key):
            counts[index] += 1
    # 16000 insertions over 1024 buckets: mean ~15.6; no bucket should
    # be pathologically hot.
    assert max(counts) < 60


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_mix_family_total(key):
    family = MixHashFamily(k=2, size=333, rng=DeterministicRng(2))
    for index in family.indices(key):
        assert 0 <= index < 333


def test_invalid_construction():
    with pytest.raises(ConfigError):
        MixHashFamily(k=0, size=16, rng=DeterministicRng(1))
    with pytest.raises(ConfigError):
        MixHashFamily(k=1, size=1, rng=DeterministicRng(1))
