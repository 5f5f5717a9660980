"""Unit tests for CBT, TWiCe, and Graphene (deterministic counters)."""

import pytest

from repro.dram.spec import DDR4_2400
from repro.mitigations.cbt import CounterBasedTree
from repro.mitigations.graphene import Graphene
from repro.mitigations.twice import TWiCe
from tests.test_mitigations_reactive import make_context


# ----------------------------------------------------------------------
# Graphene
# ----------------------------------------------------------------------
def test_graphene_sizing_rule():
    threshold, entries = Graphene.sizing(16384, DDR4_2400.tREFW, DDR4_2400.tRC)
    assert threshold == 4096
    # W / T = (64 ms / 46.25 ns) / 4096 ~ 338.
    assert entries == pytest.approx(338, abs=2)


def test_graphene_refreshes_at_threshold_multiples():
    graphene = Graphene(threshold=10)
    graphene.attach(make_context())
    for i in range(25):
        graphene.on_activate(0, 0, 100, 0, 0.0)
    vrefs = graphene.drain_victim_refreshes()
    # Refreshes fire at counts 10 and 20: 2 x 2 neighbors.
    assert len(vrefs) == 4
    assert all(row in (99, 101) for (_, _, row) in vrefs)


def test_graphene_tracks_frequent_rows_despite_full_table():
    graphene = Graphene(threshold=50)
    graphene.attach(make_context())
    graphene.table_entries = 4  # force a tiny table
    # Interleave one hot row with a stream of cold rows.
    for i in range(400):
        graphene.on_activate(0, 0, 7, 0, 0.0)
        graphene.on_activate(0, 0, 1000 + i, 0, 0.0)
    table = graphene._tables[(0, 0)]
    assert 7 in table
    # Misra-Gries may undercount but only by the spill value.
    spill = graphene._spill.get((0, 0), 0)
    assert table[7] + spill >= 400


def test_graphene_resets_each_refresh_window():
    graphene = Graphene(threshold=100)
    graphene.attach(make_context())
    graphene.on_activate(0, 0, 7, 0, 0.0)
    # The horizon is the next tREFW table reset.
    assert graphene.advance_to(DDR4_2400.tREFW + 1.0) == 2 * DDR4_2400.tREFW
    assert graphene._tables == {}


def test_graphene_is_deterministic_and_scalable():
    assert Graphene.deterministic_protection
    assert Graphene.scales_with_vulnerability
    assert not Graphene.commodity_compatible


# ----------------------------------------------------------------------
# TWiCe
# ----------------------------------------------------------------------
def test_twice_refreshes_at_threshold():
    twice = TWiCe()
    twice.attach(make_context(nrh=1024))
    threshold = twice.refresh_threshold
    for _ in range(threshold):
        twice.on_activate(0, 0, 100, 0, 0.0)
    vrefs = twice.drain_victim_refreshes()
    assert (0, 0, 99) in vrefs and (0, 0, 101) in vrefs


def test_twice_prunes_cold_entries():
    twice = TWiCe()
    twice.attach(make_context(nrh=32768))
    twice.on_activate(0, 0, 100, 0, 0.0)  # one ACT: far below prune rate
    assert 100 in twice._tables[(0, 0)]
    # After enough pruning intervals the cold entry dies.
    # Twenty prunes ran; the horizon is the next one.
    assert twice.advance_to(20 * DDR4_2400.tREFI) == 21 * DDR4_2400.tREFI
    assert 100 not in twice._tables[(0, 0)]


def test_twice_keeps_hot_entries():
    twice = TWiCe()
    twice.attach(make_context(nrh=1024))
    # Sustained high-rate activations survive pruning.
    now = 0.0
    for interval in range(5):
        for _ in range(200):
            twice.on_activate(0, 0, 100, 0, now)
        now += DDR4_2400.tREFI
        assert twice.advance_to(now) == now + DDR4_2400.tREFI
    assert twice.max_table_entries >= 1
    assert twice.refreshes_injected > 0


# ----------------------------------------------------------------------
# CBT
# ----------------------------------------------------------------------
def test_cbt_splits_hot_regions():
    cbt = CounterBasedTree(levels=4, counter_budget=125)
    cbt.attach(make_context(nrh=1024))
    for _ in range(2000):
        cbt.on_activate(0, 0, 100, 0, 0.0)
    root = cbt._roots[(0, 0)]
    assert not root.is_leaf  # the tree split toward the hot row
    assert cbt._counters_used[(0, 0)] > 1


def test_cbt_leaf_refreshes_region():
    cbt = CounterBasedTree(levels=2, counter_budget=125, max_refresh_rows=8)
    cbt.attach(make_context(nrh=256))
    for _ in range(3000):
        cbt.on_activate(0, 0, 100, 0, 0.0)
    assert cbt.region_refreshes > 0
    assert len(cbt.drain_victim_refreshes()) > 0


def test_cbt_counter_budget_limits_splits():
    cbt = CounterBasedTree(levels=10, counter_budget=3)
    cbt.attach(make_context(nrh=256))
    for _ in range(5000):
        cbt.on_activate(0, 0, 100, 0, 0.0)
    assert cbt._counters_used[(0, 0)] <= 3


def test_cbt_resets_every_window():
    cbt = CounterBasedTree()
    cbt.attach(make_context())
    cbt.on_activate(0, 0, 100, 0, 0.0)
    # The horizon is the next tREFW tree reset.
    assert cbt.advance_to(DDR4_2400.tREFW + 1.0) == 2 * DDR4_2400.tREFW
    assert cbt._roots == {}


def test_cbt_thresholds_ladder_monotone():
    cbt = CounterBasedTree(levels=6)
    cbt.attach(make_context(nrh=32768))
    assert cbt._thresholds == sorted(cbt._thresholds)
    assert cbt._thresholds[-1] == int(16384 / 2)
