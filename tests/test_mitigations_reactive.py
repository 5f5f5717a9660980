"""Unit tests for PARA, PRoHIT, and MRLoc (probabilistic reactive
mechanisms)."""

import pytest

from repro.dram.spec import DDR4_2400
from repro.mitigations.base import MitigationContext
from repro.mitigations.mrloc import MrLoc
from repro.mitigations.para import Para
from repro.mitigations.prohit import ProHit
from repro.utils.rng import DeterministicRng


def make_context(nrh=32768, spec=None):
    spec = spec or DDR4_2400

    def adjacency(rank, bank, row, distance):
        out = []
        for k in range(1, distance + 1):
            if row - k >= 0:
                out.append(row - k)
            if row + k < spec.rows_per_bank:
                out.append(row + k)
        return out

    return MitigationContext(
        spec=spec,
        num_threads=2,
        rng=DeterministicRng(5),
        adjacency=adjacency,
        nrh=nrh,
        blast_radius=1,
    )


# ----------------------------------------------------------------------
# PARA
# ----------------------------------------------------------------------
def test_para_probability_tuning():
    para = Para(failure_target=1e-15)
    para.attach(make_context(nrh=32768))
    # p = 2 (1 - 1e-15^(1/16384)) ~ 0.0042 for NRH_eff = 16K.
    assert para.probability == pytest.approx(0.00421, rel=0.02)


def test_para_probability_grows_as_nrh_shrinks():
    low, high = Para(), Para()
    low.attach(make_context(nrh=1024))
    high.attach(make_context(nrh=32768))
    assert low.probability > high.probability


def test_para_probability_override():
    para = Para(probability=0.125)
    para.attach(make_context())
    assert para.probability == 0.125


def test_para_injects_adjacent_refreshes_at_expected_rate():
    para = Para(probability=0.5)
    para.attach(make_context())
    for _ in range(2000):
        para.on_activate(0, 0, 100, 0, 0.0)
    vrefs = para.drain_victim_refreshes()
    assert 800 < len(vrefs) < 1200
    assert all(row in (99, 101) for (_, _, row) in vrefs)


def test_para_escape_probability_math():
    """The analytical protection guarantee: with tuned p, the chance an
    aggressor escapes NRH_eff activations is below the target."""
    target = 1e-15
    nrh_eff = 16384
    p = Para.tuned_probability(nrh_eff, target)
    escape = (1.0 - p / 2.0) ** nrh_eff
    assert escape <= target * 1.001


def test_para_is_stateless_probabilistic():
    para = Para()
    assert not para.deterministic_protection
    assert not para.commodity_compatible  # needs adjacency knowledge


# ----------------------------------------------------------------------
# PRoHIT
# ----------------------------------------------------------------------
def test_prohit_promotes_and_refreshes_hot_rows():
    prohit = ProHit(insert_probability=1.0)
    prohit.attach(make_context())
    for _ in range(10):
        prohit.on_activate(0, 0, 500, 0, 0.0)
    # Advance past one tREFI tick: hottest entry's neighbors refreshed.
    # The horizon is the next tREFI tick.
    assert prohit.advance_to(DDR4_2400.tREFI + 1.0) == 2 * DDR4_2400.tREFI
    vrefs = prohit.drain_victim_refreshes()
    assert (0, 0, 499) in vrefs and (0, 0, 501) in vrefs


def test_prohit_insert_probability_filters():
    prohit = ProHit(insert_probability=0.0)
    prohit.attach(make_context())
    for _ in range(100):
        prohit.on_activate(0, 0, 500, 0, 0.0)
    # The horizon is the next tREFI tick.
    assert prohit.advance_to(DDR4_2400.tREFI + 1.0) == 2 * DDR4_2400.tREFI
    assert prohit.drain_victim_refreshes() == []


def test_prohit_tables_bounded():
    prohit = ProHit(hot_entries=4, cold_entries=16, insert_probability=1.0)
    prohit.attach(make_context())
    for row in range(200):
        prohit.on_activate(0, 0, row, 0, 0.0)
        prohit.on_activate(0, 0, row, 0, 0.0)  # promote
    hot = prohit._hot[(0, 0)]
    cold = prohit._cold[(0, 0)]
    assert len(hot) <= 4
    assert len(cold) <= 16


# ----------------------------------------------------------------------
# MRLoc
# ----------------------------------------------------------------------
def test_mrloc_boosts_probability_on_locality():
    """Hammering one aggressor (high victim locality) triggers far more
    refreshes under the locality boost than without it."""

    def refreshes_with_boost(boost):
        mrloc = MrLoc(base_probability=0.02, locality_boost=boost, queue_depth=16)
        mrloc.attach(make_context())
        for _ in range(3000):
            mrloc.on_activate(0, 0, 100, 0, 0.0)
        return len(mrloc.drain_victim_refreshes())

    assert refreshes_with_boost(8.0) > 2.0 * refreshes_with_boost(1.0)


def test_mrloc_cold_victims_use_base_probability():
    mrloc = MrLoc(base_probability=0.0, locality_boost=8.0)
    mrloc.attach(make_context())
    for row in range(0, 4000, 2):
        mrloc.on_activate(0, 0, row + 1, 0, 0.0)
    assert mrloc.drain_victim_refreshes() == []


def test_mrloc_base_probability_derived_from_para():
    mrloc = MrLoc()
    mrloc.attach(make_context(nrh=32768))
    para_p = Para.tuned_probability(16384)
    assert mrloc.probability == pytest.approx(para_p / 2.0, rel=1e-6)
