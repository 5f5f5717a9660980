"""Unit tests for the RowHammer disturbance model."""

import pytest

from repro.dram.rowhammer import DisturbanceModel, DisturbanceProfile, impact_sum
from repro.utils.validation import ConfigError


def make_model(nrh=10, blast=1, decay=0.5, rows=100):
    profile = DisturbanceProfile(nrh=nrh, blast_radius=blast, decay=decay)
    return DisturbanceModel(profile, rows=rows, rank=0, bank=0)


def test_impact_factors():
    profile = DisturbanceProfile(nrh=100, blast_radius=3, decay=0.5)
    assert profile.impact(1) == 1.0
    assert profile.impact(2) == 0.5
    assert profile.impact(3) == 0.25
    assert profile.impact(4) == 0.0
    assert profile.impact(0) == 0.0
    assert impact_sum(profile.blast_radius, profile.decay) == pytest.approx(1.75)


def test_paper_worst_case_profile():
    profile = DisturbanceProfile.paper_worst_case()
    assert profile.blast_radius == 6
    # Eq. 3 denominator: NRH* = 0.2539 NRH for this profile.
    nrh_star_ratio = 1.0 / (2.0 * impact_sum(profile.blast_radius, profile.decay))
    assert nrh_star_ratio == pytest.approx(0.2539, abs=1e-3)


def test_adjacent_rows_accumulate_disturbance():
    model = make_model(nrh=10)
    for _ in range(5):
        model.on_activate(50, now=0.0)
    assert model.disturbance_of(49) == 5.0
    assert model.disturbance_of(51) == 5.0
    assert model.disturbance_of(50) == 0.0
    assert model.disturbance_of(48) == 0.0  # outside blast radius 1


def test_bitflip_at_threshold():
    model = make_model(nrh=10)
    flips = []
    for i in range(12):
        flips += model.on_activate(50, now=float(i))
    assert len(model.bitflips) == 2  # rows 49 and 51
    assert {f.physical_row for f in model.bitflips} == {49, 51}
    assert all(f.disturbance >= 10 for f in model.bitflips)


def test_one_flip_record_per_victim_per_refresh_period():
    model = make_model(nrh=3)
    for _ in range(10):
        model.on_activate(50, now=0.0)
    assert len([f for f in model.bitflips if f.physical_row == 49]) == 1
    model.on_refresh_row(49)
    for _ in range(5):
        model.on_activate(50, now=1.0)
    assert len([f for f in model.bitflips if f.physical_row == 49]) == 2


def test_refresh_resets_disturbance():
    model = make_model(nrh=10)
    for _ in range(5):
        model.on_activate(50, now=0.0)
    model.on_refresh_row(49)
    assert model.disturbance_of(49) == 0.0
    assert model.disturbance_of(51) == 5.0


def test_refresh_range_small_and_large_paths():
    model = make_model(nrh=100, rows=100)
    for _ in range(5):
        model.on_activate(50, now=0.0)
        model.on_activate(10, now=0.0)
    # Large-count path (scans tracked rows).
    model.on_refresh_range(0, 60)
    assert model.disturbance_of(49) == 0.0
    assert model.disturbance_of(51) == 0.0
    assert model.disturbance_of(9) == 0.0
    # Small-count path (walks the range).
    for _ in range(5):
        model.on_activate(80, now=0.0)
    model.on_refresh_range(79, 3)
    assert model.disturbance_of(79) == 0.0
    assert model.disturbance_of(81) == 0.0


def test_refresh_range_wraparound():
    model = make_model(nrh=100, rows=100)
    model.on_activate(0, now=0.0)  # disturbs row 1 (and clips at -1)
    model.on_activate(99, now=0.0)  # disturbs row 98
    model.on_refresh_range(98, 4)  # covers 98, 99, 0, 1
    assert model.disturbance_of(1) == 0.0
    assert model.disturbance_of(98) == 0.0


def test_blast_radius_decay():
    model = make_model(nrh=100, blast=3, decay=0.5)
    model.on_activate(50, now=0.0)
    assert model.disturbance_of(49) == 1.0
    assert model.disturbance_of(48) == 0.5
    assert model.disturbance_of(47) == 0.25
    assert model.disturbance_of(46) == 0.0


def test_edge_rows_clip():
    model = make_model(nrh=100, blast=2)
    model.on_activate(0, now=0.0)
    assert model.disturbance_of(1) == 1.0
    assert model.disturbance_of(2) == 0.5
    # Rows below 0 do not exist: no disturbance is recorded for them.
    assert model.disturbance_of(-1) == 0.0
    assert model.disturbance_of(-2) == 0.0


def test_max_disturbance():
    model = make_model(nrh=100)
    assert model.max_disturbance() == 0.0
    for _ in range(7):
        model.on_activate(50, now=0.0)
    assert model.max_disturbance() == 7.0


def test_invalid_profile_rejected():
    with pytest.raises(ConfigError):
        DisturbanceProfile(nrh=0)
    with pytest.raises(ConfigError):
        DisturbanceProfile(blast_radius=0)
    with pytest.raises(ConfigError):
        DisturbanceProfile(decay=0.0)
