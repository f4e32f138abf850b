"""Atomic measures: construction, ball-mass constants, certificates."""

import math

import numpy as np
import pytest

from scaledim import measures
from scaledim.covers import ScaleWindow
from scaledim.errors import BudgetError, DomainError, InputError, ResolutionError
from scaledim.measures import (
    AtomicMeasure,
    ball_to_set_constant,
    build_frostman_measure,
    frostman_levels,
    mass_lower_bound,
    massfrostman_roundtrip,
    natural_cantor_measure,
    verify_ball_mass,
)
from scaledim.scalefun import PowerLaw
from scaledim.setmodels import (
    CantorSchedule,
    HolderImage,
    PointSet,
    SequenceSet,
    UniformGrid,
    UnionModel,
    skeleton,
    translate,
)

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


@pytest.fixture(scope="module")
def thirds():
    return CantorSchedule.from_ratios([1.0 / 3.0] * 20)


# --- level selection ------------------------------------------------------


def test_frostman_level_split():
    assert frostman_levels(PowerLaw(0.5), -6 * LOG3, base=3) == (11, 3)
    assert frostman_levels(PowerLaw(0.5), -8 * LOG3, base=3) == (15, 5)


def test_frostman_levels_need_window_headroom():
    with pytest.raises(DomainError):
        frostman_levels(PowerLaw(0.5), -0.5 * LOG3, base=3)


@pytest.mark.parametrize("base", [1, 0, -3, 2.5, 3.0, True])
def test_frostman_levels_need_an_integer_base_of_two_or_more(base):
    with pytest.raises(DomainError):
        frostman_levels(PowerLaw(0.5), -6 * LOG3, base=base)


# --- construction -----------------------------------------------------------


def test_frostman_measure_shape_and_meta(thirds):
    mu = build_frostman_measure(thirds, 0.6, -6 * LOG3, PowerLaw(0.5), base=3)
    assert len(mu.locations) == 3968
    assert mu.pre_normalization_total == pytest.approx(1.4713202987796952, rel=1e-12)
    assert mu.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert mu.meta.base == 3
    assert mu.meta.level_fine == 11
    assert mu.meta.chain_length == 3
    assert len(mu.meta.cube_indices) == len(mu.locations)
    # locations sorted, all inside the unit interval
    assert np.all(np.diff(mu.locations) >= 0)
    assert mu.locations[0] >= 0.0 and mu.locations[-1] <= 1.0


def _seed_by_dict(model, m, base):
    """Reference seeding: one atom per level-m cube, first skeleton item wins."""
    scale = float(base) ** m
    seen = {}
    for a, b_ in skeleton(model, float(base) ** (-m)):
        for q in range(math.floor(a * scale), math.floor(b_ * scale) + 1):
            if q not in seen:
                seen[q] = max(a, q / scale)
    cubes = sorted(seen)
    return cubes, [seen[q] for q in cubes]


SEED_MODELS = {
    "point": PointSet(0.3),
    "sequence p=1": SequenceSet(1.0),
    "sequence p=2": SequenceSet(2.0),
    "grid": UniformGrid(1e-4),
    "cantor": CantorSchedule.from_ratios([1.0 / 3.0] * 20),
    "union": UnionModel(
        (CantorSchedule.from_ratios([1.0 / 3.0] * 20), translate(SequenceSet(2.0), 1.5))
    ),
    "holder": HolderImage(SequenceSet(2.0), 0.5),
}


@pytest.mark.parametrize("base, log_delta", [(3, -5 * LOG3), (20, -12 * LOG2)])
@pytest.mark.parametrize("name", sorted(SEED_MODELS))
def test_seeding_matches_the_per_cube_reference(name, base, log_delta):
    model = SEED_MODELS[name]
    mu = build_frostman_measure(model, 0.5, log_delta, PowerLaw(0.5), base=base)
    cubes, locations = _seed_by_dict(model, mu.meta.level_fine, base)
    assert mu.meta.cube_indices.tolist() == cubes
    assert mu.locations.tolist() == locations


def test_atom_cap_counts_distinct_seeded_cubes(thirds, monkeypatch):
    args = (thirds, 0.6, -5 * LOG3, PowerLaw(0.5))
    n = len(build_frostman_measure(*args, base=3).locations)
    monkeypatch.setattr(measures, "ATOM_CAP", n - 1)
    with pytest.raises(BudgetError):
        build_frostman_measure(*args, base=3)
    monkeypatch.setattr(measures, "ATOM_CAP", n)
    assert len(build_frostman_measure(*args, base=3).locations) == n


def test_seeded_cube_indices_never_wrap():
    # level 16 in base 20: the one seeded cube index is 0.3 * 20**16 > 2**63
    with pytest.raises(ResolutionError):
        build_frostman_measure(PointSet(0.3), 0.5, -25.0, PowerLaw(0.5))


def test_roundtrip_passes_the_cube_index_overflow_on():
    # log delta -20 seeds at level 13, which fits; -25 needs level 16
    with pytest.raises(ResolutionError, match="do not fit in 64 bits"):
        massfrostman_roundtrip(PointSet(0.3), PowerLaw(0.5), [0.5], [-20.0, -25.0])


def test_natural_measure_is_uniform(thirds):
    nat = natural_cantor_measure(thirds, 9)
    assert len(nat.locations) == 512
    np.testing.assert_allclose(nat.masses, 1.0 / 512.0, rtol=1e-15)
    assert nat.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_atomic_measure_validation():
    with pytest.raises(InputError):
        AtomicMeasure(np.array([0.5, 0.2]), np.array([0.5, 0.5]), 1.0, None)
    with pytest.raises(InputError):
        AtomicMeasure(np.array([0.2, 0.5]), np.array([0.5, -0.5]), 1.0, None)


# --- ball mass sweep -----------------------------------------------------------


def test_ball_mass_single_atom_is_exact():
    unit = AtomicMeasure(np.array([0.5]), np.array([1.0]), 1.0, None)
    report = verify_ball_mass(unit, ScaleWindow.from_linear(0.1, 0.5), 1.0)
    # the whole mass sits in a ball of radius 0.1: c = 1 / 0.1^1
    assert report.c_observed == pytest.approx(10.0, abs=1e-12)
    assert report.witness_radius == pytest.approx(0.1)
    assert report.witness_mass == pytest.approx(1.0)


def test_ball_mass_uniform_atoms_have_small_constant():
    n = 257
    uni = AtomicMeasure(np.linspace(0.0, 1.0, n), np.full(n, 1.0 / n), 1.0, None)
    report = verify_ball_mass(uni, ScaleWindow.from_linear(2.0**-8, 2.0**-4), 1.0)
    assert report.c_observed <= 3.0


def test_ball_mass_frostman_reference(thirds):
    mu = build_frostman_measure(thirds, 0.6, -6 * LOG3, PowerLaw(0.5), base=3)
    window = ScaleWindow.from_linear(3.0**-6, 3.0**-3)
    report = verify_ball_mass(mu, window, 0.6)
    assert report.c_observed == pytest.approx(1.4115146778577006, rel=1e-10)
    assert report.witness_mass <= report.c_observed * report.witness_radius**0.6
    assert len(report.radii) == 33


def test_ball_to_set_constant_scales_by_diameter_power():
    assert ball_to_set_constant(1.0, 0.5) == pytest.approx(2.0**0.5, abs=1e-15)
    assert ball_to_set_constant(1.4115146778577006, 0.6) == pytest.approx(
        2.1394561811015045, rel=1e-12
    )


# --- mass certificates -----------------------------------------------------------


def test_mass_certificate_natural_measure(thirds):
    nat = natural_cantor_measure(thirds, 9)
    window = ScaleWindow(-9 * LOG3, -5 * LOG3)
    cert = mass_lower_bound(nat, window, math.log(2.0) / LOG3, 1.0, 2.0)
    assert cert.holds
    assert cert.log_cost_floor == pytest.approx(-math.log(2.0), abs=1e-12)
    assert cert.worst_ratio == pytest.approx(1.2915202343305503, rel=1e-12)


def test_mass_certificate_fails_above_dimension(thirds):
    nat = natural_cantor_measure(thirds, 9)
    window = ScaleWindow(-9 * LOG3, -5 * LOG3)
    cert = mass_lower_bound(nat, window, 0.95, 1.0, 2.0)
    assert not cert.holds


def test_mass_certificate_input_checks(thirds):
    nat = natural_cantor_measure(thirds, 9)
    window = ScaleWindow(-9 * LOG3, -5 * LOG3)
    with pytest.raises(InputError):
        mass_lower_bound(nat, window, 0.6, 5.0, 2.0)  # a above total mass
    with pytest.raises(BudgetError):
        mass_lower_bound(nat, window, 0.6, 0.9, 2.0, pair_budget=10)


# --- roundtrip diagnostic ---------------------------------------------------------


def test_roundtrip_recovers_cantor_dimension(thirds):
    report = massfrostman_roundtrip(
        thirds,
        PowerLaw(0.5),
        [0.45 + 0.05 * k for k in range(8)],
        [-6 * LOG3, -7 * LOG3, -8 * LOG3],
        base=3,
    )
    assert report.estimate == pytest.approx(0.55, abs=1e-12)
    assert report.bracket_lower == pytest.approx(0.560546875, abs=1e-12)
    assert report.bracket_upper == pytest.approx(0.6318359375, abs=1e-12)
    # estimate sits within grid resolution of the certified bracket
    assert report.bracket_lower - report.estimate <= 0.05
    assert len(report.rows) == 8
    slopes = [r.slope for r in report.rows]
    # slope turns from negative to positive as s crosses the dimension
    assert slopes == sorted(slopes)
    assert slopes[0] < 0.0 < slopes[-1]
    passing = [r.s for r in report.rows if r.built and r.slope <= report.beta0]
    assert passing and max(passing) == report.estimate


@pytest.mark.parametrize("atom_cap", [None, 3968])
def test_roundtrip_rows_match_per_scale_builds(thirds, monkeypatch, atom_cap):
    # the -6 log 3 scale seeds 3968 atoms, so this cap fails every row at -7 log 3
    if atom_cap is not None:
        monkeypatch.setattr(measures, "ATOM_CAP", atom_cap)
    phi = PowerLaw(0.5)
    s_grid = [0.7, 0.5, 1.2, 0.5, 0.6]
    scales = [-5 * LOG3, -6 * LOG3, -7 * LOG3]
    report = massfrostman_roundtrip(thirds, phi, s_grid, scales, base=3)

    expected = []
    for s in sorted(s_grid):
        c_hex, total_hex = [], []
        for ld in scales:
            try:
                mu = build_frostman_measure(thirds, s, ld, phi, base=3)
            except (InputError, BudgetError):
                break
            rep = verify_ball_mass(mu, ScaleWindow(phi.eval_phi_log(ld), ld), s)
            c_hex.append(rep.c_observed.hex())
            total_hex.append(mu.pre_normalization_total.hex())
        expected.append((s, c_hex, total_hex, len(c_hex) == len(scales)))
    got = [
        (r.s, [c.hex() for c in r.c_values], [t.hex() for t in r.raw_totals], r.built)
        for r in report.rows
    ]
    assert got == expected
    assert [len(r.c_values) for r in report.rows] == (
        [3, 3, 3, 3, 0] if atom_cap is None else [2, 2, 2, 2, 0]
    )
    assert all(r.slope == math.inf for r in report.rows if not r.built)


def test_roundtrip_builds_one_skeleton_per_scale(thirds, monkeypatch):
    calls = []
    real = measures.skeleton

    def counting(model, resolution):
        calls.append(resolution)
        return real(model, resolution)

    monkeypatch.setattr(measures, "skeleton", counting)
    s_grid = [0.5, 0.55, 0.6, 0.65]
    scales = [-5 * LOG3, -6 * LOG3, -7 * LOG3]
    massfrostman_roundtrip(thirds, PowerLaw(0.5), s_grid, scales, base=3)
    assert len(calls) == 3
