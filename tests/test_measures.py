"""Atomic measures: construction, ball-mass constants, the roundtrip."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaledim import measures
from scaledim.covers import ScaleWindow
from scaledim.errors import BudgetError, DomainError, InputError, ResolutionError, ScaledimError
from scaledim.measures import (
    AtomicMeasure,
    ball_to_set_constant,
    build_frostman_measure,
    frostman_levels,
    massfrostman_roundtrip,
    verify_ball_mass,
)
from scaledim.scalefun import PowerLaw
from scaledim.setmodels import (
    CantorSchedule,
    HolderImage,
    PointSet,
    ProductModel,
    SequenceSet,
    UniformGrid,
    UnionModel,
    skeleton,
    translate,
)
from test_scalefun import scale_functions

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


def _chain_by_dict(cubes, base, chain_length):
    """Reference chain numbering: each level's ancestors, numbered in ascending order."""
    levels = []
    for k in range(chain_length):
        ancestors = [q // base ** (k + 1) for q in cubes]
        number = {a: i for i, a in enumerate(sorted(set(ancestors)))}
        levels.append([number[a] for a in ancestors])
    return levels


@pytest.mark.parametrize(
    "model, base, log_delta",
    [
        (SEED_MODELS["cantor"], 2, -10 * LOG2),
        (SEED_MODELS["cantor"], 3, -6 * LOG3),
        (translate(SequenceSet(2.0), -1.5), 20, -20 * LOG2),
        (translate(SEED_MODELS["cantor"], -2.5), 3, -6 * LOG3),
    ],
    ids=["cantor base 2", "cantor base 3", "sequence at -1.5 base 20", "cantor at -2.5 base 3"],
)
def test_chain_numbering_matches_the_per_cube_reference(model, base, log_delta):
    # negative cube indices floor towards -inf in numpy and in Python alike
    seed = measures._seed(model, log_delta, PowerLaw(0.5), base)
    cubes, _ = _seed_by_dict(model, seed.m, base)
    assert seed.cubes.tolist() == cubes
    assert seed.le >= 3
    expected = _chain_by_dict(cubes, base, seed.le)
    assert [inverse.tolist() for inverse in seed.inverses] == expected


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


def test_seeding_far_from_zero_fails_before_the_scaling_overflows():
    # 1e306 * 20**5 overflows a double: the numpy multiply warned (an error
    # in this suite) before the index check could run
    with pytest.raises(ResolutionError, match="^level-5 cube indices do not fit in 64 bits$"):
        build_frostman_measure(PointSet(1e306), 0.5, -12 * LOG2, PowerLaw(0.5))


def test_roundtrip_passes_the_cube_index_overflow_on():
    # log delta -20 seeds at level 13, which fits; -25 needs level 16
    with pytest.raises(ResolutionError, match="do not fit in 64 bits"):
        massfrostman_roundtrip(PointSet(0.3), PowerLaw(0.5), [0.5], [-20.0, -25.0])


def test_cap_chain_divisors_past_64_bits_keep_one_atom():
    # log2 delta -70 seeds at level 32 with a 15-level chain: 20**15 > 2**63,
    # but the only cube index is 0
    log_delta = -70 * LOG2
    mu = build_frostman_measure(PointSet(0.0), 0.5, log_delta, PowerLaw(0.5))
    assert (mu.meta.level_fine, mu.meta.chain_length) == (32, 15)
    assert mu.to_rows() == [(0.0, 1.0)]
    scales = [-60 * LOG2, log_delta]
    report = massfrostman_roundtrip(PointSet(0.0), PowerLaw(0.5), [0.5], scales)
    assert report.rows[0].built


@pytest.mark.parametrize("log2_delta, level", [(-519, 239), (-2000, 925)])
def test_cubes_below_float_range_are_resolution_errors(log2_delta, level):
    message = f"^level-{level} cubes in base 20 lie below float range$"
    with pytest.raises(ResolutionError, match=message):
        frostman_levels(PowerLaw(0.5), log2_delta * LOG2)
    with pytest.raises(ResolutionError, match=message):
        build_frostman_measure(PointSet(0.0), 0.5, log2_delta * LOG2, PowerLaw(0.5))


def test_cap_chain_stops_on_an_underflowed_atom():
    # six atoms seeded at 2**-1074 each, the least subnormal; five share a
    # parent capped at 2**-1073, so each is scaled by 0.4 and rounds to 0,
    # while the sixth keeps its mass and the raw total stays positive
    cubes = np.arange(6, dtype=np.int64)
    locations = np.linspace(0.0, 0.5, 6)
    seed = measures._Seed(2, 1074, 1, cubes, locations, (np.array([0, 0, 0, 0, 0, 1]),))
    with pytest.raises(InputError, match="^masses must be positive$"):
        measures._cap_chain(seed, 1.0)
    # at s = 0 every cap is 1: the five share it, the sixth keeps its 1
    mu = measures._cap_chain(seed, 0.0)
    assert mu.locations is locations
    assert mu.masses.tolist() == [0.1] * 5 + [0.5] and mu.pre_normalization_total == 2.0


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


def test_ball_mass_refuses_windows_too_deep_for_linear_radii():
    # lo = e**-800 underflows to 0.0; the scan would divide 0.0 by 0.0**s
    mu = AtomicMeasure([0.1, 0.5], [0.5, 0.5])
    with pytest.raises(InputError, match="window too deep for linear mass checks"):
        verify_ball_mass(mu, ScaleWindow(-800.0, -1.0), 0.5)
    # lo = 1e-200 is a normal float, but lo**2 underflows to 0.0
    with pytest.raises(InputError, match="window too deep for linear mass checks"):
        verify_ball_mass(mu, ScaleWindow.from_linear(1e-200, 1e-100), 2.0)
    # lo = e**-800 is 0.0, and 0.0 raised to a negative s divides by zero
    with pytest.raises(InputError, match="window too deep for linear mass checks"):
        verify_ball_mass(mu, ScaleWindow(-800.0, -1.0), -0.5)
    # lo = e**-720 is subnormal and lo**-1 overflows; hi = e**400 and
    # hi**3 overflow; hi**-2 underflows to 0.0, a division by zero
    for window, s in [
        (ScaleWindow(-720.0, -700.0), -1.0),
        (ScaleWindow(0.0, 400.0), 3.0),
        (ScaleWindow(0.0, 400.0), -2.0),
    ]:
        with pytest.raises(InputError, match="leave the float range"):
            verify_ball_mass(mu, window, s)
    # below the DP's linear floor, lo = e**-690 and lo**0.5 are normal
    # floats, so the scan still runs
    report = verify_ball_mass(mu, ScaleWindow(-690.0, -1.0), 0.5)
    assert report.radii[0] == math.exp(-690.0)
    assert 0.0 < report.c_observed < math.inf


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_ball_mass_refuses_a_non_finite_exponent(s):
    # r**s is NaN, 0.0 or inf at the scanned radii r < 1, so no ratio
    # mass / r**s is a growth constant
    mu = AtomicMeasure([0.1, 0.5], [0.5, 0.5])
    with pytest.raises(InputError, match="^s must be finite, got "):
        verify_ball_mass(mu, ScaleWindow.from_linear(0.01, 0.2), s)


@pytest.mark.parametrize("locations", [[0.1, 0.5], [0.0, 0.5], [-0.5, -0.1], [-3.0, 1e6]])
def test_ball_mass_counts_an_atom_in_its_own_ball_below_float_spacing(locations):
    # 0.1 + 2e-20 == 0.1, so the run end search once gave the atom's own
    # smallest ball mass 0 and c_observed 1.96e8; one atom of mass 0.5 in
    # a ball of radius 1e-20 gives at least 0.5 / 1e-20**0.5 = 5e9
    mu = AtomicMeasure(locations, [0.5, 0.5])
    report = verify_ball_mass(mu, ScaleWindow.from_linear(1e-20, 1e-2), 0.5)
    assert report.c_observed >= 0.5 / 1e-20**0.5
    assert report.c_observed == verify_ball_mass(
        AtomicMeasure([0.0, 1.0], [0.5, 0.5]), ScaleWindow.from_linear(1e-20, 1e-2), 0.5
    ).c_observed


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


def _full_scan(locs, radii, prefixes, exponents, bounds=()):
    """Reference ball-mass scan: every radius searched, every measure scored.

    ``bounds`` is taken, as by the pruned scan, and not used.
    """
    best = [-math.inf] * len(prefixes)
    witness = [(0.0, radii[0], 0.0)] * len(prefixes)
    for r in radii:
        ends = np.searchsorted(locs, locs + 2.0 * r, side="left")
        for j, (prefix, s) in enumerate(zip(prefixes, exponents)):
            run_masses = prefix[ends] - prefix[: locs.size]
            i = int(np.argmax(run_masses))
            mass = float(run_masses[i])
            ratio = mass / r**s
            if ratio > best[j]:
                center = 0.5 * (locs[i] + locs[ends[i] - 1]) if mass > 0.0 else locs[i]
                best[j] = ratio
                witness[j] = (center, r, mass)
    return [
        measures.BallMassReport(c, w[0], w[1], w[2], tuple(radii))
        for c, w in zip(best, witness)
    ]


def _report_hex(report):
    fields = (
        report.c_observed,
        report.witness_center,
        report.witness_radius,
        report.witness_mass,
    )
    return tuple(float(v).hex() for v in fields)


CRITERION_07_S = [0.45 + 0.025 * k for k in range(16)]
_RNG = np.random.default_rng(20260816)
SCAN_EXPONENTS = [0.0, 1.0, *(float(s) for s in _RNG.random(3))]


def _scan_cases():
    phi = PowerLaw(0.5)
    thirds = CantorSchedule.from_ratios([1.0 / 3.0] * 20)
    seeded = [
        ("thirds", thirds, -6 * LOG3, 3),
        ("sequence p=1", SequenceSet(1.0), -12 * LOG2, 20),
        ("sequence p=2", SequenceSet(2.0), -13 * LOG2, 20),
        ("grid", UniformGrid(1e-4), -12 * LOG2, 20),
    ]
    for name, model, ld, base in seeded:
        window = ScaleWindow(phi.eval_phi_log(ld), ld)
        for s in SCAN_EXPONENTS:
            yield name, build_frostman_measure(model, s, ld, phi, base=base), window, s
    n = 257
    uniform = AtomicMeasure(np.linspace(0.0, 1.0, n), np.full(n, 1.0 / n))
    one = AtomicMeasure(np.array([0.5]), np.array([1.0]))
    for name, mu in [("uniform", uniform), ("one atom", one)]:
        for s in SCAN_EXPONENTS:
            yield name, mu, ScaleWindow.from_linear(2.0**-8, 2.0**-4), s
    rng = np.random.default_rng(7)
    # repeated locations and masses make ties between radii and run starts
    locs = np.sort(rng.choice(np.linspace(0.0, 1.0, 41), 300))
    masses = rng.choice([1.0, 2.0, 3.0], locs.size)
    tied = AtomicMeasure(locs, masses / masses.sum())
    for s in SCAN_EXPONENTS:
        yield "tied", tied, ScaleWindow.from_linear(0.01, 0.4), s


@pytest.mark.parametrize(
    "name, mu, window, s",
    list(_scan_cases()),
    ids=[f"{name}-s{k % len(SCAN_EXPONENTS)}" for k, (name, *_) in enumerate(_scan_cases())],
)
def test_ball_mass_scan_matches_the_full_scan(name, mu, window, s):
    expected = _full_scan(
        mu.locations, measures._scan_radii(window), [mu.prefix_masses()], [s]
    )[0]
    got = verify_ball_mass(mu, window, s)
    assert _report_hex(got) == _report_hex(expected)
    assert got.radii == expected.radii


def test_ball_mass_witness_is_the_smallest_radius_reaching_the_maximum():
    # two atoms of unequal mass: at s = 0 the ratio is the heaviest run mass,
    # which is 1 from the first radius whose ball holds both atoms on; every
    # radius index, coarse or not, must be able to open that plateau
    window = ScaleWindow.from_linear(0.01, 1.0)
    radii = measures._scan_radii(window)
    for k in range(1, len(radii)):
        gap = radii[k - 1] + radii[k]
        mu = AtomicMeasure(np.array([0.0, gap]), np.array([0.25, 0.75]))
        report = verify_ball_mass(mu, window, 0.0)
        assert (report.c_observed, report.witness_radius) == (1.0, radii[k])
        assert report.witness_center == 0.5 * gap


@pytest.mark.parametrize("s_grid", [SCAN_EXPONENTS, CRITERION_07_S])
def test_multi_measure_scan_matches_the_full_scan(thirds, s_grid):
    phi = PowerLaw(0.5)
    ld = -7 * LOG3
    seed = measures._seed(thirds, ld, phi, 3)
    prefixes = [measures._cap_chain(seed, s).prefix_masses() for s in s_grid]
    args = (seed.locations, measures._scan_radii(ScaleWindow(phi.eval_phi_log(ld), ld)))
    expected = _full_scan(*args, prefixes, s_grid)
    got = measures._scan_runs(*args, prefixes, s_grid)
    assert [_report_hex(r) for r in got] == [_report_hex(r) for r in expected]


def _drawn_scans(rng, count):
    """Atom sets with repeated locations and mass ties, scanned by 1-4 measures.

    The locations are drawn from a coarse grid, shifted as far as 1e6 from
    0; the smallest radius stays far above the float spacing there, where
    the full scan needs no raised run ends.  Exponents of 0 make plateaus.
    """
    for _ in range(count):
        grid = np.linspace(0.0, rng.choice([0.01, 1.0, 5.0]), int(rng.integers(2, 30)))
        offset = rng.choice([0.0, -0.37, 1e3, -2.5e4, 1e6])
        locs = np.sort(offset + rng.choice(grid, int(rng.integers(1, 60))))
        lo = 10.0 ** rng.uniform(-3.0, -0.5)
        window = ScaleWindow.from_linear(lo, lo * 10.0 ** rng.uniform(0.0, 2.0))
        prefixes, exponents = [], []
        for _ in range(int(rng.integers(1, 5))):
            masses = rng.choice([1.0, 2.0, 3.0], locs.size)
            prefixes.append(AtomicMeasure(locs, masses / masses.sum()).prefix_masses())
            exponents.append(float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)])))
        yield locs, measures._scan_radii(window), prefixes, exponents


def test_scan_matches_the_full_scan_on_drawn_atoms():
    mismatched = []
    for k, args in enumerate(_drawn_scans(np.random.default_rng(20261020), 1000)):
        got = [_report_hex(r) for r in measures._scan_runs(*args)]
        if got != [_report_hex(r) for r in _full_scan(*args)]:
            mismatched.append(k)
    assert mismatched == []


def _powers_in_range(radii, s):
    """Whether every radius is positive and, raised to ``s``, a positive
    finite float."""
    try:
        return all(r > 0.0 and 0.0 < r**s < math.inf for r in radii)
    except (OverflowError, ZeroDivisionError):
        return False


# budget: 3 s.  At 200 examples the property runs in about 1 s on a
# 2-core host.  Atoms sit on a grid whose unit lies in the window, shifted
# by up to 1e6 units, so the smallest radius stays far above the float
# spacing at the atoms, where the full scan needs no raised run ends
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
# lo = e**-720 is subnormal, and lo**-1 overflows
@example(phi=PowerLaw(0.05), log_delta=-36.0, where=0.0, units=[0, 1], weights=[1.0] * 60,
         offset=0.0, s=-1.0)
@given(
    phi=scale_functions(),
    log_delta=st.sampled_from([-0.5, -3.0, -40.0]) | st.floats(-60.0, 0.0),
    where=st.floats(0.0, 1.0),
    units=st.lists(st.integers(0, 40), min_size=1, max_size=60),
    weights=st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=60, max_size=60),
    offset=st.sampled_from([0.0, -0.37, 1e3, -2.5e4, 1e6]),
    s=st.sampled_from([0.0, 1.0, 2.0, -0.5]) | st.floats(-1.0, 2.0),
)
def test_ball_mass_scan_matches_the_full_scan_in_every_scale_window(
    phi, log_delta, where, units, weights, offset, s
):
    try:
        window = ScaleWindow(phi.eval_phi_log(log_delta), log_delta)
    except ScaledimError:
        return  # the scale function has no window at this scale
    unit = window.lo * math.exp(where * min(window.log_hi - window.log_lo, 20.0))
    locs = np.sort(offset + np.array(units, dtype=float)) * unit
    masses = np.array(weights[: locs.size])
    mu = AtomicMeasure(locs, masses / masses.sum())
    radii = measures._scan_radii(window)
    if not _powers_in_range(radii, s):
        with pytest.raises(InputError):
            verify_ball_mass(mu, window, s)
        return
    got = verify_ball_mass(mu, window, s)
    expected = _full_scan(locs, radii, [mu.prefix_masses()], [s])[0]
    assert _report_hex(got) == _report_hex(expected)
    assert got.radii == expected.radii


FROSTMAN_SEQUENCE = ([0.26, 0.32, 0.38], [-12 * LOG2, -13 * LOG2, -14 * LOG2])
CRITERION_07_SEQUENCE = (
    [0.20 + 0.025 * k for k in range(12)],
    [-12 * LOG2, -15 * LOG2, -18 * LOG2],
)


@pytest.mark.parametrize(
    "model, s_grid, scales, base",
    [
        ("thirds", CRITERION_07_S, [-6 * LOG3, -7 * LOG3, -8 * LOG3], 3),
        ("sequence p=1", SCAN_EXPONENTS, [-12 * LOG2, -13 * LOG2], 20),
        ("sequence p=2", SCAN_EXPONENTS, [-12 * LOG2, -13 * LOG2], 20),
        ("sequence p=1", *FROSTMAN_SEQUENCE, 20),
    ],
)
def test_roundtrip_constants_match_the_full_scan(monkeypatch, model, s_grid, scales, base):
    model = SEED_MODELS["cantor" if model == "thirds" else model]
    args = (model, PowerLaw(0.5), s_grid, scales)
    got = massfrostman_roundtrip(*args, base=base)
    monkeypatch.setattr(measures, "_scan_runs", _full_scan)
    expected = massfrostman_roundtrip(*args, base=base)

    def rows_hex(report):
        return [
            ([c.hex() for c in r.c_values], [t.hex() for t in r.raw_totals])
            for r in report.rows
        ]

    assert rows_hex(got) == rows_hex(expected)


def _count_searches(monkeypatch, model, s_grid, scales, base):
    """Run-end searches of one roundtrip."""
    searches = []
    real = np.searchsorted

    def counting(*args, **kwargs):
        searches.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(measures.np, "searchsorted", counting)
        massfrostman_roundtrip(model, PowerLaw(0.5), s_grid, scales, base=base)
    return len(searches)


def test_roundtrip_scan_skips_radii_that_cannot_set_the_maximum(thirds, monkeypatch):
    # the criterion-07 thirds inputs: the full scan searches all 33 radii
    # at each of 3 scales (99 searches); searching the top radius, then
    # the smallest, then pruning from the top down makes 37, with or
    # without the cap bound
    scales = [-6 * LOG3, -7 * LOG3, -8 * LOG3]
    assert _count_searches(monkeypatch, thirds, CRITERION_07_S, scales, 3) <= 37


@pytest.mark.parametrize(
    "s_grid, scales",
    [FROSTMAN_SEQUENCE, CRITERION_07_SEQUENCE],
    ids=["frostman workload", "criterion 07"],
)
def test_cap_bound_leaves_one_search_per_scale_on_the_sequence(monkeypatch, s_grid, scales):
    # the heaviest mass above alone leaves 18 and 21 searches
    assert _count_searches(monkeypatch, SequenceSet(1.0), s_grid, scales, 20) <= 3


_CAP_MODELS = {
    "thirds": SEED_MODELS["cantor"],
    "sequence p=1 at -1.5": translate(SequenceSet(1.0), -1.5),
    "sequence p=1 at 1e3": translate(SequenceSet(1.0), 1e3),
    "sequence p=2 at 0.25": translate(SequenceSet(2.0), 0.25),
    "union": SEED_MODELS["union"],
}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
# the thirds in base 2 fill ceil(2r 2^l) + 1 saturated cubes with runs
# whose float mass exceeds that many caps over T by about 1e-14
@example(name="thirds", base=2, log2_delta=-6.0, theta=0.45, s=1.0)
@given(
    name=st.sampled_from(sorted(_CAP_MODELS)),
    base=st.sampled_from([2, 3, 20]),
    log2_delta=st.floats(-11.0, -4.0),
    theta=st.floats(0.45, 0.6),
    s=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)),
)
def test_cap_bound_holds_the_heaviest_run_mass(name, base, log2_delta, theta, s):
    """The cap bound is at least the full scan's heaviest run mass at every radius.

    About 2 s under ``-X dev``; some 100 of the 121 examples build a
    measure, the rest have windows too narrow for the hierarchy.
    Counting one cube fewer without the margins, or two cubes fewer,
    fails it.
    """
    phi = PowerLaw(theta)
    ld = log2_delta * LOG2
    try:
        seed = measures._seed(_CAP_MODELS[name], ld, phi, base)
        mu = measures._cap_chain(seed, s)
    except DomainError:
        return  # a window too narrow for the hierarchy
    radii = measures._scan_radii(ScaleWindow(phi.eval_phi_log(ld), ld))
    (bound,) = measures._cap_bounds(seed, radii, [mu], [s])
    locs, prefix = mu.locations, mu.prefix_masses()
    for r, b in zip(radii, bound):
        ends = np.searchsorted(locs, locs + 2.0 * r, side="left")
        assert float(np.max(prefix[ends] - prefix[: locs.size])) <= b, (r, b)


def test_ball_to_set_constant_scales_by_diameter_power():
    assert ball_to_set_constant(1.0, 0.5) == pytest.approx(2.0**0.5, abs=1e-15)
    assert ball_to_set_constant(1.4115146778577006, 0.6) == pytest.approx(
        2.1394561811015045, rel=1e-12
    )


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


@pytest.mark.parametrize(
    "model, log_deltas, base",
    [
        (SequenceSet(1.0), [-12 * LOG2, -13 * LOG2], 1),
        (SequenceSet(1.0), [-12 * LOG2, -13 * LOG2], True),
        (SequenceSet(1.0), [-12 * LOG2, math.nan, -13 * LOG2], 20),
        (SequenceSet(1.0), [0.5, -12 * LOG2], 20),
        (ProductModel(SequenceSet(1.0), SequenceSet(1.0)), [-12 * LOG2, -13 * LOG2], 20),
    ],
    ids=["base 1", "base True", "nan scale", "scale above phi's domain", "no line skeleton"],
)
def test_roundtrip_refuses_what_a_build_refuses(model, log_deltas, base):
    # these once came back as unbuilt rows beside a real bracket, with
    # estimate 0.0
    phi = PowerLaw(0.5)
    with pytest.raises((DomainError, InputError)) as refused:
        for ld in log_deltas:
            build_frostman_measure(model, 0.3, ld, phi, base=base)
    message = f"^{re.escape(str(refused.value))}$"
    with pytest.raises(type(refused.value), match=message):
        massfrostman_roundtrip(model, phi, [0.3, 0.4], log_deltas, base=base)


def test_roundtrip_refuses_a_nan_exponent():
    # a NaN once left the s grid unsorted: rows for s = 0.5, nan, 0.3
    args = (SequenceSet(1.0), PowerLaw(0.5))
    with pytest.raises(InputError, match="^s must not be NaN$"):
        massfrostman_roundtrip(*args, [0.5, math.nan, 0.3], [-10.0, -11.0])
    # infinite exponents lie outside [0, 1]: unbuilt rows, in order
    report = massfrostman_roundtrip(*args, [0.5, math.inf, -math.inf, 0.3], [-10.0, -11.0])
    assert [(r.s, r.built) for r in report.rows] == [
        (-math.inf, False),
        (0.3, True),
        (0.5, True),
        (math.inf, False),
    ]


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
