"""Interpolation windows: tabulation, ordering, verification."""

import hashlib
import math

import numpy as np
import pytest

from scaledim import covers, interpolation
from scaledim.errors import InputError
from scaledim.interpolation import (
    hausdorff_endpoint_family,
    phi_s_at,
    phi_s_family,
    phi_s_function,
    verify_interpolation,
)
from scaledim.scalefun import PowerLaw
from scaledim.setmodels import CantorSchedule, SequenceSet, build_stability_pair

LOG2 = math.log(2.0)
GRID = [-k * LOG2 for k in (12, 24, 36, 48)]


@pytest.fixture(scope="module")
def seq():
    return SequenceSet(1.0)


def test_phi_s_point_below_box_dimension(seq):
    pt = phi_s_at(seq, 0.4, -20 * LOG2, tol=1e-3)
    assert pt.log_phi_s == pytest.approx(-24.27979969054681, rel=1e-12)
    assert not pt.at_cap and not pt.budget_exceeded
    assert pt.upper_gap == pytest.approx(7.7876367263755775, rel=1e-10)
    # the tabulated window bottom is strictly below the scale itself
    assert pt.log_phi_s < pt.log_delta


def test_phi_s_point_caps_above_box_dimension(seq):
    # past the box dimension the window collapses to delta/(-log delta)
    pt = phi_s_at(seq, 0.95, -20 * LOG2, tol=1e-3)
    assert pt.at_cap
    assert pt.log_phi_s == pytest.approx(
        -20 * LOG2 - math.log(20 * LOG2), abs=1e-12
    )


def test_phi_s_tables_are_pointwise_ordered(seq):
    tabs = phi_s_family(seq, [0.2, 0.4, 0.6], GRID, tol=1e-3)
    assert [tab.s for tab in tabs] == [0.2, 0.4, 0.6]
    for small, large in zip(tabs, tabs[1:]):
        for a, b in zip(small.points, large.points):
            assert a.log_delta == b.log_delta
            assert a.log_phi_s <= b.log_phi_s
    # no grid point was dropped and no monotonicity repair was needed
    assert all(tab.dropped == () and tab.regressions == () for tab in tabs)
    # above the box dimension every point runs at the cap
    assert all(p.at_cap for p in tabs[2].points)


def test_phi_s_single_table_matches_pointwise_calls(seq):
    tab = phi_s_function(seq, 0.4, GRID, tol=1e-3)
    for pt in tab.points:
        single = phi_s_at(seq, 0.4, pt.log_delta, tol=1e-3)
        assert pt.log_phi_s == pytest.approx(single.log_phi_s, abs=1e-12)


def test_verification_tracks_targets_on_sequence_set(seq):
    report = verify_interpolation(seq, [0.25, 0.35, 0.45], GRID, tol=1e-3)
    uppers = [r.upper_estimate for r in report.rows]
    assert uppers == pytest.approx([0.25, 0.3505859375, 0.4501953125], abs=1e-12)
    lowers = [r.lower_estimate for r in report.rows]
    assert lowers == pytest.approx([0.244140625, 0.33984375, 0.43359375], abs=1e-12)
    assert all(r.upper_ok and r.lower_ok for r in report.rows)
    assert report.monotone_in_s and report.tables_ordered
    assert report.lower_box_estimate == pytest.approx(0.4755859375, abs=1e-12)
    assert report.passed


def test_verification_reports_unrealizable_exponent_as_failed_row():
    pair = build_stability_pair(PowerLaw(0.5), 3)
    grid = [v for _, v in pair.sparse_end_scales()] + list(pair.state.log_r_seq)
    report = verify_interpolation(pair.f_set, [0.40, 0.55], grid, tol=1e-3)
    bad, good = report.rows
    assert math.isnan(bad.upper_estimate) and not bad.upper_ok
    assert good.upper_estimate == pytest.approx(0.55078125, abs=1e-12)
    assert good.lower_estimate == pytest.approx(0.4443359375, abs=1e-12)
    assert not report.passed


def test_unrealizable_exponent_drops_every_grid_point():
    pair = build_stability_pair(PowerLaw(0.5), 3)
    grid = [v for _, v in pair.sparse_end_scales()] + list(pair.state.log_r_seq)
    (tab,) = phi_s_family(pair.f_set, [0.40], grid, tol=1e-3)
    assert len(tab.points) == 0
    assert len(tab.dropped) == len(grid)


def test_endpoint_family_member_exponents(seq):
    family, tabs = hausdorff_endpoint_family(
        seq, 0.3, GRID, box_upper_estimate=0.5
    )
    assert len(family.members) == 3
    # member exponents are s + 1/n for consecutive n past the gap threshold
    assert [tab.s for tab in tabs] == pytest.approx(
        [0.3 + 1.0 / 8.0, 0.3 + 1.0 / 7.0, 0.3 + 1.0 / 6.0], abs=1e-12
    )


def test_endpoint_family_guards_against_empty_tables(seq):
    with pytest.raises(InputError, match="realizable"):
        hausdorff_endpoint_family(
            seq, 0.3, GRID, box_upper_estimate=0.5, budget=1e-12
        )


# --- scale-major family ----------------------------------------------------

S_GRID = [0.4 + 0.01 * i for i in range(40)]


def _two_block_cantor():
    return CantorSchedule(((12, 0.25), (28, 1.0 / 3.0)), offset=0.5)


def _family_digest(tables):
    """sha256 over every table's rows, drops and regressions, as hex."""
    text = "\n".join(
        f"{t.s.hex()} {t.model} "
        f"{[(p.log_delta.hex(), p.log_phi_s.hex(), p.at_cap, p.upper_gap.hex()) for p in t.points]} "
        f"{[d.hex() for d in t.dropped]} {[r.hex() for r in t.regressions]}"
        for t in tables
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("model", [SequenceSet(1.0), _two_block_cantor()])
def test_phi_s_function_is_the_family_of_one_exponent(model):
    for s in (0.3, 0.55, 0.7):
        assert phi_s_function(model, s, GRID, tol=1e-3) == phi_s_family(
            model, [s], GRID, tol=1e-3
        )[0]


def test_families_match_values_recorded_exponent_by_exponent():
    # digests recorded when each exponent's table was computed on its own
    cantor = phi_s_family(
        _two_block_cantor(),
        S_GRID,
        [-k * LOG2 for k in (60, 50, 40, 30, 20, 12)],
        tol=1e-3,
        budget=2.0,
    )
    assert sum(len(t.points) for t in cantor) == 176
    assert sum(len(t.dropped) for t in cantor) == 64
    assert [p.log_phi_s.hex() for p in cantor[2].points] == ["-0x1.4df505991a7b5p+3"]
    assert _family_digest(cantor) == (
        "b4caed037f8914423833a627d03412fea5ac964ed17fee623c220e455f2b94e4"
    )
    seq = phi_s_family(SequenceSet(1.0), S_GRID, GRID, tol=1e-3)
    assert sum(not p.at_cap for t in seq for p in t.points) == 42  # bisected
    assert [p.log_phi_s.hex() for p in seq[0].points] == [
        "-0x1.aafc15530f3f7p+5",
        "-0x1.472bf4f49c6eep+5",
        "-0x1.c6d1f0f19f0b9p+4",
        "-0x1.0201f3b171896p+4",
    ]
    assert _family_digest(seq) == (
        "4ff79cfc2a988cfef74b22360e3525db51139e9aa9f370437b997d8913f090d8"
    )


def test_ladder_windows_are_prepared_once_per_scale(monkeypatch):
    windows = []
    original = covers.prepare

    def counting(model, window, **kwargs):
        windows.append((window.log_lo, window.log_hi))
        return original(model, window, **kwargs)

    monkeypatch.setattr(covers, "prepare", counting)
    monkeypatch.setattr(interpolation, "prepare", counting, raising=False)
    # the command-line Cantor interpolate: --grid=-60:-12:15, 40 exponents
    grid = [float(v) * LOG2 for v in np.linspace(-60.0, -12.0, 15)]
    model = CantorSchedule.from_ratios([1.0 / 3.0] * 40, offset=0.37)
    s_grid = [float(v) for v in np.linspace(0.22, 0.82, 40)]
    tables = phi_s_family(model, s_grid, grid, tol=1e-3)
    # the cap and the doubling floors k * log delta, k = 2, 4, ..., 2**40
    rungs = {(ld - math.log(-ld), ld) for ld in grid}
    rungs |= {(2**e * ld, ld) for ld in grid for e in range(1, 41)}
    ladder = [w for w in windows if w in rungs]
    assert len(ladder) == len(set(ladder)) <= 15 * 41
    # computed exponent by exponent, 405 dropped points probed all 41 rungs
    assert sum(len(t.dropped) for t in tables) == 405
