"""Critical-exponent bisection and dimension profiles."""

import math
from collections import Counter

import pytest

from scaledim import covers, setmodels
from scaledim.errors import BudgetError, IndeterminateError, ResolutionError
from scaledim.estimator import (
    box_profile,
    critical_exponent,
    dimension_profile,
    theta_profile,
)
from scaledim.scalefun import LogCorrected, PowerLaw
from scaledim.setmodels import (
    CantorSchedule,
    HolderImage,
    ProductModel,
    SequenceSet,
    UniformGrid,
    build_stability_pair,
)

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def seq_dim(p: float, theta: float) -> float:
    # closed form for the decreasing-sequence family under a power-law window
    return theta / (p + theta)


def test_certified_bracket_at_deep_scale():
    ce = critical_exponent(SequenceSet(1.0), PowerLaw(0.5), -400 * LOG2, tol=1e-4)
    assert ce.s_lower == pytest.approx(0.3338623046875, abs=1e-15)
    assert ce.s_upper == pytest.approx(0.33502197265625, abs=1e-15)
    assert ce.s_upper - ce.s_lower <= 2e-3
    assert not ce.clamped_lower and not ce.clamped_upper
    assert ce.evaluations == 21
    # true value 1/3 sits inside the certified bracket up to discretization
    assert ce.s_lower - 2e-3 <= 1.0 / 3.0 <= ce.s_upper + 2e-3


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("theta", [0.2, 0.8])
def test_sequence_family_matches_closed_form(p, theta):
    ce = critical_exponent(SequenceSet(p), PowerLaw(theta), -400 * LOG2, tol=1e-3)
    mid = 0.5 * (ce.s_lower + ce.s_upper)
    assert mid == pytest.approx(seq_dim(p, theta), abs=0.02)


def test_bracket_tightens_with_tolerance():
    coarse = critical_exponent(SequenceSet(1.0), PowerLaw(0.5), -200 * LOG2, tol=1e-2)
    fine = critical_exponent(SequenceSet(1.0), PowerLaw(0.5), -200 * LOG2, tol=1e-4)
    assert fine.s_upper - fine.s_lower < coarse.s_upper - coarse.s_lower
    assert fine.evaluations > coarse.evaluations


def test_cantor_box_count_recovers_similarity_dimension():
    mt = CantorSchedule.from_ratios([1.0 / 3.0] * 30)
    ce = critical_exponent(mt, LogCorrected(), -24 * LOG3, tol=1e-4)
    assert ce.s_upper == pytest.approx(LOG2 / LOG3, abs=1e-3)
    assert ce.s_lower <= LOG2 / LOG3 <= ce.s_upper + 1e-3


def test_full_plane_product_needs_exponent_headroom():
    plane = ProductModel(UniformGrid(None), UniformGrid(None))
    # capped below the true exponent 2 the dual certificates cannot meet
    with pytest.raises(IndeterminateError):
        critical_exponent(plane, PowerLaw(0.5), -40 * LOG2, tol=1e-3, s_max=1.5)
    # with the default headroom the upper certificate lands exactly on 2
    ce = critical_exponent(plane, PowerLaw(0.5), -40 * LOG2, tol=1e-3)
    assert ce.s_upper == pytest.approx(2.0, abs=1e-12)
    assert not ce.clamped_upper


def test_profile_tail_extrema_and_rows():
    grid = [-k * LOG2 for k in range(40, 401, 40)]
    prof = dimension_profile(SequenceSet(1.0), PowerLaw(0.5), grid, tol=1e-3)
    assert prof.lower_estimate == pytest.approx(0.3330078125, abs=1e-15)
    assert prof.upper_estimate == pytest.approx(0.3359375, abs=1e-15)
    assert prof.tail_size == 3
    assert prof.method == "tail-extrema(third)"
    rows = prof.to_rows()
    assert len(rows) == 10
    assert rows[0] == pytest.approx((-40.0, 0.337890625, 0.3505859375))
    # rows are ordered coarse to fine and each bracket is ordered
    log2_deltas = [r[0] for r in rows]
    assert log2_deltas == sorted(log2_deltas, reverse=True)
    assert all(r[1] <= r[2] for r in rows)


def test_profile_lower_never_exceeds_upper_estimate():
    grid = [-k * LOG2 for k in (30, 60, 90, 120)]
    prof = dimension_profile(SequenceSet(2.0), PowerLaw(0.3), grid, tol=1e-3)
    assert prof.lower_estimate <= prof.upper_estimate
    tail = prof.points[-prof.tail_size :]
    assert prof.lower_estimate == min(p.s_lower for p in tail)
    assert prof.upper_estimate == max(p.s_upper for p in tail)


def test_profile_injects_model_checkpoint_scales():
    pair = build_stability_pair(PowerLaw(0.5), 2)
    grid = [-100 * LOG2, -200 * LOG2]
    with_marks = dimension_profile(pair.union, PowerLaw(0.5), grid, tol=5e-3)
    assert len(with_marks.points) == 3
    injected = [p.log_delta for p in with_marks.points if p.log_delta not in grid]
    assert injected == pytest.approx([pair.state.log_r_seq[0]])


def test_theta_one_switches_to_log_corrected_window():
    grids = [-40 * LOG2, -80 * LOG2]
    profs = theta_profile(SequenceSet(1.0), [0.5, 1.0], grids, tol=1e-3)
    assert set(profs) == {0.5, 1.0}
    assert isinstance(profs[1.0].phi, LogCorrected)
    assert isinstance(profs[0.5].phi, PowerLaw)
    box = box_profile(SequenceSet(1.0), grids, tol=1e-3)
    assert isinstance(box.phi, LogCorrected)
    assert box.upper_estimate == pytest.approx(profs[1.0].upper_estimate, abs=1e-12)
    assert box.upper_estimate == pytest.approx(0.4951171875, abs=1e-15)


def test_exponent_estimates_increase_with_theta():
    grids = [-120 * LOG2]
    profs = theta_profile(SequenceSet(1.0), [0.2, 0.5, 0.8], grids, tol=1e-3)
    mids = [
        0.5 * (profs[t].lower_estimate + profs[t].upper_estimate)
        for t in (0.2, 0.5, 0.8)
    ]
    assert mids[0] < mids[1] < mids[2]


def test_dp_profile_builds_one_skeleton_per_model_and_scale(monkeypatch):
    calls = Counter()
    original = setmodels.skeleton

    def counting(model, resolution):
        calls[model] += 1
        return original(model, resolution)

    monkeypatch.setattr(covers, "skeleton", counting)
    monkeypatch.setattr(setmodels, "skeleton", counting)  # Holder image bases
    base = SequenceSet(1.0)
    holder = HolderImage(base, 0.5)
    thirds = CantorSchedule.middle_thirds(40)
    points = UniformGrid(2.0**-9)
    grid = [-5 * LOG2, -6 * LOG2]
    for model, expected in [
        (base, {base: 2}),
        (holder, {holder: 2, base: 2}),
        (thirds, {thirds: 2}),
        (points, {points: 2}),
    ]:
        calls.clear()
        prof = dimension_profile(model, PowerLaw(0.5), grid, oracle="dp")
        assert calls == expected
        assert [p.evaluations for p in prof.points] == [12, 12]


def test_dp_errors_reach_the_estimator(monkeypatch):
    with pytest.raises(ResolutionError):
        # phi(delta) = delta**100 puts the window floor at e**-1000
        critical_exponent(SequenceSet(1.0), PowerLaw(0.01), -10.0, oracle="dp")
    monkeypatch.setattr(covers, "_STATE_CAP", 5)
    with pytest.raises(BudgetError):
        critical_exponent(SequenceSet(1.0), PowerLaw(0.5), -6 * LOG2, oracle="dp")
