"""Critical-exponent bisection and dimension profiles."""

import math
import random
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaledim import covers, estimator, setmodels
from scaledim.errors import BudgetError, IndeterminateError, ResolutionError, ScaledimError
from scaledim.estimator import critical_exponent, dimension_profile
from scaledim.scalefun import LogCorrected, PowerLaw
from scaledim.setmodels import (
    CantorSchedule,
    HolderImage,
    PointSet,
    ProductModel,
    SequenceSet,
    UniformGrid,
    UnionModel,
    build_stability_pair,
    translate,
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


def test_full_plane_product_needs_exponent_headroom(monkeypatch):
    plane = ProductModel(UniformGrid(None), UniformGrid(None))
    # capped below the true exponent 2 the dual certificates cannot meet
    with monkeypatch.context() as m:
        m.setattr(estimator, "ambient_dimension", lambda model: 1.5)
        with pytest.raises(IndeterminateError):
            critical_exponent(plane, PowerLaw(0.5), -40 * LOG2, tol=1e-3)
    # with the default headroom the upper certificate lands exactly on 2
    ce = critical_exponent(plane, PowerLaw(0.5), -40 * LOG2, tol=1e-3)
    assert ce.s_upper == pytest.approx(2.0, abs=1e-12)
    assert not ce.clamped_upper


def _planar_union():
    thirds = CantorSchedule.middle_thirds(20)
    return UnionModel(
        (ProductModel(thirds, thirds), ProductModel(SequenceSet(1.0, offset=3.0), SequenceSet(1.0)))
    )


def test_planar_union_exponents_reach_above_one():
    # a union of two products lies in the plane: its exponent cap is 2, and
    # the upper certificate lands above 1 without a clamp
    ce = critical_exponent(_planar_union(), PowerLaw(0.5), -5 * LOG2)
    assert (ce.s_lower, ce.s_upper) == (0.9462890625, 1.3505859375)
    assert not (ce.clamped_lower or ce.clamped_upper)


def test_planar_union_under_the_dp_oracle_composes_its_products():
    # the DP oracle takes over models on the line only; the products of a
    # planar union keep their own routes, with DP marginals
    ce = critical_exponent(_planar_union(), PowerLaw(0.5), -5 * LOG2, oracle="dp")
    assert (ce.s_lower, ce.s_upper) == (0.9462890625, 1.4130859375)
    assert not (ce.clamped_lower or ce.clamped_upper)


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
    # a bare theta = 1 window has zero width; the box-counting endpoint is
    # the log-corrected window
    grids = [-40 * LOG2, -80 * LOG2]
    box = dimension_profile(SequenceSet(1.0), LogCorrected(), grids, tol=1e-3)
    assert isinstance(box.phi, LogCorrected)
    assert box.upper_estimate == pytest.approx(0.4951171875, abs=1e-15)


def test_exponent_estimates_increase_with_theta():
    grids = [-120 * LOG2]
    profs = [
        dimension_profile(SequenceSet(1.0), PowerLaw(t), grids, tol=1e-3)
        for t in (0.2, 0.5, 0.8)
    ]
    mids = [0.5 * (p.lower_estimate + p.upper_estimate) for p in profs]
    assert mids[0] < mids[1] < mids[2]


def test_dp_profile_builds_one_skeleton_per_model_and_scale(monkeypatch):
    calls = Counter()
    original = setmodels.skeleton

    def counting(model, resolution):
        calls[model] += 1
        return original(model, resolution)

    monkeypatch.setattr(covers, "skeleton", counting)
    monkeypatch.setattr(setmodels, "skeleton", counting)  # Holder image bases
    sweeps = 0
    sweep = covers._CoverGraph.cost

    def counting_sweep(graph, s, want_pieces=False):
        nonlocal sweeps
        sweeps += 1
        return sweep(graph, s, want_pieces)

    monkeypatch.setattr(covers._CoverGraph, "cost", counting_sweep)
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
        sweeps = 0
        prof = dimension_profile(model, PowerLaw(0.5), grid, oracle="dp")
        assert calls == expected
        assert [p.evaluations for p in prof.points] == [12, 12]
        # at most 12 sweeps for the 24 evaluations: exponents above the
        # root are settled by the last sweep's cover
        assert sweeps <= 12


def test_bisect_stops_at_adjacent_floats():
    # a tol below every float spacing: the bracket halves until its
    # midpoint rounds onto an end
    yes, no = estimator._bisect(lambda s: s >= 0.3, 1.0, 0.0, 5e-324)
    assert yes >= 0.3 > no
    assert yes == math.nextafter(no, math.inf)


def test_critical_exponent_at_a_tol_below_the_float_spacing():
    args = (SequenceSet(1.0), PowerLaw(0.5), -40 * LOG2)
    coarse = critical_exponent(*args, tol=1e-3)
    fine = critical_exponent(*args, tol=5e-324)
    assert coarse.s_lower <= fine.s_lower <= fine.s_upper <= coarse.s_upper
    assert fine.evaluations == 105


def test_dp_errors_reach_the_estimator(monkeypatch):
    with pytest.raises(ResolutionError):
        # phi(delta) = delta**100 puts the window floor at e**-1000
        critical_exponent(SequenceSet(1.0), PowerLaw(0.01), -10.0, oracle="dp")
    monkeypatch.setattr(covers, "_STATE_CAP", 5)
    with pytest.raises(BudgetError):
        critical_exponent(SequenceSet(1.0), PowerLaw(0.5), -6 * LOG2, oracle="dp")


dp_models = st.one_of(
    st.floats(0.5, 3.0).map(SequenceSet),
    st.just(CantorSchedule.middle_thirds(40)),
    st.builds(
        lambda p, alpha: HolderImage(SequenceSet(p), alpha),
        st.floats(0.5, 3.0),
        st.floats(0.5, 0.95),
    ),
    st.just(UniformGrid(2.0**-9)),
)


def _outcome(args, tol):
    try:
        ce = critical_exponent(*args, tol=tol, oracle="dp")
    except (BudgetError, ResolutionError) as exc:
        return type(exc).__name__, str(exc)
    return (
        ce.s_lower.hex(), ce.s_upper.hex(), ce.clamped_lower, ce.clamped_upper,
        ce.evaluations,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    model=dp_models,
    log2_delta=st.floats(-7.0, -3.0),
    theta=st.floats(0.2, 0.9),
    tol=st.sampled_from([1e-2, 1e-3, 1e-6]),
)
def test_dp_witness_never_changes_a_bracket(model, log2_delta, theta, tol):
    args = (model, PowerLaw(theta), log2_delta * LOG2)
    with pytest.MonkeyPatch.context() as m:
        # small theta at fine scales gives skeletons and graphs that take
        # seconds to build; past these caps both runs raise the same error
        m.setattr(setmodels, "SEQUENCE_N_CAP", 100_000)
        m.setattr(covers, "_MOVE_CAP", 300_000)
        fast = _outcome(args, tol)
        # no sweep-free bracket, so neither end settles an exponent: every
        # one is swept
        m.setattr(covers._PreparedDP, "bracket", lambda self, s: None)
        swept = _outcome(args, tol)
    assert fast == swept


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    # points spaced wider than hi are covered one lo piece each, so the
    # lower end is tight above the last sweep's exponent
    model=st.one_of(dp_models, st.just(UniformGrid(2.0**-5))),
    log2_hi=st.floats(-7.0, -3.0),
    theta=st.floats(0.2, 0.9),
    # None: logs only; 0: from_linear; else linear ends pinned this far
    # from exp of the logs, as ScaleWindow allows
    skew=st.sampled_from([None, 0.0, -9e-10, 9e-10]),
    exponents=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
)
def test_dp_bracket_holds_the_sweep(model, log2_hi, theta, skew, exponents):
    log_hi = log2_hi * LOG2
    log_lo = log_hi / theta
    if skew is None:
        window = covers.ScaleWindow(log_lo, log_hi)
    elif skew == 0.0:
        window = covers.ScaleWindow.from_linear(math.exp(log_lo), math.exp(log_hi))
    else:
        window = covers.ScaleWindow(
            log_lo + skew, log_hi - skew,
            linear_lo=math.exp(log_lo), linear_hi=math.exp(log_hi),
        )
    with pytest.MonkeyPatch.context() as m:
        m.setattr(setmodels, "SEQUENCE_N_CAP", 100_000)
        m.setattr(covers, "_MOVE_CAP", 300_000)
        cost_at = covers.prepare(model, window, oracle="dp")
        assert cost_at.bracket(exponents[0]) is None  # no sweep yet
        try:
            cost_at(exponents[0])
        except (BudgetError, ResolutionError):
            return
        for s in exponents[1:] + exponents[:1]:
            lower, upper = cost_at.bracket(s)
            swept = cost_at(s).log_cost_upper  # the next bracket starts here
            assert lower <= swept <= upper


@pytest.mark.parametrize("skew", [0.0, -9e-10, 9e-10])
def test_dp_bracket_is_tight_on_covers_of_lo_pieces(skew):
    # 33 points spaced wider than hi: the cover is one lo piece per point at
    # every s, so above the last sweep's exponent the lower end is exact but
    # for the margin; the logs of the window are pinned up to 1e-9 away
    # from its linear ends, and the lower end must use the linear ones
    log_hi = -6 * LOG2
    log_lo = 2.0 * log_hi
    window = covers.ScaleWindow(
        log_lo + skew, log_hi - skew, linear_lo=math.exp(log_lo), linear_hi=math.exp(log_hi)
    )
    cost_at = covers.prepare(UniformGrid(2.0**-5), window, oracle="dp")
    for s0, s in [(0.0, 1.0), (0.2, 0.9), (0.5, 0.5000001), (0.7, 0.71)]:
        cost_at(s0)
        lower, _ = cost_at.bracket(s)
        swept = cost_at(s).log_cost_upper
        assert swept - 1e-12 < lower <= swept


def test_dp_bracket_settles_exponents_on_both_sides_of_the_root(monkeypatch):
    sweeps = []
    call = covers._PreparedDP.__call__
    monkeypatch.setattr(
        covers._PreparedDP, "__call__", lambda self, s: sweeps.append(s) or call(self, s)
    )
    ce = critical_exponent(SequenceSet(1.0), PowerLaw(0.5), -4 * LOG2, oracle="dp")
    assert (ce.s_lower.hex(), ce.s_upper.hex()) == ("0x1.ed00000000000p-2", "0x1.ee00000000000p-2")
    # one steering sweep, at the root that Dinkelbach's step finds on the
    # graph's sparse moves before any sweep, leaves no exponent open; 4
    # sweeps without steering, 9 with the witness alone, 12 with neither
    # shortcut
    assert (ce.evaluations, len(sweeps)) == (12, 1)


@pytest.mark.parametrize(
    "log2_delta, bracket",
    [
        (-4, ("0x1.7000000000000p-1", "0x1.7080000000000p-1")),
        (-5, ("0x1.5f80000000000p-1", "0x1.6000000000000p-1")),
        (-6, ("0x1.5580000000000p-1", "0x1.5600000000000p-1")),
        (-7, ("0x1.4f00000000000p-1", "0x1.4f80000000000p-1")),
    ],
)
def test_dp_union_of_lines_sweeps_its_skeleton_graph(monkeypatch, log2_delta, bracket):
    # under the DP oracle a union of line models is one DP over its
    # skeleton, which settles and steers as any DP route does: at most 2
    # sweeps, where summing the members' DPs took 24, for the same brackets
    sweeps = []
    call = covers._PreparedDP.__call__
    monkeypatch.setattr(
        covers._PreparedDP, "__call__", lambda self, s: sweeps.append(s) or call(self, s)
    )
    union = UnionModel((SequenceSet(1.0), CantorSchedule.middle_thirds(12, offset=2.0)))
    ce = critical_exponent(union, PowerLaw(0.5), log2_delta * LOG2, oracle="dp")
    assert (ce.s_lower.hex(), ce.s_upper.hex()) == bracket
    assert ce.evaluations == 12
    assert len(sweeps) <= 2


@pytest.mark.parametrize(
    "model, log2_delta, bracket",
    [
        (HolderImage(SequenceSet(1.0), 0.5), -6, ("0x1.3980000000000p-1", "0x1.3a00000000000p-1")),
        (HolderImage(SequenceSet(1.0), 0.5), -7, ("0x1.3180000000000p-1", "0x1.3200000000000p-1")),
        (SequenceSet(0.5), -6, ("0x1.3980000000000p-1", "0x1.3a00000000000p-1")),
        (SequenceSet(0.5), -7, ("0x1.3180000000000p-1", "0x1.3200000000000p-1")),
    ],
    ids=["holder-6", "holder-7", "sequence-6", "sequence-7"],
)
def test_holder_check_windows_take_one_sweep_each(monkeypatch, model, log2_delta, bracket):
    # the windows of verify's holder-image-consistency check: Dinkelbach's
    # step on the sparse moves lands the one steering sweep close enough
    # to the root that the brackets settle every other exponent
    sweeps = []
    call = covers._PreparedDP.__call__
    monkeypatch.setattr(
        covers._PreparedDP, "__call__", lambda self, s: sweeps.append(s) or call(self, s)
    )
    ce = critical_exponent(model, PowerLaw(0.5), log2_delta * LOG2, tol=1e-3, oracle="dp")
    assert (ce.s_lower.hex(), ce.s_upper.hex()) == bracket
    assert (ce.evaluations, len(sweeps)) == (12, 1)


@st.composite
def _line_models(draw):
    """A line model of any kind with a DP route, shifted by up to 1e15
    where its kind can be."""
    kind = draw(st.sampled_from(["point", "sequence", "cantor", "grid", "union", "holder"]))
    if kind == "point":
        model = PointSet(draw(st.floats(0.0, 1.0)))
    elif kind == "sequence":
        model = SequenceSet(draw(st.floats(0.5, 3.0)))
    elif kind == "cantor":
        ratios = draw(st.lists(st.floats(0.05, 1.0 / 3.0), min_size=1, max_size=8))
        model = CantorSchedule.from_ratios(ratios)
    elif kind == "grid":
        model = UniformGrid(draw(st.sampled_from([0.25, 2.0**-6]) | st.floats(2.0**-7, 1.0)))
    elif kind == "union":
        model = UnionModel(
            (SequenceSet(draw(st.floats(0.5, 3.0))), CantorSchedule.middle_thirds(12, offset=2.0))
        )
    else:
        base = draw(st.sampled_from([SequenceSet(1.0), CantorSchedule.middle_thirds(12)]))
        return HolderImage(base, draw(st.floats(0.5, 1.0)))
    offset = draw(st.sampled_from([0.0, 1e15, -1e15, 2.0**40]) | st.floats(-1e15, 1e15))
    return translate(model, offset)


def _hex_outcome(args, tol):
    """Every field of the result in hex, or the error's type, message and
    bracket."""
    try:
        ce = critical_exponent(*args, tol=tol, oracle="dp")
    except ScaledimError as exc:
        bracket = getattr(exc, "bracket", None)
        return type(exc).__name__, str(exc), bracket and tuple(v.hex() for v in bracket)
    return tuple(v.hex() if type(v) is float else v for v in astuple(ce))


def _with_and_without_steering(args, tol):
    steered = _hex_outcome(args, tol)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(covers._PreparedDP, "steer", lambda self: None)
        unsteered = _hex_outcome(args, tol)
    return steered, unsteered


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    model=_line_models(),
    log2_delta=st.floats(-7.0, -0.1),
    theta=st.floats(0.3, 0.95),
    tol=st.sampled_from([1e-2, 1e-3, 1e-6, 5e-324]),
)
def test_steering_never_changes_an_outcome(model, log2_delta, theta, tol):
    args = (model, PowerLaw(theta), log2_delta * LOG2)
    with pytest.MonkeyPatch.context() as m:
        # past these caps both runs raise the same error, in well under the
        # seconds a full build of the finest windows takes
        m.setattr(setmodels, "SEQUENCE_N_CAP", 100_000)
        m.setattr(covers, "_MOVE_CAP", 300_000)
        steered, unsteered = _with_and_without_steering(args, tol)
    assert steered == unsteered


@pytest.mark.parametrize(
    "args, tol, cap, error",
    [
        # the start state reaches 6.7M items: the state cap, before any sweep
        ((SequenceSet(0.5), PowerLaw(0.2), -7 * LOG2), 1e-3, None, "BudgetError"),
        # lo and hi are below the float spacing at 1e15
        (
            (translate(SequenceSet(1.0), 1e15), PowerLaw(0.5), -3 * LOG2),
            1e-3, None, "ResolutionError",
        ),
        # the window floor e**-1000 has no linear value
        ((SequenceSet(1.0), PowerLaw(0.01), -10.0), 1e-3, None, "ResolutionError"),
        # an exponent cap at tol: the upper cost stays above 1 and the lower
        # bound certifies nothing above 0, while steering sweeps past the cap
        ((SequenceSet(1.0), PowerLaw(0.5), -5 * LOG2), 1e-3, 1e-3, "IndeterminateError"),
        ((CantorSchedule.middle_thirds(40), PowerLaw(0.5), -6 * LOG2), 1e-2, 0.0, "IndeterminateError"),
    ],
)
def test_steering_raises_what_bisection_raises(monkeypatch, args, tol, cap, error):
    if cap is not None:
        monkeypatch.setattr(estimator, "ambient_dimension", lambda model: cap)
    steered, unsteered = _with_and_without_steering(args, tol)
    assert steered[0] == error
    assert steered == unsteered


def test_witness_root_is_where_the_cover_costs_one():
    rng = random.Random(27)
    for _ in range(200):
        hi = rng.uniform(1e-6, 0.999)
        lo = hi * rng.uniform(1e-6, 1.0)
        lengths = [rng.uniform(lo, hi) for _ in range(rng.randint(2, 400))]
        s = covers._witness_root(lengths)
        assert 0.0 < s <= 1.0
        log_cost = math.log(math.fsum(length**s for length in lengths))
        # a root above 1 is clamped there, where the cover costs more than 1
        assert abs(log_cost) <= 1e-9 or (s == 1.0 and log_cost > 0.0)
    # no piece shorter than 1: the cost never falls through 1
    for lengths in ([1.0], [1.0, 1.0], [2.0, 1.5], [1.0, 3.0]):
        assert covers._witness_root(lengths) is None
    assert covers._witness_root([0.5]) is None  # one piece costs 1 only at 0


@pytest.mark.parametrize(
    "model, log2_delta",
    [
        (SequenceSet(1.0), -5),
        (HolderImage(SequenceSet(2.0), 0.7), -6),
        (CantorSchedule.middle_thirds(40), -7),
        (UniformGrid(2.0**-9), -4),
    ],
)
def test_no_steering_sweep_repeats_the_last_sweep(monkeypatch, model, log2_delta):
    sweeps = []  # (s, whether a steering sweep)
    steering = False
    call, steer = covers._PreparedDP.__call__, covers._PreparedDP.steer

    def counted_call(self, s):
        sweeps.append((s, steering))
        return call(self, s)

    def flagged_steer(self):
        nonlocal steering
        steering = True
        try:
            steer(self)
        finally:
            steering = False

    monkeypatch.setattr(covers._PreparedDP, "__call__", counted_call)
    monkeypatch.setattr(covers._PreparedDP, "steer", flagged_steer)
    critical_exponent(model, PowerLaw(0.5), log2_delta * LOG2, tol=1e-6, oracle="dp")
    assert sweeps and sweeps[0][1]  # the first sweep steers from the sparse covers
    for (before, _), (s, steered) in zip(sweeps, sweeps[1:]):
        assert not steered or s != before
    # at the iteration's fixed point a steering step sweeps nothing
    window = covers.ScaleWindow(2.0 * log2_delta * LOG2, log2_delta * LOG2)
    cost_at = covers.prepare(model, window, oracle="dp")
    cost_at.steer()
    for _ in range(20):
        root = covers._witness_root(cost_at.witness)
        if root == cost_at.last[0]:
            break
        cost_at(root)
    sweeps.clear()
    cost_at.steer()
    assert sweeps == []
