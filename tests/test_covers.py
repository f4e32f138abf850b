"""Cover-cost oracles: exhaustive reference, skeleton DP, analytic routes."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaledim import covers
from scaledim.covers import (
    CoverCost,
    ScaleWindow,
    combine_union,
    cover_cost,
    cover_cost_cantor,
    cover_cost_dp,
    cover_cost_exhaustive,
    cover_cost_grid,
    cover_cost_point,
    cover_cost_sequence,
    prepare,
    schedule_mass_constant,
)
from scaledim.errors import BudgetError, DomainError, InputError, ResolutionError
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

LOG23 = math.log(2.0) / math.log(3.0)


def middle_thirds(levels=20):
    return CantorSchedule.from_ratios([1.0 / 3.0] * levels)


def span_grid(points, window):
    """Diameter grid that makes the gridded exhaustive optimum exact."""
    spans = {float(b - a) for a in points for b in points if b > a}
    return sorted({min(max(sp, window.lo), window.hi) for sp in spans} | {window.lo})


# --- window ------------------------------------------------------------


def test_window_orders_endpoints():
    w = ScaleWindow(-5.0, -2.0)
    assert w.log_lo == -5.0 and w.log_hi == -2.0
    assert w.contains_log(-3.0)
    assert not w.contains_log(-6.0)
    with pytest.raises(DomainError):
        ScaleWindow(-1.0, -2.0)


def test_window_degenerate_single_scale_is_legal():
    w = ScaleWindow(-3.0, -3.0)
    assert w.contains_log(-3.0)


def test_window_from_linear_roundtrip():
    w = ScaleWindow.from_linear(0.125, 0.5)
    assert w.lo == 0.125 and w.hi == 0.5
    assert w.linear_representable()


def test_window_linear_representability_at_deep_scales():
    assert not ScaleWindow(-2.0e4, -1.0e4).linear_representable()


# --- exhaustive reference oracle ----------------------------------------


def test_exhaustive_hand_case_three_points():
    # points {0, 1/4, 1/2}, window [0.2, 0.6], s = 2: best cover pairs the
    # first two points (length 1/4) and covers the last alone (length 0.2),
    # costing 0.25**2 + 0.2**2 = 0.1025; one interval over everything costs
    # 0.25 and three singletons cost 0.12.
    pts = [0.0, 0.25, 0.5]
    window = ScaleWindow.from_linear(0.2, 0.6)
    got = cover_cost_exhaustive(pts, window, 2.0, span_grid(pts, window))
    assert math.exp(got.log_cost_upper) == pytest.approx(0.1025, abs=1e-15)


def test_exhaustive_single_point_uses_smallest_diameter():
    window = ScaleWindow.from_linear(0.1, 0.4)
    got = cover_cost_exhaustive([0.3], window, 0.5, [0.1, 0.4])
    assert got.log_cost_upper == pytest.approx(0.5 * math.log(0.1), abs=1e-12)


def test_exhaustive_rejects_oversized_instances():
    window = ScaleWindow.from_linear(0.1, 0.4)
    with pytest.raises(InputError):
        cover_cost_exhaustive(list(np.linspace(0, 1, 9)), window, 0.5, [0.1])


# --- skeleton DP vs the reference ---------------------------------------


def test_dp_matches_exhaustive_on_seeded_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        pts = np.sort(rng.uniform(0.0, 1.0, n))
        hi = float(rng.uniform(0.05, 0.5))
        lo = hi * float(rng.uniform(0.15, 1.0))
        s = float(rng.uniform(0.05, 1.0))
        window = ScaleWindow.from_linear(lo, hi)
        dp = cover_cost_dp([(p, p) for p in pts], window, s)
        ex = cover_cost_exhaustive(pts, window, s, span_grid(pts, window))
        assert math.exp(dp.log_cost_upper) == pytest.approx(
            math.exp(ex.log_cost_upper), abs=1e-12
        )


def test_dp_is_exact_bracket_and_matches_reference():
    pts = [0.0, 0.25, 0.5]
    window = ScaleWindow.from_linear(0.2, 0.6)
    got = cover_cost_dp([(p, p) for p in pts], window, 0.8)
    assert got.log_cost_lower == got.log_cost_upper
    assert got.exact
    ref = cover_cost_exhaustive(pts, window, 0.8, span_grid(pts, window))
    assert got.log_cost_upper == pytest.approx(ref.log_cost_upper, abs=1e-12)


def test_dp_covers_extended_items():
    # one fat item spanning more than hi forces several pieces
    window = ScaleWindow.from_linear(0.1, 0.25)
    got = cover_cost_dp([(0.0, 0.6)], window, 1.0)
    # 0.6 of length covered by pieces of length <= 0.25: cost >= 0.6 at s=1
    assert math.exp(got.log_cost_upper) >= 0.6 - 1e-12


def test_dp_wants_pieces_witness():
    window = ScaleWindow.from_linear(0.2, 0.6)
    got = cover_cost_dp(
        [(0.0, 0.0), (0.25, 0.25), (0.5, 0.5)], window, 0.8, want_pieces=True
    )
    assert got.pieces is not None
    total = sum(length**0.8 for _, length in got.pieces)
    assert total == pytest.approx(math.exp(got.log_cost_upper), abs=1e-12)


def bits(c: CoverCost):
    return (c.log_cost_lower.hex(), c.log_cost_upper.hex(), c.method, c.pieces)


@pytest.mark.parametrize(
    "model",
    [
        SequenceSet(1.0),
        SequenceSet(2.5),
        HolderImage(SequenceSet(1.5), 0.6),
        middle_thirds(30),
        UniformGrid(2.0**-7),  # a skeleton of isolated points
    ],
    ids=["sequence", "sequence-p2.5", "holder", "middle-thirds", "points"],
)
def test_prepared_dp_matches_cover_cost_dp_bit_for_bit(model):
    rng = np.random.default_rng(23)
    sweep = [0.0, 0.05, 0.3, 1.0 / 3.0, 0.5, 0.71, 0.9, 1.0]
    for _ in range(6):
        hi = 2.0 ** -float(rng.uniform(2.0, 6.0))
        window = ScaleWindow.from_linear(hi * 2.0 ** -float(rng.uniform(0.5, 4.0)), hi)
        cost_at = prepare(model, window, oracle="dp")
        items = skeleton(model, window.lo)
        for s in sweep + sweep[::-1]:
            assert bits(cost_at(s)) == bits(cover_cost_dp(items, window, s))
            assert bits(cover_cost(model, window, s, oracle="dp")) == bits(cost_at(s))


# sha256 over the hex bounds, method and pieces of the DP at seeded windows
# and exponents, recorded before the cover graph moved to flat rows: a change
# of graph storage must give the same floats and the same witness bit for bit.
DP_DIGEST_MODELS = {
    "sequence-p0.5": SequenceSet(0.5),
    "sequence-p1.5": SequenceSet(1.5),
    "holder": HolderImage(SequenceSet(2.0), 0.7),
    "middle-thirds": middle_thirds(30),
    "points": UniformGrid(2.0**-7),
    "union": UnionModel((SequenceSet(1.0), CantorSchedule.middle_thirds(30, offset=2.0))),
}
DP_DIGESTS = {
    "sequence-p0.5": (
        "7678e72aaddf4d7d91785439d22e59b9d89bf0c0103a552a0444a6e2c4d2ea19",
        "3d298a91e6d467626b7e38fed789085cae6bccebe8819a6d458d73ac8203a23d",
    ),
    "sequence-p1.5": (
        "5b4bf9221fac770017ef97f9f90f3e45389bd41c40d5421f1eabbf59315447c3",
        "ee9af78a477a7b3880231253fbd1dd49c2e019867854144223017179c52a2eb4",
    ),
    "holder": (
        "2045a52630438ddd609e6ce86bef30de55fbf11df781b927929b76627cc74374",
        "9cc14628b4e28afa7207b55bbf47320edeeedd1d95046b0bf5985c1a1a6240f6",
    ),
    "middle-thirds": (
        "04a128df4bb29e5093a507671eed606eab6589a4c6b0eee2e21e937481d7f03f",
        "f6e4cd1fcf29f89756ea7e9424af44b48b559cd704d541109b8de93c2dfcd071",
    ),
    "points": (
        "7ba5135f2b5db957d13df2a766958636679b94a48d6d3be660d3a13ec1883ed7",
        "545eaae08b3b951ac0c6a1ceb2aebf55c32cd90daf82d01633d58cab08242d55",
    ),
    "union": (
        "ab9530c265257449e7fa4814630eb497c7d323ad6023eef6adb90f04e50658cc",
        "ae73f57b1439bf2d121fd85670d26f8e6a485979a668644b1f27ce0547c74874",
    ),
}


def _dp_digests(model):
    """(cover_cost_dp with pieces, prepare(oracle="dp")) digests of a model."""
    rng = np.random.default_rng(5)
    direct, prepared = hashlib.sha256(), hashlib.sha256()
    for _ in range(6):
        hi = 2.0 ** -float(rng.uniform(3.0, 8.0))
        window = ScaleWindow.from_linear(hi * 2.0 ** -float(rng.uniform(0.5, 4.0)), hi)
        items = skeleton(model, window.lo)
        cost_at = prepare(model, window, oracle="dp")
        for s in [0.0, 1.0] + [float(v) for v in rng.uniform(0.0, 1.0, 6)]:
            got = cover_cost_dp(items, window, s, want_pieces=True)
            pieces = tuple((a.hex(), length.hex()) for a, length in got.pieces)
            direct.update(repr(bits(got)[:3] + (pieces,)).encode())
            prepared.update(repr(bits(cost_at(s))).encode())
    return direct.hexdigest(), prepared.hexdigest()


@pytest.mark.parametrize("name", sorted(DP_DIGEST_MODELS))
def test_dp_bits_match_the_recorded_digests(name):
    assert _dp_digests(DP_DIGEST_MODELS[name]) == DP_DIGESTS[name]


def test_dp_errors_keep_their_types(monkeypatch):
    model = SequenceSet(1.0)
    deep = ScaleWindow(-700.0, -10.0)
    with pytest.raises(ResolutionError):
        cover_cost(model, deep, 0.5, oracle="dp")
    with pytest.raises(ResolutionError):
        cover_cost_dp(skeleton(model, 1e-3), deep, 0.5)
    with pytest.raises(ResolutionError):
        cover_cost(HolderImage(model, 0.5), deep, 0.5)  # auto routes Holder to DP
    window = ScaleWindow.from_linear(2.0**-10, 2.0**-5)
    monkeypatch.setattr(covers, "_STATE_CAP", 5)
    with pytest.raises(BudgetError):
        cover_cost_dp(skeleton(model, window.lo), window, 0.5)
    with pytest.raises(BudgetError):
        cover_cost(model, window, 0.5, oracle="dp")


def test_dp_move_budget_stops_the_graph_build(monkeypatch):
    model = SequenceSet(1.0)
    window = ScaleWindow.from_linear(2.0**-10, 2.0**-5)
    items = skeleton(model, window.lo)
    full = covers._CoverGraph(items, window)
    moves = sum(len(row) for row in full.rows)
    assert moves > len(full.rows)  # a tighter bound than the state count
    monkeypatch.setattr(covers, "_MOVE_CAP", moves)
    assert cover_cost_dp(items, window, 0.5) == full.cost(0.5)
    monkeypatch.setattr(covers, "_MOVE_CAP", moves - 1)
    with pytest.raises(BudgetError, match=f"exceeded {moves - 1} moves"):
        cover_cost_dp(items, window, 0.5)
    with pytest.raises(BudgetError, match="moves"):
        cover_cost(model, window, 0.5, oracle="dp")


def test_prepare_rejects_bad_oracles_and_exponents():
    window = ScaleWindow.from_linear(0.01, 0.1)
    with pytest.raises(InputError):
        prepare(SequenceSet(1.0), window, oracle="exact")
    with pytest.raises(InputError):
        prepare(HolderImage(SequenceSet(1.0), 0.5), window, oracle="analytic")
    with pytest.raises(DomainError):
        prepare(SequenceSet(1.0), window, oracle="dp")(1.5)


# --- analytic routes vs DP ----------------------------------------------


def test_cantor_exact_level_window_crosses_at_similarity_dimension():
    mt = middle_thirds()
    for level in (4, 7, 10):
        log_len = mt.log_length(level)
        window = ScaleWindow(log_len, log_len)
        got = cover_cost_cantor(mt, window, LOG23)
        # 2**level pieces of length 3**-level: cost == 1 exactly at log2/log3
        assert got.log_cost_upper == pytest.approx(0.0, abs=1e-9)
        assert got.log_cost_lower == pytest.approx(0.0, abs=1e-9)


def test_cantor_analytic_agrees_with_dp():
    mt = middle_thirds()
    for (lo2, hi2), s in [((-8, -4), 0.5), ((-10, -6), 0.7), ((-9, -5), 0.63)]:
        window = ScaleWindow(lo2 * math.log(2.0), hi2 * math.log(2.0))
        analytic = cover_cost(mt, window, s, oracle="analytic")
        dp = cover_cost(mt, window, s, oracle="dp")
        assert analytic.log_cost_lower <= dp.log_cost_upper + 1e-9
        assert dp.log_cost_upper <= analytic.log_cost_upper + 1e-9


def test_sequence_analytic_brackets_dp():
    model = SequenceSet(1.0)
    window = ScaleWindow(-12 * math.log(2.0), -6 * math.log(2.0))
    for s in (0.2, 1.0 / 3.0, 0.5):
        analytic = cover_cost_sequence(1.0, window, s)
        dp = cover_cost(model, window, s, oracle="dp")
        assert analytic.log_cost_lower <= dp.log_cost_upper + 1e-9
        assert dp.log_cost_upper <= analytic.log_cost_upper + 1e-9


def test_grid_cost_at_s_one_is_near_one():
    window = ScaleWindow.from_linear(2.0**-10, 2.0**-6)
    got = cover_cost_grid(2.0**-16, window, 1.0)
    # dense grid: N(len) ~ 1/len, cost ~ 1 at s = 1
    assert abs(got.log_cost_upper) < 0.02
    assert abs(got.log_cost_lower) < 0.02


def test_point_cost_is_lo_to_the_s():
    window = ScaleWindow.from_linear(0.01, 0.2)
    got = cover_cost_point(window, 0.7)
    assert got.log_cost_upper == pytest.approx(0.7 * math.log(0.01), abs=1e-12)
    assert got.log_cost_lower == got.log_cost_upper


def test_product_of_grids_costs_exactly_one_at_s_two():
    model = ProductModel(UniformGrid(None), UniformGrid(None))
    window = ScaleWindow.from_linear(2.0**-52, 2.0**-40)
    got = cover_cost(model, window, 2.0)
    # N(len)**2 * len**2 = (1 + len)**2: washes below 1e-9 at len = 2**-40
    assert got.log_cost_upper == pytest.approx(0.0, abs=1e-9)
    assert got.log_cost_lower <= got.log_cost_upper + 1e-12


def _cantor_product():
    return ProductModel(
        CantorSchedule.from_ratios([1.0 / 3.0] * 12),
        CantorSchedule.from_ratios([0.25] * 10),
    )


def test_product_marginal_counts_are_prepared_once_per_window(monkeypatch):
    calls = []
    marginal = covers._marginal_count_log

    def counting(model, log_len, oracle):
        calls.append(log_len)
        return marginal(model, log_len, oracle)

    monkeypatch.setattr(covers, "_marginal_count_log", counting)
    window = ScaleWindow(-5 * math.log(3.0), -2 * math.log(3.0))
    cost = prepare(_cantor_product(), window)
    for s in (0.2, 0.6, 1.0, 1.4, 1.8):
        cost(s)
    # one left and one right count per candidate length, not per s
    assert len(calls) == 2 * len(set(calls))


# Cantor x Cantor product costs recorded before the marginal counts were
# prepared once per window: (oracle, window log lo, s, lower hex, upper hex)
PRODUCT_COSTS = [
    ("auto", -5, 0.4, "0x1.7449fd124d69ep+0", "0x1.e4c97356a0b08p+0"),
    ("auto", -5, 1.3, "-0x1.e7823aecc065ap+0", "-0x1.ce28d43fd1e28p-1"),
    ("auto", -5, 2.0, "-0x1.5f8e5195843cep+2", "-0x1.2fdbed3d7066fp+2"),
    ("auto", -4, 0.4, "0x1.1be9bff2e94bfp-1", "0x1.f867897c26848p+0"),
    ("auto", -4, 0.9, "-0x1.17701a91bfa01p-1", "0x1.ef5cfb007b396p-1"),
    ("dp", -5, 0.0, "0x1.62e42fefa39efp+1", "0x1.96ca77c922cf8p+1"),
    ("dp", -5, 0.9, "-0x1.096aec61f1420p-2", "0x1.33575b5ecee0fp+0"),
    ("dp", -5, 1.3, "-0x1.e7823aecc065ap+0", "-0x1.ad129140b90e0p-3"),
    ("dp", -4, 0.4, "0x1.1be9bff2e94bfp-1", "0x1.16176322d6d22p+1"),
    ("dp", -4, 1.3, "-0x1.e7823aecc065ap+0", "-0x1.1be9bff2e94d0p-2"),
]


@pytest.mark.parametrize("oracle", ["auto", "dp"])
def test_prepared_product_costs_are_bit_identical(oracle):
    model = _cantor_product()
    windows = {
        -5: ScaleWindow(-5 * math.log(3.0), -2 * math.log(3.0)),
        -4: ScaleWindow(-4 * math.log(4.0), -1.5),
    }
    prepared = {k: prepare(model, w, oracle=oracle) for k, w in windows.items()}
    cases = [c for c in PRODUCT_COSTS if c[0] == oracle]
    for _, k, s, lower, upper in reversed(cases):  # reuse in another s order
        expected = (lower, upper, "product", None)
        assert bits(prepared[k](s)) == expected
        assert bits(cover_cost(model, windows[k], s, oracle=oracle)) == expected


# --- union combination ---------------------------------------------------


def test_union_with_wide_gap_adds_costs_exactly():
    mt = middle_thirds()
    far = translate(mt, 5.0)
    window = ScaleWindow(-9 * math.log(3.0), -5 * math.log(3.0))
    a = cover_cost(mt, window, 0.6)
    b = cover_cost(far, window, 0.6)
    u = cover_cost(UnionModel((mt, far)), window, 0.6)
    expected_upper = np.logaddexp(a.log_cost_upper, b.log_cost_upper)
    expected_lower = np.logaddexp(a.log_cost_lower, b.log_cost_lower)
    assert u.log_cost_upper == pytest.approx(expected_upper, abs=1e-12)
    assert u.log_cost_lower == pytest.approx(expected_lower, abs=1e-12)


def test_union_with_small_gap_keeps_max_lower_bound():
    mt = middle_thirds()
    near = translate(mt, 1.5)  # gap 0.5 smaller than hi
    window = ScaleWindow.from_linear(0.05, 0.7)
    a = cover_cost(mt, window, 0.6)
    b = cover_cost(near, window, 0.6)
    u = cover_cost(UnionModel((mt, near)), window, 0.6)
    assert u.log_cost_lower >= max(a.log_cost_lower, b.log_cost_lower) - 1e-12
    assert u.log_cost_upper <= np.logaddexp(a.log_cost_upper, b.log_cost_upper) + 1e-12


def test_combine_union_rejects_empty():
    with pytest.raises(InputError):
        combine_union([], None, ScaleWindow.from_linear(0.1, 0.2))


# --- invariance and monotonicity properties ------------------------------


def test_translation_invariance_drifts_below_1e12():
    rng = np.random.default_rng(11)
    mt = middle_thirds()
    window = ScaleWindow.from_linear(2.0**-9, 2.0**-4)
    base = cover_cost(mt, window, 0.6, oracle="dp")
    for _ in range(10):
        dx = float(rng.uniform(-3.0, 3.0))
        moved = cover_cost(translate(mt, dx), window, 0.6, oracle="dp")
        assert abs(moved.log_cost_upper - base.log_cost_upper) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    s1=st.floats(0.05, 0.85),
    ds=st.floats(0.05, 0.15),
    hi_exp=st.integers(3, 7),
    depth=st.integers(1, 4),
)
def test_cost_monotone_in_s(s1, ds, hi_exp, depth):
    mt = middle_thirds()
    window = ScaleWindow.from_linear(2.0 ** -(hi_exp + depth), 2.0**-hi_exp)
    c1 = cover_cost(mt, window, s1, oracle="dp")
    c2 = cover_cost(mt, window, s1 + ds, oracle="dp")
    assert c2.log_cost_upper <= c1.log_cost_upper + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.05, 0.95),
    hi_exp=st.integers(3, 6),
    d1=st.integers(1, 3),
    d2=st.integers(1, 3),
)
def test_cost_monotone_under_window_widening(s, hi_exp, d1, d2):
    mt = middle_thirds()
    hi = 2.0**-hi_exp
    narrow = ScaleWindow.from_linear(hi * 2.0**-d1, hi)
    wide = ScaleWindow.from_linear(hi * 2.0 ** -(d1 + d2), hi)
    cn = cover_cost(mt, narrow, s, oracle="dp")
    cw = cover_cost(mt, wide, s, oracle="dp")
    assert cw.log_cost_upper <= cn.log_cost_upper + 1e-9


def test_upper_bounds_fall_with_the_bottom_within_their_slack():
    """Seeded Cantor schedules, deep ones and exponents at a block's
    similarity dimension (where every level costs about 1) included: down
    a ladder of bottoms under a fixed top, the upper bound never rises by
    more than ``upper_bound_slack``."""
    rng = np.random.default_rng(20261019)
    checked = 0
    for _ in range(300):
        blocks = tuple(
            (
                int(rng.choice([rng.integers(1, 31), rng.integers(1, 10**6)])),
                float(rng.choice([1.0 / 3.0, 0.25, rng.uniform(0.01, 1.0 / 3.0)])),
            )
            for _ in range(rng.integers(1, 4))
        )
        model = CantorSchedule(blocks, offset=float(rng.uniform(0.0, 1.0)))
        ratio = blocks[rng.integers(len(blocks))][1]
        s = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else math.log(2.0) / -math.log(ratio)
        slack = covers.upper_bound_slack(model, s)
        bottom = model.log_length(model.depth)
        log_hi = float(rng.uniform(bottom, 0.0))
        step = max(1, model.depth // 9)
        los = {log_hi - float(rng.exponential(5.0)) for _ in range(12)}
        los |= {log_hi * 2.0**e for e in (1, 5, 20, 40)}
        los |= {model.log_length(j) for j in range(0, model.depth + 1, step)}
        los |= {math.nextafter(lo, -math.inf) for lo in list(los)}
        lowest = math.inf
        for lo in sorted((lo for lo in los if lo <= log_hi), reverse=True):
            upper = prepare(model, ScaleWindow(lo, log_hi))(s).log_cost_upper
            assert upper <= lowest + slack
            lowest = min(lowest, upper)
            checked += 1
    assert checked > 5000


def test_upper_bound_slack_is_known_only_for_nested_routes():
    mt = middle_thirds(8)
    assert covers.upper_bound_slack(PointSet(0.5), 0.7) == 0.0
    assert 0.0 < covers.upper_bound_slack(mt, 0.7) < 1e-12
    assert covers.upper_bound_slack(mt, 0.7, oracle="analytic") > 0.0
    for model, oracle in [
        (mt, "dp"),
        (UniformGrid(1.0 / 64.0), "auto"),
        (SequenceSet(1.0), "auto"),
        (ProductModel(mt, mt), "auto"),
        (UnionModel((mt, PointSet(3.0))), "auto"),
        (HolderImage(SequenceSet(1.0), 0.5), "auto"),
    ]:
        assert covers.upper_bound_slack(model, 0.5, oracle=oracle) is None


def test_bracket_never_inverted():
    with pytest.raises(DomainError):
        CoverCost(log_cost_lower=1.0, log_cost_upper=0.0, method="x")


# --- natural-measure constant --------------------------------------------


def test_schedule_mass_constant_middle_thirds_is_two():
    mt = middle_thirds()
    log_len = mt.log_length(9)
    window = ScaleWindow(log_len, mt.log_length(5))
    log_c = schedule_mass_constant(mt, window, LOG23)
    assert math.exp(log_c) == pytest.approx(2.0, abs=1e-9)


# --- prepared Cantor lines -----------------------------------------------
#
# The single-level Cantor route written as plain per-call expressions, the
# oracle of the differential test below: the prepared lines must give the
# same floats, the same error types and the same messages.


def _reference_mass_constant(schedule, window, s):
    if s < 0.0 or math.isnan(s):
        raise DomainError(f"exponent must be nonnegative, got {s}")
    depth = schedule.depth
    log_lo, log_hi = window.log_lo, window.log_hi
    terms = []
    if log_hi >= 0.0:
        terms.append(-s * max(0.0, log_lo))
    if log_lo < schedule.log_length(depth):
        terms.append(-depth * covers.LOG2 - s * log_lo)
    if depth >= 1:
        cand = {1, depth}
        for lv, _ in schedule.level_boundaries():
            for shift in (0, 1):
                if 1 <= lv + shift <= depth:
                    cand.add(lv + shift)
        for target in (log_lo, log_hi):
            for fn in (
                schedule.coarsest_level_not_above,
                schedule.finest_level_not_below,
            ):
                lv = fn(target)
                if lv is not None:
                    for shift in (-1, 0, 1):
                        if 1 <= lv + shift <= depth:
                            cand.add(lv + shift)
        for level in sorted(cand):
            log_len = schedule.log_length(level)
            log_len_up = schedule.log_length(level - 1)
            ratio = schedule.ratio_at(level)
            factor = (1.0 - 2.0 * ratio) / ratio
            log_gap = log_len if abs(factor - 1.0) < 1e-9 else math.log(factor) + log_len
            left1 = max(log_len, log_lo)
            right1 = min(log_gap, log_hi)
            if left1 <= right1 + covers._TOL:
                terms.append(-level * covers.LOG2 - s * left1)
            if log_gap < log_hi and log_lo < log_len_up:
                left2 = max(log_gap, log_lo)
                terms.append(-(level - 1) * covers.LOG2 - s * left2)
    if not terms:
        raise DomainError("window does not intersect any diameter band")
    return max(terms)


def _reference_cantor(schedule, window, s):
    covers._validate_exponent(s)
    depth = schedule.depth
    log_bottom = schedule.log_length(depth)
    if window.log_hi < log_bottom - covers._TOL:
        raise ResolutionError(
            f"window top {window.log_hi:.6g} is below the schedule's deepest "
            f"level length {log_bottom:.6g}; the structure there is undefined"
        )
    log_lo, log_hi = window.log_lo, window.log_hi
    candidates = []
    j_min = schedule.coarsest_level_not_above(log_hi)
    j_max = schedule.finest_level_not_below(log_lo)
    if j_min is not None and j_max is not None and j_min <= j_max:
        levels = {j_min, j_max}
        for lv, _ in schedule.level_boundaries():
            if j_min <= lv <= j_max:
                levels.add(lv)
        for j in levels:
            candidates.append(j * covers.LOG2 + s * schedule.log_length(j))
    if j_min is not None and j_min >= 1:
        j = j_min - 1
        log_len = schedule.log_length(j)
        count_per = covers.log_add(log_len - log_hi, 0.0)
        candidates.append(j * covers.LOG2 + count_per + s * log_hi)
    j_below = 0 if j_max is None else j_max + 1
    if j_below <= depth and schedule.log_length(j_below) < log_lo:
        candidates.append(j_below * covers.LOG2 + s * log_lo)
    if not candidates:
        raise ResolutionError(
            f"window top {log_hi:.6g} is below the schedule's deepest level "
            f"length {log_bottom:.6g}; no single-level cover fits"
        )
    log_upper = min(candidates)
    log_c = _reference_mass_constant(schedule, window, s)
    log_lower = max(-log_c, s * log_lo)
    log_lower = min(log_lower, log_upper)
    return CoverCost(log_lower, log_upper, "single-level")


def _outcome(fn, *args, **kwargs):
    """What a call gives: hex floats and method, or error type and message."""
    try:
        got = fn(*args, **kwargs)
    except Exception as exc:  # the error itself is the compared outcome
        return ("error", type(exc).__name__, str(exc))
    if isinstance(got, CoverCost):
        return (got.log_cost_lower.hex(), got.log_cost_upper.hex(), got.method)
    return got.hex()


def _random_cantor_cases(rng, count):
    """Seeded (schedule, window, exponents) cases: multi-block schedules up
    to depth 10**6, windows reaching above the seed length, degenerate and
    level-exact windows, and tops just and well below the deepest level."""
    ratios = (1.0 / 3.0, 0.3, 0.25, 0.2, 0.1)
    schedules = [
        middle_thirds(40),
        CantorSchedule(((500_000, 1.0 / 3.0), (500_000, 0.2))),
        CantorSchedule(((3, 0.25), (1, 1.0 / 3.0), (2, 0.1)), offset=2.0),
    ]
    for _ in range(5):
        blocks = tuple(
            (int(rng.integers(1, 8)), float(rng.choice(ratios)))
            for _ in range(int(rng.integers(1, 6)))
        )
        schedules.append(CantorSchedule(blocks))
    for _ in range(count):
        sched = schedules[int(rng.integers(len(schedules)))]
        depth = sched.depth
        bottom = sched.log_length(depth)
        kind = int(rng.integers(6))
        if kind == 0:  # window edges at level lengths
            i, j = sorted(int(v) for v in rng.integers(0, depth + 1, 2))
            log_lo, log_hi = sched.log_length(j), sched.log_length(i)
        elif kind == 1:  # a top up to 2e-12 below the deepest level (_TOL 1e-12)
            log_hi = bottom - float(rng.uniform(0.0, 2e-12))
            log_lo = log_hi - float(rng.uniform(0.0, 2.0))
        elif kind == 2:  # a top well below the deepest level
            log_hi = bottom - float(rng.uniform(0.1, 3.0))
            log_lo = log_hi - 1.0
        else:  # anywhere from the bottom to above the seed, maybe degenerate
            log_hi = float(rng.uniform(bottom, 1.5))
            width = 0.0 if kind == 3 else float(rng.uniform(0.0, log_hi - bottom + 2.0))
            log_lo = log_hi - width
        # two draws that once picked a mass truncation level, kept so that
        # the seeded stream, and with it every case, stays the same
        rng.integers(0, depth + 1)
        rng.integers(5)
        exponents = [0.0, 1.0] + [float(v) for v in rng.uniform(0.0, 1.0, 3)]
        exponents += [float(rng.choice([-0.25, 1.5, math.nan]))]
        yield sched, ScaleWindow(log_lo, log_hi), exponents


def test_cantor_top_just_below_the_deepest_level_is_a_resolution_error():
    # within _TOL of the deepest level the top passes the depth check, yet
    # no single-level cover fits
    sched = middle_thirds(12)
    bottom = sched.log_length(sched.depth)
    window = ScaleWindow(bottom - 1.0, bottom - 0.5 * covers._TOL)
    for call in (
        lambda: prepare(sched, window)(0.5),
        lambda: cover_cost_cantor(sched, window, 0.5),
        lambda: cover_cost(sched, window, 0.5),
    ):
        with pytest.raises(ResolutionError, match="no single-level cover fits"):
            call()


def test_prepared_cantor_matches_the_reference_route():
    rng = np.random.default_rng(20260816)
    compared = 0
    for sched, window, exponents in _random_cantor_cases(rng, 600):
        cost = prepare(sched, window)
        for s in rng.permutation(exponents):  # reuse in a shuffled s order
            s = float(s)
            expected = _outcome(_reference_cantor, sched, window, s)
            assert _outcome(cost, s) == expected
            assert _outcome(cover_cost_cantor, sched, window, s) == expected
            assert _outcome(
                schedule_mass_constant, sched, window, 2.0 * s
            ) == _outcome(_reference_mass_constant, sched, window, 2.0 * s)
            compared += 1
    assert compared == 600 * 6

