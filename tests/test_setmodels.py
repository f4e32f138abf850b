"""Set models: generators, schedules, carpets, serialization."""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from scaledim import setmodels
from scaledim.covers import ScaleWindow, cover_cost_dp, prepare
from scaledim.errors import (
    DomainError,
    InputError,
    ResolutionError,
    ScaledimError,
    ScheduleOverflowError,
)
from scaledim.scalefun import (
    LogCorrected,
    MinFamily,
    PowerLaw,
    StretchedExponential,
    Tabulated,
)
from scaledim.setmodels import (
    CantorSchedule,
    CarpetParams,
    HolderImage,
    PointSet,
    ProductModel,
    SequenceSet,
    Skeleton,
    UniformGrid,
    UnionModel,
    ambient_dimension,
    build_stability_pair,
    carpet_dimensions,
    model_from_dict,
    model_id,
    model_to_dict,
    skeleton,
    translate,
)

LOG2 = math.log(2.0)


# --- positions ------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_positions_must_be_finite(bad):
    for make in (
        lambda: PointSet(bad),
        lambda: SequenceSet(1.0, offset=bad),
        lambda: UniformGrid(0.1, offset=bad),
        lambda: CantorSchedule(((3, 0.25),), offset=bad),
        lambda: translate(PointSet(0.5), bad),
        lambda: model_from_dict({"kind": "cantor", "blocks": [[2, 0.3]], "offset": bad}),
    ):
        with pytest.raises(DomainError, match="must be finite"):
            make()


# --- sequence sets --------------------------------------------------------


def test_sequence_split_index_follows_gap_rule():
    # p=1, resolution 0.3: gap 1 - 1/2 = 0.5 >= 0.3 keeps n=1 isolated,
    # gap 1/2 - 1/3 < 0.3 clusters everything from n=2 on
    items = SequenceSet(1.0).skeleton(0.3)
    assert list(items) == [(0.0, 0.5), (1.0, 1.0)]


def test_sequence_skeleton_has_cluster_plus_points():
    n_split = setmodels._split_index(1.0, 0.01)
    items = SequenceSet(1.0).skeleton(0.01)
    cluster = (items.starts[0], items.ends[0])
    assert cluster[0] == 0.0 and cluster[1] == pytest.approx(1.0 / n_split)
    assert len(items) == n_split  # cluster + points 1..n_split-1
    assert (items.starts[-1], items.ends[-1]) == (1.0, 1.0)


def test_sequence_split_grows_with_resolution():
    assert len(SequenceSet(1.0).skeleton(0.001)) > len(SequenceSet(1.0).skeleton(0.1))


def test_sequence_rejects_bad_parameters():
    with pytest.raises(DomainError):
        SequenceSet(0.0)
    with pytest.raises(ResolutionError):
        SequenceSet(1.0).skeleton(0.0)


# --- Cantor schedules ------------------------------------------------------


def test_middle_thirds_materializes_binary_counts():
    mt = CantorSchedule.from_ratios([1.0 / 3.0] * 6)
    starts, length = mt.materialize(4)
    assert len(starts) == 16
    assert length == pytest.approx(3.0**-4, rel=1e-15)
    np.testing.assert_allclose(
        starts[:4], [0.0, 2.0 / 81.0, 6.0 / 81.0, 8.0 / 81.0], atol=1e-15
    )


def test_schedule_log_length_accumulates_ratios():
    mt = CantorSchedule.from_ratios([1.0 / 3.0] * 6)
    assert mt.log_length(4) == pytest.approx(-4.394449154672439, abs=1e-12)
    sched = CantorSchedule(((2, 0.2), (3, 0.25)))
    assert sched.log_length(4) == pytest.approx(
        2 * math.log(0.2) + 2 * math.log(0.25), abs=1e-12
    )


def _level_query_lines(sched: CantorSchedule) -> list[str]:
    """Every level query's answer in hex: levels up to 2000 and each block
    edge +-2, with the edge log lengths and their neighbouring floats as
    targets of the two inversions."""
    edges = [0]
    for count, _ in sched.blocks:
        edges.append(edges[-1] + count)
    depth = edges[-1]
    levels = set(range(min(depth, 2000) + 1))
    levels |= {e + k for e in edges for k in range(-2, 3) if 0 <= e + k <= depth}
    lines = []
    for level in sorted(levels):
        lines.append(f"L {level} {sched.log_length(level).hex()}")
        if level >= 1:
            lines.append(f"R {level} {sched.ratio_at(level).hex()}")
    for e in edges:
        log_len = sched.log_length(e)
        for target in (math.nextafter(log_len, -math.inf), log_len,
                       math.nextafter(log_len, math.inf)):
            lines.append(f"C {target.hex()} {sched.coarsest_level_not_above(target)}")
            lines.append(f"F {target.hex()} {sched.finest_level_not_below(target)}")
    return lines


def test_schedule_level_queries_match_the_recorded_digest():
    """Recorded while each query still rebuilt the block edges, before the
    schedule built its level table once."""
    schedules = [
        CantorSchedule.from_ratios([(1 / 3, 1 / 4, 1 / 5, 2 / 7)[i % 4] for i in range(400)]),
        build_stability_pair(PowerLaw(0.5), 3).e_set,
        CantorSchedule(((10**12, 0.3), (5, 0.2))),
    ]
    digests = [
        hashlib.sha256("\n".join(_level_query_lines(s)).encode()).hexdigest()
        for s in schedules
    ]
    assert digests == [
        "755ba03c5d106ebed192010ac7f78ad9a5a3581ab923584945daaa144a73db34",
        "fea5f3dab9047725817af4b6a97e0b68ef6c6849ba7890e055f430aefd32e5f1",
        "14b28e1ecdeae87d0ad915032a05c1f6665e62a265cab71a749a4fcc970192de",
    ]


def _walked_level(sched: CantorSchedule, log_target: float, round_up: bool):
    """The level query as a walk from the float guess, one level a step:
    the reference the bisection must match where the walk ends soon."""
    logs = sched.log_lengths
    if round_up and (logs[-1] > log_target or logs[0] <= log_target):
        return None if logs[-1] > log_target else 0
    if not round_up and (logs[0] < log_target or logs[-1] >= log_target):
        return None if logs[0] < log_target else sched.depth
    i = next(k for k in range(len(logs) - 1) if logs[k] >= log_target >= logs[k + 1])
    lv0, lv1 = sched.levels[i], sched.levels[i + 1]
    guess = lv0 + int((log_target - logs[i]) / math.log(sched.blocks[i][1]))
    guess = max(lv0, min(lv1, guess))
    if round_up:
        while guess > lv0 and sched.log_length(guess - 1) <= log_target:
            guess -= 1
        while sched.log_length(guess) > log_target:
            guess += 1
    else:
        while guess < lv1 and sched.log_length(guess + 1) >= log_target:
            guess += 1
        while sched.log_length(guess) < log_target:
            guess -= 1
    return guess


def test_schedule_level_queries_match_the_level_walk():
    rng = np.random.default_rng(53)
    for _ in range(60):
        blocks = tuple(
            (int(rng.choice([1, 2, 7, 40, 10**6, 10**15])), float(rng.uniform(0.05, 1.0 / 3.0)))
            for _ in range(int(rng.integers(1, 5)))
        )
        sched = CantorSchedule(blocks)
        for _ in range(20):
            level = int(rng.integers(0, sched.depth + 1))
            base = sched.log_length(level)
            target = float(rng.choice([
                base, math.nextafter(base, math.inf), math.nextafter(base, -math.inf),
                base * float(rng.uniform(0.0, 1.1)),
            ]))
            assert sched.coarsest_level_not_above(target) == _walked_level(sched, target, True)
            assert sched.finest_level_not_below(target) == _walked_level(sched, target, False)


def test_level_query_past_the_float_precision_returns():
    # at depth 10**308 the float guess is about 7.4e283 levels off the
    # level the log length crosses -1e300 at, too far to walk
    deepest = CantorSchedule(((10**308, 0.3),))
    start = time.perf_counter()
    up = deepest.coarsest_level_not_above(-1e300)
    down = deepest.finest_level_not_below(-1e300)
    cost = prepare(deepest, ScaleWindow(-1e300, -1e300))(0.5)
    assert time.perf_counter() - start < 1.0
    assert deepest.log_length(up) <= -1e300 < deepest.log_length(up - 1)
    assert deepest.log_length(down) >= -1e300 > deepest.log_length(down + 1)
    assert math.isfinite(cost.log_cost_upper)


def test_schedule_materialize_depth_cap():
    mt = CantorSchedule.from_ratios([0.3] * 40)
    with pytest.raises(ResolutionError):
        mt.materialize(25)


def test_schedule_ratio_validation():
    with pytest.raises(InputError):
        CantorSchedule(((3, 0.6),))  # children would overlap
    with pytest.raises(InputError):
        CantorSchedule(((0, 0.3),))


def test_schedule_depth_must_keep_the_log_length_finite():
    # a count past the float range, and two whose log lengths sum to -inf
    for blocks in (((10**400, 0.3),), ((10**308, 0.3), (10**308, 0.3))):
        with pytest.raises(InputError, match="leaves the float range"):
            CantorSchedule(blocks)
    deepest = CantorSchedule(((10**308, 0.3),))
    assert deepest.depth == 10**308 and math.isfinite(deepest.log_length(10**308))


def test_grid_spacing_below_the_float_range_is_over_the_cap():
    with pytest.raises(ResolutionError, match=r"^grid skeleton would need inf points, above"):
        UniformGrid(5e-324).skeleton(0.1)
    with pytest.raises(ResolutionError, match=r"^grid skeleton would need 10000001 points, above"):
        UniformGrid(1e-7).skeleton(0.1)


# --- holder images -----------------------------------------------------------


def test_holder_image_of_inverse_sequence_is_sqrt_sequence():
    image = HolderImage(SequenceSet(1.0), 0.5)
    direct = SequenceSet(0.5)
    res = 1e-4
    got = image.skeleton(res)
    want = direct.skeleton(res)
    # identical point sets; cluster endpoints may differ by the split rule
    got_pts = [a for a, b in got if a == b]
    want_pts = [a for a, b in want if a == b]
    common = min(len(got_pts), len(want_pts))
    assert common > 10
    np.testing.assert_allclose(
        sorted(got_pts)[-common:], sorted(want_pts)[-common:], atol=1e-12
    )


# --- skeletons -------------------------------------------------------------


def _list_skeleton(model, resolution):
    """Skeletons as lists of (start, end) pairs, built the way the models
    built them before they held arrays: the oracle the array skeletons
    must match bit for bit."""
    if isinstance(model, PointSet):
        return [(model.location, model.location)]
    if isinstance(model, SequenceSet):
        n_split = setmodels._split_index(model.p, resolution)
        cluster_hi = model.offset + float(n_split) ** (-model.p)
        items = [(model.offset, cluster_hi)]
        n = np.arange(n_split - 1, 0, -1, dtype=float)
        items.extend((x, x) for x in model.offset + n ** (-model.p))
        return items
    if isinstance(model, UniformGrid):
        spacing = model.spacing_at(resolution)
        count = int(math.floor(1.0 / spacing)) + 1
        xs = model.offset + spacing * np.arange(count)
        return [(float(x), float(x)) for x in xs]
    if isinstance(model, CantorSchedule):
        level = model.finest_level_not_below(math.log(resolution))
        if level is None:
            return [(model.offset, model.offset + 1.0)]
        starts, length = model.materialize(level)
        return [(float(a), float(a) + length) for a in starts]
    if isinstance(model, UnionModel):
        items = []
        for m in model.members:
            items.extend(_list_skeleton(m, resolution))
        items.sort()
        return items
    if isinstance(model, HolderImage):
        items = _list_skeleton(model.base, resolution ** (1.0 / model.alpha))
        mapped = [
            (max(a, 0.0) ** model.alpha, max(b, 0.0) ** model.alpha) for a, b in items
        ]
        mapped.sort()
        split = None
        for i in range(len(mapped) - 1):
            if mapped[i + 1][0] - mapped[i][1] >= resolution:
                split = i
                break
        if split is None or split == 0:
            return mapped
        return [(mapped[0][0], mapped[split][1])] + mapped[split + 1 :]
    raise TypeError(f"no list skeleton for {model!r}")


def _hex_pairs(pairs):
    return [(float(a).hex(), float(b).hex()) for a, b in pairs]


SKELETON_MODELS = {
    "point": PointSet(0),
    "sequence": SequenceSet(1.5, offset=0.25),
    "fixed grid": UniformGrid(2.0**-9, offset=-0.125),
    "refining grid": UniformGrid(None),
    "cantor": CantorSchedule.middle_thirds(30, offset=1),
    "cantor deep": CantorSchedule(((4, 0.2), (14, 0.3))),
    "union": UnionModel(
        (
            SequenceSet(1.0),
            CantorSchedule.middle_thirds(30, offset=2.0),
            PointSet(3.5),
            UniformGrid(2.0**-7, offset=4.0),
        )
    ),
    "holder point": HolderImage(PointSet(0.3), 0.5),
    "holder sequence": HolderImage(SequenceSet(1.0), 0.5),
    "holder sequence p2": HolderImage(SequenceSet(2.0), 0.7),
    "holder cantor": HolderImage(CantorSchedule.from_ratios([0.25, 1.0 / 3.0] * 10), 0.6),
}


def _skeleton_resolutions(name):
    """Seeded resolutions: coarser than the unit interval down to 2**-13,
    and a deep one for the Cantor schedule with 2**18 intervals."""
    rng = np.random.default_rng(29)
    out = [1.5, 0.5] + [2.0 ** -float(rng.uniform(1.0, 13.0)) for _ in range(8)]
    if name == "cantor deep":
        out.append(0.2**4 * 0.3**14)
    return out


@pytest.mark.parametrize("name", sorted(SKELETON_MODELS))
def test_array_skeletons_match_the_list_skeletons_bit_for_bit(name):
    model = SKELETON_MODELS[name]
    for res in _skeleton_resolutions(name):
        assert _hex_pairs(skeleton(model, res)) == _hex_pairs(_list_skeleton(model, res))


@pytest.mark.parametrize("name", sorted(SKELETON_MODELS))
def test_skeleton_invariants(name):
    for res in _skeleton_resolutions(name):
        items = skeleton(SKELETON_MODELS[name], res)
        starts, ends = items.starts, items.ends
        assert starts.dtype == ends.dtype == np.float64
        assert starts.shape == ends.shape == (len(items),)
        assert len(items) >= 1
        assert np.all(starts <= ends)
        assert np.all(starts[1:] >= ends[:-1])  # sorted and disjoint
        assert not starts.flags.writeable and not ends.flags.writeable
        pairs = list(items)
        assert len(pairs) == len(items)
        assert all(type(a) is float and type(b) is float for a, b in pairs)


def test_holder_skeleton_digest():
    # sha256 over the hex items, recorded from the list-based skeleton
    items = skeleton(HolderImage(SequenceSet(1.0), 0.5), 20.0**-5)
    digest = hashlib.sha256()
    for a, b in items:
        digest.update(f"{a.hex()} {b.hex()}\n".encode())
    assert len(items) == 13_680
    assert digest.hexdigest() == (
        "d690597a572c14d3c9ae79178afe61356d4a67f9f7323fa6735526ed58c5921c"
    )


def test_holder_alpha_validation():
    with pytest.raises(DomainError):
        HolderImage(SequenceSet(1.0), 0.0)
    with pytest.raises(DomainError):
        HolderImage(SequenceSet(1.0), 1.5)


@pytest.mark.parametrize(
    "starts, ends, message",
    [
        ([], [], "skeleton is empty"),
        ([0.0, math.nan], [0.1, 0.5], r"bad skeleton item \(nan, 0.5\)"),
        ([0.0, 0.2], [0.1, math.nan], r"bad skeleton item \(0.2, nan\)"),
        ([0.0, 0.3], [0.1, 0.2], r"bad skeleton item \(0.3, 0.2\)"),
        ([0.5, 0.0], [0.6, 0.1], "must be sorted and disjoint"),
        ([0.0, 0.5 - 1e-14], [0.5, 0.6], "must be sorted and disjoint"),
        ([0.0, 0.5 - 1e-16], [0.5, 0.6], "must be sorted and disjoint"),
        # one float of overlap is refused wherever the set lies on the line
        ([9.9, math.nextafter(10.0, -math.inf)], [10.0, 10.05], "must be sorted and disjoint"),
        ([16.9, math.nextafter(17.0, -math.inf)], [17.0, 17.05], "must be sorted and disjoint"),
        (np.array([0.0]), np.array([0.0, 1.0]), "1-D arrays of equal length"),
        (np.zeros((2, 2)), np.ones((2, 2)), "1-D arrays of equal length"),
    ],
    ids=["empty", "nan-start", "nan-end", "start-after-end", "unsorted",
         "overlap", "overlap-1e-16", "ulp-overlap-at-10", "ulp-overlap-at-17",
         "unequal-lengths", "2-d"],
)
def test_skeleton_refuses_what_breaks_its_order(starts, ends, message):
    with pytest.raises(InputError, match=message):
        Skeleton(starts, ends)


def test_skeleton_takes_any_array_like_as_read_only_float64():
    items = Skeleton([0, 2], (1, 3))
    assert list(items) == [(0.0, 1.0), (2.0, 3.0)]
    for arr in (items.starts, items.ends):
        assert arr.dtype == np.float64 and not arr.flags.writeable


def test_cover_cost_dp_refuses_pairs_out_of_order():
    window = ScaleWindow.from_linear(0.01, 0.1)
    with pytest.raises(InputError, match="skeleton items must be sorted and disjoint"):
        cover_cost_dp([(0.5, 0.6), (0.0, 0.1)], window, 0.5)
    with pytest.raises(InputError, match=r"bad skeleton item \(0.3, 0.2\)"):
        cover_cost_dp([(0.3, 0.2)], window, 0.5)
    with pytest.raises(InputError, match="skeleton is empty"):
        cover_cost_dp([], window, 0.5)
    assert cover_cost_dp([(0.0, 0.1), (0.5, 0.6)], window, 0.5).method == "exact-dp"


def _random_line_model(rng, slot, kinds):
    """A random member model of the kind drawn from ``kinds``, with its
    extent inside [2 * slot, 2 * slot + 1]."""
    kind = kinds[int(rng.integers(len(kinds)))]
    offset = 2.0 * slot
    if kind == "point":
        return PointSet(offset + float(rng.uniform(0.0, 1.0)))
    if kind == "sequence":
        return SequenceSet(float(rng.uniform(0.5, 3.0)), offset=offset)
    if kind == "grid":
        return UniformGrid(2.0 ** -float(rng.integers(1, 11)), offset=offset)
    if kind == "cantor":
        ratios = rng.uniform(0.05, 1.0 / 3.0, size=int(rng.integers(1, 12)))
        return CantorSchedule.from_ratios(ratios.tolist(), offset=offset)
    points = offset + np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(2, 4))))
    return UnionModel(tuple(PointSet(float(x)) for x in rng.permutation(points)))


def _random_produced_models(rng):
    """Holder images of sequence, grid, Cantor and union bases, and unions
    of 2-3 members (a Holder image allowed in the [0, 1] slot), members
    given in shuffled order."""
    for base_kind in ("sequence", "grid", "cantor", "union"):
        base = _random_line_model(rng, 0, [base_kind])
        yield HolderImage(base, float(rng.uniform(0.5, 1.0)))
    size = int(rng.integers(2, 4))
    members = [
        HolderImage(_random_line_model(rng, 0, ["sequence", "cantor"]), 0.7)
        if slot == 0 and rng.uniform() < 0.3
        else _random_line_model(rng, slot, ["point", "sequence", "grid", "cantor"])
        for slot in range(size)
    ]
    yield UnionModel(tuple(members[i] for i in rng.permutation(size)))


def test_produced_skeletons_are_already_in_lexicographic_order():
    """Holder images and unions build their skeletons without sorting:
    sorting the produced items by (start, end) must not move any."""
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(25):
        for model in _random_produced_models(rng):
            for _ in range(2):
                items = skeleton(model, 2.0 ** -float(rng.uniform(1.0, 10.0)))
                order = np.lexsort((items.ends, items.starts))
                np.testing.assert_array_equal(order, np.arange(len(items)))
                checked += len(items) > 1
    assert checked > 150


# --- unions, products, translation -------------------------------------------


def test_union_gap_between_separated_members():
    pair = UnionModel((PointSet(0.0), PointSet(2.0)))
    assert pair.gap == pytest.approx(2.0)


def test_union_takes_its_members_ambient_dimension():
    line = UnionModel((PointSet(0.0), SequenceSet(1.0, offset=2.0)))
    planar = UnionModel(
        (ProductModel(SequenceSet(1.0), PointSet(0.0)), ProductModel(PointSet(3.0), PointSet(0.0)))
    )
    assert (ambient_dimension(line), ambient_dimension(planar)) == (1, 2)
    with pytest.raises(InputError, match="union members must share one ambient dimension"):
        UnionModel((SequenceSet(1.0), ProductModel(PointSet(3.0), PointSet(0.0))))


def test_translate_preserves_kind_and_shifts():
    mt = CantorSchedule.from_ratios([1.0 / 3.0] * 4)
    moved = translate(mt, 1.5)
    assert moved.offset == pytest.approx(1.5)
    assert moved.blocks == mt.blocks
    assert translate(PointSet(1.0), -0.25).location == pytest.approx(0.75)


def test_model_id_is_stable():
    assert model_id(SequenceSet(1.0)) == "sequence(p=1)"
    assert model_id(ProductModel(UniformGrid(None), UniformGrid(None))).startswith(
        "product("
    )
    # a nonzero offset is part of the id
    assert model_id(SequenceSet(1.0, offset=2.0)) == "sequence(p=1)@2"
    assert model_id(SequenceSet(1.0, offset=0.0)) == "sequence(p=1)"
    assert model_id(UniformGrid(0.25)) == "grid(spacing=0.25)"
    assert model_id(UniformGrid(0.25, offset=-0.5)) == "grid(spacing=0.25)@-0.5"


def test_model_id_prints_huge_cantor_counts_in_exponent_form():
    # counts below 10**15 keep every digit, so existing labels do not move
    assert model_id(CantorSchedule(((10**15 - 1, 0.3),))) == "cantor[999999999999999x0.3]@0"
    assert model_id(CantorSchedule(((10**15, 0.3),))) == "cantor[1e+15x0.3]@0"
    assert model_id(CantorSchedule(((10**308, 0.3), (5, 0.25)))) == (
        "cantor[1e+308x0.3,5x0.25]@0"
    )


@pytest.mark.parametrize(
    "model",
    [
        PointSet(0.25),
        SequenceSet(1.5, offset=0.5),
        UniformGrid(2.0**-10),
        CantorSchedule.from_ratios([0.2, 0.3, 0.25]),
        UnionModel((PointSet(0.0), SequenceSet(1.0, offset=2.0))),
        ProductModel(SequenceSet(1.0), UniformGrid(None)),
        HolderImage(SequenceSet(1.0), 0.5),
        CarpetParams(2, 100, (1, 100)),
    ],
)
def test_model_serialization_roundtrip(model):
    back = model_from_dict(model_to_dict(model))
    assert model_id(back) == model_id(model)
    assert model_to_dict(back) == model_to_dict(model)


def test_model_from_dict_rejects_unknown_kind():
    with pytest.raises(InputError):
        model_from_dict({"kind": "mystery"})


def test_serialization_keeps_preferred_log_scales():
    pair = build_stability_pair(PowerLaw(0.5), 3)
    cantor = CantorSchedule(((4, 0.25), (6, 1.0 / 3.0)), preferred_log_scales=(-3.5, -1.25))
    for model in (pair.union, pair.e_set, cantor):
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert back == model
        assert back.preferred_log_scales == model.preferred_log_scales
    assert len(model_from_dict(model_to_dict(pair.union)).preferred_log_scales) == 3
    # the key is written only when there are scales to keep
    assert "preferred_log_scales" not in model_to_dict(CantorSchedule.middle_thirds(5))
    plain = UnionModel((PointSet(0.0), SequenceSet(1.0, offset=2.0)))
    assert "preferred_log_scales" not in model_to_dict(plain)


@pytest.mark.parametrize("scales", ["-1.5", -1.5, ["x"], [None], [float("nan")], {"a": 1}])
def test_malformed_preferred_log_scales_are_input_errors(scales):
    cantor = {"kind": "cantor", "ratios": [0.25, 0.25], "offset": 2.0}
    union = {"kind": "union", "members": [{"kind": "point"}, cantor]}
    for spec in (cantor, union):
        with pytest.raises(InputError):
            model_from_dict(spec | {"preferred_log_scales": scales})


# --- carpets -------------------------------------------------------------------


def test_carpet_closed_forms_at_reference_parameters():
    dims = carpet_dimensions(CarpetParams(2, 100, (1, 100)))
    assert dims.hausdorff == pytest.approx(math.log(3.0) / math.log(2.0), abs=1e-12)
    assert dims.box == pytest.approx(
        1.0 + math.log(50.5) / math.log(100.0), abs=1e-12
    )
    assert dims.assouad == 2.0


def test_carpet_full_grid_gives_ambient_dimensions():
    dims = carpet_dimensions(CarpetParams(3, 3, (3, 3, 3)))
    assert dims.hausdorff == pytest.approx(2.0, abs=1e-12)
    assert dims.box == pytest.approx(2.0, abs=1e-12)
    assert dims.assouad == pytest.approx(2.0, abs=1e-12)


def test_carpet_parameter_validation():
    with pytest.raises(InputError):
        CarpetParams(3, 2, (1,))  # m > n
    with pytest.raises(InputError):
        CarpetParams(2, 3, (4,))  # count above n
    with pytest.raises(InputError):
        CarpetParams(2, 3, (1, 1, 1))  # more columns than m


# --- stability pair -------------------------------------------------------------


@pytest.fixture(scope="module")
def pair():
    return build_stability_pair(PowerLaw(0.5), 3)


def test_stability_switch_exponents(pair):
    assert pair.state.k == (0, 3, 6, 9, 12)


def test_stability_checkpoint_scales(pair):
    np.testing.assert_allclose(
        pair.state.log_r_seq,
        [-113.36004719203677, -114457.56086841623, -114458662.97952321],
        rtol=1e-12,
    )


def test_stability_checkpoint_scale_formula(pair):
    # r_0 = 9 sparse steps + 90 dense steps from the seed
    expected = 9.0 * math.log(0.2) + 90.0 * math.log(1.0 / 3.0)
    assert pair.state.log_r_seq[0] == pytest.approx(expected, rel=1e-12)


def test_stability_sparse_end_scales(pair):
    ends = pair.sparse_end_scales()
    np.testing.assert_allclose(
        [v for _, v in ends],
        [
            -14.484941211906902,
            -15582.454888286344,
            -15583556.999393338,
            -15583558096.907013,
        ],
        rtol=1e-12,
    )
    assert [n for n, _ in ends] == [0, 1, 2, 3]
    # regime-0 end: nine strong contractions from the unit seed
    assert ends[0][1] == pytest.approx(9.0 * math.log(0.2), rel=1e-14)


def test_stability_blocks_alternate_out_of_phase(pair):
    assert pair.e_set.blocks[0] == (9, 0.2)
    assert pair.f_set.blocks[0][1] == pytest.approx(1.0 / 3.0)
    assert pair.e_set.offset == 0.0 and pair.f_set.offset == 2.0
    assert pair.union.gap == pytest.approx(1.0)
    assert pair.e_set.depth == 10**12 - 1


def test_stability_marks_track_block_lengths(pair):
    # F stays dense through regime 0: its mark at level 10**3 is 999 weak steps
    assert pair.state.log_f_marks[1] == pytest.approx(
        999.0 * math.log(1.0 / 3.0), rel=1e-12
    )
    # E does 9 strong + 990 weak steps over the same stretch
    assert pair.state.log_e_marks[1] == pytest.approx(
        9.0 * math.log(0.2) + 990.0 * math.log(1.0 / 3.0), rel=1e-12
    )


def test_stability_needs_at_least_one_level():
    with pytest.raises(InputError):
        build_stability_pair(PowerLaw(0.5), 0)


# a switch exponent past the cap: the table's -1e300 floor puts k_1 at 300
_CAP_PHI = Tabulated(((-1.7e308, -1.7e308), (-200.0, -1e300), (-1.0, -1e300)))

_STABILITY_PHIS = {
    "power 0.5": PowerLaw(0.5),
    "power 0.05": PowerLaw(0.05),
    "power 0.9": PowerLaw(0.9),
    "power 1": PowerLaw(1.0),
    "power 0.001": PowerLaw(0.001),
    "power 1e-10": PowerLaw(1e-10),
    "log corrected": LogCorrected(),
    "stretched 0.1": StretchedExponential(0.1),
    "stretched 0.5": StretchedExponential(0.5),
    "min": MinFamily((PowerLaw(0.5), LogCorrected())),
    "min active": MinFamily((PowerLaw(0.8), PowerLaw(0.2)), active_below=(0.0, -1e4)),
    "table": Tabulated(((-1e9, -4e9), (-50.0, -120.0), (-1.0, -2.0))),
    "table steep": Tabulated(
        ((-1e12, -1e15), (-1e5, -1e9), (-100.0, -5000.0), (-1.0, -2.0))
    ),
    "table cap": _CAP_PHI,
    "table 1e250": Tabulated(((-1.7e308, -1.7e308), (-200.0, -1e250), (-1.0, -1e250))),
}


def test_stability_pairs_match_the_recorded_digest():
    """The repr of every part of the pair, or the error, over a spread of
    scale functions and levels; recorded before the switch search was
    rewritten as a direct scan.  The "table 1e250" rows were re-recorded
    when Tabulated interpolation stopped cancelling to 0 between its
    -1.7e308 and -1e250 breakpoints: they build a pair now instead of
    raising InvalidFunctionError."""
    lines = []
    for name, phi in _STABILITY_PHIS.items():
        for levels in range(1, 7):
            try:
                p = build_stability_pair(phi, levels)
            except ScaledimError as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                outcome = repr((p.e_set, p.f_set, p.union, p.state, p.sparse_end_scales()))
            lines.append(f"{name} {levels}: {outcome}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "02131f9380b78b13ed98b7a4079c62bc134099244ca2c6801499795f0ad41b4e"


# PowerLaw(5e-324) maps the first checkpoint scale to log phi = -inf
@pytest.mark.parametrize("phi", [_CAP_PHI, PowerLaw(5e-324)], ids=["table", "minus-inf"])
def test_stability_switch_past_the_cap_is_a_schedule_overflow(phi):
    with pytest.raises(ScheduleOverflowError, match=r"^regime switch exponent exceeded cap 300$"):
        build_stability_pair(phi, 2)


def test_stability_phi_not_evaluable_is_a_schedule_overflow():
    with pytest.raises(
        ScheduleOverflowError,
        match=r"^scale function not evaluable at checkpoint scale log r = -1\.14e\+27: "
        r"delta \*\* \(-c\) overflows",
    ):
        build_stability_pair(StretchedExponential(0.5), 3)
