"""Set models: generators, schedules, carpets, serialization."""

import json
import math

import numpy as np
import pytest

from scaledim.errors import DomainError, InputError, ResolutionError
from scaledim.scalefun import PowerLaw
from scaledim.setmodels import (
    CantorSchedule,
    CarpetParams,
    HolderImage,
    PointSet,
    ProductModel,
    SequenceSet,
    UniformGrid,
    UnionModel,
    build_sequence_set,
    build_stability_pair,
    carpet_dimensions,
    model_from_dict,
    model_id,
    model_to_dict,
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
    ms = build_sequence_set(1.0, 0.3)
    assert ms.n_split == 2
    assert list(ms.points) == [1.0]


def test_sequence_skeleton_has_cluster_plus_points():
    ms = build_sequence_set(1.0, 0.01)
    items = ms.skeleton()
    cluster = items[0]
    assert cluster[0] == 0.0 and cluster[1] == pytest.approx(1.0 / ms.n_split)
    assert len(items) == ms.n_split  # cluster + points 1..n_split-1
    assert items[-1] == (1.0, 1.0)


def test_sequence_split_grows_with_resolution():
    coarse = build_sequence_set(1.0, 0.1)
    fine = build_sequence_set(1.0, 0.001)
    assert fine.n_split > coarse.n_split


def test_sequence_rejects_bad_parameters():
    with pytest.raises(DomainError):
        build_sequence_set(0.0, 0.1)
    with pytest.raises(ResolutionError):
        build_sequence_set(1.0, 0.0)


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


def test_schedule_materialize_depth_cap():
    mt = CantorSchedule.from_ratios([0.3] * 40)
    with pytest.raises(ResolutionError):
        mt.materialize(25)


def test_schedule_ratio_validation():
    with pytest.raises(InputError):
        CantorSchedule(((3, 0.6),))  # children would overlap
    with pytest.raises(InputError):
        CantorSchedule(((0, 0.3),))


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


def test_holder_alpha_validation():
    with pytest.raises(DomainError):
        HolderImage(SequenceSet(1.0), 0.0)
    with pytest.raises(DomainError):
        HolderImage(SequenceSet(1.0), 1.5)


# --- unions, products, translation -------------------------------------------


def test_union_gap_between_separated_members():
    pair = UnionModel((PointSet(0.0), PointSet(2.0)))
    assert pair.gap == pytest.approx(2.0)


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
