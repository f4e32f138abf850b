"""Dimension inequalities: lower/upper bounds, products, consistency checks."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaledim.bounds import (
    DimInputs,
    HolderInputs,
    check_mutual_dependency,
    continuity_lower_bound,
    continuity_upper_bound,
    general_lower_bound,
    general_lower_bound_derivatives,
    holder_bound,
    maincty_bound,
    product_bounds,
)
from scaledim.errors import InputError
from scaledim.estimator import (
    CriticalExponent,
    DimensionProfile,
    dimension_profile,
)
from scaledim.scalefun import LogCorrected, PowerLaw
from scaledim.setmodels import SequenceSet

LOG2 = math.log(2.0)


def dims(box: float, assouad: float, theta: float) -> DimInputs:
    return DimInputs(box_lower=box, box_upper=box, assouad=assouad, theta=theta)


# --- general lower bound ------------------------------------------------------


def test_general_lower_bound_reference_value():
    assert general_lower_bound(dims(0.5, 1.0, 0.5)) == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )


def test_general_lower_bound_matches_sequence_formula():
    # with B = 1/(p+1) and A = 1 the bound reproduces theta/(p+theta) exactly
    for p in (0.5, 1.0, 2.0):
        b = 1.0 / (p + 1.0)
        for k in range(1, 100):
            theta = k / 100.0
            got = general_lower_bound(dims(b, 1.0, theta))
            assert got == pytest.approx(theta / (p + theta), abs=1e-12)


def test_general_lower_bound_endpoints():
    assert general_lower_bound(dims(0.7, 1.3, 1.0)) == pytest.approx(0.7, abs=1e-15)
    d = dims(0.7, 1.3, 1e-9)
    assert general_lower_bound(d) == pytest.approx(0.0, abs=1e-8)


def test_general_lower_bound_derivative_at_one():
    grad, second = general_lower_bound_derivatives(
        dims(1.8516456890593307, 2.0, 1.0)
    )
    assert grad == pytest.approx(0.13734981015332892, abs=1e-15)
    assert second < 0.0
    # gradient agrees with a central difference of the bound itself
    b = dims(1.8516456890593307, 2.0, 1.0)
    h = 1e-6
    lo = general_lower_bound(dims(b.box_upper, b.assouad, 1.0 - h))
    num = (b.box_upper - lo) / h
    assert grad == pytest.approx(num, abs=1e-5)


def test_general_lower_bound_validation():
    with pytest.raises(InputError):
        general_lower_bound(dims(1.5, 1.0, 0.5))  # box above assouad
    with pytest.raises(InputError):
        general_lower_bound(dims(0.5, 1.0, 1.5))  # theta above one


@given(
    box=st.floats(0.05, 0.95),
    assouad_gap=st.floats(0.0, 1.0),
    theta=st.floats(0.01, 0.99),
)
@settings(max_examples=60, deadline=None)
def test_general_lower_bound_range_property(box, assouad_gap, theta):
    a = min(box + assouad_gap, 1.0) if box + assouad_gap > box else box
    val = general_lower_bound(dims(box, max(a, box), theta))
    assert 0.0 <= val <= box + 1e-12


# --- continuity bounds ---------------------------------------------------------


def test_continuity_upper_reference_value():
    got = continuity_upper_bound(1.0 / 3.0, dims(0.5, 1.0, 0.5), 0.8)
    assert got == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_continuity_bounds_invert_each_other():
    d_half = dims(0.5, 1.0, 0.5)
    d_four_fifths = dims(0.5, 1.0, 0.8)
    up = continuity_upper_bound(1.0 / 3.0, d_half, 0.8)
    back = continuity_lower_bound(up, d_four_fifths, 0.5)
    assert back == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_continuity_upper_matches_sequence_formula():
    # starting from theta/(p+theta), moving the window exponent to phi
    # reproduces phi/(p+phi) exactly
    for p in (0.5, 1.0, 2.0):
        theta = 0.4
        start = theta / (p + theta)
        for k in range(40, 100):
            phi = k / 100.0
            got = continuity_upper_bound(start, dims(1.0 / (p + 1.0), 1.0, theta), phi)
            assert got == pytest.approx(phi / (p + phi), abs=1e-12)


def test_continuity_target_direction_is_enforced():
    with pytest.raises(InputError):
        continuity_upper_bound(0.3, dims(0.5, 1.0, 0.5), 0.3)  # target below theta
    with pytest.raises(InputError):
        continuity_lower_bound(0.3, dims(0.5, 1.0, 0.5), 0.8)  # target above theta


# --- interior bound and Holder images -------------------------------------------


def test_interior_bound_reference_pair():
    val, exponent_ratio = maincty_bound(1.0 / 3.0, 1.0, 1.0 / 9.0)
    assert val == pytest.approx(1.2, abs=1e-12)
    assert exponent_ratio == pytest.approx(0.75, abs=1e-15)


def test_interior_bound_rejects_dimension_zero():
    with pytest.raises(InputError):
        maincty_bound(0.0, 1.0, 1.0 / 9.0)


def test_holder_bound_reference_values():
    assert holder_bound(
        HolderInputs(alpha=0.5, gamma=2.0, dim_phi_F=0.3, assouad_image=1.0)
    ) == pytest.approx(0.8, abs=1e-15)
    assert holder_bound(
        HolderInputs(alpha=0.5, gamma=1.0, dim_phi_F=0.3, assouad_image=1.0)
    ) == pytest.approx(0.6, abs=1e-15)


def test_holder_bound_validation():
    with pytest.raises(InputError):
        holder_bound(HolderInputs(alpha=1.5, gamma=1.0, dim_phi_F=0.3, assouad_image=1.0))
    with pytest.raises(InputError):
        holder_bound(HolderInputs(alpha=0.5, gamma=0.5, dim_phi_F=0.3, assouad_image=1.0))


@given(
    alpha=st.floats(0.1, 1.0),
    gamma_frac=st.floats(0.0, 1.0),
    dim=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_holder_bound_between_source_and_ambient(alpha, gamma_frac, dim):
    # image dimension never drops below the source value and never exceeds
    # the ambient Assouad dimension of the image space
    gamma = 1.0 + gamma_frac * (1.0 / alpha - 1.0)
    val = holder_bound(
        HolderInputs(alpha=alpha, gamma=gamma, dim_phi_F=dim, assouad_image=1.0)
    )
    assert dim - 1e-12 <= val <= 1.0 + 1e-12


# --- products -----------------------------------------------------------------


def test_product_bounds_self_product_reference():
    triple = (0.4786, 0.5119, 0.5353)
    lo, hi, box_lo, box_hi = product_bounds(triple, triple, self_product=True)
    assert lo == pytest.approx(1.0238, abs=1e-12)
    assert hi == pytest.approx(1.0472000000000001, abs=1e-15)
    assert box_lo == pytest.approx(0.9572, abs=1e-12)
    assert box_hi == pytest.approx(1.0139, abs=1e-12)


def test_product_bounds_are_ordered():
    up_lo, up_hi, low_lo, low_hi = product_bounds((0.3, 0.5, 0.7), (0.2, 0.4, 0.9))
    assert up_lo <= up_hi
    assert low_lo <= low_hi
    # upper-dimension bracket combines the two one-sided sums
    assert up_lo == pytest.approx(max(0.5 + 0.2, 0.3 + 0.4))
    assert up_hi == pytest.approx(min(0.5 + 0.9, 0.7 + 0.4))
    # lower-dimension bracket: plain sum below, mixed box sums above
    assert low_lo == pytest.approx(0.3 + 0.2)
    assert low_hi == pytest.approx(min(0.3 + 0.9, 0.7 + 0.2))


def test_product_bounds_reject_unordered_triples():
    with pytest.raises(InputError):
        product_bounds((0.5, 0.4, 0.7), (0.2, 0.4, 0.9))


# --- non-finite inputs ------------------------------------------------------------

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "fields",
    [
        {"box_lower": NAN},
        {"box_upper": NAN},
        {"hausdorff": NAN},
        {"box_upper": INF, "assouad": INF},
        {"assouad": INF},
    ],
    ids=lambda fields: ",".join(f"{k}={v}" for k, v in fields.items()),
)
def test_dim_inputs_reject_non_finite_fields(fields):
    # box_lower = NaN passed every ordering check and the bound read 0.5
    values = {"box_lower": 0.5, "box_upper": 0.5, "assouad": 1.0, "theta": 0.5} | fields
    with pytest.raises(InputError, match="must be finite"):
        DimInputs(**values)


@pytest.mark.parametrize("field, value", [("dim_phi_F", NAN), ("assouad_image", INF)])
def test_holder_inputs_reject_non_finite_fields(field, value):
    # at assouad_image = inf the bound itself was inf
    values = {"alpha": 0.5, "gamma": 1.5, "dim_phi_F": 0.5, "assouad_image": 1.0}
    with pytest.raises(InputError, match="must be finite"):
        HolderInputs(**(values | {field: value}))


def test_interior_and_product_bounds_reject_infinite_inputs():
    # an infinite Assouad dimension made alpha inf / inf = NaN
    with pytest.raises(InputError, match="must be finite"):
        maincty_bound(0.5, INF, 0.1)
    with pytest.raises(InputError, match="must be finite"):
        product_bounds((0.1, 0.2, INF), (0.1, 0.2, 0.3))


def test_general_lower_bound_stays_finite_where_the_product_overflows():
    # theta*A*B overflowed to inf and the CLI wrote "value": Infinity,
    # although the bound is at most A
    huge = DimInputs(box_lower=0.5, box_upper=1e300, assouad=1e300, theta=0.5)
    assert general_lower_bound(huge) == 1e300
    # at the largest float the rescaled ratio rounds past 1: capped at A
    top = sys.float_info.max
    assert general_lower_bound(dims(top, top, 0.1)) == top
    assert general_lower_bound(dims(1.5e308, 1.5e308, 1e-5)) == 1.5e308


def test_general_lower_bound_derivatives_refuse_overflow():
    # the direct form overflows in a * b * (a - b) or denom**3, but both
    # derivatives are finite: the scaled form matches exact arithmetic on
    # the same float denominator
    for d in (
        DimInputs(box_lower=0.5, box_upper=1e110 * (1 - 1e-10), assouad=1e110, theta=1e-20),
        dims(2e154, 2e154, 1e-10),
    ):
        a, b = Fraction(d.assouad), Fraction(d.box_upper)
        denom = Fraction(d.assouad - (1.0 - d.theta) * d.box_upper)
        first, second = general_lower_bound_derivatives(d)
        assert first == pytest.approx(float(a * b * (a - b) / denom**2), rel=1e-12)
        assert second == pytest.approx(float(-2 * a * b * b * (a - b) / denom**3), rel=1e-12)
    # here f' itself is about 6.7e315, past the float range
    d = DimInputs(box_lower=0.5, box_upper=math.nextafter(1e300, 0), assouad=1e300, theta=1e-300)
    with pytest.raises(InputError, match="overflow the float range"):
        general_lower_bound_derivatives(d)


# --- mutual dependency check -----------------------------------------------------


def fake_profile(phi, upper: float, model=None) -> DimensionProfile:
    pt = CriticalExponent(-40 * LOG2, max(upper - 0.01, 0.0), upper, False, False, 20)
    return DimensionProfile(
        model=model if model is not None else SequenceSet(1.0),
        phi=phi,
        points=(pt,),
        lower_estimate=pt.s_lower,
        upper_estimate=upper,
        tail_size=1,
        method="tail-extrema(third)",
    )


def test_mutual_dependency_consistent_case():
    report = check_mutual_dependency(
        fake_profile(PowerLaw(0.5), 0.3447265625),
        fake_profile(LogCorrected(), 0.4951171875),
    )
    assert not report.violation
    assert report.floor == pytest.approx(0.32900713822193384, abs=1e-15)
    assert report.theta == 0.5


def test_mutual_dependency_flags_violation():
    report = check_mutual_dependency(
        fake_profile(PowerLaw(0.5), 0.05),
        fake_profile(LogCorrected(), 0.5),
    )
    assert report.violation
    assert report.theta_estimate < report.floor - 0.05


def test_mutual_dependency_zero_box_is_vacuous():
    report = check_mutual_dependency(
        fake_profile(PowerLaw(0.5), 0.0),
        fake_profile(LogCorrected(), 0.0),
    )
    assert not report.violation
    assert report.floor == 0.0
    assert "vacuous" in report.note


def test_mutual_dependency_requires_matching_models():
    with pytest.raises(InputError):
        check_mutual_dependency(
            fake_profile(PowerLaw(0.5), 0.3),
            fake_profile(LogCorrected(), 0.5, model=SequenceSet(2.0)),
        )


def test_mutual_dependency_tells_shifted_models_apart():
    scales = [-8 * LOG2]
    theta = dimension_profile(SequenceSet(1.0), PowerLaw(0.5), scales)
    box = dimension_profile(SequenceSet(1.0, offset=2.0), LogCorrected(), scales)
    assert (theta.model, box.model) == ("sequence(p=1)", "sequence(p=1)@2")
    with pytest.raises(InputError, match="different models"):
        check_mutual_dependency(theta, box)
