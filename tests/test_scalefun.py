"""Scale functions: evaluation, admissibility, comparison, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaledim import scalefun
from scaledim.errors import (
    ConfigError,
    DomainError,
    InputError,
    InvalidFunctionError,
    PhiUnderflowError,
)
from scaledim.scalefun import (
    InterpolatedScale,
    LogCorrected,
    MinFamily,
    PowerLaw,
    StretchedExponential,
    Tabulated,
    check_admissible,
    equivalent,
    exponent_pair,
    precedes,
    scale_function_from_dict,
    scale_function_to_dict,
)

LOG2 = math.log(2.0)


def log2_grid(a, b, n):
    step = (b - a) / (n - 1)
    return [(a + i * step) * LOG2 for i in range(n)]


# --- power law -----------------------------------------------------------


def test_power_law_is_exact_power():
    phi = PowerLaw(0.5)
    for ld in (-10.0, -100.0, -1e6):
        assert phi.eval_phi_log(ld) == pytest.approx(2.0 * ld, rel=1e-15)


def test_power_law_rejects_bad_theta():
    for theta in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            PowerLaw(theta)


def test_log_phi_below_the_float_range_is_refused():
    # log delta / 5e-324 is -inf: phi(delta) is no positive float, which
    # the phi command wrote into its artifact as -Infinity
    with pytest.raises(PhiUnderflowError, match="invalid log value -inf at -1.0"):
        PowerLaw(5e-324).eval_phi_log(-1.0)
    with pytest.raises(PhiUnderflowError):
        MinFamily((PowerLaw(0.5), PowerLaw(5e-324))).eval_phi_log(-1.0)
    assert issubclass(PhiUnderflowError, InvalidFunctionError)


def test_power_law_theta_one_fails_vanishing_ratio():
    report = check_admissible(PowerLaw(1.0), log2_grid(-8, -64, 8))
    assert report["positive"] and report["below_delta"] and report["monotone"]
    assert not report["ratio_vanishes"]
    assert not report["admissible"]


def test_power_law_admissible_below_one():
    report = check_admissible(PowerLaw(0.5), log2_grid(-8, -64, 8))
    assert report["admissible"]


# --- log-corrected endpoint window ----------------------------------------


def test_log_corrected_formula():
    phi = LogCorrected()
    ld = -20.0 * LOG2
    assert phi.eval_phi_log(ld) == pytest.approx(ld - math.log(-ld), abs=1e-12)
    assert phi.eval_phi_log(ld) == pytest.approx(-16.492162964171232, abs=1e-12)


def test_log_corrected_domain_guard():
    with pytest.raises(DomainError):
        LogCorrected(domain_upper=0.5)  # needs <= 1/e
    with pytest.raises(DomainError):
        LogCorrected().eval_phi_log(-0.5)  # delta above the domain


# --- stretched exponential -------------------------------------------------


def test_stretched_exponential_formula():
    phi = StretchedExponential(0.5)
    ld = -16.0 * LOG2
    # log phi = -delta**-c = -exp(-c * log delta)
    assert phi.eval_phi_log(ld) == pytest.approx(-math.exp(-0.5 * ld), rel=1e-15)


def test_stretched_exponential_rejects_nonpositive_c():
    with pytest.raises(DomainError):
        StretchedExponential(0.0)


def test_stretched_exponential_is_admissible():
    report = check_admissible(StretchedExponential(0.5), log2_grid(-16, -64, 8))
    assert report["admissible"]


# --- tabulated -------------------------------------------------------------


def test_tabulated_interpolates_in_log_log():
    tab = Tabulated(((-20.0, -40.0), (-10.0, -15.0)))
    assert tab.eval_phi_log(-20.0) == -40.0
    assert tab.eval_phi_log(-10.0) == -15.0
    assert tab.eval_phi_log(-15.0) == pytest.approx(-27.5, abs=1e-12)


def test_tabulated_interpolation_stays_between_its_breakpoints():
    # y0 + t * (y1 - y0) cancels to 0 here: t rounds to 1.0 and
    # -1e280 + 1e280 is 0, above log delta
    tab = Tabulated(((-1e200, -1e280), (-1.0, -1e20)))
    assert tab.eval_phi_log(-113.36) == pytest.approx(-112.36e80, rel=1e-12)
    # seeded tables with a deep left and a shallow right breakpoint,
    # queried near the right one, where t rounds to 1.0 or close to it
    rng = np.random.default_rng(13)
    for _ in range(200):
        x0 = -(10.0 ** rng.uniform(0.0, 200.0))
        x1 = -(10.0 ** rng.uniform(0.0, 5.0))
        y0 = x0 * 10.0 ** rng.uniform(0.0, 100.0)
        y1 = x1 * 10.0 ** rng.uniform(0.0, 100.0)
        if not (x0 < x1 and y0 <= y1):
            continue
        tab = Tabulated(((x0, y0), (x1, y1)))
        for x in x1 * 10.0 ** rng.uniform(0.0, 4.0, 5):
            if x >= x0:
                assert y0 <= tab.eval_phi_log(float(x)) <= y1


def test_tabulated_rejects_value_above_delta():
    with pytest.raises(InvalidFunctionError):
        Tabulated(((-10.0, -5.0),))


def test_tabulated_rejects_unsorted_breakpoints():
    with pytest.raises(InvalidFunctionError):
        Tabulated(((-10.0, -15.0), (-20.0, -40.0)))


def test_tabulated_rejects_decreasing_values():
    with pytest.raises(InvalidFunctionError):
        Tabulated(((-20.0, -25.0), (-10.0, -30.0)))


def test_tabulated_endpoints_are_queryable():
    tab = Tabulated(((-20.0, -40.0), (-10.0, -15.0)))
    with pytest.raises(DomainError):
        tab.eval_phi_log(-9.0)
    with pytest.raises(DomainError):
        tab.eval_phi_log(-21.0)


@pytest.mark.parametrize(
    "pair", [(math.nan, -60.0), (math.inf, -60.0), (-math.inf, -60.0), (-30.0, math.nan)]
)
def test_tabulated_rejects_non_finite_breakpoints(pair):
    # an infinite last log delta was taken, with domain_upper exp(0) = 1
    with pytest.raises(InvalidFunctionError, match="non-finite breakpoint"):
        Tabulated(((-40.0, -80.0), pair))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Tabulated(((-30.0, -60.0), (-10.0, -20.0)), domain_upper=5.0),
        lambda: MinFamily((PowerLaw(0.5),), domain_upper=7.0),
        lambda: InterpolatedScale(((-30.0, -60.0), (-10.0, -20.0)), 0.4, "x", domain_upper=1.0),
    ],
    ids=["tabulated", "min-family", "interpolated"],
)
def test_derived_domain_is_not_a_parameter(build):
    # each took domain_upper unchecked: the table above answered -20.0 at
    # log delta -5, above its last breakpoint
    with pytest.raises(TypeError, match="domain_upper"):
        build()


@pytest.mark.parametrize(
    "pairs",
    [
        ((-30.0, -60.0), (-20.0, -35.0), (-10.0, -18.0)),
        ((-2.2e4, -5.0e4), (-2.1e4, -4.6e4), (-2.0e4, -4.1e4)),
    ],
    ids=["shallow", "deep"],
)
def test_interpolated_scale_evaluates_as_its_table(pairs):
    phi = InterpolatedScale(pairs, 0.4, "sequence(p=1)")
    table = Tabulated(pairs)
    assert isinstance(phi, Tabulated)
    # exp(-2e4) underflows to 0.0: the deep table's bound is kept in logs
    assert phi.domain_upper == table.domain_upper == math.exp(pairs[-1][0])
    lds = [ld for ld, _ in pairs]
    for ld in lds + [(a + b) / 2 for a, b in zip(lds, lds[1:])]:
        assert phi.eval_phi_log(ld) == table.eval_phi_log(ld)
    above = lds[-1] + 1e-6
    for f in (phi, table):
        with pytest.raises(DomainError, match="above domain upper bound"):
            f.eval_phi_log(above)


# --- min family --------------------------------------------------------------


def test_min_family_takes_pointwise_min():
    fam = MinFamily((PowerLaw(0.5), PowerLaw(0.8)))
    for ld in (-10.0, -50.0):
        expected = min(ld / 0.5, ld / 0.8)
        assert fam.eval_phi_log(ld) == pytest.approx(expected, rel=1e-15)


def test_min_family_needs_members():
    with pytest.raises(InvalidFunctionError):
        MinFamily(())


def test_min_family_refuses_nan_active_below():
    # log_delta > nan is never true, so a NaN bound left its member active
    # at every scale
    for bounds in ((math.nan, math.nan), (-1.0, math.nan)):
        with pytest.raises(InvalidFunctionError, match="active_below entries must not be NaN"):
            MinFamily((PowerLaw(0.5), PowerLaw(0.25)), active_below=bounds)
    active = MinFamily((PowerLaw(0.5), PowerLaw(0.25)), active_below=(math.inf, -10.0))
    assert active.eval_phi_log(-5.0) == -10.0


# --- empirical exponents and comparisons -------------------------------------


def test_exponent_pair_recovers_power_law():
    th1, th2 = exponent_pair(PowerLaw(0.5), log2_grid(-8, -512, 16))
    assert th1 == pytest.approx(0.5, abs=1e-12)
    assert th2 == pytest.approx(0.5, abs=1e-12)


def test_equivalent_is_reflexive_for_power_law():
    grid = log2_grid(-8, -512, 16)
    report = equivalent(PowerLaw(0.5), PowerLaw(0.5), (1.5, 2.0), grid)
    assert report.satisfied
    assert report.label == "sufficient-condition satisfied"


def test_precedes_orders_deeper_window_below():
    grid = log2_grid(-8, -512, 16)
    # smaller theta = deeper window: the deeper function precedeset the
    # shallower one under the sufficient condition
    assert precedes(PowerLaw(0.25), PowerLaw(0.75), (1.5, 2.0), grid).satisfied
    assert not precedes(PowerLaw(0.75), PowerLaw(0.25), (1.5, 2.0), grid).satisfied


def test_precedes_rejects_alpha_at_most_one():
    with pytest.raises(DomainError):
        precedes(PowerLaw(0.5), PowerLaw(0.5), (1.0,), log2_grid(-8, -64, 8))


def test_log_corrected_equivalent_to_shallow_power_limit():
    # delta/(-log delta) sits below delta but above any delta**(1/theta),
    # theta < 1: it precedes nothing deeper and everything shallower.
    grid = log2_grid(-16, -512, 16)
    assert precedes(PowerLaw(0.5), LogCorrected(), (1.5, 2.0), grid).satisfied


# --- serialization ------------------------------------------------------------


@pytest.mark.parametrize(
    "phi",
    [
        PowerLaw(0.5),
        PowerLaw(0.3, domain_upper=0.5),
        LogCorrected(),
        StretchedExponential(0.5),
        Tabulated(((-30.0, -60.0), (-20.0, -35.0), (-10.0, -14.0))),
        MinFamily((PowerLaw(0.5), PowerLaw(0.8))),
    ],
)
def test_serialization_roundtrip(phi):
    data = scale_function_to_dict(phi)
    back = scale_function_from_dict(data)
    for ld in (-12.0, -25.0):
        assert back.eval_phi_log(ld) == pytest.approx(
            phi.eval_phi_log(ld), rel=1e-14
        )


def test_interpolated_scale_roundtrip():
    phi = InterpolatedScale(
        log_breakpoints=((-30.0, -60.0), (-10.0, -18.0)),
        s=0.4,
        model_id="sequence(p=1)",
    )
    back = scale_function_from_dict(scale_function_to_dict(phi))
    assert isinstance(back, InterpolatedScale)
    assert back.s == 0.4
    assert back.model_id == "sequence(p=1)"
    assert back.eval_phi_log(-20.0) == pytest.approx(
        phi.eval_phi_log(-20.0), rel=1e-14
    )


def test_deep_tabulated_serializes_log_pairs_only():
    tab = Tabulated(((-2.0e4, -5.0e4), (-1.0e4, -2.2e4)))
    data = scale_function_to_dict(tab)
    assert "log_breakpoints" in data["params"]
    assert "breakpoints" not in data["params"]
    back = scale_function_from_dict(data)
    assert back.eval_phi_log(-1.5e4) == pytest.approx(
        tab.eval_phi_log(-1.5e4), rel=1e-14
    )


def test_from_dict_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        scale_function_from_dict({"variant": "mystery"})


# --- admissibility as a property ---------------------------------------------


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(0.05, 0.95))
def test_power_laws_admissible_on_deep_grids(theta):
    report = check_admissible(PowerLaw(theta), log2_grid(-16, -256, 12))
    assert report["admissible"]


# --- a strategy over every variant, for properties elsewhere -------------------


def _tables(draw) -> tuple[tuple[float, float], ...]:
    """Breakpoints (log delta, log delta * k), k >= 1, at -60 and 1-3
    more log deltas up to 0."""
    lds = sorted({-60.0, *draw(st.lists(st.floats(-60.0, 0.0), min_size=1, max_size=3))})
    k = draw(st.floats(1.0, 4.0))
    return tuple((ld, ld * k) for ld in lds)


def _min_family(draw) -> MinFamily:
    choices = [PowerLaw(0.5), LogCorrected(), StretchedExponential(1.0), Tabulated(_tables(draw))]
    members = tuple(draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3)))
    n = len(members)
    active = draw(st.none() | st.lists(st.floats(-60.0, 0.0), min_size=n, max_size=n).map(tuple))
    return MinFamily(members, active)


#: how ``scale_functions`` builds each serializable variant from a draw
_VARIANT_DRAWS = {
    "power_law": lambda draw: PowerLaw(draw(st.floats(0.05, 1.0))),
    "log_corrected": lambda draw: LogCorrected(draw(st.floats(0.01, 0.2))),
    "stretched_exp": lambda draw: StretchedExponential(draw(st.floats(0.05, 3.0))),
    "tabulated": lambda draw: Tabulated(_tables(draw)),
    "min_family": _min_family,
    "interpolated": lambda draw: InterpolatedScale(
        _tables(draw), draw(st.floats(0.0, 1.0)), "sequence(p=1)"
    ),
}
assert _VARIANT_DRAWS.keys() == scalefun._VARIANTS.keys()


@st.composite
def scale_functions(draw):
    """A scale function of any serializable variant, with drawn parameters."""
    return _VARIANT_DRAWS[draw(st.sampled_from(sorted(_VARIANT_DRAWS)))](draw)
