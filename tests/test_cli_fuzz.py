"""CLI fuzz: arbitrary specs and config values exit 0, 2 or 3, never crash.

Covers the cheap commands (``phi``, ``bounds``, ``carpet``), ``frostman``
over line models placed anywhere, and every config-file key but ``out``.
A traceback escaping ``main`` fails the test, as does any exit code other
than 0 (success), 2 (invalid input) or 3 (a well-formed computation that
failed), and so does a ``bounds`` result holding a NaN.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scaledim.cli import CONFIG_KEYS, main

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**20), 10**20),
    st.sampled_from([0, 1, 2, -1, 0.5, 1e-300, 1e300]),
)
scalars = st.one_of(numbers, st.text(max_size=6), st.none(), st.booleans())
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=8,
)


def mostly(valid, junk):
    """``valid`` for most draws, so that most runs reach the computation."""
    return st.integers(0, 4).flatmap(lambda k: junk if k == 4 else valid)


def _dumps(value) -> str:
    return json.dumps(value, allow_nan=True)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exits_cleanly(out_dir, args) -> int:
    code = main(args + ["--out", str(out_dir / "artifact")])
    assert code in (0, 2, 3), args
    return code


# --- phi ---------------------------------------------------------------------

grids = mostly(
    st.builds(lambda a, b, n: f"{a!r}:{b!r}:{n}", st.floats(-500.0, -20.0),
              st.floats(-20.0, -0.5), st.integers(2, 24)),
    st.one_of(
        st.builds(lambda a, b, n: f"{a!r}:{b!r}:{n}", numbers, numbers,
                  st.integers(-3, 24)),
        st.text(max_size=10),
    ),
)
phi_params = st.dictionaries(
    st.sampled_from(["theta", "c", "s", "model_id", "log_breakpoints", "breakpoints",
                     "members", "active_below"]),
    json_values,
    max_size=4,
)
phi_json = st.builds(
    lambda variant, params, domain: _dumps(
        {"variant": variant, "params": params}
        | ({} if domain is None else {"domain_upper": domain})
    ),
    st.sampled_from(["power_law", "log_corrected", "stretched_exp", "tabulated",
                     "min_family", "interpolated", "mystery"]),
    phi_params,
    st.one_of(st.none(), numbers),
)
tabulated = st.lists(
    st.tuples(st.floats(-600.0, 0.0), st.floats(-1500.0, 0.0)), min_size=1, max_size=4
).map(lambda pts: _dumps({"variant": "tabulated", "params": {"log_breakpoints": pts}}))
phi_specs = mostly(
    st.one_of(
        st.builds(lambda t: f"power_law:{t!r}", st.floats(0.01, 1.0)),
        st.builds(lambda c: f"stretched_exp:{c!r}", st.floats(0.01, 4.0)),
        st.just("log_corrected"),
        tabulated,
    ),
    st.one_of(
        st.builds(
            lambda name, arg: f"{name}:{arg}",
            st.sampled_from(["power_law", "log_corrected", "stretched_exp", "other"]),
            st.one_of(numbers.map(repr), st.text(max_size=5)),
        ),
        phi_json,
        st.text(max_size=12),
    ),
)
alphas = mostly(
    st.lists(st.floats(1.01, 5.0), min_size=1, max_size=3),
    st.lists(numbers, max_size=3),
).map(lambda vals: ",".join(map(repr, vals)))


@FUZZ
@given(
    phi=phi_specs,
    grid=grids,
    phi2=st.one_of(st.none(), phi_specs),
    alphas=st.one_of(st.none(), alphas, st.text(max_size=10)),
)
def test_phi_exits_cleanly(out_dir, phi, grid, phi2, alphas):
    args = ["phi", "--phi", phi, f"--grid={grid}", "--format", "json"]
    if phi2 is not None:
        args += ["--phi2", phi2]
    if alphas is not None:
        args += [f"--alphas={alphas}"]
    _exits_cleanly(out_dir, args)


# --- bounds -------------------------------------------------------------------

INPUT_KEYS = [
    "box_lower", "box_upper", "assouad", "theta", "hausdorff", "use_upper_box",
    "dim_theta", "phi_target", "dim_phi_F", "eta", "alpha", "gamma",
    "assouad_image", "e_dims", "f_dims", "self_product",
]
unit = st.floats(0.0, 1.0)
positive_unit = st.floats(1e-6, 1.0)


@st.composite
def bound_inputs(draw) -> dict:
    """Inputs that satisfy every formula's ordering constraints."""
    chain = draw(st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4))
    haus, low, up, assouad = sorted(chain)
    alpha = draw(positive_unit)
    return {
        "hausdorff": haus,
        "box_lower": low,
        "box_upper": up,
        "assouad": max(assouad, 1e-6),
        "theta": draw(positive_unit),
        "use_upper_box": draw(st.booleans()),
        "dim_theta": draw(st.floats(0.0, 1.0)) * assouad,
        "phi_target": draw(positive_unit),
        "dim_phi_F": draw(st.floats(0.0, 2.0)),
        "eta": draw(unit),
        "alpha": alpha,
        "gamma": 1.0 + draw(unit) * (1.0 / alpha - 1.0),
        "assouad_image": draw(st.floats(0.0, 2.0)),
        "e_dims": sorted(draw(st.lists(unit, min_size=3, max_size=3))),
        "f_dims": sorted(draw(st.lists(unit, min_size=3, max_size=3))),
        "self_product": draw(st.booleans()),
    }


@FUZZ
@given(
    formula=st.sampled_from([
        "general_lower", "general_lower_derivatives", "continuity_upper",
        "continuity_lower", "maincty", "holder", "product", "mystery",
    ]),
    inputs=bound_inputs(),
    junk=mostly(
        st.just({}),
        st.dictionaries(
            st.sampled_from(INPUT_KEYS),
            st.one_of(numbers, st.lists(numbers, max_size=4), json_values),
            max_size=3,
        ),
    ),
)
def test_bounds_exits_cleanly(out_dir, formula, inputs, junk):
    args = ["bounds", "--formula", formula, "--inputs", _dumps(inputs | junk)]
    if _exits_cleanly(out_dir, args) == 0:
        # the inputs are echoed as given, so only the result is checked
        result = json.loads((out_dir / "artifact").read_text())["result"]
        assert not any(isinstance(v, float) and math.isnan(v) for v in result.values()), args


# --- carpet -------------------------------------------------------------------


@st.composite
def carpets(draw) -> dict:
    m = draw(st.integers(2, 12))
    n = draw(st.integers(m, 40))
    counts = draw(st.lists(st.integers(1, n), min_size=1, max_size=m))
    return {"m": m, "n": n, "column_counts": counts}


@FUZZ
@given(
    carpet=carpets(),
    junk=mostly(
        st.just({}),
        st.dictionaries(
            st.sampled_from(["m", "n", "column_counts"]),
            st.one_of(st.integers(-3, 50), numbers, json_values),
            max_size=2,
        ),
    ),
)
def test_carpet_exits_cleanly(out_dir, carpet, junk):
    spec = {"kind": "carpet"} | carpet | junk
    _exits_cleanly(out_dir, ["carpet", "--model", _dumps(spec)])


# --- frostman -----------------------------------------------------------------

# every field valid but the position, which may be anything numeric
frostman_models = st.one_of(
    st.builds(lambda x: {"kind": "point", "location": x}, numbers),
    st.builds(
        lambda p, x: {"kind": "sequence", "p": p, "offset": x},
        st.floats(1.0, 4.0),
        numbers,
    ),
    # 1 / 5e-324 is past the float range, and 1e-308 needs 1e308 points
    st.builds(
        lambda r, x: {"kind": "grid", "spacing": r, "offset": x},
        st.sampled_from([None, 0.1, 2.0**-6, 5e-324, 1e-308]),
        numbers,
    ),
    # counts whose log length leaves the float range, one block or two
    st.builds(
        lambda blocks, x: {"kind": "cantor", "blocks": blocks, "offset": x},
        st.lists(
            st.tuples(
                st.one_of(st.integers(1, 20), st.sampled_from([1e308, 10**400])),
                st.floats(0.05, 1.0 / 3.0),
            ),
            min_size=1,
            max_size=3,
        ),
        numbers,
    ),
)


@settings(FUZZ, max_examples=60)
@given(model=frostman_models)
def test_frostman_exits_cleanly(out_dir, model):
    _exits_cleanly(out_dir, ["frostman", "--model", _dumps(model)])


# --- config-file values ---------------------------------------------------------

# every key but the output path, which each run gives as a flag
FUZZED_KEYS = sorted(set(CONFIG_KEYS) - {"out"})


@FUZZ
@given(
    command=st.sampled_from(["carpet", "bounds"]),
    config=st.dictionaries(st.sampled_from(FUZZED_KEYS), json_values, max_size=5),
)
def test_config_file_values_exit_cleanly(out_dir, command, config):
    path = out_dir / "config.json"
    path.write_text(_dumps(config))
    _exits_cleanly(out_dir, [command, "--config", str(path)])
