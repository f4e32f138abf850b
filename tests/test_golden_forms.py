"""Golden serialized forms: models, scale functions, translation, comparisons.

``golden_forms.json`` holds the exact output of ``model_to_dict``,
``scale_function_to_dict``, ``translate`` and the comparison reports for a
fixed set of inputs.  Each form is compared through
``json.dumps(..., sort_keys=True)``, so a value that drifts between int and
float, a key that appears or disappears, or a reordered list all fail.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from scaledim.scalefun import (
    InterpolatedScale,
    LogCorrected,
    MinFamily,
    PowerLaw,
    StretchedExponential,
    Tabulated,
    equivalent,
    precedes,
    scale_function_from_dict,
    scale_function_to_dict,
)
from scaledim.setmodels import (
    CantorSchedule,
    CarpetParams,
    HolderImage,
    PointSet,
    ProductModel,
    SequenceSet,
    UniformGrid,
    UnionModel,
    build_stability_pair,
    model_from_dict,
    model_to_dict,
    translate,
)

GOLDEN = Path(__file__).with_name("golden_forms.json")
LOG2 = math.log(2.0)


def _log2_grid(a, b, n):
    return [(a + i * (b - a) / (n - 1)) * LOG2 for i in range(n)]


def _models():
    stability = build_stability_pair(PowerLaw(0.5), 2)
    return {
        "point_default": PointSet(),
        "point": PointSet(0.25),
        "sequence": SequenceSet(1.5, offset=0.5),
        "sequence_int_p": SequenceSet(2),
        "grid_auto": UniformGrid(None),
        "grid": UniformGrid(2.0**-10, offset=-0.5),
        "cantor_ratios": CantorSchedule.from_ratios([0.2, 0.3, 0.3, 0.25]),
        "cantor_preferred": CantorSchedule(
            ((4, 0.25), (6, 1.0 / 3.0)), offset=2.0, preferred_log_scales=(-3.5, -1.25)
        ),
        "middle_thirds": CantorSchedule.middle_thirds(5, offset=2.0),
        "union": UnionModel((PointSet(0.0), SequenceSet(1.0, offset=2.0))),
        "stability_e": stability.e_set,
        "stability_union": stability.union,
        "product": ProductModel(SequenceSet(1.0), UniformGrid(None)),
        "holder": HolderImage(SequenceSet(1.0), 0.5),
        "holder_cantor": HolderImage(CantorSchedule.middle_thirds(3), 0.75),
        "union_of_holder": UnionModel(
            (HolderImage(SequenceSet(2.0), 0.5), CantorSchedule.middle_thirds(2, offset=3.0))
        ),
        "carpet": CarpetParams(2, 100, (1, 100)),
    }


MODEL_SPECS = {
    "point_empty": {"kind": "point"},
    "point_extra_key": {"kind": "point", "location": 1, "extra": 5},
    "sequence_int": {"kind": "sequence", "p": 2, "offset": 1},
    "grid_empty": {"kind": "grid"},
    "grid_null_spacing": {"kind": "grid", "spacing": None, "offset": 0},
    "grid": {"kind": "grid", "spacing": 0.25, "offset": 1},
    "cantor_ratios": {"kind": "cantor", "ratios": [0.25, 0.25, 0.2], "offset": 2},
    "cantor_blocks_preferred": {
        "kind": "cantor",
        "blocks": [[3, 0.2], [2.0, 0.25]],
        "preferred_log_scales": [-1, -2.5],
    },
    "cantor_both_forms": {"kind": "cantor", "blocks": [[2, 0.25]], "ratios": [0.2]},
    "union": {
        "kind": "union",
        "members": [{"kind": "point"}, {"kind": "cantor", "ratios": [0.25], "offset": 2}],
        "preferred_log_scales": [-3],
    },
    "product": {
        "kind": "product", "left": {"kind": "grid"}, "right": {"kind": "sequence", "p": 1}
    },
    "holder": {"kind": "holder", "base": {"kind": "sequence", "p": 1}, "alpha": 1},
    "carpet": {"kind": "carpet", "m": 2.0, "n": 100, "column_counts": [1.0, 100]},
}


def _scale_functions():
    shallow = Tabulated(((-30.0, -60.0), (-10.0, -18.0)))
    deep = Tabulated(((-2.0e4, -5.0e4), (-1.0e4, -2.2e4)))
    return {
        "power_law": PowerLaw(0.5),
        "power_law_domain": PowerLaw(0.25, domain_upper=0.5),
        "power_law_int": PowerLaw(1),
        "log_corrected": LogCorrected(),
        "log_corrected_domain": LogCorrected(0.1),
        "stretched_exp": StretchedExponential(0.5),
        "stretched_exp_small_c": StretchedExponential(0.1),
        "tabulated_linear": Tabulated.from_linear([(0.5, 0.1), (0.25, 0.01), (0.125, 1e-4)]),
        "tabulated_single": Tabulated(((-3.0, -6.0),)),
        "tabulated_deep": deep,
        "min_family": MinFamily((PowerLaw(0.5), LogCorrected()), active_below=(0.0, -10.0)),
        "min_family_plain": MinFamily((PowerLaw(0.5),)),
        "min_family_nested": MinFamily(
            (MinFamily((PowerLaw(0.75), StretchedExponential(1.0))), shallow)
        ),
        "interpolated": InterpolatedScale(shallow.log_breakpoints, 0.4, "sequence(p=1)"),
        "interpolated_deep": InterpolatedScale(deep.log_breakpoints, 0.25, "cantor[3x0.2]@0"),
    }


PHI_SPECS = {
    "power_law_int": {"variant": "power_law", "params": {"theta": 1}},
    "power_law_domain": {"variant": "power_law", "params": {"theta": 0.5}, "domain_upper": 0.5},
    "log_corrected_bare": {"variant": "log_corrected"},
    "log_corrected_domain": {"variant": "log_corrected", "domain_upper": 0.25},
    "stretched_exp": {"variant": "stretched_exp", "params": {"c": 2}},
    "tabulated_linear": {
        "variant": "tabulated", "params": {"breakpoints": [[0.5, 0.1], [0.25, 0.01]]}
    },
    "tabulated_log_ignores_domain": {
        "variant": "tabulated",
        "params": {"log_breakpoints": [[-3, -6], [-1, -2]]},
        "domain_upper": 0.1,
    },
    "min_family_empty_active": {
        "variant": "min_family",
        "params": {
            "members": [{"variant": "power_law", "params": {"theta": 0.5}}],
            "active_below": [],
        },
    },
    "min_family_active": {
        "variant": "min_family",
        "params": {
            "members": [
                {"variant": "power_law", "params": {"theta": 0.5}},
                {"variant": "log_corrected", "params": {}},
            ],
            "active_below": [0, -10],
        },
    },
    "interpolated": {
        "variant": "interpolated",
        "params": {
            "s": 1, "model_id": "point(0)", "log_breakpoints": [[-30, -60], [-10, -18]]
        },
    },
}

COMPARISON_PAIRS = {
    "deep_vs_shallow_power": (PowerLaw(0.25), PowerLaw(0.75)),
    "shallow_vs_deep_power": (PowerLaw(0.75), PowerLaw(0.25)),
    "same_power": (PowerLaw(0.5), PowerLaw(0.5)),
    "power_vs_log_corrected": (PowerLaw(0.5), LogCorrected()),
    "log_corrected_vs_power": (LogCorrected(), PowerLaw(0.5)),
    "stretched_vs_power": (StretchedExponential(0.5), PowerLaw(0.5)),
    "power_vs_stretched": (PowerLaw(0.5), StretchedExponential(0.5)),
    "tabulated_vs_power": (
        Tabulated.from_linear(
            [(2.0**-10, 2.0**-30), (2.0**-80, 2.0**-170), (2.0**-200, 2.0**-380)]
        ),
        PowerLaw(0.5),
    ),
    "min_family_vs_log_corrected": (
        MinFamily((PowerLaw(0.9), PowerLaw(0.3)), active_below=(0.0, -100.0)),
        LogCorrected(),
    ),
}

COMPARISON_GRIDS = {
    "coarse": _log2_grid(-400, -40, 10),
    "fine": _log2_grid(-24, -2, 12),
    "short": _log2_grid(-9, -3, 4),
}


def _form(call, encode):
    """``encode(call())``, or the name of the error the two raise."""
    try:
        return encode(call())
    except Exception as exc:  # the golden form of a refusal is its type
        return type(exc).__name__


def golden_forms() -> dict:
    forms = {}
    for name, model in _models().items():
        forms[f"model/{name}"] = model_to_dict(model)
        for dx in (1.5, -0.25):
            forms[f"translate/{name}/{dx!r}"] = _form(
                lambda: translate(model, dx), model_to_dict
            )
    for name, spec in MODEL_SPECS.items():
        forms[f"model_spec/{name}"] = model_to_dict(model_from_dict(spec))
    for name, phi in _scale_functions().items():
        forms[f"phi/{name}"] = scale_function_to_dict(phi)
        forms[f"phi_roundtrip/{name}"] = scale_function_to_dict(
            scale_function_from_dict(scale_function_to_dict(phi))
        )
    for name, spec in PHI_SPECS.items():
        forms[f"phi_spec/{name}"] = scale_function_to_dict(scale_function_from_dict(spec))
    report = dataclasses.asdict
    for name, (phi1, phi) in COMPARISON_PAIRS.items():
        for grid_name, grid in COMPARISON_GRIDS.items():
            for alphas in ((1.5, 2.0, 3.0), (1.1,), (0.9, 2.0)):
                key = f"{name}/{grid_name}/{','.join(map(repr, alphas))}"
                forms[f"precedes/{key}"] = _form(
                    lambda: precedes(phi1, phi, alphas, grid), report
                )
                forms[f"equivalent/{key}"] = _form(
                    lambda: equivalent(phi1, phi, alphas, grid), report
                )
    forms["model_to_dict/not_a_model"] = _form(object, model_to_dict)
    forms["phi_to_dict/not_a_phi"] = _form(object, scale_function_to_dict)
    return forms


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


_RECORDED = json.loads(GOLDEN.read_text())
_CURRENT = golden_forms()


def test_golden_forms_cover_the_same_cases():
    assert sorted(_CURRENT) == sorted(_RECORDED)


@pytest.mark.parametrize("key", sorted(_RECORDED))
def test_golden_form_is_unchanged(key):
    assert _canonical(_CURRENT.get(key)) == _canonical(_RECORDED[key])


def test_golden_forms_cover_every_kind_and_variant():
    kinds = {form["kind"] for key, form in _RECORDED.items() if key.startswith("model/")}
    assert kinds == {
        "point", "sequence", "grid", "cantor", "union", "product", "holder", "carpet",
    }
    variants = {form["variant"] for key, form in _RECORDED.items() if key.startswith("phi/")}
    assert variants == {
        "power_law", "log_corrected", "stretched_exp", "tabulated", "min_family", "interpolated",
    }
