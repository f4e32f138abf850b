"""Command-line front end: subcommands, config resolution, deterministic output.

Scales cross the CLI boundary in log2 (grids are ``a:b:n`` in log2 delta);
everything internal stays in natural logs.  Output files are written
atomically and deterministically: floats use shortest round-trip decimals,
rows have a fixed order, JSON keys are sorted, and every file embeds the
resolved-config digest plus the grid spec, so identical configs produce
byte-identical artifacts.

Exit codes: 0 success (including verification runs that *find* violations),
2 invalid configuration or inputs, 3 a well-formed computation that failed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .bounds import (
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
from .covers import (
    ScaleWindow,
    cover_cost,
    cover_cost_dp,
    cover_cost_exhaustive,
    prepare,
)
from .errors import (
    ComputationError, ConfigError, InputError, ValidationError, as_integer, as_real
)
from .estimator import critical_exponent, dimension_profile
from .interpolation import phi_s_family
from .logspace import LOG2
from .measures import (
    ball_to_set_constant,
    build_frostman_measure,
    frostman_levels,
    verify_ball_mass,
)
from .scalefun import (
    LogCorrected,
    PowerLaw,
    check_admissible,
    equivalent,
    exponent_pair,
    precedes,
    scale_function_from_dict,
    scale_function_to_dict,
)
from .setmodels import (
    CantorSchedule,
    CarpetParams,
    HolderImage,
    SequenceSet,
    Skeleton,
    carpet_dimensions,
    model_from_dict,
    model_id,
    model_to_dict,
    translate,
)

#: Published alternative bound at the default carpet parameters; display only.
CARPET_COMPARISON_CONSTANT = 0.352

FORMATS = ("csv", "json")


class RunConfig(SimpleNamespace):
    """A resolved run request: ``command`` plus one attribute per :data:`OPTIONS` key."""


# ---------------------------------------------------------------------------
# spec parsing


#: Most points a grid may hold; a larger count is refused before any grid
#: array is allocated.
MAX_GRID_POINTS = 10**6


def parse_grid(spec, name: str = "grid", min_points: int = 2) -> tuple[float, float, int]:
    """``a:b:n`` (or [a, b, n]) with finite a <= b and ``min_points`` <= n
    <= :data:`MAX_GRID_POINTS`.

    The log2-delta grid needs 2 points, the exponent grid (``s-grid``) 1.
    """
    try:
        a, b, n = spec.split(":") if isinstance(spec, str) else spec
        a, b, n = as_real(a), as_real(b), as_integer(n)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a:b:n with numeric entries, got {spec!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"{name} bounds must be finite, got {a}, {b}")
    if not a <= b:
        raise ConfigError(f"{name} bounds must be ordered, got {a} > {b}")
    if n < min_points:
        raise ConfigError(f"{name} needs at least {min_points} points, got {n}")
    if n > MAX_GRID_POINTS:
        raise ConfigError(f"{name} takes at most {MAX_GRID_POINTS} points, got {n}")
    return a, b, n


def _from_spec(build, spec, what: str):
    """``build(spec)`` for a user-given spec; a missing key or a malformed
    value is a configuration error, not a crash."""
    try:
        return build(spec)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed {what} {spec!r}: {exc!r}") from exc


def _load_json(text: str, what: str):
    """``json.loads`` that refuses NaN, Infinity and numbers that round to
    them (1e999): JSON has none, and artifacts copy their inputs."""

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(f"{what} numbers must be finite, got {literal}")
        return value

    try:
        return json.loads(text, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}")


def parse_model_spec(spec) -> dict:
    """Inline JSON (leading '{') or a path to a JSON file."""
    if isinstance(spec, dict):
        return spec
    text = str(spec).strip()
    if not text.startswith("{"):
        try:
            with open(text) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
            raise ConfigError(f"cannot read model file {spec!r}: {exc}")
    data = _load_json(text, "model spec")
    if not isinstance(data, dict):
        raise ConfigError(f"model spec must be a JSON object, got {type(data).__name__}")
    return data


def parse_phi_spec(spec) -> dict:
    """Inline JSON or shorthand power_law:THETA | log_corrected | stretched_exp:C."""
    if isinstance(spec, dict):
        return spec
    text = str(spec).strip()
    if text.startswith("{"):
        return _load_json(text, "phi spec")
    name, _, arg = text.partition(":")
    if name == "power_law":
        if not arg:
            raise ConfigError("power_law needs a theta, e.g. power_law:0.5")
        return {"variant": "power_law", "params": {"theta": float(arg)}}
    if name == "log_corrected":
        return {"variant": "log_corrected", "params": {}}
    if name == "stretched_exp":
        if not arg:
            raise ConfigError("stretched_exp needs a constant, e.g. stretched_exp:0.5")
        return {"variant": "stretched_exp", "params": {"c": float(arg)}}
    raise ConfigError(f"unknown phi spec {spec!r}")


def parse_alphas(spec) -> tuple[float, ...]:
    if isinstance(spec, (list, tuple)):
        vals = [as_real(v) for v in spec]
    else:
        vals = [float(v) for v in str(spec).split(",") if v.strip()]
    if not vals:
        raise ConfigError(f"alphas list is empty: {spec!r}")
    return tuple(vals)


def _tolerance(value) -> float:
    tol = as_real(value)
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    return tol


def _seed(value) -> int:
    seed = as_integer(value)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return seed


def _format(value) -> str:
    fmt = str(value)
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    return fmt


def _json_object(value) -> dict:
    if isinstance(value, dict):
        return value
    data = _load_json(str(value), "--inputs")
    if not isinstance(data, dict):
        raise ConfigError("--inputs must be a JSON object")
    return data


def _path(value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"out must be a path string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# bounds formulas: each maps the --inputs object to its result


def _dim_inputs(inputs: dict) -> DimInputs:
    missing = [k for k in ("box_lower", "box_upper", "assouad") if k not in inputs]
    if missing:
        raise ConfigError(f"inputs missing keys: {', '.join(missing)}")
    return DimInputs(
        box_lower=as_real(inputs["box_lower"]),
        box_upper=as_real(inputs["box_upper"]),
        assouad=as_real(inputs["assouad"]),
        theta=as_real(inputs.get("theta", 1.0)),
        hausdorff=None if inputs.get("hausdorff") is None else as_real(inputs["hausdorff"]),
    )


def _continuity(bound: Callable) -> Callable[[dict], dict]:
    return lambda x: {"value": bound(
        as_real(x["dim_theta"]), _dim_inputs(x), as_real(x["phi_target"]))}


def _maincty(inputs: dict) -> dict:
    dim = as_real(inputs["dim_phi_F"])
    if dim == 0.0:
        return {"applicable": False, "note": "bound not applicable, dimension 0 case"}
    alpha, ratio = maincty_bound(dim, as_real(inputs["assouad"]), as_real(inputs["eta"]))
    return {"applicable": True, "alpha": alpha, "ratio": ratio}


def _product(inputs: dict) -> dict:
    bounds = product_bounds(
        tuple(as_real(v) for v in inputs["e_dims"]),
        tuple(as_real(v) for v in inputs["f_dims"]),
        self_product=bool(inputs.get("self_product", False)),
    )
    names = ("lower_for_upper_dim", "upper_for_upper_dim",
             "lower_for_lower_dim", "upper_for_lower_dim")
    return dict(zip(names, bounds))


FORMULAS: dict[str, Callable[[dict], dict]] = {
    "general_lower": lambda x: {"value": general_lower_bound(
        _dim_inputs(x), use_upper_box=bool(x.get("use_upper_box", True)))},
    "general_lower_derivatives": lambda x: dict(zip(
        ("first", "second"), general_lower_bound_derivatives(_dim_inputs(x)))),
    "continuity_upper": _continuity(continuity_upper_bound),
    "continuity_lower": _continuity(continuity_lower_bound),
    "maincty": _maincty,
    "holder": lambda x: {"value": holder_bound(HolderInputs(
        *(as_real(x[k]) for k in ("alpha", "gamma", "dim_phi_F", "assouad_image"))))},
    "product": _product,
}


# ---------------------------------------------------------------------------
# deterministic emission


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # float(): np.float64's repr names its type
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_field(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(header: Sequence[str], rows, provenance) -> str:
    lines = [f"# {key}: {value}" for key, value in provenance]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_csv_field(_fmt(v)) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".scaledim-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot write --out {path!r}: {reason}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload, (header, rows), summary line)


def _resolved_model(cfg: RunConfig):
    return _from_spec(model_from_dict, cfg.model, "model spec")


def _resolved_phi(cfg: RunConfig):
    return _from_spec(scale_function_from_dict, cfg.phi, "phi spec")


def _run_estimate(cfg: RunConfig):
    model = _resolved_model(cfg)
    phi = _resolved_phi(cfg)
    prof = dimension_profile(model, phi, grid_log_deltas(cfg), tol=cfg.tol)
    rows = [tuple(float(v) for v in row) for row in prof.to_rows()]
    payload = {
        "command": "estimate",
        "model": model_id(model),
        "phi": scale_function_to_dict(phi),
        "rows": [list(r) for r in rows],
        "lower_estimate": prof.lower_estimate,
        "upper_estimate": prof.upper_estimate,
        "tail_size": prof.tail_size,
        "method": prof.method,
    }
    summary = (
        f"estimate[{model_id(model)}]: lower={prof.lower_estimate!r} "
        f"upper={prof.upper_estimate!r} over {len(rows)} scales -> {cfg.out}"
    )
    return payload, (("log2_delta", "s_lower", "s_upper"), rows), summary


def _run_bounds(cfg: RunConfig):
    formula = cfg.formula
    if formula is None:
        raise ConfigError("bounds needs --formula (see --help for choices)")
    # a config file may give any JSON value, and a list or object is unhashable
    compute = FORMULAS.get(formula) if isinstance(formula, str) else None
    if compute is None:
        raise ConfigError(f"unknown formula {formula!r}")
    inputs = cfg.inputs or {}
    result = _from_spec(compute, inputs, f"{formula} inputs")
    if any(isinstance(v, float) and not math.isfinite(v) for v in result.values()):
        raise InputError(f"{formula} result is not finite: {result}")
    payload = {"command": "bounds", "formula": formula, "inputs": inputs, "result": result}
    rows = [(k, result[k]) for k in sorted(result)]
    summary = "bounds[%s]: %s -> %s" % (
        formula,
        " ".join(f"{k}={_fmt(v)}" for k, v in rows),
        cfg.out,
    )
    return payload, (("quantity", "value"), rows), summary


def _run_phi(cfg: RunConfig):
    phi = _resolved_phi(cfg)
    log_deltas = sorted(grid_log_deltas(cfg), reverse=True)
    rows = []
    for ld in log_deltas:
        rows.append((ld / LOG2, phi.eval_phi_log(ld) / LOG2))
    admissibility = check_admissible(phi, log_deltas)
    payload = {
        "command": "phi",
        "phi": scale_function_to_dict(phi),
        "rows": [list(r) for r in rows],
        "admissibility": admissibility,
    }
    if len(log_deltas) >= 8:
        payload["exponent_pair"] = list(exponent_pair(phi, log_deltas))
    if cfg.phi2 is not None:
        other = _from_spec(scale_function_from_dict, cfg.phi2, "phi2 spec")
        payload["phi2"] = scale_function_to_dict(other)
        payload["precedes"] = asdict(precedes(phi, other, cfg.alphas, log_deltas))
        payload["preceded_by"] = asdict(precedes(other, phi, cfg.alphas, log_deltas))
        payload["equivalent"] = asdict(equivalent(phi, other, cfg.alphas, log_deltas))
    summary = (
        f"phi: admissible={_fmt(admissibility['admissible'])} "
        f"over {len(rows)} scales -> {cfg.out}"
    )
    return payload, (("log2_delta", "log2_phi"), rows), summary


def _run_frostman(cfg: RunConfig):
    model = _resolved_model(cfg)
    phi = _resolved_phi(cfg)
    if cfg.s is None:
        raise ConfigError("frostman needs --s (target exponent)")
    log2_delta = cfg.log2_delta if cfg.log2_delta is not None else cfg.grid[0]
    log_delta = log2_delta * LOG2
    level_fine, chain = frostman_levels(phi, log_delta, base=cfg.base)
    mu = build_frostman_measure(model, cfg.s, log_delta, phi, base=cfg.base)
    window = ScaleWindow(phi.eval_phi_log(log_delta), log_delta)
    report = verify_ball_mass(mu, window, cfg.s)
    rows = mu.to_rows()
    payload = {
        "command": "frostman",
        "model": model_id(model),
        "phi": scale_function_to_dict(phi),
        "s": cfg.s,
        "log2_delta": log2_delta,
        "base": cfg.base,
        "level_fine": level_fine,
        "chain_length": chain,
        "atoms": len(rows),
        "pre_normalization_total": mu.pre_normalization_total,
        "c_observed": report.c_observed,
        "set_constant": ball_to_set_constant(report.c_observed, cfg.s),
        "witness_center": report.witness_center,
        "witness_radius": report.witness_radius,
        "witness_mass": report.witness_mass,
    }
    if cfg.format == "json":
        payload["rows"] = [list(r) for r in rows]
    summary = (
        f"frostman[{model_id(model)}]: atoms={len(rows)} "
        f"c={report.c_observed!r} pre_total={mu.pre_normalization_total!r} -> {cfg.out}"
    )
    return payload, (("location", "mass"), rows), summary


def _run_interpolate(cfg: RunConfig):
    model = _resolved_model(cfg)
    s_values = s_grid_values(cfg)
    log_deltas = grid_log_deltas(cfg)
    tables = phi_s_family(model, s_values, log_deltas, tol=max(cfg.tol, 1e-3))
    rows = []
    table_payloads = []
    kept = dropped = 0
    for tab in tables:
        for pt in tab.points:
            rows.append(
                (tab.s, pt.log_delta / LOG2, pt.log_phi_s / LOG2, pt.at_cap)
            )
        kept += len(tab.points)
        dropped += len(tab.dropped)
        table_payloads.append(
            {
                "s": tab.s,
                "rows": [
                    [pt.log_delta / LOG2, pt.log_phi_s / LOG2, pt.at_cap]
                    for pt in tab.points
                ],
                "dropped_log2_deltas": [ld / LOG2 for ld in tab.dropped],
                "regressions": len(tab.regressions),
            }
        )
    payload = {
        "command": "interpolate",
        "model": model_id(model),
        "tables": table_payloads,
    }
    summary = (
        f"interpolate[{model_id(model)}]: {len(tables)} tables, "
        f"{kept} rows kept, {dropped} dropped -> {cfg.out}"
    )
    return payload, (("s", "log2_delta", "log2_phi_s", "at_cap"), rows), summary


def _run_carpet(cfg: RunConfig):
    model = _resolved_model(cfg)
    if not isinstance(model, CarpetParams):
        raise ConfigError(
            f"carpet needs a carpet model spec, got kind {cfg.model.get('kind')!r}"
        )
    dims = carpet_dimensions(model)
    gradient, _ = general_lower_bound_derivatives(
        DimInputs(
            box_lower=dims.box,
            box_upper=dims.box,
            assouad=dims.assouad,
            theta=1.0,
        )
    )
    result = {
        "dim_hausdorff": dims.hausdorff,
        "dim_box": dims.box,
        "dim_assouad": dims.assouad,
        "bound_gradient": gradient,
        "external_comparison": CARPET_COMPARISON_CONSTANT,
    }
    payload = {"command": "carpet", "params": model_to_dict(model), "result": result}
    rows = [(k, result[k]) for k in sorted(result)]
    summary = (
        f"carpet[m={model.m},n={model.n}]: dim_H={dims.hausdorff!r} "
        f"dim_B={dims.box!r} dim_A={dims.assouad!r} -> {cfg.out}"
    )
    return payload, (("quantity", "value"), rows), summary


# --- verify battery ---------------------------------------------------------


def _middle_thirds():
    # deep enough that every battery window top stays inside the schedule
    return CantorSchedule.from_ratios([1.0 / 3.0] * 40)


def _check(name: str, passed: bool, **detail) -> dict:
    return {"name": name, "pass": passed, "detail": detail}


def _largest(name: str, key: str, bound: float, values, start: float = -math.inf) -> dict:
    """Record the worst of a sampled check's values; it passes at ``worst <= bound``."""
    worst, count = start, 0
    for value in values:
        worst, count = max(worst, value), count + 1
    return _check(name, worst <= bound, **{key: worst, "instances": count})


def _dp_vs_exhaustive(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        pts = np.sort(rng.uniform(0.0, 1.0, n))
        hi = float(rng.uniform(0.05, 0.5))
        lo = hi * float(rng.uniform(0.15, 1.0))
        s = float(rng.uniform(0.05, 1.0))
        window = ScaleWindow.from_linear(lo, hi)
        spans = {float(b - a) for a in pts for b in pts if b > a}
        diams = sorted({min(max(sp, lo), hi) for sp in spans} | {lo})
        dp = cover_cost_dp(Skeleton(pts, pts), window, s)
        ex = cover_cost_exhaustive(pts, window, s, diams)
        yield abs(math.exp(dp.log_cost_upper) - math.exp(ex.log_cost_upper))


def _window_widening(rng):
    models = [_middle_thirds(), SequenceSet(1.0)]
    for _ in range(20):
        model = models[int(rng.integers(0, len(models)))]
        hi = 2.0 ** -float(rng.integers(3, 7))
        lo_narrow = hi * 2.0 ** -float(rng.integers(1, 3))
        lo_wide = lo_narrow * 2.0 ** -float(rng.integers(1, 3))
        s = float(rng.uniform(0.1, 0.9))
        narrow = cover_cost(model, ScaleWindow.from_linear(lo_narrow, hi), s, oracle="dp")
        wide = cover_cost(model, ScaleWindow.from_linear(lo_wide, hi), s, oracle="dp")
        yield wide.log_cost_upper - narrow.log_cost_upper


def _s_growth(rng):
    model = _middle_thirds()
    for _ in range(20):
        hi = 2.0 ** -float(rng.integers(3, 7))
        lo = hi * 2.0 ** -float(rng.integers(1, 4))
        s1 = float(rng.uniform(0.05, 0.8))
        s2 = s1 + float(rng.uniform(0.05, 0.2))
        # one cover graph serves both exponents
        cost = prepare(model, ScaleWindow.from_linear(lo, hi), oracle="dp")
        c1, c2 = cost(s1), cost(s2)
        yield c2.log_cost_upper - c1.log_cost_upper


def _translation_shift(rng):
    for _ in range(20):
        model = _middle_thirds() if rng.integers(0, 2) else SequenceSet(1.0)
        dx = float(rng.uniform(-2.0, 2.0))
        hi = 2.0 ** -float(rng.integers(3, 6))
        lo = hi * 2.0 ** -float(rng.integers(1, 3))
        s = float(rng.uniform(0.1, 0.9))
        window = ScaleWindow.from_linear(lo, hi)
        base = cover_cost(model, window, s, oracle="dp")
        moved = cover_cost(translate(model, dx), window, s, oracle="dp")
        yield abs(base.log_cost_upper - moved.log_cost_upper)


def _check_sandwich(rng, tol: float) -> dict:
    models = [_middle_thirds(), SequenceSet(1.0), SequenceSet(2.0)]
    worst_cost = -math.inf
    worst_bracket = -math.inf
    for _ in range(12):
        model = models[int(rng.integers(0, len(models)))]
        log_delta = -float(rng.uniform(5.0, 18.0))
        phi = PowerLaw(float(rng.uniform(0.3, 0.9)))
        window = ScaleWindow(phi.eval_phi_log(log_delta), log_delta)
        s = float(rng.uniform(0.1, 0.9))
        cost = cover_cost(model, window, s)
        worst_cost = max(worst_cost, cost.log_cost_lower - cost.log_cost_upper)
        probe = critical_exponent(model, phi, log_delta, tol=tol)
        worst_bracket = max(worst_bracket, probe.s_lower - probe.s_upper)
    return _check(
        "sandwich-ordering",
        worst_cost <= 1e-12 and worst_bracket <= tol,
        max_cost_lower_minus_upper=worst_cost,
        max_bracket_inversion=worst_bracket,
        instances=12,
    )


def _check_holder_consistency(tol: float) -> dict:
    log_deltas = [-6.0 * LOG2, -7.0 * LOG2]
    phi = PowerLaw(0.5)
    image = HolderImage(SequenceSet(1.0), 0.5)
    direct = SequenceSet(0.5)
    prof_img = dimension_profile(image, phi, log_deltas, tol=tol, oracle="dp")
    prof_dir = dimension_profile(direct, phi, log_deltas, tol=tol, oracle="dp")
    worst = 0.0
    for (_, lo_i, up_i), (_, lo_d, up_d) in zip(prof_img.to_rows(), prof_dir.to_rows()):
        worst = max(worst, abs(lo_i - lo_d), abs(up_i - up_d))
    return _check(
        "holder-image-consistency", worst <= 2.0 * tol, max_row_diff=worst, scales=len(log_deltas)
    )


def _check_mutual(tol: float) -> dict:
    model = SequenceSet(1.0)
    log_deltas = [-20.0 * LOG2, -40.0 * LOG2, -60.0 * LOG2]
    prof_theta = dimension_profile(model, PowerLaw(0.5), log_deltas, tol=tol)
    prof_box = dimension_profile(model, LogCorrected(), log_deltas, tol=tol)
    report = check_mutual_dependency(prof_theta, prof_box)
    return _check(
        "mutual-dependency",
        not report.violation,
        theta_estimate=report.theta_estimate,
        box_estimate=report.box_estimate,
        floor=report.floor,
    )


def _run_verify(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    # the checks draw from one generator, so their order fixes every draw
    checks = [
        _largest("dp-matches-exhaustive", "max_abs_diff", 1e-12, _dp_vs_exhaustive(rng), start=0.0),
        _largest("window-monotonicity", "max_widening_increase", 1e-9, _window_widening(rng)),
        _largest("s-monotonicity", "max_s_increase", 1e-9, _s_growth(rng)),
        _largest("translation-invariance", "max_abs_diff", 1e-12, _translation_shift(rng), start=0.0),
        _check_sandwich(rng, cfg.tol),
        _check_holder_consistency(cfg.tol),
        _check_mutual(cfg.tol),
    ]
    all_pass = all(c["pass"] for c in checks)
    payload = {
        "command": "verify",
        "seed": cfg.seed,
        "checks": checks,
        "pass": all_pass,
    }
    rows = [(c["name"], c["pass"]) for c in checks]
    summary = "verify: %s (%d/%d checks) -> %s" % (
        "pass" if all_pass else "FAIL",
        sum(1 for c in checks if c["pass"]),
        len(checks),
        cfg.out,
    )
    return payload, (("check", "pass"), rows), summary


# ---------------------------------------------------------------------------
# the subcommands


class Command(NamedTuple):
    """A subcommand's handler, its help line, and its overrides of the
    defaults in :data:`OPTIONS`."""

    run: Callable[[RunConfig], tuple]
    help: str
    defaults: dict = {}


#: Every subcommand, in the order ``--help`` lists them.
COMMAND_TABLE = {
    "estimate": Command(
        _run_estimate, "critical-exponent profile of a set model over a delta grid"),
    "bounds": Command(
        _run_bounds, "closed-form bound calculators (see --formula)", {"format": "json"}),
    "phi": Command(_run_phi, "tabulate/check a scale function; compare against --phi2"),
    "frostman": Command(
        _run_frostman, "build a capped cube-hierarchy measure and verify ball masses",
        {"grid": "-12:-6:4", "s": 0.5}),
    "interpolate": Command(
        _run_interpolate, "tabulate the prescribed-exponent scale-function family",
        {"grid": "-48:-12:10", "s_grid": "0.2:0.8:4"}),
    "carpet": Command(
        _run_carpet, "closed-form carpet dimensions and bound gradient",
        {"format": "json",
         "model": '{"kind": "carpet", "m": 2, "n": 100, "column_counts": [1, 100]}'}),
    "verify": Command(
        _run_verify, "seeded invariant battery (oracle equality, monotonicity, ...)",
        {"format": "json"}),
}
COMMANDS = tuple(COMMAND_TABLE)


# ---------------------------------------------------------------------------
# options and config resolution (flags > config file > command defaults > defaults)


class Option(NamedTuple):
    """A config key's default, its reader (run through :func:`_from_spec` under
    ``name``), its flag's argparse keywords, and the subcommands with that flag."""

    default: object
    read: Callable
    name: str
    flag: dict
    commands: tuple[str, ...] = COMMANDS


OPTIONS = {
    "model": Option('{"kind": "sequence", "p": 1.0}', parse_model_spec, "model spec",
                    {"help": "set model: inline JSON or path to a JSON file"}),
    "phi": Option("power_law:0.5", parse_phi_spec, "phi spec",
                  {"help": "scale function: power_law:T, log_corrected, stretched_exp:C, or JSON"}),
    "grid": Option("-400:-40:10", parse_grid, "grid", {"help": "log2-delta grid a:b:n (a <= b)"}),
    "s_grid": Option(None, lambda spec: parse_grid(spec, "s-grid", 1), "s-grid",
                     {"help": "exponent grid a:b:n"}),
    "tol": Option(1e-3, _tolerance, "tol",
                  {"type": float, "help": "bisection tolerance (default 1e-3)"}),
    "out": Option(None, _path, "out", {"help": "output path (default scaledim_<command>.<fmt>)"}),
    "format": Option("csv", _format, "format", {"choices": FORMATS, "help": "output format"}),
    "seed": Option(20260816, _seed, "seed",
                   {"type": int, "help": "seed for generated test instances"}),
    "formula": Option(None, lambda name: name, "formula",
                      {"help": "one of " + ", ".join(FORMULAS)}, ("bounds",)),
    "inputs": Option(None, _json_object, "inputs",
                     {"help": "JSON object of numeric inputs"}, ("bounds",)),
    "s": Option(None, as_real, "s", {"type": float, "help": "target exponent"}, ("frostman",)),
    "log2_delta": Option(None, as_real, "log2_delta",
                         {"type": float, "help": "window top (default: finest grid point)"},
                         ("frostman",)),
    "base": Option(20, as_integer, "base",
                   {"type": int, "help": "cube subdivision base (default 20)"}, ("frostman",)),
    "phi2": Option(None, parse_phi_spec, "phi2 spec",
                   {"help": "second scale function to compare against"}, ("phi",)),
    "alphas": Option("1.5,2.0", parse_alphas, "alphas",
                     {"help": "comparison exponents, comma-separated"}, ("phi",)),
}

CONFIG_KEYS = tuple(OPTIONS)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}")
        file_cfg = _load_json(text, "config file")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    overrides = COMMAND_TABLE[args.command].defaults
    values = {}
    for key, opt in OPTIONS.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key)
        if value is None:
            value = overrides.get(key, opt.default)
        values[key] = None if value is None else _from_spec(opt.read, value, opt.name)
    if values["out"] is None:
        values["out"] = f"scaledim_{args.command}.{values['format']}"
    return RunConfig(command=args.command, **values)


def config_digest(cfg: RunConfig) -> str:
    """sha256 over the resolved config (minus the output path), truncated."""
    payload = dict(vars(cfg))
    payload.pop("out")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def grid_spec_string(cfg: RunConfig) -> str:
    a, b, n = cfg.grid
    return f"{a!r}:{b!r}:{n}"


def grid_log_deltas(cfg: RunConfig) -> list[float]:
    a, b, n = cfg.grid
    return [float(v) * LOG2 for v in np.linspace(a, b, n)]


def s_grid_values(cfg: RunConfig) -> list[float]:
    if cfg.s_grid is None:
        raise ConfigError(f"{cfg.command} needs --s-grid a:b:n")
    a, b, n = cfg.s_grid
    return [float(v) for v in np.linspace(a, b, n)]


# ---------------------------------------------------------------------------
# driver


def run(cfg: RunConfig) -> int:
    """Dispatch, then write the artifact atomically and print a summary."""
    payload, (header, rows), summary = COMMAND_TABLE[cfg.command].run(cfg)
    digest = config_digest(cfg)
    gridspec = grid_spec_string(cfg)
    payload["provenance"] = {"config_digest": digest, "grid": gridspec}
    if cfg.format == "csv":
        text = _csv_text(header, rows, [("config", digest), ("grid", gridspec)])
    else:
        text = _json_text(payload)
    _write_atomic(cfg.out, text)
    print(summary)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused.

    ``parse_args`` keeps no state between calls (each returns a fresh
    namespace), and help text takes the terminal width when it is
    printed, so one parser serves every :func:`main` call of a process.
    """
    parser = argparse.ArgumentParser(
        prog="scaledim",
        description="Dimension estimation on scale windows [phi(delta), delta].",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMAND_TABLE.items():
        p = sub.add_parser(name, help=command.help)
        for key, opt in OPTIONS.items():
            if name in opt.commands:
                p.add_argument("--" + key.replace("_", "-"), **opt.flag)
        p.add_argument("--config", help="JSON config file (flags override it)")
    return parser


def get_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    return _parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = get_args(argv)
        cfg = resolve_config(args)
        return run(cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
