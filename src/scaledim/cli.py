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
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

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
from .errors import ComputationError, ConfigError, ValidationError, as_integer, as_real
from .estimator import critical_exponent, dimension_profile
from .interpolation import phi_s_family
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

LOG2 = math.log(2.0)

#: Published alternative bound at the default carpet parameters; display only.
CARPET_COMPARISON_CONSTANT = 0.352

COMMANDS = ("estimate", "bounds", "phi", "frostman", "interpolate", "carpet", "verify")
FORMATS = ("csv", "json")

GLOBAL_DEFAULTS = {
    "model": '{"kind": "sequence", "p": 1.0}',
    "phi": "power_law:0.5",
    "grid": "-400:-40:10",
    "s_grid": None,
    "tol": 1e-3,
    "out": None,
    "format": "csv",
    "seed": 20260816,
    "formula": None,
    "inputs": None,
    "s": None,
    "log2_delta": None,
    "base": 20,
    "phi2": None,
    "alphas": "1.5,2.0",
}

#: Per-command overrides of the global defaults (flags > config file > these).
COMMAND_DEFAULTS = {
    "bounds": {"format": "json"},
    "carpet": {"format": "json", "model": '{"kind": "carpet", "m": 2, "n": 100, "column_counts": [1, 100]}'},
    "verify": {"format": "json"},
    "frostman": {"grid": "-12:-6:4", "s": 0.5},
    "interpolate": {"grid": "-48:-12:10", "s_grid": "0.2:0.8:4"},
}

CONFIG_KEYS = tuple(GLOBAL_DEFAULTS)


@dataclass
class RunConfig:
    """Fully resolved run request (command + inputs + output disposition)."""

    command: str
    model: dict
    phi: dict
    grid: tuple[float, float, int]
    s_grid: Optional[tuple[float, float, int]]
    tol: float
    out: str
    format: str
    seed: int
    formula: Optional[str] = None
    inputs: Optional[dict] = None
    s: Optional[float] = None
    log2_delta: Optional[float] = None
    base: int = 20
    phi2: Optional[dict] = None
    alphas: tuple[float, ...] = (1.5, 2.0)


# ---------------------------------------------------------------------------
# spec parsing


def parse_grid(spec, name: str = "grid", min_points: int = 2) -> tuple[float, float, int]:
    """``a:b:n`` (or [a, b, n]) with finite a <= b and n >= ``min_points``.

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
    return a, b, n


def parse_s_grid(spec) -> tuple[float, float, int]:
    return parse_grid(spec, "s-grid", 1)


def _from_spec(build, spec, what: str):
    """``build(spec)`` for a user-given spec; a missing key or a malformed
    value is a configuration error, not a crash."""
    try:
        return build(spec)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed {what} {spec!r}: {exc!r}") from exc


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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"model spec is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"model spec must be a JSON object, got {type(data).__name__}")
    return data


def parse_phi_spec(spec) -> dict:
    """Inline JSON or shorthand power_law:THETA | log_corrected | stretched_exp:C."""
    if isinstance(spec, dict):
        return spec
    text = str(spec).strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"phi spec is not valid JSON: {exc}")
        return data
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


# ---------------------------------------------------------------------------
# config resolution (flags > config file > defaults)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    command = args.command
    overrides = COMMAND_DEFAULTS.get(command, {})

    def pick(name):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if file_cfg.get(name) is not None:
            return file_cfg[name]
        if name in overrides:
            return overrides[name]
        return GLOBAL_DEFAULTS[name]

    tol = _from_spec(as_real, pick("tol"), "tol")
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    fmt = str(pick("format"))
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    grid = parse_grid(pick("grid"))
    s_grid_spec = pick("s_grid")
    s_grid = parse_s_grid(s_grid_spec) if s_grid_spec is not None else None
    model = parse_model_spec(pick("model"))
    phi = _from_spec(parse_phi_spec, pick("phi"), "phi spec")
    phi2_spec = pick("phi2")
    phi2 = None if phi2_spec is None else _from_spec(parse_phi_spec, phi2_spec, "phi2 spec")
    inputs_spec = pick("inputs")
    if inputs_spec is None:
        inputs = None
    elif isinstance(inputs_spec, dict):
        inputs = inputs_spec
    else:
        try:
            inputs = json.loads(str(inputs_spec))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--inputs is not valid JSON: {exc}")
        if not isinstance(inputs, dict):
            raise ConfigError("--inputs must be a JSON object")
    seed = _from_spec(as_integer, pick("seed"), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    s_val = pick("s")
    log2_delta = pick("log2_delta")
    out = pick("out")
    if out is None:
        out = f"scaledim_{command}.{fmt}"
    elif not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    return RunConfig(
        command=command,
        model=model,
        phi=phi,
        grid=grid,
        s_grid=s_grid,
        tol=tol,
        out=out,
        format=fmt,
        seed=seed,
        formula=pick("formula"),
        inputs=inputs,
        s=None if s_val is None else _from_spec(as_real, s_val, "s"),
        log2_delta=None if log2_delta is None else _from_spec(as_real, log2_delta, "log2_delta"),
        base=_from_spec(as_integer, pick("base"), "base"),
        phi2=phi2,
        alphas=_from_spec(parse_alphas, pick("alphas"), "alphas"),
    )


def config_digest(cfg: RunConfig) -> str:
    """sha256 over the resolved config (minus the output path), truncated."""
    payload = asdict(cfg)
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
# deterministic emission


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _csv_field(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _csv_text(header: Sequence[str], rows, provenance) -> str:
    lines = [f"# {key}: {value}" for key, value in provenance]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_csv_field(_fmt(v)) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


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


def _bounds_result(formula: str, inputs: dict) -> dict:
    if formula == "general_lower":
        d = _dim_inputs(inputs)
        result = {
            "value": general_lower_bound(
                d, use_upper_box=bool(inputs.get("use_upper_box", True))
            )
        }
    elif formula == "general_lower_derivatives":
        first, second = general_lower_bound_derivatives(_dim_inputs(inputs))
        result = {"first": first, "second": second}
    elif formula == "continuity_upper":
        result = {
            "value": continuity_upper_bound(
                as_real(inputs["dim_theta"]), _dim_inputs(inputs), as_real(inputs["phi_target"])
            )
        }
    elif formula == "continuity_lower":
        result = {
            "value": continuity_lower_bound(
                as_real(inputs["dim_theta"]), _dim_inputs(inputs), as_real(inputs["phi_target"])
            )
        }
    elif formula == "maincty":
        dim = as_real(inputs["dim_phi_F"])
        if dim == 0.0:
            result = {"applicable": False, "note": "bound not applicable, dimension 0 case"}
        else:
            alpha, ratio = maincty_bound(
                dim, as_real(inputs["assouad"]), as_real(inputs["eta"])
            )
            result = {"applicable": True, "alpha": alpha, "ratio": ratio}
    elif formula == "holder":
        h = HolderInputs(
            alpha=as_real(inputs["alpha"]),
            gamma=as_real(inputs["gamma"]),
            dim_phi_F=as_real(inputs["dim_phi_F"]),
            assouad_image=as_real(inputs["assouad_image"]),
        )
        result = {"value": holder_bound(h)}
    elif formula == "product":
        lu, uu, ll, ul = product_bounds(
            tuple(as_real(v) for v in inputs["e_dims"]),
            tuple(as_real(v) for v in inputs["f_dims"]),
            self_product=bool(inputs.get("self_product", False)),
        )
        result = {
            "lower_for_upper_dim": lu,
            "upper_for_upper_dim": uu,
            "lower_for_lower_dim": ll,
            "upper_for_lower_dim": ul,
        }
    else:
        raise ConfigError(f"unknown formula {formula!r}")
    return result


def _run_bounds(cfg: RunConfig):
    if cfg.formula is None:
        raise ConfigError("bounds needs --formula (see --help for choices)")
    inputs = cfg.inputs or {}
    formula = cfg.formula
    result = _from_spec(
        lambda data: _bounds_result(formula, data), inputs, f"{formula} inputs"
    )
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
    rows = [(float(x), float(m)) for x, m in mu.to_rows()]
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


_HANDLERS = {
    "estimate": _run_estimate,
    "bounds": _run_bounds,
    "phi": _run_phi,
    "frostman": _run_frostman,
    "interpolate": _run_interpolate,
    "carpet": _run_carpet,
    "verify": _run_verify,
}


# ---------------------------------------------------------------------------
# driver


def run(cfg: RunConfig) -> int:
    """Dispatch, then write the artifact atomically and print a summary."""
    payload, (header, rows), summary = _HANDLERS[cfg.command](cfg)
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
    descriptions = {
        "estimate": "critical-exponent profile of a set model over a delta grid",
        "bounds": "closed-form bound calculators (see --formula)",
        "phi": "tabulate/check a scale function; compare against --phi2",
        "frostman": "build a capped cube-hierarchy measure and verify ball masses",
        "interpolate": "tabulate the prescribed-exponent scale-function family",
        "carpet": "closed-form carpet dimensions and bound gradient",
        "verify": "seeded invariant battery (oracle equality, monotonicity, ...)",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--model", help="set model: inline JSON or path to a JSON file")
        p.add_argument(
            "--phi",
            help="scale function: power_law:T, log_corrected, stretched_exp:C, or JSON",
        )
        p.add_argument("--grid", help="log2-delta grid a:b:n (a <= b)")
        p.add_argument("--s-grid", dest="s_grid", help="exponent grid a:b:n")
        p.add_argument("--tol", type=float, help="bisection tolerance (default 1e-3)")
        p.add_argument("--out", help="output path (default scaledim_<command>.<fmt>)")
        p.add_argument("--format", choices=FORMATS, help="output format")
        p.add_argument("--seed", type=int, help="seed for generated test instances")
        p.add_argument("--config", help="JSON config file (flags override it)")
        if name == "bounds":
            p.add_argument(
                "--formula",
                help="one of general_lower, general_lower_derivatives, "
                "continuity_upper, continuity_lower, maincty, holder, product",
            )
            p.add_argument("--inputs", help="JSON object of numeric inputs")
        if name == "frostman":
            p.add_argument("--s", type=float, help="target exponent")
            p.add_argument(
                "--log2-delta",
                dest="log2_delta",
                type=float,
                help="window top (default: finest grid point)",
            )
            p.add_argument("--base", type=int, help="cube subdivision base (default 20)")
        if name == "phi":
            p.add_argument("--phi2", help="second scale function to compare against")
            p.add_argument("--alphas", help="comparison exponents, comma-separated")
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
