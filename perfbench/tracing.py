"""Span tracing from outside the package, for the per-layer run.

The tracer wraps public functions of ``scaledim`` and rebinds each wrapper
at every module that holds the original under any name (``covers.skeleton``,
``estimator.cover_cost``, ``cli.cover_cost_dp``, the package namespace,
...), so calls between modules go through the wrapper too.  Each span
keeps its name, start, end, parent span and item id, plus a few facts
read off the call or its result.  Spans stay in memory until the run ends.

The package itself has no spans yet, so a span covers a whole public
call: the DP graph build and its value sweep share ``covers.route.dp``,
and Frostman seeding and the cap chain share ``measures.frostman``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Any, Callable, Optional

from scaledim import covers, estimator, interpolation, measures, scalefun, setmodels
from scaledim import cli

LAYERS = ("setmodels", "covers", "estimator", "measures", "interpolation", "scalefun", "cli")

#: (module, function name, span name); the span name's first part is the layer.
TARGETS = (
    (setmodels, "skeleton", "setmodels.skeleton"),
    (covers, "cover_cost", "covers.cover_cost"),
    (covers, "cover_cost_dp", "covers.route.dp"),
    (covers, "cover_cost_sequence", "covers.route.sequence"),
    (covers, "cover_cost_cantor", "covers.route.cantor"),
    (covers, "cover_cost_grid", "covers.route.grid"),
    (covers, "cover_cost_product", "covers.route.product"),
    (covers, "cover_cost_exhaustive", "covers.route.exhaustive"),
    (covers, "schedule_mass_constant", "covers.mass_constant"),
    (estimator, "critical_exponent", "estimator.critical_exponent"),
    (estimator, "dimension_profile", "estimator.dimension_profile"),
    (measures, "massfrostman_roundtrip", "measures.roundtrip"),
    (measures, "build_frostman_measure", "measures.frostman"),
    (measures, "verify_ball_mass", "measures.ball_mass"),
    (interpolation, "phi_s_at", "interpolation.phi_s_at"),
    (interpolation, "phi_s_function", "interpolation.phi_s_function"),
    (interpolation, "phi_s_family", "interpolation.phi_s_family"),
    (cli, "main", "cli.main"),
)

# span record fields
NAME, START, END, PARENT, ITEM, INFO = range(6)


class Tracer:
    """Collects spans while installed; :meth:`uninstall` restores the package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item: Optional[int] = None
        self.dp_evaluations: list[tuple] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self.windows: set = set()
        self.structures: set = set()
        self.alive: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "scaledim" or name.startswith("scaledim."))
        ]
        for module, attr, span_name in TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original, _INFO.get(span_name))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)
        for cls in vars(scalefun).values():
            if isinstance(cls, type) and "eval_phi_log" in vars(cls):
                original = vars(cls)["eval_phi_log"]
                self._restore.append((cls, "eval_phi_log", original))
                setattr(cls, "eval_phi_log", self._wrap("scalefun.eval", original, None))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def start_item(self, index: int) -> None:
        self.item = index
        self.windows.clear()
        self.structures.clear()
        self.alive.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, span_name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[END] = perf_counter()
                rec[INFO] = {"error": True}
                stack.pop()
                raise
            rec[END] = perf_counter()
            stack.pop()
            if info is not None:
                rec[INFO] = info(self, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": rec[NAME],
                            "start": rec[START],
                            "end": rec[END],
                            "parent": rec[PARENT],
                            "item": rec[ITEM],
                            "info": rec[INFO],
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# facts recorded per span, read off the arguments and the result


def _cover_cost_info(tracer: Tracer, args, kwargs, result) -> dict:
    model, window, s = args[0], args[1], args[2]
    key = (id(model), window.log_lo, window.log_hi)
    repeat = key in tracer.windows
    tracer.windows.add(key)
    tracer.alive.append(model)  # keeps id(model) unique within the item
    if kwargs.get("oracle") == "dp" and isinstance(
        model, (setmodels.SequenceSet, setmodels.CantorSchedule)
    ):
        tracer.dp_evaluations.append((model, window, s, result))
    return {"repeat": repeat, "union": isinstance(model, setmodels.UnionModel)}


def _skeleton_info(_tracer: Tracer, _args, _kwargs, result) -> dict:
    return {"items": len(result)}


def _exponent_info(_tracer: Tracer, _args, _kwargs, result) -> dict:
    return {
        "evaluations": result.evaluations,
        "clamped": result.clamped_lower or result.clamped_upper,
        "width": result.width,
    }


def _frostman_info(tracer: Tracer, args, kwargs, result) -> dict:
    model, log_delta, phi = args[0], args[2], args[3]
    key = (id(model), log_delta, id(phi), kwargs.get("base", measures.DEFAULT_BASE))
    repeat = key in tracer.structures
    tracer.structures.add(key)
    tracer.alive.extend((model, phi))
    return {
        "repeat": repeat,
        "atoms": int(result.locations.size),
        "chain": result.meta.chain_length,
    }


def _phi_s_info(_tracer: Tracer, _args, _kwargs, result) -> dict:
    return {"budget_exceeded": result.budget_exceeded}


_INFO = {
    "setmodels.skeleton": _skeleton_info,
    "covers.cover_cost": _cover_cost_info,
    "estimator.critical_exponent": _exponent_info,
    "measures.frostman": _frostman_info,
    "interpolation.phi_s_at": _phi_s_info,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def cross_route(dp_evaluations: list[tuple]) -> tuple[int, int]:
    """(checked, disagreements) of DP values against the analytic bracket.

    An exact DP value must lie inside the analytic bracket of the same
    (model, window, s).  Run with the tracer uninstalled.
    """
    checked = disagreements = 0
    for model, window, s, dp in dp_evaluations:
        if isinstance(model, setmodels.SequenceSet):
            ana = covers.cover_cost_sequence(model.p, window, s)
        else:
            ana = covers.cover_cost_cantor(model, window, s)
        checked += 1
        if (
            dp.log_cost_upper < ana.log_cost_lower - 1e-9
            or dp.log_cost_lower > ana.log_cost_upper + 1e-9
        ):
            disagreements += 1
    return checked, disagreements


ROUTES = ("dp", "sequence", "cantor", "grid", "product", "union", "exhaustive")


def layer_metrics(spans: list[list], item_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over all spans of a traced pass.

    ``_calls`` counts every span of that name; ``_s`` is the time inside
    the outermost spans of that name, so nested calls are not counted
    twice; ``self_s`` is span time minus the time of direct children.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]

    def outermost(i: int, match: Callable[[list], bool]) -> bool:
        parent = spans[i][PARENT]
        while parent >= 0:
            if match(spans[parent]):
                return False
            parent = spans[parent][PARENT]
        return True

    def select(match: Callable[[list], bool]) -> tuple[int, float, list[int]]:
        idx = [i for i, rec in enumerate(spans) if match(rec)]
        total = sum(
            spans[i][END] - spans[i][START] for i in idx if outermost(i, match)
        )
        return len(idx), total, idx

    def named(name: str) -> Callable[[list], bool]:
        return lambda rec: rec[NAME] == name

    def info(i: int, key: str, default=None):
        data = spans[i][INFO]
        return default if data is None else data.get(key, default)

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    m: dict[str, tuple[float, str]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, rec in enumerate(spans):
        layer_self[rec[NAME].split(".", 1)[0]] += rec[END] - rec[START] - child_time[i]

    calls, total, idx = select(named("setmodels.skeleton"))
    m["setmodels.skeleton_calls"] = (calls, "count")
    m["setmodels.skeleton_s"] = (total, "s")
    m["setmodels.skeleton_items"] = (
        sum(info(i, "items", 0) for i in idx if outermost(i, named("setmodels.skeleton"))),
        "count",
    )

    calls, _, idx = select(named("covers.cover_cost"))
    m["covers.cover_cost_calls"] = (calls, "count")
    m["covers.cover_cost_self_s"] = (
        sum(spans[i][END] - spans[i][START] - child_time[i] for i in idx),
        "s",
    )
    repeats = sum(1 for i in idx if info(i, "repeat"))
    m["covers.window_repeat_frac"] = (repeats / calls if calls else 0.0, "ratio")
    m["covers.window_repeat_base"] = (calls, "count")
    m["covers.errors"] = (
        sum(1 for i in idx if info(i, "error") and outermost(i, named("covers.cover_cost"))),
        "count",
    )
    for route in ROUTES:
        if route == "union":
            match = lambda rec: rec[NAME] == "covers.cover_cost" and bool(
                rec[INFO] and rec[INFO].get("union")
            )
        else:
            match = named(f"covers.route.{route}")
        calls, total, _ = select(match)
        m[f"covers.route.{route}_calls"] = (calls, "count")
        m[f"covers.route.{route}_s"] = (total, "s")
    calls, total, _ = select(named("covers.mass_constant"))
    m["covers.mass_constant_calls"] = (calls, "count")
    m["covers.mass_constant_s"] = (total, "s")

    calls, _, idx = select(named("estimator.critical_exponent"))
    ok = [i for i in idx if not info(i, "error")]
    m["estimator.scales"] = (calls, "count")
    m["estimator.evaluations_per_scale"] = (mean([info(i, "evaluations") for i in ok]), "count")
    m["estimator.self_s"] = (layer_self["estimator"], "s")
    m["estimator.clamped_frac"] = (mean([1.0 if info(i, "clamped") else 0.0 for i in ok]), "ratio")
    m["estimator.bracket_width_mean"] = (mean([info(i, "width") for i in ok]), "exponent")

    calls, total, idx = select(named("measures.frostman"))
    ok = [i for i in idx if not info(i, "error")]
    m["measures.frostman_calls"] = (calls, "count")
    m["measures.frostman_s"] = (total, "s")
    m["measures.atoms_mean"] = (mean([info(i, "atoms") for i in ok]), "count")
    m["measures.chain_length_mean"] = (mean([info(i, "chain") for i in ok]), "count")
    m["measures.structure_repeat_frac"] = (
        mean([1.0 if info(i, "repeat") else 0.0 for i in ok]),
        "ratio",
    )
    m["measures.structure_repeat_base"] = (len(ok), "count")
    calls, total, _ = select(named("measures.ball_mass"))
    m["measures.ball_mass_calls"] = (calls, "count")
    m["measures.ball_mass_s"] = (total, "s")

    calls, _, idx = select(named("interpolation.phi_s_at"))
    probes = sum(
        1
        for rec in spans
        if rec[NAME] == "covers.cover_cost"
        and rec[PARENT] >= 0
        and spans[rec[PARENT]][NAME] == "interpolation.phi_s_at"
    )
    ok = [i for i in idx if not info(i, "error")]
    m["interpolation.phi_s_at_calls"] = (calls, "count")
    m["interpolation.self_s"] = (layer_self["interpolation"], "s")
    m["interpolation.probes_per_point"] = (probes / calls if calls else 0.0, "count")
    m["interpolation.budget_exceeded_frac"] = (
        mean([1.0 if info(i, "budget_exceeded") else 0.0 for i in ok]),
        "ratio",
    )

    calls, total, _ = select(named("scalefun.eval"))
    m["scalefun.eval_calls"] = (calls, "count")
    m["scalefun.eval_s"] = (total, "s")

    calls, _, _ = select(named("cli.main"))
    m["cli.commands"] = (calls, "count")
    m["cli.self_s"] = (layer_self["cli"], "s")

    for layer in LAYERS:
        share = layer_self[layer] / item_seconds if item_seconds > 0 else 0.0
        m[f"{layer}.self_share"] = (share, "ratio")
    top = sum(rec[END] - rec[START] for rec in spans if rec[PARENT] < 0)
    m["trace.uncovered_s"] = (max(item_seconds - top, 0.0), "s")
    m["trace.spans"] = (len(spans), "count")
    return m
