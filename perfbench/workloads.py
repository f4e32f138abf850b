"""Seeded workload generators for the benchmark.

Each workload turns a seed and a size into a fixed cycle of items.  An
item is one call into the package's public API; the benchmark times it
from outside and repeats the cycle in a closed loop.  The package sees
only the generated inputs.

Parameters come from fixed ranges, one value per equal slice of the
range at a seeded position inside the slice.  Two seeds therefore give
different inputs with nearly the same spread of costs, which keeps the
end-to-end figures comparable across seeds.  Where a parameter decides
most of an item's cost (the sequence exponent of a DP window), its slices
are narrow.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import scaledim as sd
from scaledim import cli

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")

Record = dict
Check = Callable[[Record, dict], Optional[str]]


@dataclass(frozen=True)
class Item:
    """One timed call, how to turn its result into a record, and its checks.

    ``record`` makes the canonical output that must repeat bit for bit.
    Each check gets the record and the latest record of every cycle index
    completed so far, and returns a failure message or None.
    """

    label: str
    call: Callable[[], Any]
    record: Callable[[Any], Record]
    checks: tuple[Check, ...] = ()


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def slices(
    rng: random.Random, lo: float, hi: float, n: int, spread: float = 1.0
) -> list[float]:
    """n values, one per equal slice of [lo, hi], each at a seeded spot.

    ``spread`` < 1 keeps each value within that share of its slice,
    centred, for parameters that decide most of an item's cost.
    """
    width = (hi - lo) / n
    return [lo + width * (i + 0.5 + spread * (rng.random() - 0.5)) for i in range(n)]


def _hex(x: float) -> str:
    return float(x).hex()


def _val(rec: Record, key: str) -> float:
    return float.fromhex(rec[key])


# ---------------------------------------------------------------------------
# records and checks shared by the bracket workloads


def bracket_record(ce) -> Record:
    return {
        "s_lower": _hex(ce.s_lower),
        "s_upper": _hex(ce.s_upper),
        "evaluations": ce.evaluations,
        "clamped": [ce.clamped_lower, ce.clamped_upper],
    }


def ordered(rec: Record, _done: dict) -> Optional[str]:
    lo, up = _val(rec, "s_lower"), _val(rec, "s_upper")
    return None if lo <= up else f"s_lower {lo!r} above s_upper {up!r}"


def near_midpoint(target: float, tol: float) -> Check:
    def check(rec: Record, _done: dict) -> Optional[str]:
        mid = 0.5 * (_val(rec, "s_lower") + _val(rec, "s_upper"))
        if abs(mid - target) <= tol:
            return None
        return f"midpoint {mid!r} not within {tol} of {target!r}"

    return check


def upper_near(target: float, tol: float) -> Check:
    def check(rec: Record, _done: dict) -> Optional[str]:
        up = _val(rec, "s_upper")
        return None if abs(up - target) <= tol else f"s_upper {up!r} not within {tol} of {target!r}"

    return check


def rows_match(other: int, tol: float) -> Check:
    """Both bracket ends within tol of those of cycle item ``other``."""

    def check(rec: Record, done: dict) -> Optional[str]:
        ref = done.get(other)
        if ref is None:
            return None
        diff = max(
            abs(_val(rec, "s_lower") - _val(ref, "s_lower")),
            abs(_val(rec, "s_upper") - _val(ref, "s_upper")),
        )
        return None if diff <= tol else f"rows differ by {diff!r} from item {other} (tol {tol})"

    return check


def _exponent_item(label: str, model, phi, log_delta: float, checks=(), **kw) -> Item:
    return Item(
        label,
        lambda: sd.critical_exponent(model, phi, log_delta, **kw),
        bracket_record,
        (ordered,) + tuple(checks),
    )


# ---------------------------------------------------------------------------
# workloads


def dp_window(rng: random.Random, size: dict, _out_dir: str) -> list[Item]:
    """critical_exponent(..., oracle="dp") on HolderImage / SequenceSet / Cantor.

    A Holder image of SequenceSet(p) under x -> x**alpha is, as a set,
    SequenceSet(p * alpha); the direct model follows its image in the cycle
    and the two rows must agree within 2*tol.  The product c = p * alpha
    sets the DP cost, so it sits in narrow slices (evenly spaced in log c)
    and alpha takes the seeded spread.
    """
    phi = sd.PowerLaw(0.5)
    tol = 1e-3
    cantor = sd.CantorSchedule.middle_thirds(40)
    n = size["pairs_per_scale"]
    c_lo, c_hi = size["c"]
    groups: list[list[tuple]] = []
    for k in size["scales"]:
        log_delta = k * LOG2
        cs = slices(rng, math.log(c_lo), math.log(c_hi), n, spread=size["c_spread"])
        for log_c, alpha in zip(cs, slices(rng, *size["alpha"], n)):
            c = math.exp(log_c)
            p = c / alpha
            groups.append(
                [
                    (f"holder k={k}", sd.HolderImage(sd.SequenceSet(p), alpha), log_delta),
                    (f"sequence k={k}", sd.SequenceSet(c), log_delta),
                ]
            )
        groups.append([(f"cantor k={k}", cantor, log_delta)])
    rng.shuffle(groups)
    items: list[Item] = []
    for group in groups:
        first = len(items)
        for j, (label, model, log_delta) in enumerate(group):
            checks = (rows_match(first, 2.0 * tol),) if j == 1 else ()
            items.append(
                _exponent_item(label, model, phi, log_delta, checks, tol=tol, oracle="dp")
            )
    return items


def deep_analytic(rng: random.Random, size: dict, _out_dir: str) -> list[Item]:
    """Certified scales at symbolic depth through the analytic routes only."""
    items: list[Item] = []
    n = size["sequence_pairs"]
    ps = slices(rng, *size["p"], n)
    thetas = slices(rng, *size["theta"], n)
    thetas = [thetas[(4 * i) % n] for i in range(n)]  # spread the pairings
    deepest = min(size["sequence_log2_deltas"])
    for p, theta in zip(ps, thetas):
        model, phi = sd.SequenceSet(p), sd.PowerLaw(theta)
        target = near_midpoint(theta / (p + theta), 0.02)
        for k in size["sequence_log2_deltas"]:
            checks = (target,) if k == deepest else ()
            items.append(_exponent_item(f"sequence log2d={k}", model, phi, k * LOG2, checks))
        # log-space claim: a scale near ln delta = -1e10
        log_delta = -1e10 * (1.0 + 0.01 * rng.random())
        items.append(_exponent_item("sequence ln d=-1e10", model, phi, log_delta, (target,)))

    thirds = sd.CantorSchedule.from_ratios([1.0 / 3.0] * 30)
    box = upper_near(LOG2 / LOG3, 0.01)
    for k in slices(rng, *size["thirds_k"], size["thirds_items"]):
        items.append(
            _exponent_item("thirds log-corrected", thirds, sd.LogCorrected(), -k * LOG3, (box,), tol=1e-4)
        )

    pair = sd.build_stability_pair(sd.PowerLaw(0.5), 3)
    scales = list(pair.state.log_r_seq) + [v for _, v in pair.sparse_end_scales()]
    for log_r in scales:
        factor = 1.0 + size["union_jitter"] * rng.random()
        items.append(_exponent_item("stability union", pair.union, sd.PowerLaw(0.5), log_r * factor))

    product = sd.ProductModel(
        sd.CantorSchedule.middle_thirds(30), sd.CantorSchedule.from_ratios([0.25] * 30)
    )
    for k in slices(rng, *size["product_k"], size["product_items"]):
        items.append(_exponent_item("cantor product", product, sd.PowerLaw(0.5), -k * LOG3))
    rng.shuffle(items)
    return items


def roundtrip_record(rt) -> Record:
    return {
        "estimate": _hex(rt.estimate),
        "bracket": [_hex(rt.bracket_lower), _hex(rt.bracket_upper)],
        "rows": [
            {
                "s": _hex(row.s),
                "built": row.built,
                "c_values": [_hex(c) for c in row.c_values],
                "raw_totals": [_hex(t) for t in row.raw_totals],
            }
            for row in rt.rows
        ],
    }


def roundtrip_consistent(rec: Record, _done: dict) -> Optional[str]:
    lo, up = (float.fromhex(v) for v in rec["bracket"])
    est = _val(rec, "estimate")
    if lo > up:
        return f"bracket inverted: {lo!r} > {up!r}"
    if lo - 0.05 <= est <= up + 0.05:
        return None
    return f"estimate {est!r} outside bracket [{lo!r}, {up!r}] +- 0.05"


def frostman(rng: random.Random, size: dict, _out_dir: str) -> list[Item]:
    """massfrostman_roundtrip items, alternating middle thirds and SequenceSet(1)."""
    phi = sd.PowerLaw(0.5)
    thirds = sd.CantorSchedule.from_ratios([1.0 / 3.0] * 20)
    seq = sd.SequenceSet(1.0)
    kinds = [
        ("thirds", thirds, size["thirds_s"], [-5 * LOG3, -6 * LOG3, -7 * LOG3], 3),
        ("sequence", seq, size["sequence_s"], [-12 * LOG2, -13 * LOG2, -14 * LOG2], 20),
    ]
    items: list[Item] = []
    for _ in range(size["pairs"]):
        for label, model, (s_lo, s_hi), log_deltas, base in kinds:
            shift = size["s_jitter"] * rng.random()
            m = size["s_points"]
            s_grid = [s_lo + shift + (s_hi - s_lo) * i / (m - 1) for i in range(m)]
            items.append(
                Item(
                    f"roundtrip {label}",
                    lambda model=model, s_grid=s_grid, log_deltas=log_deltas, base=base: (
                        sd.massfrostman_roundtrip(model, phi, s_grid, log_deltas, base=base)
                    ),
                    roundtrip_record,
                    (roundtrip_consistent,),
                )
            )
    return items


def _artifact_record(path: str) -> Callable[[int], Record]:
    def record(code: int) -> Record:
        with open(path, "rb") as fh:
            data = fh.read()
        return {"exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}

    return record


def exit_zero(rec: Record, _done: dict) -> Optional[str]:
    return None if rec["exit"] == 0 else f"exit code {rec['exit']}"


def verify_passes(path: str) -> Check:
    def check(_rec: Record, _done: dict) -> Optional[str]:
        with open(path) as fh:
            report = json.load(fh)
        if report.get("pass") is True:
            return None
        failed = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        return f"verify reports failure: {failed}"

    return check


def cli_mix(rng: random.Random, size: dict, out_dir: str) -> list[Item]:
    """In-process CLI runs: the criterion-10 command set and one
    Cantor-model interpolate, once each per pass.

    Each command keeps its criterion-10 form and draws its numeric inputs
    (model, exponents, s grid) from fixed ranges.  ``verify`` keeps its
    criterion-10 seed: its --seed picks the battery's instances, and with
    them its cost.
    """
    p = 0.5 + 1.5 * rng.random()
    box = 0.3 + 0.4 * rng.random()
    s_lo = 0.15 + 0.1 * rng.random()
    carpet = {"kind": "carpet", "m": 2, "n": 100, "column_counts": [rng.randint(1, 50), 100]}
    cantor = {"kind": "cantor", "ratios": [1.0 / 3.0] * size["cantor_depth"], "offset": rng.random()}
    c_lo, c_hi, c_n = size["cantor_s_grid"]
    c_shift = size["cantor_s_jitter"] * rng.random()
    runs: list[tuple[str, list[str], str]] = [
        ("estimate", ["estimate", "--grid=-96:-24:4", "--model", json.dumps({"kind": "sequence", "p": p})], "csv"),
        (
            "bounds",
            [
                "bounds", "--formula", "general_lower", "--inputs",
                json.dumps({"box_lower": box, "box_upper": box, "assouad": 1.0, "theta": 0.2 + 0.6 * rng.random()}),
            ],
            "json",
        ),
        (
            "phi",
            ["phi", "--phi", f"power_law:{0.3 + 0.4 * rng.random()!r}", "--phi2", "log_corrected", "--grid=-48:-12:10"],
            "csv",
        ),
        ("frostman", ["frostman", "--s", repr(0.4 + 0.2 * rng.random())], "csv"),
        ("interpolate", ["interpolate", "--s-grid", f"{s_lo!r}:{s_lo + 0.4!r}:3", "--grid=-36:-12:3"], "csv"),
        ("carpet", ["carpet", "--model", json.dumps(carpet)], "json"),
        ("verify", ["verify"], "json"),
        (
            "interpolate cantor",
            [
                "interpolate", "--model", json.dumps(cantor),
                "--s-grid", f"{c_lo + c_shift!r}:{c_hi + c_shift!r}:{c_n}", f"--grid={size['cantor_grid']}",
            ],
            "csv",
        ),
    ]
    items: list[Item] = []
    for idx, (label, argv, fmt) in enumerate(runs):
        path = os.path.join(out_dir, f"item{idx:02d}.{fmt}")
        full = argv + ["--out", path]
        checks: tuple[Check, ...] = (exit_zero,)
        if argv[0] == "verify":
            checks += (verify_passes(path),)
        items.append(Item(label, lambda full=full: cli.main(full), _artifact_record(path), checks))
    rng.shuffle(items)
    return items


GENERATORS = {
    "dp_window": dp_window,
    "deep_analytic": deep_analytic,
    "frostman": frostman,
    "cli_mix": cli_mix,
}


def build(name: str, seed: int, size_name: str, out_dir: str) -> list[Item]:
    """The item cycle of one workload; the same seed gives the same inputs."""
    size = load_spec()["workloads"][name]["sizes"][size_name]
    rng = random.Random(f"{name}:{seed}")
    return GENERATORS[name](rng, size, out_dir)
