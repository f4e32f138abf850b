"""Scale functions that set the finest diameter allowed in a cover.

A scale function ``phi`` maps a scale ``delta`` to the smallest diameter
``phi(delta) <= delta`` that a cover evaluated at ``delta`` may use, so the
admissible diameters form the window ``[phi(delta), delta]``.  Choosing
``phi(delta) = delta ** (1/theta)`` sweeps between box-like behaviour
(theta near 1) and Hausdorff-like behaviour (theta near 0); the
log-corrected choice ``delta / (-log delta)`` is the standard stand-in for
the box-counting endpoint.

Every evaluation is available on the natural-log scale
(:meth:`ScaleFunction.eval_phi_log`) because the interesting scales go far
below the smallest positive double.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence

from .errors import ConfigError, DomainError, InvalidFunctionError

_ADMISSIBILITY_EPS = 1e-12


class ScaleFunction:
    """Base class; subclasses provide ``_log_phi`` and a ``domain_upper``."""

    #: subclasses backed by a finite table allow queries at the domain edge
    _domain_inclusive = False

    domain_upper: float

    def _log_phi(self, log_delta: float) -> float:
        raise NotImplementedError

    def _log_domain_upper(self) -> float:
        # tables at scales below exp(-745) underflow linear domain_upper;
        # subclasses stash the exact log bound in _log_domain instead
        stashed = getattr(self, "_log_domain", None)
        return math.log(self.domain_upper) if stashed is None else stashed

    def _check_domain(self, log_delta: float) -> None:
        if math.isnan(log_delta) or math.isinf(log_delta):
            raise DomainError(f"log_delta must be finite, got {log_delta}")
        bound = self._log_domain_upper()
        if self._domain_inclusive:
            if log_delta > bound + _ADMISSIBILITY_EPS:
                raise DomainError(
                    f"scale log {log_delta:.6g} above domain upper bound {bound:.6g}"
                )
        elif log_delta >= bound:
            raise DomainError(
                f"scale log {log_delta:.6g} not below domain upper bound {bound:.6g}"
            )

    def eval_phi_log(self, log_delta: float) -> float:
        """log phi(delta) for log_delta = log(delta); the preferred entry point."""
        self._check_domain(log_delta)
        value = self._log_phi(log_delta)
        if math.isnan(value) or value == math.inf:
            raise InvalidFunctionError(
                f"scale function produced invalid log value {value} at {log_delta}"
            )
        if value > log_delta + _ADMISSIBILITY_EPS:
            raise InvalidFunctionError(
                f"scale function exceeds delta at log_delta={log_delta:.6g}: "
                f"{value:.6g} > {log_delta:.6g}"
            )
        return min(value, log_delta)


@dataclass(frozen=True)
class PowerLaw(ScaleFunction):
    """phi(delta) = delta ** (1/theta) for theta in (0, 1].

    theta = 1 degenerates to phi(delta) = delta (a single-scale window);
    it is accepted but fails the vanishing-ratio admissibility check.
    """

    theta: float
    domain_upper: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise DomainError(f"theta must be in (0, 1], got {self.theta}")
        if not 0.0 < self.domain_upper <= 1.0:
            raise DomainError(f"domain_upper must be in (0, 1], got {self.domain_upper}")

    def _log_phi(self, log_delta: float) -> float:
        return log_delta / self.theta


@dataclass(frozen=True)
class LogCorrected(ScaleFunction):
    """phi(delta) = delta / (-log delta); the box-counting endpoint window."""

    domain_upper: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.domain_upper <= math.exp(-1.0):
            raise DomainError(
                "LogCorrected needs domain_upper <= 1/e so that phi <= delta, "
                f"got {self.domain_upper}"
            )

    def _log_phi(self, log_delta: float) -> float:
        return log_delta - math.log(-log_delta)


@dataclass(frozen=True)
class StretchedExponential(ScaleFunction):
    """phi(delta) = exp(-delta ** (-c)) for c > 0; shrinks faster than any power."""

    c: float
    domain_upper: float = field(default=-1.0)  # sentinel; resolved in __post_init__

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise DomainError(f"c must be positive, got {self.c}")
        if self.domain_upper == -1.0:
            object.__setattr__(self, "domain_upper", self._default_domain())
        if not 0.0 < self.domain_upper <= 1.0:
            raise DomainError(f"domain_upper must be in (0, 1], got {self.domain_upper}")
        # admissibility at the domain edge: exp(-delta^-c) <= delta
        t = -math.log(self.domain_upper)
        if t > 0 and math.exp(self.c * t) < t - _ADMISSIBILITY_EPS:
            raise InvalidFunctionError(
                f"StretchedExponential(c={self.c}) violates phi <= delta just "
                f"below domain_upper={self.domain_upper}"
            )

    def _default_domain(self) -> float:
        # largest Y <= 1 with exp(t*c) >= t for every t >= -log(Y)
        # (t parametrizes delta = exp(-t)); for c >= 1/e that is Y = 1.
        if self.c >= 1.0 / math.e:
            return 1.0
        # exp(c t) = t has two roots; admissibility holds beyond the larger one
        lo, hi = 1.0 / self.c, 700.0 / self.c
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if math.exp(self.c * mid) >= mid:
                hi = mid
            else:
                lo = mid
        return math.exp(-hi)

    def _log_phi(self, log_delta: float) -> float:
        exponent = -self.c * log_delta
        if exponent > 700.0:
            raise DomainError(
                f"delta ** (-c) overflows the representable log range at "
                f"log_delta={log_delta:.6g}"
            )
        return -math.exp(exponent)


@dataclass(frozen=True)
class Tabulated(ScaleFunction):
    """Scale function given by breakpoints, interpolated linearly in log-log.

    ``log_breakpoints`` is a sorted tuple of (log_delta, log_value) pairs.
    Queries are restricted to the closed breakpoint range; both endpoints
    are valid scales.
    """

    log_breakpoints: tuple[tuple[float, float], ...]
    domain_upper: float = field(default=-1.0)

    _domain_inclusive = True

    def __post_init__(self) -> None:
        pts = tuple((float(a), float(b)) for a, b in self.log_breakpoints)
        if len(pts) < 1:
            raise InvalidFunctionError("Tabulated needs at least one breakpoint")
        for i, (ld, lv) in enumerate(pts):
            if math.isnan(ld) or math.isnan(lv) or lv == math.inf:
                raise InvalidFunctionError(f"non-finite breakpoint {pts[i]}")
            if lv == -math.inf:
                raise InvalidFunctionError("breakpoint value must be positive")
            if lv > ld + _ADMISSIBILITY_EPS:
                raise InvalidFunctionError(
                    f"breakpoint value exceeds delta: log value {lv:.6g} > "
                    f"log delta {ld:.6g}"
                )
        for (ld0, lv0), (ld1, lv1) in zip(pts, pts[1:]):
            if not ld1 > ld0:
                raise InvalidFunctionError("breakpoint deltas must strictly increase")
            if lv1 < lv0 - _ADMISSIBILITY_EPS:
                raise InvalidFunctionError(
                    "breakpoint values must be nondecreasing in delta"
                )
        object.__setattr__(self, "log_breakpoints", pts)
        if self.domain_upper == -1.0:
            log_bound = min(pts[-1][0], 0.0)
            object.__setattr__(self, "_log_domain", log_bound)
            object.__setattr__(self, "domain_upper", math.exp(log_bound))

    @classmethod
    def from_linear(cls, breakpoints: Sequence[tuple[float, float]]) -> "Tabulated":
        """Build from (delta, value) pairs in linear scale."""
        pairs = []
        for delta, value in breakpoints:
            if not delta > 0.0:
                raise InvalidFunctionError(f"breakpoint delta must be positive: {delta}")
            if not value > 0.0:
                raise InvalidFunctionError(
                    f"breakpoint value must be positive: {value} at delta={delta}"
                )
            if value > delta * (1.0 + 1e-12):
                raise InvalidFunctionError(
                    f"breakpoint value {value} exceeds delta {delta}"
                )
            pairs.append((math.log(delta), math.log(value)))
        pairs.sort()
        return cls(tuple(pairs))

    def _log_phi(self, log_delta: float) -> float:
        pts = self.log_breakpoints
        lds = [p[0] for p in pts]
        if log_delta < lds[0] - _ADMISSIBILITY_EPS:
            raise DomainError(
                f"log_delta {log_delta:.6g} below tabulated range start {lds[0]:.6g}"
            )
        if log_delta <= lds[0]:
            return pts[0][1]
        if log_delta >= lds[-1]:
            return pts[-1][1]
        i = bisect_right(lds, log_delta)
        (x0, y0), (x1, y1) = pts[i - 1], pts[i]
        t = (log_delta - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)


@dataclass(frozen=True)
class MinFamily(ScaleFunction):
    """Pointwise minimum of member scale functions.

    ``active_below`` optionally restricts each member to scales
    ``log_delta <= active_below[i]`` so that finer members switch on only
    at finer scales (the construction used for the Hausdorff endpoint).
    """

    members: tuple[ScaleFunction, ...]
    active_below: Optional[tuple[float, ...]] = None
    domain_upper: float = field(default=-1.0)

    _domain_inclusive = True

    def __post_init__(self) -> None:
        if not self.members:
            raise InvalidFunctionError("MinFamily needs at least one member")
        if self.active_below is not None and len(self.active_below) != len(self.members):
            raise InvalidFunctionError("active_below must match members in length")
        if self.domain_upper == -1.0:
            object.__setattr__(
                self,
                "_log_domain",
                min(m._log_domain_upper() for m in self.members),
            )
            object.__setattr__(
                self, "domain_upper", min(m.domain_upper for m in self.members)
            )

    def _log_phi(self, log_delta: float) -> float:
        values = []
        for i, member in enumerate(self.members):
            if self.active_below is not None and log_delta > self.active_below[i]:
                continue
            try:
                values.append(member.eval_phi_log(log_delta))
            except DomainError:
                continue
        if not values:
            raise DomainError(
                f"no MinFamily member is defined at log_delta={log_delta:.6g}"
            )
        return min(values)


@dataclass(frozen=True)
class InterpolatedScale(ScaleFunction):
    """Scale function tabulated from an exponent-targeted window construction.

    Wraps a :class:`Tabulated` table together with the exponent ``s`` it was
    built for and the id of the model it belongs to.
    """

    table: Tabulated
    s: float
    model_id: str
    domain_upper: float = field(default=-1.0)

    _domain_inclusive = True

    def __post_init__(self) -> None:
        if self.domain_upper == -1.0:
            object.__setattr__(self, "_log_domain", self.table._log_domain_upper())
            object.__setattr__(self, "domain_upper", self.table.domain_upper)

    def _log_phi(self, log_delta: float) -> float:
        return self.table._log_phi(log_delta)


# ---------------------------------------------------------------------------
# grid-based diagnostics


def _sorted_desc(log_deltas: Sequence[float]) -> list[float]:
    return sorted(log_deltas, reverse=True)


def exponent_pair(phi: ScaleFunction, log_deltas: Sequence[float]) -> tuple[float, float]:
    """Empirical (theta1, theta2) from ratios log delta / log phi(delta).

    The ratios are taken over the finest half of the grid; theta1 is their
    minimum and theta2 their maximum, clamped into [0, 1].  For a pure power
    law the ratio is constant, so both values coincide with its exponent.
    """
    if len(log_deltas) < 8:
        raise ConfigError(f"exponent_pair needs >= 8 grid points, got {len(log_deltas)}")
    grid = _sorted_desc(log_deltas)
    tail = grid[len(grid) // 2 :]
    ratios = []
    for ld in tail:
        lphi = phi.eval_phi_log(ld)
        if lphi >= 0.0:
            raise DomainError(f"exponent_pair needs phi(delta) < 1 at log_delta={ld}")
        ratios.append(ld / lphi)
    theta1 = min(ratios)
    theta2 = max(ratios)
    clamp = lambda v: min(1.0, max(0.0, v))
    return clamp(theta1), clamp(theta2)


def check_admissible(phi: ScaleFunction, log_deltas: Sequence[float]) -> dict:
    """Sample the admissibility requirements of a scale function on a grid.

    Returns a report dict with one boolean per requirement: positivity,
    phi(delta) <= delta, monotonicity along the grid, and the ratio
    phi(delta)/delta dropping below 1e-3 by the finest grid point.
    """
    grid = _sorted_desc(log_deltas)
    values = [phi.eval_phi_log(ld) for ld in grid]
    positive = all(v > -math.inf for v in values)
    below_delta = all(v <= ld + _ADMISSIBILITY_EPS for v, ld in zip(values, grid))
    monotone = all(v0 >= v1 - _ADMISSIBILITY_EPS for v0, v1 in zip(values, values[1:]))
    ratio_log = values[-1] - grid[-1]
    vanishing = ratio_log < math.log(1e-3)
    return {
        "positive": positive,
        "below_delta": below_delta,
        "monotone": monotone,
        "ratio_vanishes": vanishing,
        "final_log_ratio": ratio_log,
        "admissible": positive and below_delta and monotone and vanishing,
    }


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of a sufficient-condition comparison between scale functions."""

    satisfied: bool
    label: str
    witness: Optional[tuple[float, float]]  # (alpha, log_delta) of a violation
    thresholds: tuple[tuple[float, Optional[float]], ...]  # per alpha


def _threshold_scan(
    grid: list[float], ok_flags: list[bool]
) -> tuple[bool, Optional[float], Optional[float]]:
    """Locate the coarsest scale below which a condition holds on the grid.

    The grid is sorted coarse-to-fine.  The condition counts as satisfied if
    the finest quarter of the grid is violation-free; the threshold is the
    scale just below the last (finest) violation.
    """
    n = len(grid)
    last_bad = None
    for i, ok in enumerate(ok_flags):
        if not ok:
            last_bad = i
    if last_bad is None:
        return True, None, None
    quarter_start = (3 * n) // 4
    if last_bad >= quarter_start or last_bad == n - 1:
        return False, grid[last_bad], None
    return True, None, grid[last_bad + 1]


def _compare(
    alphas: Sequence[float], log_deltas: Sequence[float], holds
) -> ComparisonReport:
    """Scan the grid once per alpha with ``holds(alpha, log_delta)``.

    Scales where ``holds`` meets a :class:`DomainError` are skipped; each
    alpha needs at least 4 usable scales.  The report carries the first
    violating (alpha, log_delta) and each alpha's threshold.
    """
    grid = _sorted_desc(log_deltas)
    thresholds = []
    witness = None
    for alpha in alphas:
        if not alpha > 1.0:
            raise DomainError(f"comparison exponents must exceed 1, got {alpha}")
        flags = []
        kept_grid = []
        for ld in grid:
            try:
                flags.append(holds(alpha, ld))
            except DomainError:
                continue
            kept_grid.append(ld)
        if len(kept_grid) < 4:
            raise ConfigError("comparison grid leaves fewer than 4 usable scales")
        ok, bad_ld, thr = _threshold_scan(kept_grid, flags)
        thresholds.append((alpha, thr))
        if not ok and witness is None:
            witness = (alpha, bad_ld)
    all_ok = witness is None
    label = (
        "sufficient-condition satisfied" if all_ok else "sufficient-condition violated"
    )
    return ComparisonReport(all_ok, label, witness, tuple(thresholds))


def precedes(
    phi1: ScaleFunction,
    phi: ScaleFunction,
    alphas: Sequence[float],
    log_deltas: Sequence[float],
) -> ComparisonReport:
    """Sufficient-condition test that phi1 sits below phi in window order.

    Checks, for each alpha > 1, that log phi1(delta**alpha) <=
    (1/alpha) * log phi(delta) on all sufficiently fine grid scales.
    A failure of the test does not disprove the ordering (the condition is
    sufficient only), which the report label spells out.
    """

    def holds(alpha: float, ld: float) -> bool:
        lhs = phi1.eval_phi_log(alpha * ld)
        rhs = phi.eval_phi_log(ld) / alpha
        return lhs <= rhs + _ADMISSIBILITY_EPS

    return _compare(alphas, log_deltas, holds)


def equivalent(
    phi1: ScaleFunction,
    phi: ScaleFunction,
    alphas: Sequence[float],
    log_deltas: Sequence[float],
) -> ComparisonReport:
    """Two-sided sufficient-condition test that phi1 and phi induce the
    same dimension family:

        (phi(delta**alpha))**alpha <= phi1(delta) <= (phi(delta**(1/alpha)))**(1/alpha)

    for every alpha > 1 on all sufficiently fine grid scales.
    """

    def holds(alpha: float, ld: float) -> bool:
        mid = phi1.eval_phi_log(ld)
        lower = alpha * phi.eval_phi_log(alpha * ld)
        upper = phi.eval_phi_log(ld / alpha) / alpha
        return lower <= mid + _ADMISSIBILITY_EPS and mid <= upper + _ADMISSIBILITY_EPS

    return _compare(alphas, log_deltas, holds)


# ---------------------------------------------------------------------------
# serialization

#: Every serializable scale function under its ``variant``, used in both
#: directions.
_VARIANTS = {
    "power_law": PowerLaw,
    "log_corrected": LogCorrected,
    "stretched_exp": StretchedExponential,
    "tabulated": Tabulated,
    "min_family": MinFamily,
    "interpolated": InterpolatedScale,
}

#: How ``scale_function_from_dict`` reads each parameter, by field name.
_PARAM_DECODERS = {
    "theta": float,
    "c": float,
    "s": float,
    "model_id": str,
    "log_breakpoints": lambda v: tuple(tuple(p) for p in v),
    "table": lambda v: Tabulated(tuple(tuple(p) for p in v)),
    "members": lambda v: tuple(scale_function_from_dict(m) for m in v),
    "active_below": lambda v: tuple(v) if v else None,
}


def _plain(value):
    """A parameter in JSON form: scale functions as dicts, tuples as lists."""
    if isinstance(value, ScaleFunction):
        return scale_function_to_dict(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def scale_function_to_dict(phi: ScaleFunction) -> dict:
    """``variant``, every field but ``domain_upper`` as ``params``, and
    ``domain_upper``.  An interpolated scale writes its table's log pairs
    in place of the table; a tabulated one adds linear pairs when they are
    representable."""
    variant = next((name for name, cls in _VARIANTS.items() if type(phi) is cls), None)
    if variant is None:
        raise ConfigError(f"cannot serialize scale function of type {type(phi).__name__}")
    params = {f.name: _plain(getattr(phi, f.name)) for f in fields(phi)}
    del params["domain_upper"]
    if isinstance(phi, InterpolatedScale):
        params["log_breakpoints"] = params.pop("table")["params"]["log_breakpoints"]
    elif isinstance(phi, Tabulated) and phi.log_breakpoints[0][1] > -700.0:
        params["breakpoints"] = [
            [math.exp(ld), math.exp(lv)] for ld, lv in phi.log_breakpoints
        ]
    return {"variant": variant, "params": params, "domain_upper": phi.domain_upper}


def scale_function_from_dict(data: dict) -> ScaleFunction:
    """Inverse of ``scale_function_to_dict``; a tabulated spec may give
    linear ``breakpoints`` instead of ``log_breakpoints``."""
    try:
        cls = _VARIANTS[data["variant"]]
    except (KeyError, TypeError):
        raise ConfigError(f"scale function spec needs a known 'variant', got {data!r}")
    params = data.get("params", {})
    if cls is Tabulated and "log_breakpoints" not in params:
        return Tabulated.from_linear([tuple(p) for p in params["breakpoints"]])
    if cls is InterpolatedScale:
        params = {**params, "table": params["log_breakpoints"]}
    kwargs = {
        f.name: _PARAM_DECODERS[f.name](params[f.name])
        for f in fields(cls)
        if f.name in _PARAM_DECODERS and (f.name in params or f.default is MISSING)
    }
    # the closed forms take domain_upper as a parameter; the others derive it
    if cls in (PowerLaw, LogCorrected, StretchedExponential) and "domain_upper" in data:
        kwargs["domain_upper"] = float(data["domain_upper"])
    return cls(**kwargs)
