"""Recovering scale functions that realize a prescribed dimension.

For a target exponent s, the window bottom x is pushed as high as
possible subject to the model still having a cover of cost at most 1 by
sets with diameters in [x, delta].  Tabulating that sup over delta yields
a scale function whose dimension profile reproduces s; a family of them,
one per s, interpolates between the model's lower and upper estimates.

The search at one scale probes a ladder of window bottoms: the cap
delta/(-log delta), then the floors k * log delta for k = 2, 4, ...,
2**40 from the top down to the first feasible one, and bisects between
it and the rung above.  The true cost only falls as the bottom falls
(shrinking x only adds covers), but a route's computed upper bound need
not, and feasibility is read off that bound.  Where the route's bound is
known to fall too, up to a rounding slack
(:func:`scaledim.covers.upper_bound_slack`: points and Cantor schedules
under analytic routes), the deepest floor 2**40 * log delta is probed
right after the cap, and if it is infeasible by more than the slack the
scale is budget-exceeded after two probes.  Otherwise the floors are
walked as if that probe had not been made, so every point and error is
the walk's.

A family is computed scale-major: the outer loop runs over the scales,
the inner one over the exponents.  Every exponent at one scale probes
the same ladder, so each scale prepares its rungs once
(:func:`scaledim.covers.prepare`), evaluates them for every s and drops
them before the next scale.  Bisection windows depend on s and are
prepared for one evaluation.  The only links between rows are the
running max along the scales of one exponent and the lift across the
exponents at one scale, and both are at hand in this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .covers import CoverCost, ScaleWindow, prepare, upper_bound_slack
from .errors import BudgetError, ConfigError, InputError, ScaledimError
from .estimator import _bisect, dimension_profile
from .scalefun import InterpolatedScale, LogCorrected
from .setmodels import model_id

#: Deepest floor probed before declaring cost 1 unreachable, as a
#: multiple of log delta.  On routes whose upper bound falls with the
#: bottom it is probed right after the cap, and one clearly infeasible
#: evaluation there settles the scale; elsewhere the doubling search
#: reaches it in ~40 probes.  So a generous ceiling costs little and lets
#: highly inhomogeneous models push the window bottom many orders below
#: delta.
MAX_FLOOR_FACTOR = 2**40


@dataclass(frozen=True)
class PhiSPoint:
    """Feasibility sup at one scale.

    ``log_phi_s`` is certified feasible (a cover of cost at most 1 exists
    with diameters in [phi_s, delta]).  ``at_cap`` marks the ceiling
    delta/(-log delta); ``budget_exceeded`` marks scales where every floor
    down to ``MAX_FLOOR_FACTOR * log_delta`` is infeasible, whether the
    walk probed them all or the deepest one settled them, and scales where
    the walk met a DP move or state cap (a ``BudgetError``) before any
    feasible floor.  Such a point carries the last infeasible floor as
    ``log_phi_s``.
    """

    log_delta: float
    log_phi_s: float
    at_cap: bool
    budget_exceeded: bool


@dataclass(frozen=True)
class PhiSTable:
    """Tabulated feasibility sups for one exponent."""

    s: float
    model: str
    points: tuple[PhiSPoint, ...]
    dropped: tuple[float, ...]
    regressions: tuple[float, ...]

    def rows(self) -> list[tuple[float, float]]:
        """(log_delta, log_phi_s) rows, ascending log_delta."""
        return [(p.log_delta, p.log_phi_s) for p in self.points]

    def as_scale_function(self) -> InterpolatedScale:
        if len(self.points) < 2:
            raise InputError(
                f"need at least two usable scales to tabulate (got {len(self.points)})"
            )
        return InterpolatedScale(tuple(self.rows()), s=self.s, model_id=self.model)


def _phi_s_point(
    model,
    s: float,
    log_delta: float,
    ladder: dict[float, Callable[[float], CoverCost]],
    *,
    tol: float,
) -> PhiSPoint:
    """:func:`phi_s_at` whose cap and floor windows come from ``ladder``.

    ``ladder`` maps window bottoms to prepared windows of this scale; the
    cap and the floors (the deepest one included) are prepared into it on
    first use, so every exponent at this scale shares them.  Bisection
    probes depend on ``s`` and are prepared for one evaluation only.
    """
    if s < 0.0:
        raise InputError(f"s must be >= 0, got {s}")
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if not -log_delta > 3.0:
        raise InputError(
            f"scale too coarse: need -log delta > 3, got log delta = {log_delta:g}"
        )
    log_cap = log_delta - math.log(-log_delta)

    def cost(log_x: float, rung: bool = False) -> CoverCost:
        at = ladder.get(log_x)
        if at is None:
            at = prepare(model, ScaleWindow(log_x, log_delta))
            if rung:
                ladder[log_x] = at
        return at(s)

    def feasible(log_x: float, rung: bool = False) -> bool:
        return cost(log_x, rung).log_cost_upper <= 0.0

    if feasible(log_cap, rung=True):
        return PhiSPoint(log_delta, log_cap, True, False)

    # The true cost only falls as the bottom falls.  Where the route's
    # upper bound does too, up to a known slack, a deepest floor that is
    # infeasible by more than that slack settles every rung above it.  A
    # route that cannot resolve a window that deep raises; the walk below
    # then meets the same error unless a feasible floor comes first.
    slack = upper_bound_slack(model, s)
    if slack is not None:
        deepest = MAX_FLOOR_FACTOR * log_delta
        try:
            if cost(deepest, rung=True).log_cost_upper > slack:
                return PhiSPoint(log_delta, deepest, False, True)
        except ScaledimError:
            pass

    # expand downward to a certified-feasible floor
    lo = None
    hi = log_cap
    k = 2
    while k <= MAX_FLOOR_FACTOR:
        cand = k * log_delta
        try:
            if feasible(cand, rung=True):
                lo = cand
                break
        except BudgetError:  # a DP cap: every deeper window is larger still
            break
        hi = cand
        k *= 2
    if lo is None:
        return PhiSPoint(log_delta, hi, False, True)

    lo, _ = _bisect(feasible, lo, hi, tol)
    return PhiSPoint(log_delta, lo, False, False)


def phi_s_at(
    model,
    s: float,
    log_delta: float,
    *,
    tol: float = 0.05,
) -> PhiSPoint:
    """Sup of window bottoms x keeping cover cost at most 1 at one scale.

    Feasibility is monotone (shrinking x only adds covers), so the sup is
    located by bisection on log x in (deep floor, delta/(-log delta)].
    The probes go: the cap (feasible: the point is at the cap); then the
    doubling floors from the top down to the first feasible one (none
    down to ``MAX_FLOOR_FACTOR * log_delta``, or a floor whose cover DP
    raises ``BudgetError`` first: the scale is budget-exceeded),
    and bisection until the bracket is within ``tol`` or can no longer
    split in floats.  Any other error, and a ``BudgetError`` at the cap
    or in the bisection, propagates.  Where the route's upper bound falls
    with the bottom up to a known slack
    (:func:`scaledim.covers.upper_bound_slack`), the deepest floor is
    probed right after the cap: infeasible by more than the slack, it
    settles the scale as budget-exceeded, since no floor above it can
    then be feasible; feasible, near cost 1 or raising, it leaves the
    walk to decide, so the result is the walk's.
    Cost brackets that straddle 1 count as infeasible, so the returned
    value is always certified.  Windows are prepared on
    :func:`scaledim.covers.prepare`'s default routes.
    """
    return _phi_s_point(model, s, log_delta, {}, tol=tol)


def _phi_s_tables(
    model,
    s_values: Sequence[float],
    log_deltas: Sequence[float],
    *,
    tol: float,
) -> list[PhiSTable]:
    """One table per exponent in ``s_values`` (ascending), scale by scale.

    Each scale prepares its ladder of cap and floor windows once for all
    exponents and drops it before the next scale.  A table's rows take
    the running max along the scales (sound: a value feasible at a finer
    scale bottom stays feasible), and each row is lifted to the row of the
    previous exponent at its scale.
    """
    if not s_values:
        return []
    grid = sorted(set(float(x) for x in log_deltas))
    if not grid:
        raise ConfigError("scale grid is empty")
    kept: list[list[PhiSPoint]] = [[] for _ in s_values]
    dropped: list[list[float]] = [[] for _ in s_values]
    regressions: list[list[float]] = [[] for _ in s_values]
    running = [-math.inf] * len(s_values)
    for ld in grid:  # ascending log_delta = fine to coarse
        ladder: dict[float, Callable[[float], CoverCost]] = {}
        floor = -math.inf  # the previous exponent's row at this scale
        for i, s in enumerate(s_values):
            pt = _phi_s_point(model, s, ld, ladder, tol=tol)
            if pt.budget_exceeded:
                dropped[i].append(ld)
                continue
            if pt.log_phi_s + tol < running[i]:
                regressions[i].append(ld)
            if pt.log_phi_s < running[i]:
                pt = PhiSPoint(pt.log_delta, running[i], pt.at_cap, False)
            running[i] = pt.log_phi_s
            if pt.log_phi_s < floor:
                pt = PhiSPoint(pt.log_delta, floor, pt.at_cap, False)
            floor = pt.log_phi_s
            kept[i].append(pt)
    name = model_id(model)
    return [
        PhiSTable(
            s=s,
            model=name,
            points=tuple(kept[i]),
            dropped=tuple(dropped[i]),
            regressions=tuple(regressions[i]),
        )
        for i, s in enumerate(s_values)
    ]


def phi_s_function(
    model,
    s: float,
    log_deltas: Sequence[float],
    *,
    tol: float = 0.05,
) -> PhiSTable:
    """Tabulate :func:`phi_s_at` over a scale grid as a scale function.

    Raw sups are monotone in delta in exact arithmetic; computed rows are
    made monotone by a running max (sound: a value feasible at a finer
    scale bottom stays feasible), with genuine regressions beyond the
    bisection tol recorded as diagnostics.  Budget-exceeded scales are
    dropped from the table and reported.
    """
    (table,) = _phi_s_tables(model, [s], log_deltas, tol=tol)
    return table


def phi_s_family(
    model,
    s_grid: Sequence[float],
    log_deltas: Sequence[float],
    *,
    tol: float = 0.05,
) -> list[PhiSTable]:
    """Tables for several exponents, ordered consistently.

    Each table is :func:`phi_s_function`'s for its exponent, lifted: a
    bottom feasible at exponent s stays feasible at any t >= s (window
    diameters are below 1, so costs only shrink), so each row is raised to
    the row of the previous exponent at its scale.  This keeps the family
    pointwise ordered without giving up certification.
    """
    s_values = sorted(set(float(v) for v in s_grid))
    return _phi_s_tables(model, s_values, log_deltas, tol=tol)


@dataclass(frozen=True)
class InterpolationRow:
    """Verification outcome for one exponent."""

    s: float
    upper_estimate: float
    lower_estimate: float
    lower_target: float
    upper_ok: bool
    lower_ok: bool


@dataclass(frozen=True)
class InterpolationReport:
    """Whether the recovered family reproduces its prescribed exponents."""

    rows: tuple[InterpolationRow, ...]
    monotone_in_s: bool
    tables_ordered: bool
    lower_box_estimate: float
    passed: bool


def verify_interpolation(
    model,
    s_grid: Sequence[float],
    log_deltas: Sequence[float],
    *,
    tol: float = 1e-3,
    x_tol: float = 0.05,
) -> InterpolationReport:
    """Build the family and check its profiles land on the prescribed s.

    For each exponent the recovered scale function is fed back through
    the estimator; the upper estimate should land within 0.05 of s, the
    lower within 0.1 of min(s, lower box estimate),
    the upper estimates should be monotone across s, and the tables
    pointwise ordered.
    """
    tables = phi_s_family(model, s_grid, log_deltas, tol=x_tol)
    box_prof = dimension_profile(model, LogCorrected(), log_deltas, tol=tol)
    lower_box = box_prof.lower_estimate
    rows = []
    for tab in tables:
        lower_target = min(tab.s, lower_box)
        if len(tab.points) < 2:
            # Every scale blew the budget at this exponent (s below the
            # feasibility floor, typically): report the row as failed
            # rather than fabricating a scale function from nothing.
            rows.append(
                InterpolationRow(
                    s=tab.s,
                    upper_estimate=math.nan,
                    lower_estimate=math.nan,
                    lower_target=lower_target,
                    upper_ok=False,
                    lower_ok=False,
                )
            )
            continue
        fn = tab.as_scale_function()
        grid = [p.log_delta for p in tab.points]
        prof = dimension_profile(model, fn, grid, tol=tol)
        rows.append(
            InterpolationRow(
                s=tab.s,
                upper_estimate=prof.upper_estimate,
                lower_estimate=prof.lower_estimate,
                lower_target=lower_target,
                upper_ok=abs(prof.upper_estimate - tab.s) <= 0.05,
                lower_ok=abs(prof.lower_estimate - lower_target) <= 0.1,
            )
        )
    finite = [r for r in rows if math.isfinite(r.upper_estimate)]
    monotone = all(
        b.upper_estimate >= a.upper_estimate - 0.01
        for a, b in zip(finite, finite[1:])
    )
    ordered = True
    for ta, tb in zip(tables, tables[1:]):
        va = {p.log_delta: p.log_phi_s for p in ta.points}
        for p in tb.points:
            if p.log_delta in va and p.log_phi_s < va[p.log_delta] - 1e-9:
                ordered = False
    passed = monotone and ordered and all(r.upper_ok for r in rows)
    return InterpolationReport(
        rows=tuple(rows),
        monotone_in_s=monotone,
        tables_ordered=ordered,
        lower_box_estimate=lower_box,
        passed=passed,
    )
