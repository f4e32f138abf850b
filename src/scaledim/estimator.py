"""Critical exponents of cover costs, and dimension profiles over scales.

For a fixed window [phi(delta), delta] the log cover cost is nonincreasing
in the exponent s; the dimension estimate at scale delta is the s where it
crosses 0 (cost 1).  Because costs come as brackets, the crossing is
located twice: ``s_upper`` is a certified exponent with upper cost <= 1
(the dimension at this scale is at most s_upper), ``s_lower`` a certified
exponent with lower cost >= 1 (the dimension is at least s_lower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .covers import CoverCost, ScaleWindow, prepare
from .errors import ConfigError, IndeterminateError
from .scalefun import LogCorrected, PowerLaw, ScaleFunction
from .setmodels import ambient_dimension, model_id


@dataclass(frozen=True)
class CriticalExponent:
    """Certified bracket [s_lower, s_upper] for the crossing at one scale."""

    log_delta: float
    s_lower: float
    s_upper: float
    clamped_lower: bool  # no lower certificate above 0
    clamped_upper: bool  # upper cost still above 1 at the ambient cap
    evaluations: int

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.s_lower + self.s_upper)

    @property
    def width(self) -> float:
        return self.s_upper - self.s_lower


def critical_exponent(
    model,
    phi: ScaleFunction,
    log_delta: float,
    *,
    tol: float = 1e-3,
    oracle: str = "auto",
    s_max: Optional[float] = None,
    mass_level: Optional[int] = None,
) -> CriticalExponent:
    """Locate the cost-1 crossing at one scale, certified on both sides.

    Bisections run until the certified endpoint is within ``tol`` of the
    true crossing of each bound curve, or until the bracket's midpoint
    rounds onto an endpoint (a ``tol`` below the float spacing).  When
    even at the ambient cap the upper cost stays above 1 while the lower
    bound certifies nothing, the bracket is vacuous and an indeterminate
    error is raised.
    """
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    window = ScaleWindow(phi.eval_phi_log(log_delta), log_delta)
    s_cap = float(ambient_dimension(model)) if s_max is None else float(s_max)
    cost_at = prepare(model, window, oracle=oracle, mass_level=mass_level)
    cache: dict[float, CoverCost] = {}

    def costs(s: float) -> CoverCost:
        if s not in cache:
            cache[s] = cost_at(s)
        return cache[s]

    # upper curve: smallest s with log upper cost <= 0
    clamped_upper = False
    if costs(0.0).log_cost_upper <= 0.0:
        s_upper = 0.0
    elif costs(s_cap).log_cost_upper > 0.0:
        s_upper = s_cap
        clamped_upper = True
    else:
        bad, good = 0.0, s_cap  # invariant: upper(bad) > 0 >= upper(good)
        while good - bad > tol:
            mid = 0.5 * (bad + good)
            if mid == bad or mid == good:
                break  # tol is below the float spacing of the bracket
            if costs(mid).log_cost_upper <= 0.0:
                good = mid
            else:
                bad = mid
        s_upper = good

    # lower curve: largest s with log lower cost >= 0
    clamped_lower = False
    if costs(s_cap).log_cost_lower >= 0.0:
        s_lower = s_cap
    elif costs(0.0).log_cost_lower < 0.0:
        s_lower = 0.0
        clamped_lower = True
    else:
        good, bad = 0.0, s_cap  # invariant: lower(good) >= 0 > lower(bad)
        while bad - good > tol:
            mid = 0.5 * (bad + good)
            if mid == bad or mid == good:
                break  # tol is below the float spacing of the bracket
            if costs(mid).log_cost_lower >= 0.0:
                good = mid
            else:
                bad = mid
        s_lower = good

    if clamped_upper and s_lower <= tol:
        probe = costs(s_cap)
        raise IndeterminateError(
            "cost bracket straddles 1 over the whole exponent range "
            f"[0, {s_cap:g}] at log_delta={log_delta:.6g}",
            bracket=(probe.log_cost_lower, probe.log_cost_upper),
        )
    s_lower = min(s_lower, s_upper)
    return CriticalExponent(
        log_delta=log_delta,
        s_lower=s_lower,
        s_upper=s_upper,
        clamped_lower=clamped_lower,
        clamped_upper=clamped_upper,
        evaluations=len(cache),
    )


@dataclass(frozen=True)
class DimensionProfile:
    """Critical exponents along a scale grid, plus tail estimates.

    The headline numbers come from the finest third of the grid:
    ``upper_estimate`` is the largest certified s_upper there (safe for a
    limsup-type dimension), ``lower_estimate`` the smallest certified
    s_lower (safe for a liminf-type one).
    """

    model: str
    phi: ScaleFunction
    points: tuple[CriticalExponent, ...]
    lower_estimate: float
    upper_estimate: float
    tail_size: int
    method: str = "tail-extrema(third)"

    def to_rows(self) -> list[tuple[float, float, float]]:
        """(log2_delta, s_lower, s_upper) rows, coarse to fine."""
        ln2 = math.log(2.0)
        return [(p.log_delta / ln2, p.s_lower, p.s_upper) for p in self.points]


def dimension_profile(
    model,
    phi: ScaleFunction,
    log_deltas: Sequence[float],
    *,
    tol: float = 1e-3,
    oracle: str = "auto",
    mass_level: Optional[int] = None,
    include_preferred_scales: bool = True,
) -> DimensionProfile:
    """Run :func:`critical_exponent` along a grid of scales.

    Models built with characteristic checkpoint scales advertise them via
    ``preferred_log_scales``; these are folded into the grid (within its
    range) so profiles do not step over the scales where the model's
    behaviour switches.
    """
    grid = sorted(set(float(x) for x in log_deltas), reverse=True)
    if not grid:
        raise ConfigError("scale grid is empty")
    if include_preferred_scales:
        preferred = getattr(model, "preferred_log_scales", ())
        for ld in preferred:
            if grid[-1] <= ld <= grid[0]:
                grid.append(float(ld))
        grid = sorted(set(grid), reverse=True)
    points = tuple(
        critical_exponent(
            model, phi, ld, tol=tol, oracle=oracle, mass_level=mass_level
        )
        for ld in grid
    )
    tail_size = max(1, len(points) // 3)
    tail = points[-tail_size:]
    return DimensionProfile(
        model=model_id(model),
        phi=phi,
        points=points,
        lower_estimate=min(p.s_lower for p in tail),
        upper_estimate=max(p.s_upper for p in tail),
        tail_size=tail_size,
    )


def theta_profile(
    model,
    thetas: Sequence[float],
    log_deltas: Sequence[float],
    *,
    tol: float = 1e-3,
    oracle: str = "auto",
) -> dict[float, DimensionProfile]:
    """Dimension profiles across a family of power-law windows.

    theta = 1 is mapped to the log-corrected window, the usual stand-in
    for the box-counting endpoint (a bare theta = 1 window has zero width
    and is not admissible).
    """
    out: dict[float, DimensionProfile] = {}
    for theta in thetas:
        phi: ScaleFunction = LogCorrected() if theta == 1.0 else PowerLaw(theta)
        out[theta] = dimension_profile(
            model, phi, log_deltas, tol=tol, oracle=oracle
        )
    return out


def box_profile(
    model,
    log_deltas: Sequence[float],
    *,
    tol: float = 1e-3,
    oracle: str = "auto",
) -> DimensionProfile:
    """Box-counting profile: the log-corrected window endpoint."""
    return dimension_profile(model, LogCorrected(), log_deltas, tol=tol, oracle=oracle)
