"""Cover costs over a window of allowed diameters.

The central quantity: for a set model, an exponent ``s``, and a window
``[lo, hi]`` of allowed interval lengths, the minimum of ``sum |U_i| ** s``
over covers of the set whose pieces all have lengths inside the window.
Dimensions are read off from where this cost crosses 1 as ``s`` varies,
so one window is evaluated at many exponents: :func:`prepare` turns a
(model, window) pair into a function of ``s`` and does the work that
does not depend on ``s`` once, on its first call.  On the DP route that is
the skeleton and the cover graph, and each ``s`` is one value sweep; for
a Cantor schedule it is the single-level covers and the natural-measure
bands as lines in ``s``, and each ``s`` is one min and one max over them;
for a product it is the marginal counts.

Costs are carried as natural logs throughout, and every routine returns a
:class:`CoverCost` bracket ``log_cost_lower <= log_cost_upper`` so that
downstream root finding can certify both sides.  Routines:

* :func:`cover_cost_exhaustive` -- brute-force partition search over a
  finite diameter grid; the reference oracle for small point sets.
* :func:`cover_cost_dp` -- exact minimum over a materialized skeleton for
  ``s in [0, 1]``: a graph of reachable cover fronts, built once per
  window as integer-indexed rows of moves, and a dynamic-programming
  sweep over it per ``s``.
* :func:`cover_cost_cantor` -- single-level covers of a Cantor schedule,
  with a natural-measure lower bound; works at symbolic depths.  Both
  bounds are extrema of lines in ``s``.
* :func:`cover_cost_sequence` -- closed-form two-scale covers of the
  sequence set {n ** -p}.
* :func:`cover_cost_grid`, :func:`cover_cost_point`,
  :func:`combine_union`, :func:`cover_cost_product` -- the remaining model
  kinds.
* :func:`prepare` dispatches on the model kind and :func:`cover_cost` is
  one evaluation of it.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import BudgetError, DomainError, InputError, ResolutionError
from .logspace import LOG2, log_add, log_sum
from .setmodels import (
    CantorSchedule,
    HolderImage,
    PointSet,
    ProductModel,
    SequenceSet,
    Skeleton,
    UniformGrid,
    UnionModel,
    skeleton,
)

_LINEAR_LOG_FLOOR = -680.0  # below this, exp() underflows and the DP is off limits
_STATE_CAP = 500_000  # cover-graph states before the DP gives up
# cover-graph moves before the DP gives up: a move costs 130-150 bytes of
# resident memory while the graph is built (0.2M-3.7M-move graphs), so a
# build that fails here stays under about 0.8 GB
_MOVE_CAP = 5_000_000
_TOL = 1e-12


@dataclass(frozen=True)
class ScaleWindow:
    """Allowed interval lengths [lo, hi], stored as natural logs.

    ``linear_lo`` / ``linear_hi`` optionally pin the exact linear values
    (set by :meth:`from_linear`), so that shallow windows survive the
    log round trip bit for bit.
    """

    log_lo: float
    log_hi: float
    linear_lo: Optional[float] = None
    linear_hi: Optional[float] = None

    def __post_init__(self) -> None:
        if math.isnan(self.log_lo) or math.isnan(self.log_hi):
            raise DomainError("window bounds must not be NaN")
        if self.log_lo == -math.inf or self.log_hi == math.inf:
            raise DomainError(
                f"window bounds must be finite logs, got "
                f"[{self.log_lo}, {self.log_hi}]"
            )
        if self.log_lo > self.log_hi + _TOL:
            raise DomainError(
                f"window is empty: log lo {self.log_lo:.6g} above "
                f"log hi {self.log_hi:.6g}"
            )
        for hint, log_val in ((self.linear_lo, self.log_lo), (self.linear_hi, self.log_hi)):
            if hint is not None and abs(math.log(hint) - log_val) > 1e-9:
                raise DomainError(
                    f"linear hint {hint} inconsistent with log value {log_val:.6g}"
                )

    @classmethod
    def from_linear(cls, lo: float, hi: float) -> "ScaleWindow":
        if not 0.0 < lo <= hi:
            raise DomainError(f"need 0 < lo <= hi, got [{lo}, {hi}]")
        return cls(math.log(lo), math.log(hi), linear_lo=lo, linear_hi=hi)

    @property
    def lo(self) -> float:
        return self.linear_lo if self.linear_lo is not None else math.exp(self.log_lo)

    @property
    def hi(self) -> float:
        return self.linear_hi if self.linear_hi is not None else math.exp(self.log_hi)

    def contains_log(self, log_len: float) -> bool:
        return self.log_lo - _TOL <= log_len <= self.log_hi + _TOL

    def linear_representable(self) -> bool:
        return self.log_lo > _LINEAR_LOG_FLOOR


@dataclass(frozen=True)
class CoverCost:
    """Two-sided bracket on a log cover cost, tagged with its origin.

    ``pieces`` optionally holds an explicit cover as (start, length) pairs
    witnessing the upper bound.
    """

    log_cost_lower: float
    log_cost_upper: float
    method: str
    pieces: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        if math.isnan(self.log_cost_lower) or math.isnan(self.log_cost_upper):
            raise DomainError("cover cost bounds must not be NaN")
        if self.log_cost_lower > self.log_cost_upper + 1e-9:
            raise DomainError(
                f"cover cost bracket inverted: lower {self.log_cost_lower:.6g} "
                f"above upper {self.log_cost_upper:.6g}"
            )

    @property
    def exact(self) -> bool:
        return self.log_cost_lower == self.log_cost_upper


def _validate_exponent(s: float, upper: float = 1.0) -> None:
    if math.isnan(s) or not 0.0 <= s <= upper:
        raise DomainError(f"exponent s must be in [0, {upper:g}], got {s}")


# ---------------------------------------------------------------------------
# exhaustive oracle


def cover_cost_exhaustive(
    points: Sequence[float],
    window: ScaleWindow,
    s: float,
    diameters: Sequence[float],
) -> CoverCost:
    """Reference oracle: try every partition of the points into runs.

    Each run of consecutive points is covered by one interval whose
    diameter is the smallest grid value that fits the run (at least the
    run's span and at least lo).  Capped at 8 points and 32 grid diameters
    so the 2**(n-1) partitions stay cheap.  Exact whenever single-interval-
    per-run covers are optimal, which holds for s <= 1 when the grid
    contains the relevant spans.
    """
    pts = sorted(float(x) for x in points)
    if not 1 <= len(pts) <= 8:
        raise InputError(f"exhaustive oracle handles 1..8 points, got {len(pts)}")
    ds = sorted(set(float(d) for d in diameters))
    if not 1 <= len(ds) <= 32:
        raise InputError(f"exhaustive oracle handles 1..32 diameters, got {len(ds)}")
    lo, hi = window.lo, window.hi
    for d in ds:
        if d < lo * (1.0 - 1e-12) or d > hi * (1.0 + 1e-12):
            raise InputError(f"diameter {d} outside window [{lo}, {hi}]")
    n = len(pts)
    best = math.inf
    best_mask = None
    for mask in range(1 << (n - 1)):
        total = 0.0
        start = 0
        feasible = True
        for i in range(n):
            if i < n - 1 and not (mask >> i) & 1:
                continue
            span = pts[i] - pts[start]
            need = span if span > lo else lo
            j = bisect_left(ds, need)
            if j == len(ds):
                feasible = False
                break
            total += ds[j] ** s
            start = i + 1
        if feasible and total < best:
            best = total
            best_mask = mask
    if best_mask is None:
        raise InputError("no feasible cover: some point gap exceeds every diameter")
    pieces = []
    start = 0
    for i in range(n):
        if i < n - 1 and not (best_mask >> i) & 1:
            continue
        span = pts[i] - pts[start]
        need = span if span > lo else lo
        d = ds[bisect_left(ds, need)]
        pieces.append((pts[start], d))
        start = i + 1
    log_best = math.log(best)
    return CoverCost(log_best, log_best, "exhaustive", tuple(pieces))


# ---------------------------------------------------------------------------
# exact DP on a materialized skeleton


def _validate_skeleton(items: Skeleton) -> Skeleton:
    if not items:
        raise InputError("skeleton is empty")
    norm = [(float(a), float(b)) for a, b in items]
    for a, b in norm:
        if math.isnan(a) or math.isnan(b) or b < a:
            raise InputError(f"bad skeleton item ({a}, {b})")
    for (_, b0), (a1, _) in zip(norm, norm[1:]):
        if a1 < b0 - 1e-15:
            raise InputError("skeleton items must be sorted and disjoint")
    return norm


def _require_linear(window: ScaleWindow) -> None:
    if not window.linear_representable():
        raise ResolutionError(
            "window floor is below the representable linear range; "
            "use an analytic cover routine instead of the DP"
        )


class _CoverGraph:
    """Reachable cover fronts of one skeleton under one window, stored flat.

    States are the left endpoints of a possible next cover interval,
    numbered by decreasing position: ``positions[i]`` is state ``i``, the
    start is the last state and index ``len(positions)`` means everything
    is covered.  ``rows[i]`` lists state ``i``'s moves as (length,
    successor index) pairs, one per successor with its shortest length;
    every move goes right, so every successor has a smaller index.
    Nothing here depends on ``s``, so one graph serves every exponent.
    """

    def __init__(self, items: Skeleton, window: ScaleWindow) -> None:
        items = _validate_skeleton(items)
        _require_linear(window)
        lo, hi = window.lo, window.hi
        starts = [a for a, _ in items]
        ends = [b for _, b in items]
        n = len(items)

        def next_uncovered(covered_end: float) -> Optional[float]:
            k = bisect_right(starts, covered_end)
            if k > 0 and ends[k - 1] > covered_end:
                return covered_end  # strictly inside item k-1
            return starts[k] if k < n else None

        # the front after a move that ends at an item's end is the same
        # from every state, so it is looked up once per item
        after_end = [next_uncovered(b) for b in ends]
        ftol = hi * 1e-12  # absorb float drift in accumulated endpoints

        # depth-first search; each state maps its successors (None once
        # everything is covered) to the shortest move length reaching them
        x0 = starts[0]
        edges: dict[float, dict] = {x0: {}}
        stack = [x0]
        moves = 0
        while stack:
            x = stack.pop()
            cands: dict[Optional[float], float] = {}
            reach = x + hi
            after_lo = next_uncovered(x + lo)
            j = bisect_left(ends, x)  # first item with material at or beyond x
            while j < n and starts[j] <= reach:
                b = ends[j]
                if b > reach + ftol:  # partial reach into item j, the last move
                    nxt, length = next_uncovered(reach), hi
                    j = n
                else:
                    span = b - x
                    if span >= lo:  # end at the item
                        nxt, length = after_end[j], (hi if hi < span else span)
                    else:
                        nxt, length = after_lo, lo
                    j += 1
                prev = cands.get(nxt)
                if prev is None or length < prev:
                    cands[nxt] = length
            prev = cands.get(after_lo)
            if prev is None or lo < prev:
                cands[after_lo] = lo
            edges[x] = cands
            moves += len(cands)
            for nxt in cands:
                if nxt is not None and nxt not in edges:
                    edges[nxt] = {}
                    stack.append(nxt)
            if len(edges) > _STATE_CAP:
                raise BudgetError(
                    f"cover DP exceeded {_STATE_CAP} states; coarsen the window "
                    "or use an analytic route"
                )
            if moves > _MOVE_CAP:
                raise BudgetError(
                    f"cover DP exceeded {_MOVE_CAP} moves; coarsen the window "
                    "or use an analytic route"
                )
        positions = sorted(edges, reverse=True)
        index: dict[Optional[float], int] = {x: i for i, x in enumerate(positions)}
        index[None] = len(positions)
        # list rows: tuples of up to 19 items would be kept on CPython's
        # free lists after the graph is dropped
        self.rows = [
            [(length, index[nxt]) for nxt, length in edges.pop(x).items()]
            for x in positions
        ]
        self.positions = positions

    def cost(self, s: float, want_pieces: bool = False) -> CoverCost:
        """Value sweep in decreasing position order; ``s`` must be in [0, 1]."""
        rows = self.rows
        start = len(rows) - 1
        # value[i]: cheapest cover from state i; past the start, all covered
        value = [math.inf] * len(rows) + [0.0]
        for i, row in enumerate(rows):
            best = math.inf
            for length, nxt in row:
                v = length**s + value[nxt]
                if v < best:
                    best = v
            value[i] = best
        pieces = None
        if want_pieces and len(rows) <= 100_000:
            # replay the sweep's first strict minimum along the optimal path
            path = []
            i = start
            while i <= start:
                best = math.inf
                for length, nxt in rows[i]:
                    v = length**s + value[nxt]
                    if v < best:
                        best, move = v, (length, nxt)
                path.append((self.positions[i], move[0]))
                i = move[1]
            pieces = tuple(path)
        log_total = math.log(value[start])
        return CoverCost(log_total, log_total, "exact-dp", pieces)


def cover_cost_dp(
    items: Skeleton,
    window: ScaleWindow,
    s: float,
    *,
    want_pieces: bool = False,
) -> CoverCost:
    """Exact minimum cover cost of a skeleton, for s in [0, 1].

    Built in two parts: a cover graph once per (skeleton, window), then a
    value sweep per ``s``.  :func:`prepare` keeps the graph across
    exponents; this function builds it for a single ``s``.

    Graph: states are the left endpoints of a possible next cover
    interval -- a cover may as well consist of intervals [x, x + L]
    starting at the first point not yet covered.  From each state the
    optimal next interval either has length lo, length hi, or ends exactly
    at an item's right end; for s <= 1 the cost L ** s is concave, so some
    optimal cover uses only these moves (push every interval of an optimal
    cover to an extreme, one fractional piece per covered run, placed
    last).  The reachable states are finite and the search stops with a
    budget error beyond ``_STATE_CAP`` of them, or beyond ``_MOVE_CAP``
    moves, which bounds the graph's memory.

    Storage: the states are numbered by decreasing position and each keeps
    a flat row of (length, successor index) moves, so memory is linear in
    the edge count.  Sweep: every move advances strictly right, so the
    value function is one pass over the rows in index order into a list
    of values -- no recursion, no float-keyed lookups.
    """
    _validate_exponent(s)
    return _CoverGraph(items, window).cost(s, want_pieces)


# ---------------------------------------------------------------------------
# Cantor schedules, symbolic depth


# Both Cantor bounds are extrema of lines in s: a single-level cover costs
# a + s * b, and each diameter band of the mass bound gives a - s * b.  The
# (a, b) pairs depend only on the schedule and the window, so a prepared
# window builds them once and each s is one min or max over a few lines.
_Line = tuple[float, float]


def _check_mass_exponent(s: float) -> None:
    if s < 0.0 or math.isnan(s):
        raise DomainError(f"exponent must be nonnegative, got {s}")


def _mass_lines(schedule: CantorSchedule, window: ScaleWindow) -> list[_Line]:
    """The bands of :func:`schedule_mass_constant`: log c = max(a - s * b)."""
    depth = schedule.depth
    log_lo, log_hi = window.log_lo, window.log_hi

    lines: list[_Line] = []
    if log_hi >= 0.0:
        # |U| >= seed length: mu <= 1; -0.0 - s * m is -s * m bit for bit
        lines.append((-0.0, max(0.0, log_lo)))
    if log_lo < schedule.log_length(depth):
        lines.append((-depth * LOG2, log_lo))  # below the deepest level

    if depth >= 1:
        cand: set[int] = {1, depth}
        for lv, _ in schedule.level_boundaries():
            for shift in (0, 1):
                if 1 <= lv + shift <= depth:
                    cand.add(lv + shift)
        for target in (log_lo, log_hi):
            for fn in (
                schedule.coarsest_level_not_above,
                schedule.finest_level_not_below,
            ):
                lv = fn(target)
                if lv is not None:
                    for shift in (-1, 0, 1):
                        if 1 <= lv + shift <= depth:
                            cand.add(lv + shift)
        for level in sorted(cand):
            log_len = schedule.log_length(level)
            log_len_up = schedule.log_length(level - 1)
            ratio = schedule.ratio_at(level)
            # gap between the two children = ((1 - 2r) / r) * child length;
            # for r = 1/3 the factor is exactly 1, so reuse the child's log
            # bit for bit and keep degenerate level windows exact
            factor = (1.0 - 2.0 * ratio) / ratio
            log_gap = log_len if abs(factor - 1.0) < 1e-9 else math.log(factor) + log_len
            # band 1: |U| in [length(L), gap(L)], at most one child captured
            left1 = max(log_len, log_lo)
            right1 = min(log_gap, log_hi)
            if left1 <= right1 + _TOL:
                lines.append((-level * LOG2, left1))
            # band 2: |U| in (gap(L), length(L-1)), one parent interval met;
            # open at the gap, so it needs hi strictly above the gap
            if log_gap < log_hi and log_lo < log_len_up:
                lines.append((-(level - 1) * LOG2, max(log_gap, log_lo)))
    if not lines:
        raise DomainError("window does not intersect any diameter band")
    return lines


def _mass_constant(lines: list[_Line], s: float) -> float:
    _check_mass_exponent(s)
    return max([a - s * b for a, b in lines])


def schedule_mass_constant(
    schedule: CantorSchedule, window: ScaleWindow, s: float
) -> float:
    """log of a valid constant c with mu(U) <= c * |U| ** s on the window.

    mu is the natural measure of the schedule (mass 2**-j per level-j
    interval); below the schedule's depth the bound mu(U) <= 2**-depth is
    used instead of refining further.

    The bound per diameter band: an interval U with |U| < length(L-1)
    meets at most one level-(L-1) interval (the gaps separating them are
    at least as long), so mu(U) <= 2**-(L-1); if moreover |U| is no longer
    than the gap between the two level-L children, U captures at most one
    of them fully and mu(U) <= 2**-L.  The supremum of bound / |U| ** s
    over each band sits at the band's left edge, and is piecewise linear
    in L between block boundaries, so only boundary and crossing levels
    need evaluating.  Each band is a line in ``s``; the constant is their
    maximum.
    """
    _check_mass_exponent(s)  # ahead of the build's own errors
    return _mass_constant(_mass_lines(schedule, window), s)


def _single_level_lines(schedule: CantorSchedule, window: ScaleWindow) -> list[_Line]:
    """The covers of :func:`cover_cost_cantor`: log upper = min(a + s * b)."""
    depth = schedule.depth
    log_bottom = schedule.log_length(depth)
    if window.log_hi < log_bottom - _TOL:
        raise ResolutionError(
            f"window top {window.log_hi:.6g} is below the schedule's deepest "
            f"level length {log_bottom:.6g}; the structure there is undefined"
        )
    log_lo, log_hi = window.log_lo, window.log_hi
    lines: list[_Line] = []

    j_min = schedule.coarsest_level_not_above(log_hi)
    j_max = schedule.finest_level_not_below(log_lo)  # None when lo > seed

    if j_min is not None and j_max is not None and j_min <= j_max:
        levels = {j_min, j_max}
        for lv, _ in schedule.level_boundaries():
            if j_min <= lv <= j_max:
                levels.add(lv)
        for j in levels:
            lines.append((j * LOG2, schedule.log_length(j)))
    if j_min is not None and j_min >= 1:
        j = j_min - 1  # deepest level still longer than hi: subdivide
        log_len = schedule.log_length(j)
        count_per = log_add(log_len - log_hi, 0.0)
        lines.append((j * LOG2 + count_per, log_hi))
    j_below = 0 if j_max is None else j_max + 1
    if j_below <= depth and schedule.log_length(j_below) < log_lo:
        lines.append((j_below * LOG2, log_lo))  # fatten to lo
    if not lines:  # a top less than _TOL below the deepest level
        raise ResolutionError(
            f"window top {log_hi:.6g} is below the schedule's deepest level "
            f"length {log_bottom:.6g}; no single-level cover fits"
        )
    return lines


def _prepare_cantor(
    schedule: CantorSchedule, window: ScaleWindow
) -> Callable[[float], CoverCost]:
    # each list is built by the first call that reaches it; the upper
    # bound comes first, so a window with no single-level cover (a top
    # just below the deepest level) raises before the mass lines are built
    upper: Optional[list[_Line]] = None
    mass: Optional[list[_Line]] = None

    def cost(s: float) -> CoverCost:
        nonlocal upper, mass
        _validate_exponent(s)
        if upper is None:
            upper = _single_level_lines(schedule, window)
        log_upper = min([a + s * b for a, b in upper])
        if mass is None:
            mass = _mass_lines(schedule, window)
        log_lower = max(-_mass_constant(mass, s), s * window.log_lo)
        log_lower = min(log_lower, log_upper)
        return CoverCost(log_lower, log_upper, "single-level")

    return cost


def cover_cost_cantor(
    schedule: CantorSchedule, window: ScaleWindow, s: float
) -> CoverCost:
    """Cover cost bracket for a Cantor schedule, symbolic in the depth.

    Upper bound: the best single-level cover -- an in-window level used
    as is, the deepest too-coarse level subdivided into hi-pieces, or the
    shallowest too-fine level fattened to lo.  Lower bound: the natural-
    measure mass distribution argument via :func:`schedule_mass_constant`.
    Both are extrema of lines in ``s``, which :func:`prepare` builds once
    per window.
    """
    return _prepare_cantor(schedule, window)(s)


# ---------------------------------------------------------------------------
# sequence sets, closed form


def cover_cost_sequence(p: float, window: ScaleWindow, s: float) -> CoverCost:
    """Two-scale cover cost bracket for {n ** -p : n >= 1} + {0}.

    The cover splits at an index n: points 1..n get individual lo-pieces,
    the cluster [0, n ** -p] is tiled by hi-pieces, giving

        cost(n) <= (n + 1) * lo**s + (n**-p / hi) * hi**s + hi**s.

    The log of the right side is convex in log n with an interior
    stationary point, so the minimum over real n >= 1 is at the stationary
    point or at n = 1; nearby integers and the index where the cluster
    first fits in one piece are also tried.  The matching lower bound
    gives away a factor 4**s: any cover must both pay for the isolated
    points (gaps above lo keep them separated) and tile the cluster.
    """
    if not p > 0.0:
        raise DomainError(f"sequence exponent p must be positive, got {p}")
    _validate_exponent(s)
    log_lo, log_hi = window.log_lo, window.log_hi
    log_nstar = (math.log(p) + (s - 1.0) * log_hi - s * log_lo) / (p + 1.0)

    real_cands = {0.0, max(0.0, log_nstar)}
    cutoff = -log_hi / p
    if cutoff > 0.0:
        real_cands.add(cutoff)
    int_cands: set[int] = {1}
    for ln in real_cands:
        if ln < math.log(1e6):
            nf = math.exp(ln)
            int_cands.add(max(1, math.floor(nf)))
            int_cands.add(max(1, math.ceil(nf)))

    def cost_at(log_n: float, exact_count: bool) -> float:
        if exact_count:
            points_term = log_n + s * log_lo
        else:
            points_term = log_add(log_n, 0.0) + s * log_lo  # ceil(n) <= n + 1
        cluster_term = -p * log_n + (s - 1.0) * log_hi
        return log_sum([points_term, cluster_term, s * log_hi])

    best = min(cost_at(ln, False) for ln in real_cands)
    best = min(best, min(cost_at(math.log(n), True) for n in int_cands))

    log_lower = max(best - s * (2.0 * LOG2), s * log_lo)
    log_lower = min(log_lower, best)
    return CoverCost(log_lower, best, "two-scale-analytic")


# ---------------------------------------------------------------------------
# grids, points, unions, products


def cover_cost_grid(spacing: float, window: ScaleWindow, s: float) -> CoverCost:
    """Cover cost bracket for the uniform grid {0, r, 2r, ...} on [0, 1]."""
    if not 0.0 < spacing <= 1.0:
        raise DomainError(f"grid spacing must be in (0, 1], got {spacing}")
    _validate_exponent(s)
    log_r = math.log(spacing)
    log_lo, log_hi = window.log_lo, window.log_hi

    def upper_at(log_len: float) -> float:
        return log_add(-log_len, 0.0) + s * log_len  # (1/L + 1) pieces of length L

    log_upper = min(upper_at(log_lo), upper_at(log_hi))

    def per_piece(log_len: float) -> float:
        # one piece of length L holds at most L/r + 1 grid points
        return s * log_len - log_add(log_len - log_r, 0.0)

    log_lower = -log_r + min(per_piece(log_lo), per_piece(log_hi))
    log_lower = max(log_lower, s * log_lo)
    log_lower = min(log_lower, log_upper)
    return CoverCost(log_lower, log_upper, "single-level")


def cover_cost_point(window: ScaleWindow, s: float) -> CoverCost:
    """One point costs exactly one smallest piece."""
    _validate_exponent(s)
    v = s * window.log_lo
    return CoverCost(v, v, "single-level")


def combine_union(
    costs: Sequence[CoverCost], gap: float, window: ScaleWindow
) -> CoverCost:
    """Cost bracket of a disjoint union from its members' brackets.

    When every allowed diameter is at most the separating gap, no piece
    can serve two members, so both bounds add exactly.  Otherwise only the
    upper bounds add; the lower bound falls back to the largest member's.
    """
    if not costs:
        raise InputError("union of no cover costs")
    if not gap > 0.0:
        raise InputError(f"union gap must be positive, got {gap}")
    log_upper = log_sum([c.log_cost_upper for c in costs])
    if window.log_hi <= math.log(gap) + _TOL:
        log_lower = log_sum([c.log_cost_lower for c in costs])
    else:
        log_lower = max(c.log_cost_lower for c in costs)
    log_lower = min(log_lower, log_upper)
    methods = sorted(set(c.method for c in costs))
    return CoverCost(log_lower, log_upper, "union[" + "+".join(methods) + "]")


def _marginal_count_log(model, log_len: float, oracle: str) -> float:
    w = ScaleWindow(log_len, log_len)
    return cover_cost(model, w, 0.0, oracle=oracle).log_cost_upper


def _product_lengths(model: ProductModel, window: ScaleWindow) -> list[float]:
    """Candidate square sides (logs): a grid in the window plus the
    marginals' characteristic lengths, ascending."""
    log_lo, log_hi = window.log_lo, window.log_hi
    lengths = {log_lo, log_hi}
    steps = 8
    for i in range(1, steps):
        lengths.add(log_lo + (log_hi - log_lo) * i / steps)
    for side in (model.left, model.right):
        if isinstance(side, CantorSchedule):
            for _, log_len in side.level_boundaries():
                if log_lo <= log_len <= log_hi:
                    lengths.add(log_len)
    return sorted(lengths)


def _prepare_product(
    model: ProductModel, window: ScaleWindow, oracle: str
) -> Callable[[float], CoverCost]:
    # (log side, left + right marginal log count), on the first call
    counts: Optional[list[tuple[float, float]]] = None

    def cost(s: float) -> CoverCost:
        nonlocal counts
        _validate_exponent(s, upper=2.0)
        if counts is None:
            counts = [
                (
                    ll,
                    _marginal_count_log(model.left, ll, oracle)
                    + _marginal_count_log(model.right, ll, oracle),
                )
                for ll in _product_lengths(model, window)
            ]
        log_upper = min(count + s * ll for ll, count in counts)

        log_lower = s * window.log_lo
        if isinstance(model.left, CantorSchedule) and isinstance(
            model.right, CantorSchedule
        ):
            s_lo = max(0.0, s - 1.0)
            s_hi = min(1.0, s)
            splits = 7
            best = -math.inf
            for i in range(splits + 1):
                s_e = s_lo + (s_hi - s_lo) * i / splits
                s_f = s - s_e
                log_c = schedule_mass_constant(
                    model.left, window, s_e
                ) + schedule_mass_constant(model.right, window, s_f)
                best = max(best, -log_c)
            log_lower = max(log_lower, best)
        log_lower = min(log_lower, log_upper)
        return CoverCost(log_lower, log_upper, "product")

    return cost


def cover_cost_product(
    model: ProductModel, window: ScaleWindow, s: float, oracle: str = "auto"
) -> CoverCost:
    """Cover cost bracket for a product set under the max metric.

    Upper bound: squares of side L tile the product of the two marginal
    L-covers; L runs over a grid in the window plus the marginals'
    characteristic lengths.  Lower bound (both marginals Cantor
    schedules): the product of the natural measures is spread over
    squares, mu(Q_L) <= c_E c_F L ** (s_E + s_F), maximized over splits
    s_E + s_F = s.  :func:`prepare` computes the marginal counts once per
    window and reuses them for every ``s``.
    """
    return _prepare_product(model, window, oracle)(s)


# ---------------------------------------------------------------------------
# dispatch


def _prepare_dp(model, window: ScaleWindow) -> Callable[[float], CoverCost]:
    graph: Optional[_CoverGraph] = None

    def cost(s: float) -> CoverCost:
        nonlocal graph
        _validate_exponent(s)
        if graph is None:
            _require_linear(window)  # before materializing at resolution lo
            graph = _CoverGraph(skeleton(model, window.lo), window)
        return graph.cost(s)

    return cost


def prepare(
    model, window: ScaleWindow, *, oracle: str = "auto"
) -> Callable[[float], CoverCost]:
    """The cover cost of one (model, window) as a function of ``s``.

    ``oracle`` selects the route: "auto" picks the analytic route for each
    model kind, "dp" forces the exact skeleton DP (linear scales only),
    "analytic" refuses kinds without a closed form.  The first call
    builds what does not depend on ``s`` and later calls reuse it: on DP
    routes the skeleton and cover graph, for Cantor schedules the lines
    in ``s`` of both bounds, for products the marginal counts.  Sequence,
    grid and point costs are closed forms evaluated per call.  A build
    that raises keeps nothing, so the next call raises the same error.
    """
    if oracle not in ("auto", "dp", "analytic"):
        raise InputError(f"unknown oracle {oracle!r}")
    if isinstance(model, PointSet):
        return lambda s: cover_cost_point(window, s)
    if isinstance(model, ProductModel):
        return _prepare_product(model, window, oracle)
    if isinstance(model, UnionModel):
        members = [prepare(m, window, oracle=oracle) for m in model.members]
        return lambda s: combine_union([m(s) for m in members], model.gap, window)
    if oracle == "dp":
        return _prepare_dp(model, window)
    if isinstance(model, SequenceSet):
        return lambda s: cover_cost_sequence(model.p, window, s)
    if isinstance(model, CantorSchedule):
        return _prepare_cantor(model, window)
    if isinstance(model, UniformGrid):
        return lambda s: cover_cost_grid(model.spacing_at(window.lo), window, s)
    if isinstance(model, HolderImage):
        if oracle == "analytic":
            raise InputError("Holder images have no closed-form cover cost")
        return _prepare_dp(model, window)
    raise InputError(
        f"no cover route for model kind "
        f"{getattr(model, 'kind', type(model).__name__)!r}"
    )


def upper_bound_slack(model, s: float, *, oracle: str = "auto") -> Optional[float]:
    """How far the upper bound of :func:`prepare` at exponent ``s`` can
    rise as the window bottom falls with the top fixed, or None where no
    such bound is known.

    The true cost never rises (a lower bottom only adds covers), but a
    route's bound need not follow it.  For points the bound is s * log lo,
    which falls exactly.  For Cantor schedules on an analytic route it is
    the best single-level cover, which falls but for rounding: the
    in-window levels only gain members as the bottom falls, and their cost
    is linear in the level between block boundaries, so the boundaries and
    the two end levels reach the minimum over all of them; the subdivided
    level depends on the top alone; a fattened level is fattened to a
    lower bottom or enters the window.  Rounding moves each line by a few
    units in the last place of its terms, which are at most
    (depth + 1) log 2 + s |log length(depth)|.

    Grids try only the window's two ends as piece length, though their
    bound is lowest at an interior length; products spread their candidate
    sides over the window; the sequence route's integer indices move with
    the bottom; DP routes rebuild the skeleton at the bottom's resolution;
    unions add the rounding of a log-sum.  These answer None.
    """
    if isinstance(model, PointSet):
        return 0.0
    if isinstance(model, CantorSchedule) and oracle != "dp":
        depth = model.depth
        terms = (depth + 1) * LOG2 + s * abs(model.log_length(depth))
        return 16.0 * sys.float_info.epsilon * terms
    return None


def cover_cost(
    model, window: ScaleWindow, s: float, *, oracle: str = "auto"
) -> CoverCost:
    """Cover cost bracket for any line model (or product of line models);
    one evaluation of :func:`prepare`."""
    return prepare(model, window, oracle=oracle)(s)
