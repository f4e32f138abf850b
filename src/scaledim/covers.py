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
  sweep over it per ``s``.  The walk keeps each front's moves to item
  ends as one range of items, found by bisection; once the fronts are
  numbered, a row holds slices of the item ends and successor indices
  over its range, and each sweep takes the lengths from them.
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
from itertools import accumulate, groupby, repeat
from operator import mul, ne
from typing import Callable, Optional, Sequence

import numpy as np

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
    ambient_dimension,
    skeleton,
)

_LINEAR_LOG_FLOOR = -680.0  # below this, exp() underflows and the DP is off limits
_STATE_CAP = 500_000  # cover-graph states before the DP gives up
# cover-graph moves before the DP gives up.  A finished graph holds about
# 17 bytes of resident memory per move (3.75M moves, 14,440 states: two
# list references per move and each state's row), so a graph just under
# the cap stays near 90 MB; the walk keeps one small record per state and
# no move, so a build that fails here stays small
_MOVE_CAP = 5_000_000
_TOL = 1e-12
_U = 2.0**-53  # unit roundoff of a float


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


def _require_linear(window: ScaleWindow) -> None:
    if not window.linear_representable():
        raise ResolutionError(
            "window floor is below the representable linear range; "
            "use an analytic cover routine instead of the DP"
        )


def _stuck_error(lo: float, hi: float, x: float) -> ResolutionError:
    return ResolutionError(
        f"window [{lo:.6g}, {hi:.6g}] is below the float spacing at "
        f"{x!r}; the cover DP cannot move past it"
    )


def _state_cap_error() -> BudgetError:
    return BudgetError(
        f"cover DP exceeded {_STATE_CAP} states; coarsen the window "
        "or use an analytic route"
    )


def _move_cap_error() -> BudgetError:
    return BudgetError(
        f"cover DP exceeded {_MOVE_CAP} moves; coarsen the window "
        "or use an analytic route"
    )


def _next_uncovered(starts, ends, covered_end: float) -> float:
    """The first point at or right of ``covered_end`` that a cover from
    there must still reach: ``covered_end`` itself strictly inside an
    item, else the next item's start, or inf once every item is covered.
    ``starts`` and ``ends`` are a skeleton's, as lists or as arrays."""
    k = bisect_right(starts, covered_end)
    if k > 0 and ends[k - 1] > covered_end:
        return covered_end  # strictly inside item k-1
    return starts[k] if k < len(starts) else math.inf


def _among(values: list, v: float, first: int, full: int) -> bool:
    """Whether ``v`` is one of the sorted ``values[first:full]``."""
    i = bisect_left(values, v, first, full)
    return i < full and values[i] == v


def _refuse_wide_state(
    items: Skeleton,
    after_end: np.ndarray,
    x: float,
    lo: float,
    hi: float,
    j: int,
    stop: int,
    edge: float,
    states: int,
    moves: int,
) -> None:
    """Raise the error that walking the items [j, stop) in reach of state
    ``x`` would raise, where it is settled without the walk.

    Every successor but the front after ``x + lo`` lies right of ``x``:
    the front after an item end at least ``lo`` away, or the front after
    the reach, which is the front after ``x + lo`` if ``x + hi`` rounds
    onto ``x``.  So the walk finds ``x`` among its successors, a
    resolution error, exactly when the front after ``x + lo`` is ``x``.
    Otherwise, the items that end by ``edge`` and at least ``lo`` past
    ``x`` lead to the fronts ``after_end``, which never decrease; with
    ``d`` distinct fronts in that run, ``x`` has between ``d`` and
    ``d + 2`` successors, so the graph holds at least ``d`` states after
    the walk, and at most ``states + d + 2``.
    """
    ends = items.ends
    if _next_uncovered(items.starts, ends, x + lo) == x:
        raise _stuck_error(lo, hi, x)
    full = bisect_right(ends, edge, j, stop)
    first = bisect_left(ends, lo, j, full, key=lambda b: b - x)
    run = after_end[first:full]
    d = int(np.count_nonzero(run[1:] != run[:-1])) + (len(run) > 0)
    if d > _STATE_CAP:
        raise _state_cap_error()
    if moves + d > _MOVE_CAP and states + d + 2 <= _STATE_CAP:
        raise _move_cap_error()


class _CoverGraph:
    """Reachable cover fronts of one skeleton under one window, stored flat.

    States are the left endpoints of a possible next cover interval,
    numbered by decreasing position: ``positions[i]`` is state ``i``, the
    start is the last state and index ``len(positions)`` means everything
    is covered.  State ``i``'s moves are (length, successor index) pairs,
    one per successor with its shortest length; every move goes right, so
    every successor has a smaller index.
    Nothing here depends on ``s``, so one graph serves every exponent.

    The walk is a depth-first search from the first item's start.  Its
    rule, item by item: each item in reach of a state ``x`` gives a move,
    to the front after the item's end if the item ends at least lo right
    of ``x`` and within the reach, to the front after ``x + lo`` (length
    lo) if it ends closer, and to the reach itself (length hi) for the
    first item that ends past the reach, which is the last move; then the
    lo move.  A successor's place in the row is where it first appears.

    Item ends never decrease, so the moves to item ends are one item range
    ``[first, full)``, found by bisection, and their fronts never
    decrease: items that share a front are a run, and a front becomes a
    state when a scan of a ``bytearray`` over front numbers finds it
    unmarked, so no float is hashed per move.  Once the states are
    numbered, ``rows[i]`` is the tuple ``(x, ends, nexts, lo successor,
    hi successors, lo first)``: ``ends`` and ``nexts`` are slices of the
    walk's lists of item ends and of item successor indices over the
    items that end within ``hi`` of ``x``, whose lengths ``b - x`` each
    sweep takes again, and the hi successors are those of the clipped
    items, which end past the reach by less than the drift tolerance, and
    then the partial reach.  The lo move leads the row if an item ends
    less than lo right of ``x``, else it ends it.  Slices copy references
    only, so a graph keeps no float or tuple per move.

    A row may repeat a successor.  A repeat is never shorter than the
    successor's first move, since item ends grow and clipped items move
    hi, except for the lo successor: where ``x + lo`` rounds onto an item
    end more than lo right of ``x``, that item's move leads there too.
    So the witness replay prices every move to the lo successor at
    ``lo``, and a sweep, whose least value is the same float with repeats
    or without, takes the row as it is.

    :meth:`sparse_cover` sweeps the same rows over at most three moves a
    state, for steering before the first full sweep.
    """

    def __init__(self, items: Skeleton, window: ScaleWindow) -> None:
        _require_linear(window)
        lo, hi = window.lo, window.hi
        ftol = hi * 1e-12  # absorb float drift in accumulated endpoints
        # the front after a move that ends at an item's end is the same
        # from every state, so it is looked up once per item
        k = np.searchsorted(items.starts, items.ends, side="right")
        after_end_array = np.where(
            items.ends[k - 1] > items.ends,
            items.ends,
            np.append(items.starts, math.inf)[k],
        )
        # a start state too wide to walk is settled on the arrays, before
        # the lists below copy the skeleton
        x0 = float(items.starts[0])
        stop = int(np.searchsorted(items.starts, x0 + hi, side="right"))
        if stop >= _STATE_CAP or stop >= _MOVE_CAP:
            _refuse_wide_state(
                items, after_end_array, x0, lo, hi, 0, stop, x0 + hi + ftol, 1, 0
            )
        starts = items.starts.tolist()
        ends = items.ends.tolist()
        after_end = after_end_array.tolist()
        n = len(ends)
        # after_end never decreases, so items sharing a front are runs:
        # front[i] numbers item i's front and front_at[f] is front f
        front = list(accumulate(map(ne, after_end[1:], after_end), initial=0))
        front_at = [pos for pos, _ in groupby(after_end)]
        marked = bytearray(len(front_at))  # 1 once a front is a state
        front_state = [-1] * len(front_at)  # its state's id; -1 for inf
        if after_end[-1] == math.inf:
            marked[-1] = 1  # everything covered: no state

        # states by id in the order the walk meets them; each gets the
        # record its row is built from: (first, full, lo id, lo first,
        # partial id or None)
        where: list[float] = []
        state_of: dict[float, int] = {}
        records: list = []
        stack: list[int] = []

        def add(pos: float) -> int:
            # a new state met by a lo or partial move, marked as a front
            # if it is one, so the range scans never add it again
            sid = len(where)
            where.append(pos)
            records.append(None)
            state_of[pos] = sid
            stack.append(sid)
            i = bisect_left(after_end, pos)
            if i < n and after_end[i] == pos:
                marked[front[i]] = 1
                front_state[front[i]] = sid
            return sid

        add(x0)
        moves = 0
        while stack:
            sid = stack.pop()
            x = where[sid]
            reach = x + hi
            x_lo = x + lo
            j = bisect_left(ends, x)  # first item with material at or beyond x
            stop = bisect_right(starts, reach, j)  # items [j, stop) in reach
            # the front after the lo move, as _next_uncovered finds it
            i = bisect_right(starts, x_lo, j, n)
            if i > 0 and ends[i - 1] > x_lo:
                after_lo = x_lo
            else:
                after_lo = starts[i] if i < n else math.inf
            if stop - j >= _STATE_CAP or moves + stop - j >= _MOVE_CAP:
                _refuse_wide_state(
                    items, after_end_array, x, lo, hi, j, stop,
                    reach + ftol, len(where), moves,
                )
            # items [j, full) end within the reach, item full only partly;
            # items [first, full) end at least lo right of x
            full = bisect_right(ends, reach + ftol, j, stop)
            first = bisect_left(ends, x_lo, j, full)
            while first > j and ends[first - 1] - x >= lo:
                first -= 1
            while first < full and ends[first] - x < lo:
                first += 1
            # item full ends past the reach, which is inside it: the front
            # after a partial move is the reach itself
            after_reach = reach if full < stop else None
            if after_reach == after_lo:
                after_reach = None  # the lo move reaches that front
            if x == after_lo or x == after_reach:
                raise _stuck_error(lo, hi, x)  # x + lo or x + hi rounds onto x
            # distinct successors: the range's fronts, then the lo and
            # partial fronts unless the range leads there too
            if first < full:
                f0, f1 = front[first], front[full - 1] + 1
                moves += f1 - f0
                if after_lo < after_end[first] or not _among(after_end, after_lo, first, full):
                    moves += 1
                if after_reach is not None and (
                    after_reach > after_end[full - 1]
                    or not _among(after_end, after_reach, first, full)
                ):
                    moves += 1
            else:
                f0 = f1 = 0
                moves += 1 + (after_reach is not None)
            # new states in row order
            lo_first = first > j
            if lo_first:
                lo_id = state_of.get(after_lo)
                if lo_id is None:
                    lo_id = add(after_lo) if after_lo < math.inf else -1
            f = marked.find(0, f0, f1)
            while f >= 0:
                marked[f] = 1
                pos = front_at[f]
                new = len(where)
                where.append(pos)
                records.append(None)
                state_of[pos] = new
                front_state[f] = new
                stack.append(new)
                f = marked.find(0, f + 1, f1)
            reach_id = None
            if after_reach is not None:
                reach_id = state_of.get(after_reach)
                if reach_id is None:
                    reach_id = add(after_reach)
            if not lo_first:
                lo_id = state_of.get(after_lo)
                if lo_id is None:
                    lo_id = add(after_lo) if after_lo < math.inf else -1
            records[sid] = (first, full, lo_id, lo_first, reach_id)
            if len(where) > _STATE_CAP:
                raise _state_cap_error()
            if moves > _MOVE_CAP:
                raise _move_cap_error()

        m = len(where)
        order = sorted(range(m), key=where.__getitem__, reverse=True)
        positions = [where[sid] for sid in order]
        index = [0] * m + [m]  # by state id; index[-1] is everything covered
        for i, sid in enumerate(order):
            index[sid] = i
        # each item's successor index; a row keeps slices of it and of the
        # item ends, which copy references only, and no float or tuple per
        # move; the lengths to item ends are taken again in each sweep
        item_next = [index[front_state[f]] for f in front]
        del where, state_of, front, front_at, front_state  # what only the walk reads
        rows = []
        for sid, x in zip(order, positions):
            first, full, lo_id, lo_first, reach_id = records[sid]
            records[sid] = None  # freed as its row is built
            # items [first, clip) end at most hi right of x and move there;
            # the rest end past hi, by at most ftol, and move hi
            clip = full
            while clip > first and ends[clip - 1] - x > hi:
                clip -= 1
            hi_next = item_next[clip:full]
            if reach_id is not None:
                hi_next.append(index[reach_id])
            rows.append(
                (x, ends[first:clip], item_next[first:clip], index[lo_id], hi_next, lo_first)
            )
        self.rows = rows
        self.positions = positions
        self.lo, self.hi = lo, hi

    def cost(self, s: float, want_pieces: bool = False) -> CoverCost:
        """Value sweep in decreasing position order; ``s`` must be in [0, 1].

        A state's value is the least of its moves' ``length**s`` plus the
        successor's value.  That least float does not depend on the order
        the moves are taken in, and a repeated successor, whose move is
        never shorter than its first, cannot lower it, since ``**`` is
        monotone in its base; so a row takes its lo and hi moves first,
        with ``lo**s`` and ``hi**s`` raised once per sweep, and then its
        item ends, whose lengths are the floats ``b - x``."""
        rows = self.rows
        start = len(rows) - 1
        lo_s, hi_s = self.lo**s, self.hi**s
        # value[i]: cheapest cover from state i; past the start, all covered
        value = [math.inf] * len(rows) + [0.0]
        for i, (x, item_ends, nexts, lo_next, hi_next, _) in enumerate(rows):
            best = lo_s + value[lo_next]
            for nxt in hi_next:
                v = hi_s + value[nxt]
                if v < best:
                    best = v
            for b, nxt in zip(item_ends, nexts):
                v = (b - x) ** s + value[nxt]
                if v < best:
                    best = v
            value[i] = best
        pieces = None
        if want_pieces:
            # replay along the optimal path: at each state the first move
            # in row order whose value is the state's, the move a sweep in
            # row order keeps as its first strict minimum
            path = []
            i = start
            while i <= start:
                length, nxt = self._first_best(i, s, value, lo_s, hi_s)
                path.append((self.positions[i], length))
                i = nxt
            pieces = tuple(path)
        log_total = math.log(value[start])
        return CoverCost(log_total, log_total, "exact-dp", pieces)

    def _first_best(
        self, i: int, s: float, value: list[float], lo_s: float, hi_s: float
    ) -> tuple[float, int]:
        """The first of state ``i``'s moves ``(length, nxt)``, in the
        order the walk found them, one per successor at its shortest
        length, with ``length**s + value[nxt] == value[i]``, found on the
        row without building the move list; ``lo_s`` and ``hi_s`` are
        ``lo**s`` and ``hi**s``.  A repeated successor matches only where
        its first move matched, so the first match on the row is the first
        among the moves."""
        x, item_ends, nexts, lo_next, hi_next, lo_first = self.rows[i]
        best = value[i]
        lo_best = lo_s + value[lo_next] == best
        if lo_first and lo_best:
            return self.lo, lo_next
        for b, nxt in zip(item_ends, nexts):
            if nxt == lo_next:
                if lo_best:
                    return self.lo, nxt
            elif (b - x) ** s + value[nxt] == best:
                return b - x, nxt
        for nxt in hi_next:
            if nxt == lo_next:
                if lo_best:
                    return self.lo, nxt
            elif hi_s + value[nxt] == best:
                return self.hi, nxt
        return self.lo, lo_next

    def sparse_cover(self, s: float) -> list[float]:
        """Piece lengths, right to left, of the cheapest cover at ``s`` that
        takes from each state only its lo move, its hi moves and its move
        to the furthest item end: at most three moves a row, read off the
        rows.  At ``s = 0`` every piece costs 1, so it has the fewest
        pieces such a cover can have.  Only steering reads it.

        Every move to an item end is at least lo long and every hi move hi
        long, so none to the lo successor beats the lo move, which a row
        takes first."""
        rows = self.rows
        done = len(rows)
        lo, hi = self.lo, self.hi
        lo_s, hi_s = lo**s, hi**s
        value = [math.inf] * done + [0.0]
        # each state's chosen move: its length and its successor
        lengths = [lo] * done
        succ = [0] * done
        for i, (x, item_ends, nexts, lo_next, hi_next, _) in enumerate(rows):
            best, nxt = lo_s + value[lo_next], lo_next
            for j in hi_next:
                v = hi_s + value[j]
                if v < best:
                    best, nxt, lengths[i] = v, j, hi
            if nexts:
                length = item_ends[-1] - x
                v = length**s + value[nexts[-1]]
                if v < best:
                    best, nxt, lengths[i] = v, nexts[-1], length
            value[i], succ[i] = best, nxt
        path = []
        i = done - 1
        while i < done:
            path.append(lengths[i])
            i = succ[i]
        path.reverse()
        return path


def cover_cost_dp(
    items: Skeleton | Sequence[tuple[float, float]],
    window: ScaleWindow,
    s: float,
    *,
    want_pieces: bool = False,
) -> CoverCost:
    """Exact minimum cover cost of a skeleton, for s in [0, 1].

    ``items`` is a :class:`~scaledim.setmodels.Skeleton` or an (n, 2)
    array (or nested sequence) of sorted, disjoint (start, end) numbers,
    converted to one; anything else is an :class:`InputError`.  Built in
    two parts: a cover graph once per (skeleton, window), then a
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
    moves, which bounds the graph's memory.  A state whose lo or hi move
    rounds back onto it (a window below the float spacing there) raises a
    resolution error, so every state reaches the end.

    Walk: the moves of a state to item ends are the items ending at least
    lo right of it and within its reach, one range found by bisection.
    Item ends lead to fronts that never decrease, so the walk marks new
    fronts by scanning the range's front numbers and hashes no float per
    move.  A row may list one successor twice, where items share a front
    or the lo or partial-reach front is also an item's; the sweep's least
    value is the same with the repeats (see :class:`_CoverGraph`).

    Storage: the states are numbered by decreasing position and each keeps
    a row of its moves: the item ends and successor indices of its range
    as slices of the walk's lists, two references per move, and the
    successors of its lo and hi moves; the lengths are not stored.
    Memory is linear in the edge count.
    Sweep: every move advances strictly right, so the value function is
    one pass over the rows in index order into a list of values -- no
    recursion, no float-keyed lookups.  Each move costs ``(b - x) ** s``
    for an item end ``b``, or ``lo ** s`` or ``hi ** s``, raised once per
    sweep; the least value of a row is the same float in any order.
    """
    _validate_exponent(s)
    return _CoverGraph(_as_skeleton(items), window).cost(s, want_pieces)


def _as_skeleton(items) -> Skeleton:
    """``items`` if it is a skeleton, else the skeleton of an (n, 2) array
    of (start, end) numbers; anything else is an input error."""
    if isinstance(items, Skeleton):
        return items
    try:
        pairs = np.asarray(items)
    except (TypeError, ValueError):  # ragged, say
        pairs = None
    if pairs is not None and pairs.shape == (0,):
        pairs = pairs.reshape(0, 2)  # no pairs: the skeleton refuses it as empty
    if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iuf":
        got = "not rectangular" if pairs is None else f"shape {pairs.shape} of {pairs.dtype}"
        raise InputError(
            "cover DP items must be a Skeleton or an (n, 2) array of "
            f"(start, end) numbers, got {type(items).__name__} ({got})"
        )
    return Skeleton(pairs[:, 0], pairs[:, 1])


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
        for lv in schedule.levels:
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
        for lv in schedule.levels:
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
            for log_len in side.log_lengths:
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
                # s_e <= s up to rounding; the clamp is sound since
                # L <= 1 gives L ** (s_e + s_f) <= L ** s
                s_f = max(0.0, s - s_e)
                log_c = schedule_mass_constant(
                    model.left, window, s_e
                ) + schedule_mass_constant(model.right, window, s_f)
                best = max(best, -log_c)
            log_lower = max(log_lower, best)
        return CoverCost(log_lower, log_upper, "product")

    return cost


def cover_cost_product(model: ProductModel, window: ScaleWindow, s: float) -> CoverCost:
    """Cover cost bracket for a product set under the max metric.

    Upper bound: squares of side L tile the product of the two marginal
    L-covers; L runs over a grid in the window plus the marginals'
    characteristic lengths.  Lower bound (both marginals Cantor
    schedules): the product of the natural measures is spread over
    squares, mu(Q_L) <= c_E c_F L ** (s_E + s_F), maximized over splits
    s_E + s_F = s.  :func:`prepare` computes the marginal counts once per
    window and reuses them for every ``s``.
    """
    return _prepare_product(model, window, "auto")(s)


# ---------------------------------------------------------------------------
# dispatch


def _witness_root(lengths: list[float]) -> Optional[float]:
    """The exponent where a cover of these piece lengths costs 1, from a
    few Newton steps on ``log sum L**s`` started at 0, clamped to 1; None
    if its cost does not fall through 1 above 0 (a single piece, or no
    piece shorter than 1).

    The log cost is convex in ``s``, so from 0, where it is at least 0,
    the steps climb towards the root without passing it (in real
    arithmetic); the few rounding ulps left do not matter to a caller
    that only steers by it.
    """
    logs = list(map(math.log, lengths))
    s = 0.0
    for _ in range(12):
        terms = list(map(pow, lengths, repeat(s)))
        total = sum(terms)
        slope = sum(map(mul, terms, logs))
        if not slope < 0.0:
            return None
        step = math.log(total) * total / slope
        s -= step
        if s > 1.0 or abs(step) <= 1e-15 * s:
            break
    return min(s, 1.0) if s > 0.0 else None


class _PreparedDP:
    """The DP route of one (model, window) as a function of ``s``.

    The first call or steering step builds the skeleton and the cover
    graph; every call is one value sweep over the graph.  Each sweep also
    keeps its exponent, its log value and the optimal cover it determines
    (the replay of ``want_pieces``) as a witness: its piece lengths, right
    to left.  :meth:`bracket` turns them into bounds at another exponent,
    and :meth:`settle` answers a bisection step with them where it can.

    :meth:`steer` takes a steering sweep: one sweep at the exponent where
    the witness cover costs 1 (Dinkelbach's step), so that the next
    brackets start near the root and settle the exponents that a
    bisection would otherwise sweep.  It only chooses where the last sweep
    lies: a bracket holds from any sweep, so it settles each test as a
    sweep at that exponent would.
    """

    def __init__(self, model, window: ScaleWindow) -> None:
        self.model = model
        self.window = window
        self.graph: Optional[_CoverGraph] = None
        # None before the first sweep
        self.last: Optional[tuple[float, float]] = None  # (s, log value)
        self.witness: Optional[list[float]] = None
        # what bracket reads of the graph: its sweeps' error term 3g and the
        # logs of the lengths lo and hi, set with the graph
        self._three_g = self._log_lo = self._log_hi = math.nan

    def _built(self) -> _CoverGraph:
        if self.graph is None:
            _require_linear(self.window)  # before materializing at resolution lo
            graph = _CoverGraph(skeleton(self.model, self.window.lo), self.window)
            self._three_g = 3.0 * ((len(graph.rows) + 2) * 2.0 * _U)
            self._log_lo, self._log_hi = math.log(graph.lo), math.log(graph.hi)
            self.graph = graph
        return self.graph

    def __call__(self, s: float) -> CoverCost:
        _validate_exponent(s)
        cost = self._built().cost(s, want_pieces=True)
        self.last = (s, cost.log_cost_upper)
        self.witness = [length for _, length in reversed(cost.pieces)]
        return CoverCost(cost.log_cost_lower, cost.log_cost_upper, cost.method)

    def settle(self, s: float) -> CoverCost:
        """A bracket at ``s`` whose sign tests, log upper <= 0 and log
        lower >= 0, come out as a sweep at ``s`` would make them.

        A :meth:`bracket` that does not straddle 0 settles both tests.
        Where it is open (or there is no sweep yet), a steering sweep goes
        first and ``s`` is bracketed again; only a bracket still open
        sweeps at ``s``.
        """
        for steer in (False, True):
            if steer:
                self.steer()
            known = self.bracket(s)
            if known is not None and (known[0] > 0.0 or known[1] < 0.0):
                return CoverCost(known[0], known[1], "dp-bound")
        return self(s)

    def bracket(self, s: float) -> Optional[tuple[float, float]]:
        """Bounds (lower, upper) on the log value a sweep at ``s`` would
        return, from the last sweep, at ``s0``, and without one; None
        before the first sweep.

        The upper end is the witness cover's cost at ``s``, summed right
        to left (``total = length**s + total``) as the sweep sums every
        path (:meth:`witness_cost`).  Float addition rounds monotonically,
        so the sweep's value is the least such float sum over the graph's
        paths and is never above this one.

        The lower end moves the last log value ``v0`` along a line.  Every
        piece length ``L`` lies in ``[lo, hi]``, so ``L**s >= L**s0 *
        lo**(s - s0)`` for ``s > s0`` and ``>= L**s0 * hi**(s - s0)`` for
        ``s < s0``, and the least real path sum at ``s`` is at least the
        one at ``s0`` times that factor.  The float sweep lies within a
        factor ``1 +- g`` of the real one, ``g = (k + 2) * 2u`` for ``k``
        states and ``u = 2**-53``, because a path has at most ``k`` pieces
        and ``**`` and each addition round by at most 2u and u; so the
        sweep's log value at ``s`` is at least ``v0 + (s - s0) log b -
        3g``, ``b = lo`` or ``hi``.  The lower end subtracts twice ``3g``
        and twice ``8u (|v0| + |(s - s0) log b|)``, which bounds the
        rounding of ``math.log`` and of the sum and product; ``log b`` is
        taken of the linear ``lo`` and ``hi`` the graph uses.
        """
        if self.last is None:
            return None
        s0, log_v0 = self.last
        step = s - s0
        # the logs of the lengths the graph uses: a window may pin log_lo
        # and log_hi up to 1e-9 away from them
        shift = step * (self._log_lo if step > 0.0 else self._log_hi)
        margin = 2.0 * (self._three_g + 8.0 * _U * (abs(log_v0) + abs(shift)))
        return log_v0 + shift - margin, math.log(self.witness_cost(s))

    def steer(self) -> None:
        """Sweep once where the witness cover costs 1
        (:func:`_witness_root`), building the graph first if need be.
        Before the first sweep the exponent comes from Dinkelbach's step
        on the graph's sparse moves (:meth:`_CoverGraph.sparse_cover`),
        started at ``s = 0`` and stopped where the cover's root stops
        falling.  Nothing is swept when there is no such exponent or it
        is the last sweep's."""
        if self.witness is not None:
            s = _witness_root(self.witness)
        else:
            graph = self._built()
            s = _witness_root(graph.sparse_cover(0.0))
            while s is not None:
                root = _witness_root(graph.sparse_cover(s))
                if root is None or not root < s:
                    break
                s = root
        if s is not None and (self.last is None or s != self.last[0]):
            self(s)

    def witness_cost(self, s: float) -> float:
        """The witness cover's cost at ``s``, summed right to left as the
        sweep sums every path, so it is never below the sweep's value at
        ``s``; inf while there is no witness."""
        _validate_exponent(s)
        if self.witness is None:
            return math.inf
        total = 0.0
        for length in self.witness:
            total = length**s + total
        return total


def prepare(
    model, window: ScaleWindow, *, oracle: str = "auto"
) -> Callable[[float], CoverCost]:
    """The cover cost of one (model, window) as a function of ``s``.

    ``oracle`` selects the route: "auto" picks the analytic route for each
    model kind and the skeleton DP for Holder images, which have none;
    "dp" forces the exact skeleton DP (linear scales only) on every model
    on the line but a point, whose cost has a closed form: a union of line
    models is one DP over its members' skeletons side by side, while
    products and planar unions compose their factors' and members' routes.
    The first call builds what does not depend on ``s`` and later calls
    reuse it: on DP routes the skeleton and cover graph, for Cantor
    schedules the lines in ``s`` of both bounds, for products the marginal
    counts.  Sequence, grid and point costs are closed forms evaluated per
    call.  A build that raises keeps nothing, so the next call raises the
    same error.  A DP route also answers a bisection step through
    ``settle``, which sweeps only where its bounds leave the step open.
    """
    if oracle not in ("auto", "dp"):
        raise InputError(f"unknown oracle {oracle!r}")
    if isinstance(model, PointSet):
        return lambda s: cover_cost_point(window, s)
    if isinstance(model, HolderImage) or (oracle == "dp" and ambient_dimension(model) == 1):
        return _PreparedDP(model, window)
    if isinstance(model, ProductModel):
        return _prepare_product(model, window, oracle)
    if isinstance(model, UnionModel):
        members = [prepare(m, window, oracle=oracle) for m in model.members]
        return lambda s: combine_union([m(s) for m in members], model.gap, window)
    if isinstance(model, SequenceSet):
        return lambda s: cover_cost_sequence(model.p, window, s)
    if isinstance(model, CantorSchedule):
        return _prepare_cantor(model, window)
    if isinstance(model, UniformGrid):
        return lambda s: cover_cost_grid(model.spacing_at(window.lo), window, s)
    raise InputError(
        f"no cover route for model kind "
        f"{getattr(model, 'kind', type(model).__name__)!r}"
    )


def upper_bound_slack(model, s: float) -> Optional[float]:
    """How far the upper bound of :func:`prepare`'s default route at
    exponent ``s`` can rise as the window bottom falls with the top
    fixed, or None where no such bound is known.

    The true cost never rises (a lower bottom only adds covers), but a
    route's bound need not follow it.  For points the bound is s * log lo,
    which falls exactly.  For Cantor schedules (the analytic route) it is
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
    the bottom; the DP route of Holder images rebuilds the skeleton at the
    bottom's resolution; unions add the rounding of a log-sum.  These
    answer None.
    """
    if isinstance(model, PointSet):
        return 0.0
    if isinstance(model, CantorSchedule):
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
