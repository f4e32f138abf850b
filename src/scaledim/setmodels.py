"""Compact models of the subsets of the line (and plane) we can cover.

Every model describes a set symbolically:

* ``PointSet`` -- a single point;
* ``SequenceSet`` -- {n ** -p : n >= 1} together with its limit 0;
* ``CantorSchedule`` -- a Cantor set given by a per-level contraction
  schedule, stored in run-length blocks so depths like 10**12 stay cheap;
* ``UniformGrid`` -- an evenly spaced grid on [0, 1];
* ``UnionModel`` / ``ProductModel`` / ``HolderImage`` -- combinators;
* ``CarpetParams`` -- a self-affine carpet in the plane (closed-form
  dimensions only, no skeleton).

``skeleton(model, resolution)`` materializes the model as a sorted list of
disjoint intervals (points are zero-length intervals) that is exact down to
``resolution``; cover computations below that resolution must use the
symbolic schedule data instead.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    InputError,
    ResolutionError,
    ScheduleOverflowError,
)
from .scalefun import ScaleFunction

MATERIALIZE_LEVEL_CAP = 20  # interval lists capped at 2**20 entries
SEQUENCE_N_CAP = 10_000_000

Skeleton = list[tuple[float, float]]


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# basic models


@dataclass(frozen=True)
class PointSet:
    """A single point; covers cost exactly one interval."""

    location: float = 0.0
    kind: str = field(default="point", init=False)

    def __post_init__(self) -> None:
        _check_finite("point location", self.location)

    def extent(self) -> tuple[float, float]:
        return (self.location, self.location)

    def skeleton(self, resolution: float) -> Skeleton:
        _check_resolution(resolution)
        return [(self.location, self.location)]


@dataclass(frozen=True)
class SequenceSet:
    """The convergent sequence {n ** -p : n >= 1} plus its limit point 0."""

    p: float
    offset: float = 0.0
    kind: str = field(default="sequence", init=False)

    def __post_init__(self) -> None:
        if not self.p > 0.0:
            raise DomainError(f"sequence exponent p must be positive, got {self.p}")
        _check_finite("offset", self.offset)

    def extent(self) -> tuple[float, float]:
        return (self.offset, self.offset + 1.0)

    def skeleton(self, resolution: float) -> Skeleton:
        return build_sequence_set(self.p, resolution, offset=self.offset).skeleton()


@dataclass(frozen=True)
class MaterializedSequence:
    """A sequence set resolved down to a specific resolution.

    Gaps between consecutive points shrink like p * n**-(p+1); ``n_split``
    is the first index whose gap drops below the resolution, so points
    beyond it collapse into the cluster interval [0, n_split ** -p].
    """

    p: float
    resolution: float
    n_split: int
    offset: float = 0.0

    @cached_property
    def points(self) -> np.ndarray:
        """Isolated points, ascending (excludes the cluster interval)."""
        n = np.arange(self.n_split - 1, 0, -1, dtype=float)
        return self.offset + n ** (-self.p)

    def skeleton(self) -> Skeleton:
        cluster_hi = self.offset + float(self.n_split) ** (-self.p)
        items: Skeleton = [(self.offset, cluster_hi)]
        items.extend((x, x) for x in self.points)
        return items


def _sequence_gap(p: float, n: int) -> float:
    return float(n) ** (-p) - float(n + 1) ** (-p)


def build_sequence_set(
    p: float, resolution: float, offset: float = 0.0
) -> MaterializedSequence:
    """Resolve the sequence set at a resolution, finding the split index.

    The split index is the smallest n whose gap to the next point falls
    below the resolution; beyond it the set is treated as the interval
    [0, n ** -p].  Raises a resolution error if the index would exceed
    the 10**7 cap.
    """
    if not p > 0.0:
        raise DomainError(f"sequence exponent p must be positive, got {p}")
    _check_resolution(resolution)
    if _sequence_gap(p, SEQUENCE_N_CAP) >= resolution:
        raise ResolutionError(
            f"sequence split index for resolution {resolution:.3g} exceeds "
            f"cap {SEQUENCE_N_CAP}"
        )
    lo, hi = 1, SEQUENCE_N_CAP  # invariant: gap(hi) < resolution
    if _sequence_gap(p, lo) < resolution:
        hi = lo
    while lo < hi:
        mid = (lo + hi) // 2
        if _sequence_gap(p, mid) < resolution:
            hi = mid
        else:
            lo = mid + 1
    return MaterializedSequence(p=p, resolution=resolution, n_split=lo, offset=offset)


@dataclass(frozen=True)
class UniformGrid:
    """Points {0, spacing, 2*spacing, ...} ∩ [0, 1], plus offset.

    With spacing None the grid refines with whatever resolution it is
    queried at, modelling a set that stays one-dimensional at all scales.
    """

    spacing: Optional[float] = None
    offset: float = 0.0
    kind: str = field(default="grid", init=False)

    def __post_init__(self) -> None:
        if self.spacing is not None and not 0.0 < self.spacing <= 1.0:
            raise DomainError(f"grid spacing must be in (0, 1], got {self.spacing}")
        _check_finite("offset", self.offset)

    def extent(self) -> tuple[float, float]:
        return (self.offset, self.offset + 1.0)

    def spacing_at(self, resolution: float) -> float:
        return self.spacing if self.spacing is not None else resolution

    def skeleton(self, resolution: float) -> Skeleton:
        _check_resolution(resolution)
        spacing = self.spacing_at(resolution)
        count = int(math.floor(1.0 / spacing)) + 1
        if count > (1 << MATERIALIZE_LEVEL_CAP):
            raise ResolutionError(
                f"grid skeleton would need {count} points, above the "
                f"{1 << MATERIALIZE_LEVEL_CAP} cap"
            )
        xs = self.offset + spacing * np.arange(count)
        return [(float(x), float(x)) for x in xs]


# ---------------------------------------------------------------------------
# Cantor schedules


@dataclass(frozen=True)
class CantorSchedule:
    """Cantor set built by contracting [offset, offset+1] level by level.

    ``blocks`` is a run-length encoding of the per-level contraction
    ratios: ((count_1, r_1), (count_2, r_2), ...).  At each step every
    current interval of length L is replaced by two end intervals of
    length r * L, so level j holds 2**j intervals of length prod r_i.
    Ratios are restricted to (0, 1/3] so that the gap opened at each step
    is at least as long as the children it separates.
    """

    blocks: tuple[tuple[int, float], ...]
    offset: float = 0.0
    preferred_log_scales: tuple[float, ...] = ()
    kind: str = field(default="cantor", init=False)

    def __post_init__(self) -> None:
        if not self.blocks:
            raise InputError("CantorSchedule needs at least one block")
        _check_finite("offset", self.offset)
        norm = []
        for count, ratio in self.blocks:
            count = int(count)
            ratio = float(ratio)
            if count <= 0:
                raise InputError(f"block count must be positive, got {count}")
            if not 0.0 < ratio <= 1.0 / 3.0 + 1e-12:
                raise InputError(
                    f"contraction ratio must be in (0, 1/3], got {ratio}"
                )
            norm.append((count, ratio))
        object.__setattr__(self, "blocks", tuple(norm))

    @classmethod
    def from_ratios(
        cls, ratios: Sequence[float], offset: float = 0.0
    ) -> "CantorSchedule":
        """Build from an explicit per-level ratio list (run-length encoded)."""
        if not ratios:
            raise InputError("need at least one ratio")
        blocks: list[tuple[int, float]] = []
        for r in ratios:
            if blocks and blocks[-1][1] == float(r):
                blocks[-1] = (blocks[-1][0] + 1, blocks[-1][1])
            else:
                blocks.append((1, float(r)))
        return cls(tuple(blocks), offset=offset)

    @classmethod
    def middle_thirds(cls, depth: int, offset: float = 0.0) -> "CantorSchedule":
        return cls(((int(depth), 1.0 / 3.0),), offset=offset)

    @property
    def depth(self) -> int:
        return sum(count for count, _ in self.blocks)

    @cached_property
    def _boundaries(self) -> list[tuple[int, float]]:
        """(level, log_length) at every block edge, starting with (0, 0.0)."""
        out = [(0, 0.0)]
        level, log_len = 0, 0.0
        for count, ratio in self.blocks:
            level += count
            log_len += count * math.log(ratio)
            out.append((level, log_len))
        return out

    def extent(self) -> tuple[float, float]:
        return (self.offset, self.offset + 1.0)

    def level_boundaries(self) -> list[tuple[int, float]]:
        """(level, log_length) at block edges; first entry is (0, 0.0)."""
        return list(self._boundaries)

    def log_length(self, level: int) -> float:
        """log of the common interval length at a level (level 0 = seed)."""
        if not 0 <= level <= self.depth:
            raise DomainError(f"level {level} outside schedule depth {self.depth}")
        bounds = self._boundaries
        levels = [b[0] for b in bounds]
        i = bisect_right(levels, level) - 1
        base_level, base_log = bounds[i]
        if level == base_level:
            return base_log
        ratio = self.blocks[i][1]
        return base_log + (level - base_level) * math.log(ratio)

    def ratio_at(self, step: int) -> float:
        """Contraction ratio applied at a step (step j maps level j-1 to j)."""
        if not 1 <= step <= self.depth:
            raise DomainError(f"step {step} outside schedule depth {self.depth}")
        levels = [b[0] for b in self._boundaries]
        # block i spans steps levels[i]+1 .. levels[i+1]
        i = bisect_right(levels, step - 1) - 1
        return self.blocks[i][1]

    def _invert_log_length(self, log_target: float, round_up: bool) -> Optional[int]:
        """Level whose log-length crosses a target.

        With round_up True, returns the smallest level with
        log_length <= log_target (None when even the deepest level is
        longer); otherwise the largest level with log_length >= log_target
        (None when even the seed is shorter).
        """
        bounds = self._boundaries
        if round_up:
            if bounds[-1][1] > log_target:
                return None
            if bounds[0][1] <= log_target:
                return 0
        else:
            if bounds[0][1] < log_target:
                return None
            if bounds[-1][1] >= log_target:
                return self.depth
        # locate the block whose span contains the target
        for (lv0, lg0), (lv1, lg1), (_, ratio) in zip(
            bounds, bounds[1:], self.blocks
        ):
            if not (lg0 >= log_target >= lg1):
                continue
            step = math.log(ratio)
            guess = lv0 + int((log_target - lg0) / step)
            guess = max(lv0, min(lv1, guess))
            # fix float rounding with a local walk
            if round_up:
                while guess > lv0 and self.log_length(guess - 1) <= log_target:
                    guess -= 1
                while self.log_length(guess) > log_target:
                    guess += 1
            else:
                while guess < lv1 and self.log_length(guess + 1) >= log_target:
                    guess += 1
                while self.log_length(guess) < log_target:
                    guess -= 1
            return guess
        raise AssertionError("unreachable: target not bracketed by boundaries")

    def coarsest_level_not_above(self, log_len: float) -> Optional[int]:
        """Smallest level whose intervals are <= the given log length."""
        return self._invert_log_length(log_len, round_up=True)

    def finest_level_not_below(self, log_len: float) -> Optional[int]:
        """Largest level whose intervals are >= the given log length."""
        return self._invert_log_length(log_len, round_up=False)

    def materialize(self, level: int) -> tuple[np.ndarray, float]:
        """Interval start points and common length at a level.

        Capped at 2**20 intervals; deeper levels stay symbolic and raise a
        resolution error here.
        """
        if not 0 <= level <= self.depth:
            raise DomainError(f"level {level} outside schedule depth {self.depth}")
        if level > MATERIALIZE_LEVEL_CAP:
            raise ResolutionError(
                f"level {level} would materialize 2**{level} intervals; "
                f"cap is 2**{MATERIALIZE_LEVEL_CAP}"
            )
        starts = np.array([self.offset])
        length = 1.0
        for step in range(1, level + 1):
            r = self.ratio_at(step)
            child = length * r
            starts = np.concatenate([starts, starts + (length - child)])
            length = child
        starts.sort()
        return starts, length

    def skeleton(self, resolution: float) -> Skeleton:
        """Intervals of the deepest level still no shorter than the resolution."""
        _check_resolution(resolution)
        log_res = math.log(resolution)
        level = self.finest_level_not_below(log_res)
        if level is None:
            # resolution coarser than the seed: the seed interval suffices
            return [(self.offset, self.offset + 1.0)]
        starts, length = self.materialize(level)
        return [(float(a), float(a) + length) for a in starts]


# ---------------------------------------------------------------------------
# combinators


def _model_extent(model) -> tuple[float, float]:
    try:
        return model.extent()
    except AttributeError:
        raise InputError(f"model of type {type(model).__name__} has no extent")


@dataclass(frozen=True)
class UnionModel:
    """Union of models sitting side by side on the line.

    ``gap`` is the smallest distance between the extents of consecutive
    members; members must not overlap.
    """

    members: tuple
    preferred_log_scales: tuple[float, ...] = ()
    kind: str = field(default="union", init=False)

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise InputError("UnionModel needs at least two members")
        ordered = sorted(self.members, key=lambda m: _model_extent(m)[0])
        for a, b in zip(ordered, ordered[1:]):
            if _model_extent(b)[0] <= _model_extent(a)[1]:
                raise InputError(
                    "union members must have disjoint extents, got "
                    f"{_model_extent(a)} and {_model_extent(b)}"
                )
        object.__setattr__(self, "members", tuple(ordered))

    @property
    def gap(self) -> float:
        return min(
            _model_extent(b)[0] - _model_extent(a)[1]
            for a, b in zip(self.members, self.members[1:])
        )

    def extent(self) -> tuple[float, float]:
        return (_model_extent(self.members[0])[0], _model_extent(self.members[-1])[1])

    def skeleton(self, resolution: float) -> Skeleton:
        items: Skeleton = []
        for m in self.members:
            items.extend(skeleton(m, resolution))
        items.sort()
        for (a0, b0), (a1, _) in zip(items, items[1:]):
            if a1 < b0 - 1e-15:
                raise InputError("union member skeletons overlap")
        return items


@dataclass(frozen=True)
class ProductModel:
    """Cartesian product of two line models, measured with the max metric."""

    left: object
    right: object
    kind: str = field(default="product", init=False)

    def extent(self) -> tuple[float, float]:
        # 1-D footprint is undefined; expose the left factor's for sorting
        return _model_extent(self.left)


@dataclass(frozen=True)
class HolderImage:
    """Image of a base model in [0, 1] under x -> x ** alpha, alpha in (0, 1].

    The map is Holder of exponent alpha, so it can only increase dimension
    by the factor 1/alpha; applied to a sequence set with exponent p it
    yields the sequence set with exponent p * alpha exactly.
    """

    base: object
    alpha: float
    kind: str = field(default="holder", init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")
        lo, hi = _model_extent(self.base)
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise InputError(
                f"HolderImage base must live in [0, 1], got extent ({lo}, {hi})"
            )

    def extent(self) -> tuple[float, float]:
        lo, hi = _model_extent(self.base)
        return (max(lo, 0.0) ** self.alpha, min(hi, 1.0) ** self.alpha)

    def skeleton(self, resolution: float) -> Skeleton:
        """Map a base skeleton and merge the accumulation region.

        The base is resolved at resolution ** (1/alpha): on [0, 1] the map
        is Holder, |x**a - y**a| <= |x - y| ** a, so base features finer
        than that cannot be distinguished at the requested resolution.
        After mapping, leading items whose gaps fall below the resolution
        are merged into a single cluster interval.
        """
        _check_resolution(resolution)
        base_res = resolution ** (1.0 / self.alpha)
        items = skeleton(self.base, base_res)
        mapped = [
            (max(a, 0.0) ** self.alpha, max(b, 0.0) ** self.alpha) for a, b in items
        ]
        mapped.sort()
        split = None
        for i in range(len(mapped) - 1):
            if mapped[i + 1][0] - mapped[i][1] >= resolution:
                split = i
                break
        if split is None or split == 0:
            return mapped
        hull = (mapped[0][0], mapped[split][1])
        return [hull] + mapped[split + 1 :]


# ---------------------------------------------------------------------------
# self-affine carpets (plane; closed-form dimensions only)


@dataclass(frozen=True)
class CarpetParams:
    """Self-affine carpet: split [0,1]^2 into an m-by-n grid (columns of
    width 1/m, rows of height 1/n, m <= n) and keep N_j cells in each of
    M selected columns."""

    m: int
    n: int
    column_counts: tuple[int, ...]
    kind: str = field(default="carpet", init=False)

    def __post_init__(self) -> None:
        if not (2 <= self.m <= self.n):
            raise InputError(f"need 2 <= m <= n, got m={self.m}, n={self.n}")
        counts = tuple(int(c) for c in self.column_counts)
        if not 1 <= len(counts) <= self.m:
            raise InputError(
                f"need between 1 and m={self.m} occupied columns, got {len(counts)}"
            )
        for c in counts:
            if not 1 <= c <= self.n:
                raise InputError(f"column count {c} outside [1, n={self.n}]")
        object.__setattr__(self, "column_counts", counts)


@dataclass(frozen=True)
class CarpetDimensions:
    hausdorff: float
    box: float
    assouad: float


def carpet_dimensions(params: CarpetParams) -> CarpetDimensions:
    """Closed-form Hausdorff, box, and Assouad dimensions of a carpet."""
    m, n = params.m, params.n
    counts = params.column_counts
    big_m = len(counts)
    total = sum(counts)
    log_m, log_n = math.log(m), math.log(n)
    box = math.log(big_m) / log_m + math.log(total / big_m) / log_n
    hausdorff = math.log(sum(c ** (log_m / log_n) for c in counts)) / log_m
    assouad = math.log(big_m) / log_m + math.log(max(counts)) / log_n
    return CarpetDimensions(hausdorff=hausdorff, box=box, assouad=assouad)


# ---------------------------------------------------------------------------
# alternating two-set construction


@dataclass(frozen=True)
class StabilityScheduleState:
    """Bookkeeping from the alternating schedule scan.

    ``k`` are the regime switch exponents (k[0] = 0); marks hold the log
    lengths of each set's intervals at levels 10**k[i]; ``log_r_seq`` holds
    the log of the checkpoint scale r_n for each completed regime.
    """

    k: tuple[int, ...]
    log_e_marks: tuple[float, ...]
    log_f_marks: tuple[float, ...]
    log_r_seq: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.k or self.k[0] != 0:
            raise InputError("regime exponents must start at 0")
        if any(b <= a for a, b in zip(self.k, self.k[1:])):
            raise InputError("regime exponents must strictly increase")
        if any(
            b >= a for a, b in zip(self.log_r_seq, self.log_r_seq[1:])
        ):
            raise InputError("checkpoint scales must strictly decrease")


@dataclass(frozen=True)
class StabilityPair:
    """Two interleaved Cantor sets E ⊂ [0,1] and F ⊂ [2,3] plus their union."""

    e_set: CantorSchedule
    f_set: CantorSchedule
    union: UnionModel
    state: StabilityScheduleState

    def sparse_end_scales(self) -> tuple[tuple[int, float], ...]:
        """(regime, log length) at each regime's last strong-contraction step.

        These are the scales where the regime's sparse set is cheapest to
        cover — its single-level exponent dips toward log2/log5 early on
        and 10*log2/(9*log5) in the limit.  Even regimes sparsify E, odd
        regimes F.
        """
        out = []
        ks = self.state.k
        depth = self.e_set.depth
        for n in range(len(ks) - 1):
            if 10 ** (ks[n] + 1) - 1 > depth:
                break
            mark = (
                self.state.log_e_marks[n]
                if n % 2 == 0
                else self.state.log_f_marks[n]
            )
            out.append((n, mark + 9.0 * 10.0 ** ks[n] * _LOG_SPARSE))
        return tuple(out)


_SPARSE_RATIO = 1.0 / 5.0
_DENSE_RATIO = 1.0 / 3.0
_LOG_SPARSE = math.log(_SPARSE_RATIO)
_LOG_DENSE = math.log(_DENSE_RATIO)
_K_CAP = 300  # 10**k must stay well inside float range


def stability_inequality(
    phi: ScaleFunction, log_dense_mark: float, k_base: int, k: int, log_r: float
) -> tuple[float, float]:
    """(lhs, rhs) of the regime-switch test at candidate exponent k.

    The switch happens at the first k where the dense set's interval log
    length at level 10**k drops below log phi(r), i.e. lhs < rhs.
    """
    lhs = (10.0**k - 10.0**k_base) * _LOG_DENSE + log_dense_mark
    rhs = phi.eval_phi_log(log_r)
    return lhs, rhs


def build_stability_pair(phi: ScaleFunction, levels: int) -> StabilityPair:
    """Build the alternating sparse/dense pair of Cantor sets for a window.

    Each set alternates between decades of strong contraction (ratio 1/5)
    and weak contraction (ratio 1/3), out of phase with the other, with the
    switch exponents k_1 < k_2 < ... chosen from phi: regime n ends at the
    first exponent where the dense set's intervals sink below
    phi(r_n), r_n being the sparse set's length two decades into the
    regime.  ``levels`` is the number of checkpoint scales r_n returned.
    """
    if levels < 1:
        raise InputError(f"levels must be >= 1, got {levels}")
    ks = [0]
    log_e = [0.0]  # marks at levels 10**k (level 1 interval = seed, log 1 = 0)
    log_f = [0.0]
    log_r_seq: list[float] = []
    required_depth = 0.0

    def scan_regime(n: int) -> None:
        k_base = ks[n]
        sparse_is_e = n % 2 == 0
        sparse_mark = log_e[n] if sparse_is_e else log_f[n]
        dense_mark = log_f[n] if sparse_is_e else log_e[n]
        log_r = (
            9.0 * 10.0**k_base * _LOG_SPARSE
            + 90.0 * 10.0**k_base * _LOG_DENSE
            + sparse_mark
        )
        if n < levels:
            log_r_seq.append(log_r)
        try:
            rhs = phi.eval_phi_log(log_r)
        except DomainError as exc:
            raise ScheduleOverflowError(
                f"scale function not evaluable at checkpoint scale "
                f"log r = {log_r:.3g}: {exc}",
                partial_state=None,
            )
        # smallest k > k_base with (10**k - 10**k_base) * log(1/3) + mark < rhs
        excess = (rhs - dense_mark) / _LOG_DENSE  # positive steps needed
        target = 10.0**k_base + excess
        k_next = max(k_base + 1, int(math.ceil(math.log10(max(target, 1.0)))) - 1)
        while True:
            if k_next > _K_CAP:
                raise ScheduleOverflowError(
                    f"regime switch exponent exceeded cap {_K_CAP}",
                    partial_state=StabilityScheduleState(
                        tuple(ks), tuple(log_e), tuple(log_f), tuple(log_r_seq)
                    )
                    if len(log_r_seq) == len(ks) - 1
                    else None,
                )
            lhs, _ = stability_inequality(phi, dense_mark, k_base, k_next, log_r)
            if lhs < rhs and k_next > k_base:
                if k_next == k_base + 1:
                    break
                prev_lhs, _ = stability_inequality(
                    phi, dense_mark, k_base, k_next - 1, log_r
                )
                if prev_lhs >= rhs:
                    break
                k_next -= 1
            else:
                k_next += 1
        ks.append(k_next)
        sparse_growth = 9.0 * 10.0**k_base * _LOG_SPARSE + (
            10.0**k_next - 10.0 ** (k_base + 1)
        ) * _LOG_DENSE
        dense_growth = (10.0**k_next - 10.0**k_base) * _LOG_DENSE
        if sparse_is_e:
            log_e.append(log_e[n] + sparse_growth)
            log_f.append(log_f[n] + dense_growth)
        else:
            log_e.append(log_e[n] + dense_growth)
            log_f.append(log_f[n] + sparse_growth)

    n = 0
    while n <= levels or 10.0 ** ks[-1] < required_depth:
        if n > levels + 8:
            raise ScheduleOverflowError(
                "schedule depth expansion did not converge", partial_state=None
            )
        scan_regime(n)
        if n + 1 == levels:
            # structure must extend below the finest checkpoint window floor
            required_depth = 2.0 * (
                phi.eval_phi_log(log_r_seq[-1]) / _LOG_DENSE
            )
        n += 1

    depth = 10 ** ks[-1] - 1  # schedule steps 1 .. 10**k_last - 1
    regime_count = len(ks) - 1

    def assemble(sparse_parity: int) -> CantorSchedule:
        blocks: list[tuple[int, float]] = []

        def push(count: int, ratio: float) -> None:
            if count <= 0:
                return
            if blocks and blocks[-1][1] == ratio:
                blocks[-1] = (blocks[-1][0] + count, ratio)
            else:
                blocks.append((count, ratio))

        cursor = 1
        for i in range(regime_count):
            if i % 2 != sparse_parity:
                continue
            lo = 10 ** ks[i]
            hi = min(10 ** (ks[i] + 1) - 1, depth)
            if lo > depth:
                break
            push(lo - cursor, _DENSE_RATIO)
            push(hi - lo + 1, _SPARSE_RATIO)
            cursor = hi + 1
        push(depth - cursor + 1, _DENSE_RATIO)
        return CantorSchedule(
            tuple(blocks),
            offset=0.0 if sparse_parity == 0 else 2.0,
            preferred_log_scales=tuple(log_r_seq),
        )

    e_set = assemble(0)
    f_set = assemble(1)
    state = StabilityScheduleState(
        k=tuple(ks),
        log_e_marks=tuple(log_e),
        log_f_marks=tuple(log_f),
        log_r_seq=tuple(log_r_seq),
    )
    union = UnionModel(
        (e_set, f_set), preferred_log_scales=tuple(log_r_seq)
    )
    return StabilityPair(e_set=e_set, f_set=f_set, union=union, state=state)


# ---------------------------------------------------------------------------
# shared helpers


def _check_resolution(resolution: float) -> None:
    if not resolution > 0.0 or math.isinf(resolution):
        raise ResolutionError(f"resolution must be a positive float, got {resolution}")


def skeleton(model, resolution: float) -> Skeleton:
    """Materialize a model as sorted disjoint intervals, exact to a resolution."""
    fn = getattr(model, "skeleton", None)
    if fn is None:
        raise InputError(
            f"model kind {getattr(model, 'kind', type(model).__name__)!r} "
            "has no line skeleton"
        )
    return fn(resolution)


def translate(model, dx: float):
    """Shift a line model by dx (used for translation-invariance checks).

    A union shifts its members; any other model shifts its ``offset``
    (``location`` for a point).  Models with neither cannot be shifted.
    """
    names = {f.name for f in fields(model)} if is_dataclass(model) else ()
    if "members" in names:
        return replace(model, members=tuple(translate(m, dx) for m in model.members))
    for name in ("offset", "location"):
        if name in names:
            return replace(model, **{name: getattr(model, name) + dx})
    raise InputError(f"cannot translate model of kind {getattr(model, 'kind', '?')!r}")


def ambient_dimension(model) -> int:
    return 2 if isinstance(model, (ProductModel, CarpetParams)) else 1


def _offset_suffix(model) -> str:
    """``@offset`` for a shifted model, empty at offset 0."""
    return f"@{model.offset:g}" if model.offset else ""


def model_id(model) -> str:
    """Short stable identifier used in reports and serialized tables."""
    kind = getattr(model, "kind", type(model).__name__)
    if isinstance(model, SequenceSet):
        return f"sequence(p={model.p:g})" + _offset_suffix(model)
    if isinstance(model, PointSet):
        return f"point({model.location:g})"
    if isinstance(model, UniformGrid):
        return f"grid(spacing={model.spacing!r})" + _offset_suffix(model)
    if isinstance(model, CantorSchedule):
        blocks = ",".join(f"{c}x{r:g}" for c, r in model.blocks[:4])
        more = "..." if len(model.blocks) > 4 else ""
        return f"cantor[{blocks}{more}]@{model.offset:g}"
    if isinstance(model, UnionModel):
        return "union(" + "|".join(model_id(m) for m in model.members) + ")"
    if isinstance(model, ProductModel):
        return f"product({model_id(model.left)},{model_id(model.right)})"
    if isinstance(model, HolderImage):
        return f"holder(a={model.alpha:g},{model_id(model.base)})"
    if isinstance(model, CarpetParams):
        return f"carpet(m={model.m},n={model.n},cols={list(model.column_counts)})"
    return str(kind)


#: Every serializable model class under its ``kind``, used in both directions.
_MODEL_KINDS = {
    cls.kind: cls
    for cls in (
        PointSet, SequenceSet, UniformGrid, CantorSchedule,
        UnionModel, ProductModel, HolderImage, CarpetParams,
    )
}


def _finite_scales(raw) -> tuple[float, ...]:
    """``preferred_log_scales`` from a spec: a list of finite numbers."""
    try:
        scales = tuple(float(v) for v in raw) if isinstance(raw, (list, tuple)) else None
    except (TypeError, ValueError):
        scales = None
    if scales is None or not all(math.isfinite(v) for v in scales):
        raise InputError(
            f"preferred_log_scales must be a list of finite numbers, got {raw!r}"
        )
    return scales


#: How ``model_from_dict`` reads each field, by field name.
_FIELD_DECODERS = {
    "location": float,
    "p": float,
    "offset": float,
    "alpha": float,
    "spacing": lambda v: None if v is None else float(v),
    "m": int,
    "n": int,
    "column_counts": lambda v: tuple(int(c) for c in v),
    "blocks": lambda v: tuple((int(c), float(r)) for c, r in v),
    "preferred_log_scales": _finite_scales,
    "members": lambda v: tuple(model_from_dict(m) for m in v),
    "left": lambda v: model_from_dict(v),
    "right": lambda v: model_from_dict(v),
    "base": lambda v: model_from_dict(v),
}


def _plain(value):
    """A field value in JSON form: models as dicts, tuples as lists."""
    if is_dataclass(value):
        return model_to_dict(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def model_to_dict(model) -> dict:
    """``kind`` plus every constructor field; empty tuples are left out."""
    if _MODEL_KINDS.get(getattr(model, "kind", None)) is not type(model):
        raise InputError(f"cannot serialize model of type {type(model).__name__}")
    out = {"kind": model.kind}
    for f in fields(model):
        value = getattr(model, f.name)
        if f.init and not (isinstance(value, tuple) and not value):
            out[f.name] = _plain(value)
    return out


def model_from_dict(data: dict):
    """Inverse of ``model_to_dict``; a Cantor spec may give ``ratios``
    (one per level) instead of ``blocks``."""
    try:
        cls = _MODEL_KINDS[data["kind"]]
    except (KeyError, TypeError):
        raise InputError(f"model spec needs a known 'kind', got {data!r}")
    if cls is CantorSchedule and "blocks" not in data:
        ratios = [float(r) for r in data["ratios"]]
        data = {**data, "blocks": CantorSchedule.from_ratios(ratios).blocks}
    return cls(
        **{
            f.name: _FIELD_DECODERS[f.name](data[f.name])
            for f in fields(cls)
            if f.init and (f.name in data or f.default is MISSING)
        }
    )
