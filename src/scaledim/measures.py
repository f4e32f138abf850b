"""Frostman-type measures and their ball-mass growth.

The constructive direction: build an atomic measure on a model's skeleton
by seeding mass b^{-ms} on the finest-level cubes of a b-adic hierarchy
and capping upward so no cube at any chain level carries more than its
share.  The checking direction: verify ball-mass growth of any atomic
measure exactly, and convert a ball constant into one for sets by
diameter.  The mass distribution principle's cover-cost lower bounds for
Cantor schedules are :func:`scaledim.covers.schedule_mass_constant`'s.

A construction splits into structure and masses.  The structure of one
scale does not depend on s: the hierarchy depth, the skeleton, the seeded
cubes and atom locations, each chain level's cube numbering, and for each
scan radius the ends of the atom runs.  The masses do: the seed mass, the
caps, the normalization and the prefix sums.  :func:`massfrostman_roundtrip`
therefore builds the structure once per scale and runs only the cap chain
and the scoring per s; :func:`build_frostman_measure` and
:func:`verify_ball_mass` run the same steps for a single s.  The seeded
cubes come out sorted, so their first atoms and each chain level's
numbering are read off where a value is new, without sorting.

The ball-mass scan searches run ends only at radii that can still set a
maximum.  It searches the largest radius first, tests the smallest
second, then visits the others once from the top down.  The heaviest
ball mass never decreases with the radius, so at a radius r it is at
most the heaviest mass at the nearest searched radius above.  Inside
:func:`massfrostman_roundtrip` it is also at most the cap bound of the
measure's own chain: every level-l cube holds at most b^-ls of the raw
mass, and a ball of radius r meets at most ceil(2r b^l) + 1 of them.
An arbitrary measure, as :func:`verify_ball_mass` gets it, has no caps
and no such bound.  Where the least bound over r^s is below the best
ratio already found, r cannot reach the maximum and is skipped.  The
bounds hold in floats (the prefix masses never decrease, the run ends
never decrease in r, float subtraction and division are monotone, and
the cap bound carries a proved margin), so the constants and witnesses
are those of the full scan, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .covers import ScaleWindow
from .errors import BudgetError, DomainError, InputError, ResolutionError
from .estimator import critical_exponent
from .scalefun import ScaleFunction
from .setmodels import _line_skeleton, skeleton

#: Default branching base of the cube hierarchy.
DEFAULT_BASE = 20

#: Hard cap on the number of seeded atoms.
ATOM_CAP = 2_000_000

#: Largest log-constant slope :func:`massfrostman_roundtrip` reads as bounded.
_BETA0 = 0.02


@dataclass(frozen=True, eq=False)
class FrostmanMeta:
    """Construction record attached to a built measure.

    ``cube_indices`` are the level-``level_fine`` cube indices of the
    atoms, in atom order.
    """

    base: int
    level_fine: int
    chain_length: int
    cube_indices: np.ndarray


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """A finitely supported measure on the line.

    Locations are sorted ascending; masses are positive.  After
    normalization the masses sum to 1 and ``pre_normalization_total``
    records the raw total, which is the quantitative content of the
    construction (a vanishing raw total means the exponent was too big).
    """

    locations: np.ndarray
    masses: np.ndarray
    pre_normalization_total: float = 1.0
    meta: Optional[FrostmanMeta] = None

    def __post_init__(self) -> None:
        loc = np.asarray(self.locations, dtype=float)
        mas = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "masses", mas)
        if loc.ndim != 1 or mas.shape != loc.shape:
            raise InputError("locations and masses must be 1-D arrays of equal length")
        if loc.size == 0:
            raise InputError("measure must have at least one atom")
        if np.any(np.diff(loc) < 0.0):
            raise InputError("locations must be sorted ascending")
        if not np.all(mas > 0.0):
            raise InputError("masses must be positive")

    @classmethod
    def _on_sorted(cls, locations, masses, total, meta) -> "AtomicMeasure":
        """A measure on 1-D, nonempty, sorted float ``locations`` already
        checked, and float ``masses`` of their shape; only the masses'
        signs are checked."""
        if not np.all(masses > 0.0):
            raise InputError("masses must be positive")
        measure = object.__new__(cls)
        for name, value in zip(
            ("locations", "masses", "pre_normalization_total", "meta"),
            (locations, masses, total, meta),
        ):
            object.__setattr__(measure, name, value)
        return measure

    def prefix_masses(self) -> np.ndarray:
        """Cumulative masses with a leading 0, for interval queries."""
        out = np.empty(self.masses.size + 1)
        out[0] = 0.0
        np.cumsum(self.masses, out=out[1:])
        return out

    def to_rows(self) -> list[tuple[float, float]]:
        return [(float(x), float(w)) for x, w in zip(self.locations, self.masses)]


def frostman_levels(
    phi: ScaleFunction, log_delta: float, base: int = DEFAULT_BASE
) -> tuple[int, int]:
    """Hierarchy depth (m) and cap-chain length (l) for one window.

    m is the largest integer with phi(delta) <= b^-m / 2, so the seeded
    cubes sit just below the window bottom; l is the largest integer with
    8 * b^-(m-l) <= delta, so the coarsest capped level stays comfortably
    inside the window.  A window too narrow for the hierarchy (l < 0) is
    rejected, and so is a base that is not an integer >= 2; a level whose
    b^m overflows a float is a ``ResolutionError``.
    """
    _check_base(base)
    log_b = math.log(base)
    log_phi = phi.eval_phi_log(log_delta)
    m = math.floor(-(math.log(2.0) + log_phi) / log_b + 1e-12)
    le = math.floor(m - (math.log(8.0) - log_delta) / log_b + 1e-12)
    if m < 0 or le < 0:
        raise DomainError(
            "window too narrow for the cube hierarchy: need "
            f"phi(delta) <= delta/16 with room to spare (m={m}, l={le})"
        )
    try:
        float(base) ** m
    except OverflowError:
        raise ResolutionError(f"level-{m} cubes in base {base} lie below float range")
    return m, le


def _check_base(base) -> None:
    if not isinstance(base, (int, np.integer)) or isinstance(base, bool) or base < 2:
        raise DomainError(f"cube base must be an integer >= 2, got {base!r}")


@dataclass(frozen=True, eq=False)
class _Seed:
    """The s-independent part of a Frostman construction at one scale.

    ``inverses[k]`` maps each atom to its level-(m-k-1) cube among the
    occupied ones, numbered 0, 1, ... in ascending cube order.
    """

    base: int
    m: int
    le: int
    cubes: np.ndarray
    locations: np.ndarray
    inverses: tuple[np.ndarray, ...]


def _seed(model, log_delta: float, phi: ScaleFunction, base: int) -> _Seed:
    """Seeded level-m cubes of a model, their atoms and cap-chain ancestry.

    Each level-m cube meeting the skeleton gets one atom, at the leftmost
    skeleton point inside it: the first item (in skeleton order) whose
    floored range reaches the cube decides.  The atom budget is checked
    on the count of distinct cubes before any per-cube array exists;
    a :class:`~scaledim.setmodels.Skeleton` is nonempty, sorted and
    disjoint, so neighbouring items share at most their boundary cube.
    The cube ranges are floored straight from the skeleton's ``starts``
    and ``ends`` arrays.
    """
    m, le = frostman_levels(phi, log_delta, base)
    items = skeleton(model, float(base) ** (-m))

    scale = float(base) ** m
    # the skeleton is sorted, so its outermost endpoints hold the largest
    # |index|; checked before the scaling, which could overflow a float
    if max(abs(float(items.starts[0])), abs(float(items.ends[-1]))) * scale >= 2.0**63:
        raise ResolutionError(f"level-{m} cube indices do not fit in 64 bits")
    # floors of floats are exact integers; counted as floats, since the
    # cube count can exceed int64 before the budget check has run
    q_first = np.floor(items.starts * scale)
    q_last = np.floor(items.ends * scale)
    n_cubes = float(np.sum(q_last - q_first + 1.0)) - np.count_nonzero(
        q_first[1:] == q_last[:-1]
    )
    if n_cubes > ATOM_CAP:
        raise BudgetError(
            f"more than {ATOM_CAP} seeded cubes at level {m}; "
            "use a finer-grained route or a coarser delta"
        )
    q_first = q_first.astype(np.int64)
    spans = q_last.astype(np.int64) - q_first + 1
    owner = np.repeat(np.arange(spans.size), spans)
    offset = np.cumsum(spans) - spans  # of each item's range in `reached`
    reached = np.arange(owner.size) + np.repeat(q_first - offset, spans)
    # `reached` never decreases, so each cube's first occurrence is where
    # its value is new
    first = np.flatnonzero(_new_values(reached))
    cubes = reached[first]
    locations = np.maximum(items.starts[owner[first]], cubes / scale)
    # checked here once: every s of the scale builds on these locations
    if np.any(np.diff(locations) < 0.0):
        raise InputError("locations must be sorted ascending")

    # cap-chain ancestors by exact integer division, finest to coarsest; a
    # divisor above every |cube| (cubes are sorted) gives the same quotients
    # and fits in int64.  The quotients are sorted too, so counting new
    # values numbers the ancestors in ascending order
    top = max(-int(cubes[0]), int(cubes[-1])) + 1
    inverses = tuple(
        np.cumsum(_new_values(cubes // min(base ** (k + 1), top))) - 1 for k in range(le)
    )
    return _Seed(base, m, le, cubes, locations, inverses)


def _new_values(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their predecessor."""
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return new


def _cap_chain(seed: _Seed, s: float) -> AtomicMeasure:
    """Seed mass b^-ms per atom, cap every chain level, normalize."""
    base, m = seed.base, seed.m
    masses = np.full(seed.locations.size, float(base) ** (-m * s))
    for k, inverse in enumerate(seed.inverses):
        level = m - k - 1
        sums = np.bincount(inverse, weights=masses)
        cap = float(base) ** (-level * s)
        factors = np.minimum(1.0, cap / sums)
        masses = masses * factors[inverse]

    raw_total = float(masses.sum())
    if raw_total <= 0.0:
        raise DomainError("construction produced zero total mass")
    meta = FrostmanMeta(
        base=base, level_fine=m, chain_length=seed.le, cube_indices=seed.cubes
    )
    # the seed's locations are checked; an underflowed atom still fails
    return AtomicMeasure._on_sorted(seed.locations, masses / raw_total, raw_total, meta)


def build_frostman_measure(
    model,
    s: float,
    log_delta: float,
    phi: ScaleFunction,
    *,
    base: int = DEFAULT_BASE,
) -> AtomicMeasure:
    """Seed-and-cap measure adapted to the window [phi(delta), delta].

    One atom of mass b^-ms is placed at the leftmost skeleton point of
    each level-m cube meeting the model; then, from the finest chain
    level upward, the mass of every level-(m-k-1) cube is scaled down to
    at most b^-(m-k-1)s.  The result is normalized, with the
    pre-normalization total kept on the measure.
    """
    if not 0.0 <= s <= 1.0:
        raise InputError(f"s must lie in [0, 1], got {s}")
    return _cap_chain(_seed(model, log_delta, phi, base), s)


@dataclass(frozen=True)
class BallMassReport:
    """Exact maximum of ball mass over radius^s across a radius grid."""

    c_observed: float
    witness_center: float
    witness_radius: float
    witness_mass: float
    radii: tuple[float, ...]


def _scan_radii(window: ScaleWindow) -> list[float]:
    """The sorted radius scan: 33 log-spaced radii across the window."""
    radii = [
        math.exp(window.log_lo + t * (window.log_hi - window.log_lo))
        for t in np.linspace(0.0, 1.0, 33)[1:-1]
    ]
    return sorted(float(r) for r in radii + [window.lo, window.hi])


def _cap_bounds(
    seed: _Seed,
    radii: list[float],
    mus: Sequence[AtomicMeasure],
    exponents: Sequence[float],
) -> list[list[float]]:
    """Upper bounds on the heaviest run mass of cap-chain measures, per radius.

    Every cube of a chain level l = m - le, ..., m (a level-m cube holds
    one atom) carries at most the raw mass b^-ls, and a run of atoms of
    width below 2r meets at most ceil(2r b^l) + 1 level-l cubes, so it
    holds at most that many caps over the raw total T of the normalized
    mass.  The bound of a measure at r is the least over the chain levels
    of (ceil(2r b^l) + 2) b^-ls / T, times 1 + rho, plus n 2^-50, for n
    atoms, rho = 2^-20 + (n + Q) 2^-50 and Q one more than the largest
    |cube index|.

    The extra cube and the margins cover the floats (u = 2^-53, and
    g = n u / (1 - n u) bounds the relative error of a float sum of at
    most n positive terms):

    - Masses.  A capped cube's raw mass is at most cap (1 + u)^2 / (1 - g):
      its factor fl(cap / S) is at most (1 + u) cap / S, or 1 only where
      cap / S >= 1 - u; S is within g of the exact sum; each scaled atom
      rounds up by at most u.  Coarser caps scale atoms by factors <= 1,
      which never raise a float.  The chain's caps and the ones here are
      pow of the same float exponents, within two ulps of each other.
    - Prefix sums.  The normalized masses fl(mu / T) sum to less than
      1.01, so each prefix sum is within 1.02 n u of the exact sum of its
      terms, and a run mass from two of them exceeds (1 + u)^2 times the
      exact normalized run mass by less than n 2^-50 / 2.
    - Geometry.  An atom's location x, the larger of fl(q / fl(b^m)) for
      its cube q and the start of a skeleton item with
      fl(start fl(b^m)) < q + 1, has x b^m within t = 5 u Q of
      [q, q + 1], so the atom's level-l
      ancestor is floor(y b^(l-m)) for some y within t of x b^m.  A run
      lies in [x_i, fl(x_i + 2r)), of width at most 2r (1 + u) + u |x|max,
      and |x|max b^m <= Q + t; with x = 2r b^l it meets
      N <= x (1 + u) + 12 u Q + 2 cubes, while the counted
      C = ceil(fl(2r fl(b^l))) + 2 >= x (1 - 2u) + 2, where fl(b^l) is the
      exact integer b^l rounded once.  So N / C <= 1 + 4u + 6 u Q.

    The computed bound rounds at most six times, so with those factors
    it stays within 1 + rho of C b^-ls / T: every heaviest run mass the
    scan computes is at most it, bit for bit in floats.
    """
    levels = np.arange(seed.m - seed.le, seed.m + 1)
    widths = np.array([float(seed.base**level) for level in levels])
    counts = np.ceil(np.multiply.outer(2.0 * np.asarray(radii), widths)) + 2.0
    n = seed.locations.size
    top = max(-int(seed.cubes[0]), int(seed.cubes[-1])) + 1
    rho = 2.0**-20 + (n + top) * 2.0**-50
    bounds = []
    for mu, s in zip(mus, exponents):
        caps = float(seed.base) ** (-levels * s)
        least = (counts * caps).min(axis=1) / mu.pre_normalization_total
        bounds.append((least * (1.0 + rho) + n * 2.0**-50).tolist())
    return bounds


def _scan_runs(
    locs: np.ndarray,
    radii: list[float],
    prefixes: Sequence[np.ndarray],
    exponents: Sequence[float],
    bounds: Sequence[Sequence[float]] = (),
) -> list[BallMassReport]:
    """Ball-mass scan of several measures on the same atoms.

    A searched radius has its run ends searched once, and every measure
    (given by its prefix masses and exponent) takes its heaviest run
    against them.  Only radii that can still set some measure's maximum
    are searched.  The heaviest run mass never decreases with the radius:
    the run ends ``searchsorted(locs, locs + 2r)`` never decrease in r, the
    prefix masses are a running sum of positive masses, and float
    subtraction is monotone.  ``bounds``, where given, holds an upper
    bound on each measure's heaviest run mass at each radius (the cap
    bound of :func:`_cap_bounds`; an arbitrary measure has none).  So at a
    radius r below a searched radius r' a measure's heaviest run mass is
    at most the least of its heaviest mass at r' and its bound at r, and,
    float division being monotone, its ratio is at most that over r**s.
    The largest radius is searched first; it bounds every mass below it.
    The smallest radius, where r**s is least and which often holds the
    maximum ratio, is tested second, and the others from the top down:
    each is searched only if that bound over r**s, from the nearest
    searched radius above it, is not strictly below some measure's best
    ratio so far.  With no bounds and s >= 0 the smallest radius always
    passes.  A skipped radius thus has every ratio strictly below the
    maximum, and scoring the searched radii in ascending order gives the
    maximum and its witness (the smallest radius reaching it) of the full
    scan, bit for bit.

    Every run holds at least its first atom.  Where 2r is at most half the
    float spacing at an atom, ``loc + 2r`` rounds back to ``loc`` and the
    search would end the run before it starts, so the ends are then raised
    to one past each start; raised ends still never decrease in r.  The
    raise is applied only when the smallest 2r is within half the spacing
    at the atom farthest from 0, the largest spacing of all.
    """
    n = locs.size
    spacing = math.ulp(max(abs(float(locs[0])), abs(float(locs[-1]))))
    first_ends = np.arange(1, n + 1) if 2.0 * radii[0] <= 0.5 * spacing else None
    reached = [-math.inf] * len(prefixes)  # best ratio of each measure so far
    # radius index -> (ratio, mass, first atom, run end) of each measure
    runs: dict[int, list[tuple[float, float, int, int]]] = {}

    def search(k: int) -> None:
        r = radii[k]
        ends = np.searchsorted(locs, locs + 2.0 * r, side="left")
        if first_ends is not None:
            np.maximum(ends, first_ends, out=ends)
        row = []
        for j, (prefix, s) in enumerate(zip(prefixes, exponents)):
            run_masses = prefix[ends] - prefix[:n]
            i = int(np.argmax(run_masses))
            mass = float(run_masses[i])
            ratio = mass / r**s
            reached[j] = max(reached[j], ratio)
            row.append((ratio, mass, i, int(ends[i])))
        runs[k] = row

    top = len(radii) - 1
    limits = bounds or [[math.inf] * len(radii)] * len(prefixes)
    search(top)
    for k in (0, *range(top - 1, 0, -1)):
        r = radii[k]
        above = min(j for j in runs if j > k)  # the nearest searched radius above k
        heaviest = (mass for _, mass, _, _ in runs[above])
        if any(
            min(m, c[k]) / r**s >= b
            for m, c, s, b in zip(heaviest, limits, exponents, reached)
        ):
            search(k)

    best = [-math.inf] * len(prefixes)
    witness = [(0.0, radii[0], 0.0)] * len(prefixes)
    for k in sorted(runs):
        for j, (ratio, mass, i, end) in enumerate(runs[k]):
            if ratio > best[j]:
                center = 0.5 * (locs[i] + locs[end - 1]) if mass > 0.0 else locs[i]
                best[j] = ratio
                witness[j] = (center, radii[k], mass)
    return [
        BallMassReport(
            c_observed=c,
            witness_center=w[0],
            witness_radius=w[1],
            witness_mass=w[2],
            radii=tuple(radii),
        )
        for c, w in zip(best, witness)
    ]


def verify_ball_mass(mu: AtomicMeasure, window: ScaleWindow, s: float) -> BallMassReport:
    """Smallest c with mu(B(x, r)) <= c r^s over the 33 scanned radii.

    Balls are open.  For each radius the maximization over centers is
    exact: the heaviest ball's leftmost atom starts a contiguous run of
    atoms of diameter < 2r, so sweeping run starts finds the maximum.
    The radii are linear floats: a window whose smallest radius, raised
    to s, underflows to 0 is refused, since no ratio can be formed there,
    and so is a non-finite s, or one at which some radius raised to it
    leaves the float range (``r**s`` is monotone in ``r``, so the end
    radii show it).
    """
    if not math.isfinite(s):
        raise InputError(f"s must be finite, got {s}")
    radii = _scan_radii(window)
    try:
        powers = (radii[0] ** s, radii[-1] ** s) if radii[0] > 0.0 else (0.0,)
    except OverflowError:
        powers = (math.inf,)
    if not powers[0] > 0.0:
        raise InputError("window too deep for linear mass checks")
    if not all(0.0 < power < math.inf for power in powers):
        raise InputError(f"radii raised to s={s} leave the float range over this window")
    return _scan_runs(mu.locations, radii, [mu.prefix_masses()], [s])[0]


def ball_to_set_constant(c_ball: float, s: float) -> float:
    """Convert a ball-mass constant to one for sets by diameter.

    A set of diameter L lies in a ball of radius L, so the set constant
    2^s * c_ball is always sound for the same exponent.
    """
    return 2.0**s * c_ball


@dataclass(frozen=True)
class RoundtripRow:
    """Growth diagnostics of the constructed measures at one exponent."""

    s: float
    slope: float
    c_values: tuple[float, ...]
    raw_totals: tuple[float, ...]
    built: bool


@dataclass(frozen=True)
class RoundtripReport:
    """Measure-based dimension estimate versus the cover-based bracket."""

    estimate: float
    beta0: float
    rows: tuple[RoundtripRow, ...]
    bracket_lower: float
    bracket_upper: float


def massfrostman_roundtrip(
    model,
    phi: ScaleFunction,
    s_grid: Sequence[float],
    log_deltas: Sequence[float],
    *,
    base: int = DEFAULT_BASE,
) -> RoundtripReport:
    """Estimate the dimension from measure growth and cross-check covers.

    For each s a measure is built at every scale and its ball-mass
    constant recorded.  Below the dimension the constants stay bounded;
    above it they grow like a power of 1/delta.  The estimate is the
    largest s whose log-constant slope (against -log delta) stays within
    0.02 (the report's ``beta0``).  The cover-based bracket at the finest
    scale is attached for comparison.

    Structure once per scale, masses and scan per s: each scale's
    skeleton, seeded cubes, atoms and cap-chain ancestry are built once
    for the whole s grid, and each searched radius's run ends are
    searched once and scored against every s.  The largest radius is
    searched first; the smallest and then every other, from the top down,
    only if, for some s, the least of two bounds on its heaviest run mass,
    over r**s, is not below the best ratio so far: the heaviest run mass
    at the nearest searched radius above it, since that mass never
    decreases with the radius, and the cap bound of the measure's own
    chain, since a run of width below 2r meets at most ceil(2r b^l) + 1
    level-l cubes, each holding at most b^-ls of the raw mass.  The cap
    bound holds only for these cap-chain measures; it is exact in floats
    with a proved margin, so a skipped radius cannot set any constant,
    and the constants equal the full scan's bit for bit.  On the
    default-seed ``frostman`` benchmark cycle the scans search 5.67 of
    their 33 radii on average.

    A non-integer or unit ``base``, a model with no line skeleton, a
    scale that is not finite or outside ``phi``'s domain and a NaN
    exponent are refused up front, with the errors
    :func:`build_frostman_measure` raises.  A row whose construction fails
    at some scale (s outside [0, 1], a window too narrow for the
    hierarchy, the atom budget, zero total mass or an underflowed atom)
    stops there, unbuilt, with the constants of the scales before.
    """
    _check_base(base)
    _line_skeleton(model)
    log_phis = {ld: phi.eval_phi_log(ld) for ld in map(float, log_deltas)}
    grid = sorted(log_phis, reverse=True)
    if len(grid) < 2:
        raise InputError("need at least two scales for a growth diagnostic")
    s_values = sorted(float(v) for v in s_grid)
    if any(math.isnan(s) for s in s_values):
        raise InputError("s must not be NaN")
    c_vals: list[list[float]] = [[] for _ in s_values]
    totals: list[list[float]] = [[] for _ in s_values]
    live = [j for j, s in enumerate(s_values) if 0.0 <= s <= 1.0]
    for ld in grid:
        if not live:
            break
        try:
            seed = _seed(model, ld, phi, base)
        except (DomainError, BudgetError):
            live = []
            break
        built = []
        for j in live:
            try:
                built.append((j, _cap_chain(seed, s_values[j])))
            except (DomainError, InputError, BudgetError):
                continue  # row j stops here, unbuilt
        live = [j for j, _ in built]
        if not built:
            break
        radii = _scan_radii(ScaleWindow(log_phis[ld], ld))
        exponents = [s_values[j] for j, _ in built]
        mus = [mu for _, mu in built]
        reports = _scan_runs(
            seed.locations,
            radii,
            [mu.prefix_masses() for mu in mus],
            exponents,
            _cap_bounds(seed, radii, mus, exponents),
        )
        for (j, mu), rep in zip(built, reports):
            c_vals[j].append(rep.c_observed)
            totals[j].append(mu.pre_normalization_total)

    estimate = 0.0
    rows = []
    for j, s in enumerate(s_values):
        c_row, total_row = tuple(c_vals[j]), tuple(totals[j])
        if j not in live:
            rows.append(RoundtripRow(s, math.inf, c_row, total_row, False))
            continue
        slope = (math.log(c_row[-1]) - math.log(c_row[0])) / (grid[0] - grid[-1])
        rows.append(RoundtripRow(s, slope, c_row, total_row, True))
        if slope <= _BETA0:
            estimate = max(estimate, s)
    ce = critical_exponent(model, phi, grid[-1])
    return RoundtripReport(
        estimate=estimate,
        beta0=_BETA0,
        rows=tuple(rows),
        bracket_lower=ce.s_lower,
        bracket_upper=ce.s_upper,
    )
