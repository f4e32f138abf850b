"""Frostman-type measures and the mass distribution principle.

The constructive direction: build an atomic measure on a model's skeleton
by seeding mass b^{-ms} on the finest-level cubes of a b-adic hierarchy
and capping upward so no cube at any chain level carries more than its
share.  The checking direction: verify ball-mass growth of any atomic
measure exactly, and turn a verified constant into a certified lower
bound on window cover costs.

A construction splits into structure and masses.  The structure of one
scale does not depend on s: the hierarchy depth, the skeleton, the seeded
cubes and atom locations, each chain level's cube numbering, and for each
scan radius the ends of the atom runs.  The masses do: the seed mass, the
caps, the normalization and the prefix sums.  :func:`massfrostman_roundtrip`
therefore builds the structure once per scale and runs only the cap chain
and the scoring per s; :func:`build_frostman_measure` and
:func:`verify_ball_mass` run the same steps for a single s.
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
from .setmodels import CantorSchedule, skeleton

#: Default branching base of the cube hierarchy.
DEFAULT_BASE = 20

#: Hard cap on the number of seeded atoms.
ATOM_CAP = 2_000_000


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

    @property
    def total(self) -> float:
        return float(self.masses.sum())

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
    rejected, and so is a base that is not an integer >= 2.
    """
    if not isinstance(base, (int, np.integer)) or isinstance(base, bool) or base < 2:
        raise DomainError(f"cube base must be an integer >= 2, got {base!r}")
    log_b = math.log(base)
    log_phi = phi.eval_phi_log(log_delta)
    m = math.floor(-(math.log(2.0) + log_phi) / log_b + 1e-12)
    le = math.floor(m - (math.log(8.0) - log_delta) / log_b + 1e-12)
    if m < 0 or le < 0:
        raise DomainError(
            "window too narrow for the cube hierarchy: need "
            f"phi(delta) <= delta/16 with room to spare (m={m}, l={le})"
        )
    return m, le


@dataclass(frozen=True, eq=False)
class _Seed:
    """The s-independent part of a Frostman construction at one scale.

    ``inverses[k]`` maps each atom to its level-(m-k-1) cube among the
    occupied ones, as ``np.unique(..., return_inverse=True)`` numbers them.
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
    skeletons are sorted and disjoint, so neighbouring items share at most
    their boundary cube.
    """
    m, le = frostman_levels(phi, log_delta, base)
    items = skeleton(model, float(base) ** (-m))
    if not items:
        raise InputError("model skeleton is empty")

    scale = float(base) ** m
    bounds = np.array(items, dtype=float)
    # floors of floats are exact integers; counted as floats, since deep
    # levels can exceed int64 before the budget check has run
    q_first = np.floor(bounds[:, 0] * scale)
    q_last = np.floor(bounds[:, 1] * scale)
    n_cubes = float(np.sum(q_last - q_first + 1.0)) - np.count_nonzero(
        q_first[1:] == q_last[:-1]
    )
    if n_cubes > ATOM_CAP:
        raise BudgetError(
            f"more than {ATOM_CAP} seeded cubes at level {m}; "
            "use a finer-grained route or a coarser delta"
        )
    if np.abs([q_first, q_last]).max() >= 2.0**63:
        raise ResolutionError(f"level-{m} cube indices do not fit in 64 bits")
    q_first = q_first.astype(np.int64)
    spans = q_last.astype(np.int64) - q_first + 1
    owner = np.repeat(np.arange(spans.size), spans)
    offset = np.cumsum(spans) - spans  # of each item's range in `reached`
    reached = np.arange(owner.size) + np.repeat(q_first - offset, spans)
    cubes, first = np.unique(reached, return_index=True)
    locations = np.maximum(bounds[owner[first], 0], cubes / scale)

    # cap-chain ancestors by exact integer division, finest to coarsest
    inverses = tuple(
        np.unique(cubes // base ** (k + 1), return_inverse=True)[1] for k in range(le)
    )
    return _Seed(base, m, le, cubes, locations, inverses)


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
    return AtomicMeasure(seed.locations, masses / raw_total, raw_total, meta)


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


def natural_cantor_measure(model: CantorSchedule, level: int) -> AtomicMeasure:
    """Equal mass 2^-level on each level interval's left endpoint."""
    starts, _ = model.materialize(level)
    mass = 0.5**level
    return AtomicMeasure(
        np.asarray(starts, dtype=float),
        np.full(len(starts), mass),
        pre_normalization_total=1.0,
    )


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


def _scan_runs(
    locs: np.ndarray,
    radii: list[float],
    prefixes: Sequence[np.ndarray],
    exponents: Sequence[float],
) -> list[BallMassReport]:
    """Ball-mass scan of several measures on the same atoms.

    For each radius the run ends are searched once and every measure
    (given by its prefix masses and exponent) is scored against them.
    """
    best = [-math.inf] * len(prefixes)
    witness = [(0.0, radii[0], 0.0)] * len(prefixes)
    for r in radii:
        ends = np.searchsorted(locs, locs + 2.0 * r, side="left")
        for j, (prefix, s) in enumerate(zip(prefixes, exponents)):
            run_masses = prefix[ends] - prefix[: locs.size]
            i = int(np.argmax(run_masses))
            mass = float(run_masses[i])
            ratio = mass / r**s
            if ratio > best[j]:
                center = 0.5 * (locs[i] + locs[ends[i] - 1]) if mass > 0.0 else locs[i]
                best[j] = ratio
                witness[j] = (center, r, mass)
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
    """
    return _scan_runs(mu.locations, _scan_radii(window), [mu.prefix_masses()], [s])[0]


def ball_to_set_constant(c_ball: float, s: float) -> float:
    """Convert a ball-mass constant to one for sets by diameter.

    A set of diameter L lies in a ball of radius L, so the set constant
    2^s * c_ball is always sound for the same exponent.
    """
    return 2.0**s * c_ball


@dataclass(frozen=True)
class MassCertificate:
    """Outcome of a mass-distribution lower-bound check.

    When ``holds``, every cover of the support by sets with diameters in
    the window has cost at least a/c (log value recorded), because each
    cover element absorbs at most c * |U|^s of the total mass a.
    """

    holds: bool
    s: float
    a: float
    c: float
    log_cost_floor: float
    worst_ratio: float
    worst_span: float


def mass_lower_bound(
    mu: AtomicMeasure,
    window: ScaleWindow,
    s: float,
    a: float,
    c: float,
    *,
    pair_budget: int = 50_000_000,
) -> MassCertificate:
    """Check mu(U) <= c|U|^s exactly for all window-sized intervals U.

    The worst interval has both endpoints at atoms (shrinking to the atom
    hull preserves mass and lowers the diameter), so scanning atom pairs
    whose span fits the window is exhaustive.  With the check passed, a/c
    is a certified lower bound for every window cover cost.
    """
    if not 0.0 <= a <= mu.total * (1.0 + 1e-12):
        raise InputError(f"a must lie in [0, total mass {mu.total:g}], got {a}")
    if not c > 0.0:
        raise InputError(f"c must be positive, got {c}")
    if not window.linear_representable():
        raise InputError("window too deep for linear mass checks")
    locs = mu.locations
    prefix = mu.prefix_masses()
    lo, hi = window.lo, window.hi
    ends = np.searchsorted(locs, locs + hi * (1.0 + 1e-15), side="right")
    if int(np.sum(ends - np.arange(locs.size))) > pair_budget:
        raise BudgetError(
            "too many atom pairs for the exact mass check; "
            "use the schedule-based constant instead"
        )
    worst_ratio = 0.0
    worst_span = lo
    for i in range(locs.size):
        j_end = ends[i]
        spans = locs[i:j_end] - locs[i]
        eff = np.maximum(spans, lo)
        keep = spans <= hi
        if not np.any(keep):
            continue
        ratios = (prefix[i + 1 : j_end + 1] - prefix[i])[keep] / eff[keep] ** s
        k = int(np.argmax(ratios))
        if ratios[k] > worst_ratio:
            worst_ratio = float(ratios[k])
            worst_span = float(eff[keep][k])
    holds = worst_ratio <= c * (1.0 + 1e-12)
    floor = math.log(a) - math.log(c) if a > 0.0 else -math.inf
    return MassCertificate(
        holds=holds,
        s=s,
        a=a,
        c=c,
        log_cost_floor=floor,
        worst_ratio=worst_ratio,
        worst_span=worst_span,
    )


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

    @property
    def consistent(self) -> bool:
        return (
            self.bracket_lower - 0.05 <= self.estimate <= self.bracket_upper + 0.05
        )


def massfrostman_roundtrip(
    model,
    phi: ScaleFunction,
    s_grid: Sequence[float],
    log_deltas: Sequence[float],
    *,
    base: int = DEFAULT_BASE,
    beta0: float = 0.02,
    oracle: str = "auto",
) -> RoundtripReport:
    """Estimate the dimension from measure growth and cross-check covers.

    For each s a measure is built at every scale and its ball-mass
    constant recorded.  Below the dimension the constants stay bounded;
    above it they grow like a power of 1/delta.  The estimate is the
    largest s whose log-constant slope (against -log delta) stays within
    beta0.  The cover-based bracket at the finest scale is attached for
    comparison.

    Structure once per scale, masses and scan per s: each scale's
    skeleton, seeded cubes, atoms and cap-chain ancestry are built once
    for the whole s grid, and each scan radius's run ends are searched
    once and scored against every s.  A row whose construction fails at
    some scale (s outside [0, 1], or a domain, input or budget error)
    stops there, unbuilt, with the constants of the scales before.
    """
    grid = sorted(set(float(x) for x in log_deltas), reverse=True)
    if len(grid) < 2:
        raise InputError("need at least two scales for a growth diagnostic")
    s_values = sorted(float(v) for v in s_grid)
    c_vals: list[list[float]] = [[] for _ in s_values]
    totals: list[list[float]] = [[] for _ in s_values]
    live = [j for j, s in enumerate(s_values) if 0.0 <= s <= 1.0]
    for ld in grid:
        if not live:
            break
        try:
            seed = _seed(model, ld, phi, base)
        except (DomainError, InputError, BudgetError):
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
        window = ScaleWindow(phi.eval_phi_log(ld), ld)
        reports = _scan_runs(
            seed.locations,
            _scan_radii(window),
            [mu.prefix_masses() for _, mu in built],
            [s_values[j] for j, _ in built],
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
        if slope <= beta0:
            estimate = max(estimate, s)
    ce = critical_exponent(model, phi, grid[-1], oracle=oracle)
    return RoundtripReport(
        estimate=estimate,
        beta0=beta0,
        rows=tuple(rows),
        bracket_lower=ce.s_lower,
        bracket_upper=ce.s_upper,
    )
