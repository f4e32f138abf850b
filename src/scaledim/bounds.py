"""Closed-form dimension inequalities.

Every calculator here is a pure function of validated inputs — nothing is
estimated.  They serve two roles: standalone evaluation (via the CLI) and
envelope checks against estimator output.  Invalid dimension orderings are
rejected at construction rather than clamped; a clamped input would hide
the modeling error these checks exist to catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .estimator import DimensionProfile
from .scalefun import PowerLaw

#: Box dimensions below this are treated as zero in consistency checks.
EPS_ZERO = 1e-6


@dataclass(frozen=True)
class DimInputs:
    """A consistent set of dimension values for one set, plus a window exponent.

    Values must satisfy hausdorff <= box_lower <= box_upper <= assouad;
    ``hausdorff`` may be omitted when unknown.
    """

    box_lower: float
    box_upper: float
    assouad: float
    theta: float = 1.0
    hausdorff: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.assouad > 0.0:
            raise InputError(f"assouad dimension must be positive, got {self.assouad}")
        if not 0.0 < self.theta <= 1.0:
            raise InputError(f"theta must lie in (0, 1], got {self.theta}")
        if self.box_lower < 0.0:
            raise InputError(f"box_lower must be >= 0, got {self.box_lower}")
        if self.hausdorff is not None and self.hausdorff < 0.0:
            raise InputError(f"hausdorff must be >= 0, got {self.hausdorff}")
        lo = self.box_lower if self.hausdorff is None else self.hausdorff
        chain = (lo, self.box_lower, self.box_upper, self.assouad)
        if any(a > b for a, b in zip(chain, chain[1:])):
            raise InputError(
                "dimension inputs must satisfy "
                "hausdorff <= box_lower <= box_upper <= assouad, got "
                f"{chain}"
            )


@dataclass(frozen=True)
class HolderInputs:
    """Inputs for the Hölder distortion bound."""

    alpha: float
    gamma: float
    dim_phi_F: float
    assouad_image: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise InputError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (1.0 <= self.gamma and self.gamma * self.alpha <= 1.0 + 1e-12):
            raise InputError(
                f"gamma must lie in [1, 1/alpha] = [1, {1.0 / self.alpha:g}], "
                f"got {self.gamma}"
            )
        if self.dim_phi_F < 0.0 or self.assouad_image < 0.0:
            raise InputError("dimensions must be nonnegative")


def general_lower_bound(d: DimInputs, use_upper_box: bool = True) -> float:
    """Lower bound theta*A*B / (A - (1-theta)*B) for the dimension at theta.

    A is the Assouad dimension, B the box dimension (upper or lower per the
    flag).  Nondecreasing and concave in theta; equals B at theta = 1.
    """
    a = d.assouad
    b = d.box_upper if use_upper_box else d.box_lower
    denom = a - (1.0 - d.theta) * b
    if denom <= 0.0:
        raise InputError(
            f"denominator A - (1-theta)*B = {denom:g} is not positive; "
            "requires box <= assouad"
        )
    return d.theta * a * b / denom


def general_lower_bound_derivatives(d: DimInputs) -> tuple[float, float]:
    """(f', f'') of the general lower bound at theta, with B the upper box.

    f' = A*B*(A-B)/denom^2 and f'' = -2*A*B^2*(A-B)/denom^3: the bound is
    strictly increasing and strictly concave whenever 0 < B < A.
    """
    a, b = d.assouad, d.box_upper
    denom = a - (1.0 - d.theta) * b
    if denom <= 0.0:
        raise InputError(
            f"denominator A - (1-theta)*B = {denom:g} is not positive; "
            "requires box <= assouad"
        )
    first = a * b * (a - b) / denom**2
    second = -2.0 * a * b * b * (a - b) / denom**3
    return first, second


def continuity_upper_bound(dim_theta: float, d: DimInputs, phi_target: float) -> float:
    """Largest possible dimension at window exponent phi >= theta.

    Adds to dim_theta the increment
    (phi-theta)*d*(A-d) / ((phi-theta)*d + theta*A), which vanishes at
    phi = theta and is at most (A/(4*theta))*(phi-theta).
    """
    theta, a = d.theta, d.assouad
    if not theta <= phi_target <= 1.0:
        raise InputError(
            f"phi_target must lie in [theta, 1] = [{theta:g}, 1], got {phi_target}"
        )
    if not 0.0 <= dim_theta <= a:
        raise InputError(f"dim_theta must lie in [0, assouad], got {dim_theta}")
    num = (phi_target - theta) * dim_theta * (a - dim_theta)
    denom = (phi_target - theta) * dim_theta + theta * a
    if denom <= 0.0:
        raise InputError("denominator vanishes; requires theta > 0")
    return dim_theta + num / denom


def continuity_lower_bound(dim_theta: float, d: DimInputs, phi_target: float) -> float:
    """Smallest possible dimension at window exponent phi <= theta.

    Returns phi*A*d / (theta*A - (theta-phi)*d).  At theta = 1 with
    d = box_upper this is exactly the general lower bound.
    """
    theta, a = d.theta, d.assouad
    if not 0.0 < phi_target <= theta:
        raise InputError(
            f"phi_target must lie in (0, theta] = (0, {theta:g}], got {phi_target}"
        )
    if not 0.0 <= dim_theta <= a:
        raise InputError(f"dim_theta must lie in [0, assouad], got {dim_theta}")
    denom = theta * a - (theta - phi_target) * dim_theta
    if denom <= 0.0:
        raise InputError(f"denominator theta*A - (theta-phi)*d = {denom:g} <= 0")
    return phi_target * a * dim_theta / denom


def maincty_bound(dim_phi_F: float, assouad: float, eta: float) -> tuple[float, float]:
    """Exponents certifying a window change costs at most eta dimension.

    Returns (alpha, ratio) with alpha = (A-d)/(A-d-eta) and
    ratio = d/(d+eta): if Phi_1(delta) >= alpha-power-compressed Phi on the
    relevant scales, the dimension under Phi_1 exceeds the one under Phi by
    at most eta.  The ratio is the mass-exponent discount on Phi(delta).
    """
    if dim_phi_F == 0.0:
        raise InputError("bound not applicable, dimension 0 case")
    if not 0.0 < dim_phi_F < assouad:
        raise InputError(
            f"requires 0 < dim_phi_F < assouad, got d={dim_phi_F}, A={assouad}"
        )
    if not 0.0 <= eta < assouad - dim_phi_F:
        raise InputError(
            f"eta must lie in [0, assouad - dim_phi_F) = [0, "
            f"{assouad - dim_phi_F:g}), got {eta}"
        )
    alpha = (assouad - dim_phi_F) / (assouad - dim_phi_F - eta)
    ratio = dim_phi_F / (dim_phi_F + eta)
    return alpha, ratio


def holder_bound(h: HolderInputs) -> float:
    """Upper bound for the dimension of a Hölder image.

    In the main regime dim_phi_F < alpha * assouad_image the bound is
    (d + alpha*(gamma-1)*A_img) / (alpha*gamma); otherwise the cheaper of
    the ambient Assouad bound and the pure 1/alpha inflation applies.
    """
    d, a_img = h.dim_phi_F, h.assouad_image
    if d >= h.alpha * a_img:
        return min(a_img, d / h.alpha)
    return (d + h.alpha * (h.gamma - 1.0) * a_img) / (h.alpha * h.gamma)


def product_bounds(
    e_dims: tuple[float, float, float],
    f_dims: tuple[float, float, float],
    self_product: bool = False,
) -> tuple[float, float, float, float]:
    """Brackets for the dimensions of a product set.

    Each factor contributes (lower, upper, box_upper).  Returns
    (lower_for_upper_dim, upper_for_upper_dim,
     lower_for_lower_dim, upper_for_lower_dim).
    For a self product E = F the first entry improves to 2*upper.
    """
    for name, triple in (("e_dims", e_dims), ("f_dims", f_dims)):
        if len(triple) != 3:
            raise InputError(f"{name} must be (lower, upper, box_upper)")
        lo, up, bu = triple
        if not (0.0 <= lo <= up <= bu):
            raise InputError(
                f"{name} must satisfy 0 <= lower <= upper <= box_upper, got {triple}"
            )
    low_e, up_e, box_e = e_dims
    low_f, up_f, box_f = f_dims
    if self_product:
        lower_upper_dim = 2.0 * up_f
    else:
        lower_upper_dim = max(up_e + low_f, low_e + up_f)
    upper_upper_dim = min(up_e + box_f, box_e + up_f)
    lower_lower_dim = low_e + low_f
    upper_lower_dim = min(low_e + box_f, box_e + low_f)
    return lower_upper_dim, upper_upper_dim, lower_lower_dim, upper_lower_dim


@dataclass(frozen=True)
class MutualDependencyReport:
    """Outcome of the positivity cross-check between two profiles."""

    box_estimate: float
    theta_estimate: float
    theta: float
    floor: float
    violation: bool
    note: str


def check_mutual_dependency(
    profile_theta: DimensionProfile,
    profile_box: DimensionProfile,
) -> MutualDependencyReport:
    """Flag profiles claiming positive box dimension but a too-small theta one.

    A positive box dimension forces dimension at least f(theta) at every
    window exponent, taken with Assouad dimension 1 (sets on the line); a
    theta-estimate below f(theta) - 0.05 while the box estimate exceeds
    EPS_ZERO is inconsistent.  Profiles whose box estimate is
    (numerically) zero pass vacuously.
    """
    if profile_theta.model != profile_box.model:
        raise InputError(
            "profiles describe different models: "
            f"{profile_theta.model!r} vs {profile_box.model!r}"
        )
    theta = (
        profile_theta.phi.theta
        if isinstance(profile_theta.phi, PowerLaw)
        else 1.0
    )
    box_est = profile_box.upper_estimate
    theta_est = profile_theta.upper_estimate
    if box_est <= EPS_ZERO:
        return MutualDependencyReport(
            box_estimate=box_est,
            theta_estimate=theta_est,
            theta=theta,
            floor=0.0,
            violation=False,
            note="box estimate is zero; positivity holds vacuously",
        )
    b = min(box_est, 1.0)
    d = DimInputs(box_lower=b, box_upper=b, assouad=1.0, theta=theta)
    floor = general_lower_bound(d, use_upper_box=True)
    violation = theta_est < floor - 0.05
    note = (
        "theta estimate falls below the box-driven floor"
        if violation
        else "estimates consistent with the box-driven floor"
    )
    return MutualDependencyReport(
        box_estimate=box_est,
        theta_estimate=theta_est,
        theta=theta,
        floor=floor,
        violation=violation,
        note=note,
    )
