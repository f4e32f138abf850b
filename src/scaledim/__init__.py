"""Dimension estimation on scale windows [phi(delta), delta].

The package computes cover costs whose allowed piece lengths are confined
to a window between a scale delta and a scale function phi(delta), and
reads off dimension estimates from where those costs cross 1.  Everything
runs on natural-log scales internally, so windows as deep as
exp(-10**8) are routine.
"""

from .bounds import (
    DimInputs,
    HolderInputs,
    MutualDependencyReport,
    check_mutual_dependency,
    continuity_lower_bound,
    continuity_upper_bound,
    general_lower_bound,
    general_lower_bound_derivatives,
    holder_bound,
    maincty_bound,
    product_bounds,
)
from .covers import (
    CoverCost,
    ScaleWindow,
    combine_union,
    cover_cost,
    cover_cost_cantor,
    cover_cost_dp,
    cover_cost_exhaustive,
    cover_cost_grid,
    cover_cost_point,
    cover_cost_product,
    cover_cost_sequence,
    prepare,
    schedule_mass_constant,
)
from .errors import (
    BudgetError,
    ComputationError,
    ConfigError,
    DomainError,
    IndeterminateError,
    InputError,
    InvalidFunctionError,
    PhiUnderflowError,
    ResolutionError,
    ScaledimError,
    ScheduleOverflowError,
    ValidationError,
)
from .estimator import (
    CriticalExponent,
    DimensionProfile,
    critical_exponent,
    dimension_profile,
)
from .interpolation import (
    InterpolationReport,
    InterpolationRow,
    PhiSPoint,
    PhiSTable,
    phi_s_at,
    phi_s_family,
    phi_s_function,
    verify_interpolation,
)
from .measures import (
    AtomicMeasure,
    BallMassReport,
    FrostmanMeta,
    RoundtripReport,
    RoundtripRow,
    ball_to_set_constant,
    build_frostman_measure,
    frostman_levels,
    massfrostman_roundtrip,
    verify_ball_mass,
)
from .scalefun import (
    ComparisonReport,
    InterpolatedScale,
    LogCorrected,
    MinFamily,
    PowerLaw,
    ScaleFunction,
    StretchedExponential,
    Tabulated,
    check_admissible,
    equivalent,
    exponent_pair,
    precedes,
    scale_function_from_dict,
    scale_function_to_dict,
)
from .setmodels import (
    CantorSchedule,
    CarpetDimensions,
    CarpetParams,
    HolderImage,
    PointSet,
    ProductModel,
    SequenceSet,
    Skeleton,
    StabilityPair,
    StabilityScheduleState,
    UniformGrid,
    UnionModel,
    build_stability_pair,
    carpet_dimensions,
    model_from_dict,
    model_id,
    model_to_dict,
    skeleton,
    translate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
