"""Exception types shared across the package.

Validation errors (bad user input, out-of-domain arguments) are kept separate
from computation errors (a well-posed request the algorithms cannot complete)
because the CLI maps them to different exit codes.
"""


class ScaledimError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ScaledimError):
    """Invalid argument or configuration; the request never started."""


class DomainError(ValidationError):
    """A scale or parameter lies outside the function's domain."""


class InvalidFunctionError(ValidationError):
    """A scale function violates admissibility (e.g. value <= 0 or > delta)."""


class InputError(ValidationError):
    """Numeric inputs to a bound calculator are inconsistent."""


class ConfigError(ValidationError):
    """Malformed CLI / run configuration."""


class ComputationError(ScaledimError):
    """A well-formed request that the computation could not complete."""


class ResolutionError(ComputationError):
    """Request needs structure below the model's resolvable scale floor."""


class ScheduleOverflowError(ComputationError):
    """A schedule scan ran past its exponent cap or its regime budget, or
    met a checkpoint scale where the scale function is not defined."""


class BudgetError(ComputationError):
    """An algorithm exceeded its configured size/time budget."""


class IndeterminateError(ComputationError):
    """A bisection bracket straddles the target over the whole range."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket
