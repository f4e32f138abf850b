"""Exception types shared across the package, and the two number readers
that every spec decoder uses; the decoders' callers turn the readers'
ValueError into a validation error.

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


class PhiUnderflowError(InvalidFunctionError):
    """A scale function's log lies below the float range: it evaluates to
    -inf, so phi(delta) is no positive float."""


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


def as_integer(value) -> int:
    """``int(value)`` that refuses bools and floats with a fractional part."""
    n = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and n != value):
        raise ValueError(f"{value!r} is not an integer")
    return n


def as_real(value) -> float:
    """``float(value)`` that refuses bools."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)
