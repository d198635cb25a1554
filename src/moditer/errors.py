"""Exception hierarchy shared across the package."""

POLE_EPS = 1e-10  # a divisor this close to 0 counts as hit: PoleError


class ModiterError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ModiterError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(ModiterError):
    """Evaluation hit a pole of the analytically continued expression.

    The message names the vanishing divisor, e.g. ``"s_2 + s_3"``.
    """


class DivergenceError(ModiterError):
    """A series or integral diverges for the requested parameters."""


class AccuracyError(ModiterError):
    """The requested tolerance could not be certified."""


class TruncationError(ModiterError):
    """A q-expansion is too short for the requested operation."""
