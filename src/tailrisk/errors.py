"""Exception hierarchy shared across the package."""


class TailRiskError(Exception):
    """Base class for all package errors."""


class ParameterError(TailRiskError, ValueError):
    """A parameter violates a construction-time constraint."""


class DomainError(TailRiskError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class ConvergenceError(TailRiskError, RuntimeError):
    """An iterative routine failed to reach its tolerance.

    ``diagnostics`` carries whatever the routine knew at the point of
    failure (final residuals, iteration counts, brackets).
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class OracleError(ConvergenceError):
    """The verification engine could not certify its requested tolerance."""


def _typed(value, cls: type):
    """value itself if it is a cls, else ParameterError."""
    if not isinstance(value, cls):
        raise ParameterError(f"expected a {cls.__name__}, got {type(value).__name__}")
    return value
