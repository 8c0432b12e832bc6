"""Exception hierarchy shared across the package, and the argument rules that raise it."""

import math

_LEAST = math.nextafter(0.0, 1.0)       # on the floats x >= _LEAST is x > 0,
_MAX = math.nextafter(math.inf, 0.0)    # x <= _MAX is x < inf
_BELOW_ONE = math.nextafter(1.0, 0.0)   # and x <= _BELOW_ONE is x < 1


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


def _require(value, message: str, lo: float = _LEAST, hi: float = _MAX,
             error: type = ParameterError) -> float:
    """float(value) for a number lo <= value <= hi, else error(message with its repr cut to 40
    characters); text, None and lists fail the comparison, arrays the ndim test, 0-d ones pass."""
    try:
        if lo <= value <= hi and not getattr(value, "ndim", 0):
            return float(value)
    except (TypeError, ValueError, OverflowError):   # not a number, or an int beyond binary64
        pass
    raise error(message.format(f"{value!r:.40}"))


def _floats(value, message: str, shape: tuple):
    """value as a nonempty float array of shape (-1 any length), every entry finite, else
    ParameterError(message with its repr cut as _require cuts it); numpy loads on the call."""
    import numpy as np
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):   # text, ragged rows, an int beyond binary64
        x = None
    if (x is None or not x.size or x.ndim != len(shape)
            or any(k not in (-1, m) for k, m in zip(shape, x.shape)) or not np.isfinite(x).all()):
        raise ParameterError(message.format(f"{value!r:.40}"))
    return x


def _real(value) -> float:
    """An evaluation point: _require's rule on [-inf, inf], with NaN (unequal to itself) NaN."""
    if getattr(value, "ndim", 0) or value == value:   # an array fails _require's ndim test
        return _require(value, "x must be a number, got {}", -math.inf, math.inf, DomainError)
    return math.nan


def _typed(value, cls: type):
    """value itself if it is a cls, else ParameterError."""
    if not isinstance(value, cls):
        raise ParameterError(f"expected a {cls.__name__}, got {type(value).__name__}")
    return value
