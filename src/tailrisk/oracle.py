"""First-principles verification engine.

Computes the superquantile by adaptive quadrature of the quantile function
and bPOE by root finding on that quadrature, so every closed form in
``tail_metrics`` has a non-circular reference. A Monte-Carlo tail average
provides a third, sampling-based route; it is the only part of this module
that loads numpy.

The quantile integral (1/(1-a)) * int_a^1 q_p dp is evaluated under two
changes of variable that tame both endpoint singularities:

  * left part  (p <= 1/2):  p = exp(-t), so an unbounded-below quantile at
    p -> 0 turns into an exponentially damped integrand;
  * right part (p >= 1/2):  p = 1 - exp(-y), marched over exponentially
    decaying segments; the quantile is evaluated through tail_quantile so
    no precision is lost as p -> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._quad import adaptive_quad
from .distributions import Distribution
from .errors import ConvergenceError, DomainError, OracleError
from .tail_metrics import cantelli_level, level_root

_LN2 = math.log(2.0)
_QUAD_REL_TOL = 1e-9        # relative stopping size of a tail segment
_MAX_SUBDIVISIONS = 4000    # panels per adaptive_quad call
_SEGMENT = 6.0              # width of a marched tail segment
_UNDERFLOW_Y = -math.log(5e-324)   # -ln of the least subnormal: exp(-y) rounds to 0 past it


@dataclass(frozen=True)
class OracleConfig:
    """Settings for the verification engine."""

    quad_abs_tol: float = 1e-10
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.quad_abs_tol <= 0:
            raise DomainError("quadrature tolerance must be positive")
        if self.mc_samples < 1000:
            raise DomainError(f"mc_samples must be >= 1000, got {self.mc_samples}")


@dataclass(frozen=True)
class OracleResult:
    value: float
    error_estimate: float

    def to_json(self) -> dict:
        return {"value": self.value, "error_estimate": self.error_estimate}


def _march_decaying(f, y0: float, atol: float) -> tuple[float, float]:
    """Integrate f over [y0, inf) as a sum of segments of width ``_SEGMENT``.

    Requires eventually-decaying segment contributions; stops once a segment
    adds less than the tolerance and is smaller than its predecessor. A tail
    that has not decayed by ``_UNDERFLOW_Y`` raises ``OracleError``.
    """
    total = 0.0
    err = 0.0
    prev = math.inf
    y = y0
    while y + _SEGMENT < _UNDERFLOW_Y:
        val, e = adaptive_quad(f, y, y + _SEGMENT, atol=atol, rtol=1e-12, limit=_MAX_SUBDIVISIONS)
        total += val
        err += e
        if abs(val) < max(atol, _QUAD_REL_TOL * abs(total)) and abs(val) <= prev:
            # bound the truncated mass by a geometric continuation
            err += abs(val)
            return total, err
        prev = abs(val)
        y += _SEGMENT
    raise OracleError("semi-infinite tail integral did not decay",
                      {"start": y0, "reached": y, "last_segment": prev})


def oracle_superquantile(d: Distribution, alpha: float,
                         cfg: OracleConfig = OracleConfig()) -> OracleResult:
    """Quadrature-of-the-quantile superquantile with an error estimate."""
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"superquantile level must lie in [0, 1), got {alpha}")
    m = d.mean()
    if not math.isfinite(m):
        raise DomainError("oracle requires a finite mean")
    atol = cfg.quad_abs_tol
    total = 0.0
    err = 0.0
    try:
        if alpha < 0.5:
            # int_alpha^0.5 q_p dp with p = exp(-t)
            def left(t: float) -> float:
                p = math.exp(-t)
                return d.quantile(p) * p

            if alpha == 0.0:
                val, e = _march_decaying(left, _LN2, atol)
            else:
                val, e = adaptive_quad(left, _LN2, -math.log(alpha),
                                       atol=atol, rtol=1e-12, limit=_MAX_SUBDIVISIONS)
            total += val
            err += e
        y0 = -math.log1p(-alpha) if alpha >= 0.5 else _LN2

        # int_{max(alpha, 0.5)}^1 q_p dp with p = 1 - exp(-y)
        def right(y: float) -> float:
            return d.tail_quantile(math.exp(-y)) * math.exp(-y)

        val, e = _march_decaying(right, y0, atol)
        total += val
        err += e
    except ConvergenceError as exc:
        raise OracleError(f"oracle quadrature failed: {exc}",
                          getattr(exc, "diagnostics", {})) from exc
    scale = 1.0 - alpha
    return OracleResult(total / scale, err / scale)


def oracle_bpoe(d: Distribution, x: float,
                cfg: OracleConfig = OracleConfig()) -> OracleResult:
    """bPOE by root finding on the quadrature superquantile.

    ``tail_metrics.level_root`` solves oracle_superquantile(d, 1 - eps) = x for
    the tail mass eps in [1e-13, 1], started at e (1 - F(x)) or the Cantelli
    tail mass (``tail_metrics.cantelli_level``); a threshold beyond sq at
    eps = 1e-13 raises ``OracleError``. ``error_estimate`` is the error in eps:
    the residual |sq - x| plus the quadrature error of sq at the root (the
    engine's last quadrature), divided by the slope (sq - q) / eps there. An
    estimate as large as the value, where the quadrature's absolute tolerance
    swamps the tail mass, raises ``OracleError`` too: such a value carries no digit.
    """
    m = d.mean()
    if not math.isfinite(m):
        raise DomainError("oracle requires a finite mean")
    upper = d.support().upper
    if not m < x < upper:
        raise DomainError(f"threshold must lie in (mean, sup) = ({m}, {upper}), got {x}")
    at = None   # the last quadrature, which level_root ends on

    def pair(alpha: float, eps: float) -> tuple[float, float]:
        nonlocal at
        q = d.quantile(alpha, eps) if alpha else d.support().lower
        at = oracle_superquantile(d, alpha, cfg)
        return at.value, q

    start = cantelli_level(x, m, d.variance(), 1.0 - d.cdf(x))
    _, eps, sq, q = level_root(pair, x, 1e-13, start)
    if eps == 1e-13 and sq < x:
        raise OracleError("threshold lies beyond the quadrature superquantile at the "
                          "smallest tail mass", {"eps": eps, "superquantile": sq, "threshold": x})
    estimate = (abs(sq - x) + at.error_estimate) / ((sq - q) / eps)
    if estimate >= eps:
        raise OracleError("the bPOE error estimate is as large as the bPOE",
                          {"eps": eps, "error_estimate": estimate, "threshold": x})
    return OracleResult(eps, estimate)


def mc_superquantile(d: Distribution, alpha: float,
                     cfg: OracleConfig = OracleConfig()) -> tuple[float, float]:
    """Monte-Carlo tail average: (estimate, standard error).

    Tail of ``Distribution.sample`` from an explicitly seeded generator; the
    standard error comes from the influence function of CVaR, so it covers
    both tail-average and quantile-estimation noise.
    """
    import numpy as np
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"superquantile level must lie in [0, 1), got {alpha}")
    rng = np.random.default_rng(cfg.seed)
    x = d.sample(cfg.mc_samples, rng)
    n = x.size
    if alpha == 0.0:
        return float(x.mean()), float(x.std(ddof=1) / math.sqrt(n))
    xs = np.sort(x)
    k = int(math.ceil(n * alpha - 1e-12))
    q = xs[max(k - 1, 0)]
    tail = np.maximum(x - q, 0.0)
    estimate = q + tail.mean() / (1.0 - alpha)
    influence = tail / (1.0 - alpha) - tail.mean() / (1.0 - alpha)
    stderr = float(np.sqrt(np.sum(influence ** 2)) / n)
    return float(estimate), stderr
