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
from .errors import _BELOW_ONE, _MAX, ConvergenceError, DomainError, OracleError, _require, _typed
from .tail_metrics import _SQ_LEVEL, cantelli_level, level_root

_LN2 = math.log(2.0)
_QUAD_REL_TOL = 1e-9        # relative stopping size of a tail segment
_MAX_SUBDIVISIONS = 4000    # panels per adaptive_quad call
_SEGMENT = 6.0              # width of a marched tail segment
_UNDERFLOW_Y = -math.log(5e-324)   # -ln of the least subnormal: exp(-y) rounds to 0 past it


@dataclass(frozen=True)
class OracleConfig:
    """Settings for the verification engine, each a number (``DomainError`` else)."""

    quad_abs_tol: float = 1e-10
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        _require(self.quad_abs_tol, "quad_abs_tol must lie in (0, inf), got {}", error=DomainError)
        n = _require(self.mc_samples, "mc_samples must be >= 1000, got {}", 1e3, _MAX, DomainError)
        seed = _require(self.seed, "seed must be a number >= 0, got {}", 0.0, _MAX, DomainError)
        if n % 1.0 or seed % 1.0:
            raise DomainError(f"mc_samples and seed must be whole numbers, got {n!r} and {seed!r}")
        object.__setattr__(self, "mc_samples", int(self.mc_samples))
        object.__setattr__(self, "seed", int(self.seed))


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
    alpha = _require(alpha, _SQ_LEVEL, 0.0, _BELOW_ONE, DomainError)
    if not math.isfinite(d.mean()):
        raise DomainError("oracle requires a finite mean")
    atol = _typed(cfg, OracleConfig).quad_abs_tol
    total = 0.0
    err = 0.0
    try:
        if alpha < 0.5:
            # int_alpha^0.5 q_p dp with p = exp(-t)
            def left(t: float) -> float:
                p = math.exp(-t)
                return d._quantile(p, 1.0 - p) * p   # p > 0: no level check per node

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
            eps = math.exp(-y)   # > 0: the march stops before it underflows
            return d._quantile(1.0 - eps, eps) * eps

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
    the tail mass eps in [1e-13, 1], started at e ``sf(x)`` or the Cantelli
    tail mass (``tail_metrics.cantelli_level``); a threshold beyond sq at
    eps = 1e-13 raises ``OracleError``. ``error_estimate`` is the error in eps:
    the residual |sq - x| plus the quadrature error of sq at the root (the
    engine's last quadrature), divided by the slope (sq - q) / eps there. An
    estimate as large as the value, where the quadrature's absolute tolerance
    swamps the tail mass, raises ``OracleError`` too: such a value carries no digit.
    """
    _typed(cfg, OracleConfig)
    # a mean of +inf leaves no threshold; one of -inf fails in the first quadrature
    m, upper = d.mean(), d.support().upper
    x = _require(x, f"threshold must lie in (mean, sup) = ({m}, {upper}), got {{}}",
                 math.nextafter(m, math.inf), math.nextafter(upper, -math.inf), DomainError)
    at = None   # the last quadrature, which level_root ends on

    def pair(alpha: float, eps: float) -> tuple[float, float]:
        nonlocal at
        q = d._quantile(alpha, eps) if alpha else d.support().lower
        at = oracle_superquantile(d, alpha, cfg)
        return at.value, q

    start = cantelli_level(x, m, d.variance(), d.sf(x))
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
    both tail-average and quantile-estimation noise, and is inf where the variance
    is. A mean that is not finite raises ``DomainError``, as the quadrature does.
    """
    import numpy as np
    alpha = _require(alpha, _SQ_LEVEL, 0.0, _BELOW_ONE, DomainError)
    if not math.isfinite(d.mean()):
        raise DomainError("oracle requires a finite mean")
    rng = np.random.default_rng(_typed(cfg, OracleConfig).seed)
    x = d.sample(cfg.mc_samples, rng)
    n = x.size
    if alpha == 0.0:
        estimate, stderr = x.mean(), x.std(ddof=1) / math.sqrt(n)
    else:
        xs = np.sort(x)
        k = int(math.ceil(n * alpha - 1e-12))
        q = xs[max(k - 1, 0)]
        tail = np.maximum(x - q, 0.0)
        estimate = q + tail.mean() / (1.0 - alpha)
        influence = tail / (1.0 - alpha) - tail.mean() / (1.0 - alpha)
        stderr = np.sqrt(np.sum(influence ** 2)) / n
    return float(estimate), float(stderr) if d.variance() < math.inf else math.inf
