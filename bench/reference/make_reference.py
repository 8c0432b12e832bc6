"""Generate the benchmark's correctness reference with mpmath.

Every value is computed at 50 significant digits from the exact binary64
value of each input (parameters, levels, tail masses, thresholds) and
stored rounded to the nearest binary64 number. The closed forms below are
cross-checked against mpmath quadrature of the quantile function before
anything is written.

Run from the repository root (takes a few minutes):

    python3 bench/reference/make_reference.py

It rewrites bench/reference/reference.json.
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import grid  # noqa: E402  (bench/grid.py: the pinned inputs)

mp.mp.dps = 50
TINY = mp.mpf(10) ** -45


def _f(x) -> float:
    """Nearest binary64 to an mpmath number (JSON keeps the shortest repr)."""
    return float(x)


def _illinois(g, lo, hi, rel=mp.mpf(10) ** -40, iters=400):
    """Root of an increasing g on [lo, hi] with g(lo) < 0 < g(hi)."""
    glo, ghi = g(lo), g(hi)
    if not (glo < 0 < ghi):
        raise ValueError(f"root not bracketed: g({lo})={glo}, g({hi})={ghi}")
    side = 0
    for _ in range(iters):
        x = (lo * ghi - hi * glo) / (ghi - glo)
        if not lo < x < hi:
            x = (lo + hi) / 2
        gx = g(x)
        if gx == 0:
            return x
        if gx < 0:
            lo, glo = x, gx
            if side == -1:
                ghi /= 2
            side = -1
        else:
            hi, ghi = x, gx
            if side == 1:
                glo /= 2
            side = 1
        if hi - lo <= rel * (abs(lo) + abs(hi)) + TINY:
            break
    return (lo + hi) / 2


# --- families: upper-tail quantile tq(eps) = q(1 - eps) and the
# superquantile written in the tail mass, sq(eps) = sq(alpha = 1 - eps) ----

class Model:
    """High-precision twin of one parameterised distribution."""

    def __init__(self, family: str, params: dict[str, float]):
        self.family = family
        self.p = {k: mp.mpf(v) for k, v in params.items()}

    # quantile at level alpha, evaluated through the exact tail mass
    def q(self, alpha):
        return self.tq(1 - mp.mpf(alpha))

    def sq(self, alpha):
        alpha = mp.mpf(alpha)
        if alpha == 0:
            return self.mean()
        return self.sq_eps(1 - alpha)

    def upper(self):
        return mp.inf

    def mean(self):
        raise NotImplementedError

    def tq(self, eps):
        raise NotImplementedError

    def sq_eps(self, eps):
        raise NotImplementedError


class Exponential(Model):
    def mean(self):
        return 1 / self.p["lam"]

    def tq(self, eps):
        return -mp.log(eps) / self.p["lam"]

    def sq_eps(self, eps):
        return (1 - mp.log(eps)) / self.p["lam"]


class Pareto(Model):
    def mean(self):
        a, xm = self.p["a"], self.p["xm"]
        return xm * a / (a - 1)

    def tq(self, eps):
        return self.p["xm"] * eps ** (-1 / self.p["a"])

    def sq_eps(self, eps):
        a = self.p["a"]
        return self.tq(eps) * a / (a - 1)


class GPD(Model):
    def _xi0(self):
        return abs(self.p["xi"]) < mp.mpf("1e-9")

    def upper(self):
        if self.p["xi"] < 0 and not self._xi0():
            return self.p["mu"] - self.p["s"] / self.p["xi"]
        return mp.inf

    def mean(self):
        return self.p["mu"] + self.p["s"] / (1 - self.p["xi"])

    def tq(self, eps):
        mu, s, xi = self.p["mu"], self.p["s"], self.p["xi"]
        if self._xi0():
            return mu - s * mp.log(eps)
        return mu + s * mp.expm1(-xi * mp.log(eps)) / xi

    def sq_eps(self, eps):
        mu, s, xi = self.p["mu"], self.p["s"], self.p["xi"]
        if self._xi0():
            return self.tq(eps) + s
        q = self.tq(eps)
        # mean excess over u is (s + xi (u - mu)) / (1 - xi)
        return q + (s + xi * (q - mu)) / (1 - xi)


class Laplace(Model):
    def mean(self):
        return self.p["mu"]

    def tq(self, eps):
        mu, b = self.p["mu"], self.p["b"]
        if eps <= mp.mpf(1) / 2:
            return mu - b * mp.log(2 * eps)
        return mu + b * mp.log(2 * (1 - eps))

    def sq_eps(self, eps):
        mu, b = self.p["mu"], self.p["b"]
        if eps <= mp.mpf(1) / 2:
            return self.tq(eps) + b
        alpha = 1 - eps
        return mu + b * alpha * (1 - mp.log(2 * alpha)) / eps


def _normal_tail_z(eps):
    """z with P(Z > z) = eps for standard normal Z."""
    if eps == mp.mpf(1) / 2:
        return mp.mpf(0)
    if eps > mp.mpf(1) / 2:
        return -_normal_tail_z(1 - eps)
    target = mp.log(eps)

    def g(z):
        return -(mp.log(mp.erfc(z / mp.sqrt(2)) / 2) - target)

    hi = mp.sqrt(-2 * target) + 1
    return _illinois(g, mp.mpf(0), hi)


class Normal(Model):
    def mean(self):
        return self.p["mu"]

    def tq(self, eps):
        return self.p["mu"] + self.p["sigma"] * _normal_tail_z(eps)

    def sq_eps(self, eps):
        z = _normal_tail_z(eps)
        return self.p["mu"] + self.p["sigma"] * mp.npdf(z) / eps


class LogNormal(Model):
    def mean(self):
        return mp.exp(self.p["mu"] + self.p["s"] ** 2 / 2)

    def tq(self, eps):
        return mp.exp(self.p["mu"] + self.p["s"] * _normal_tail_z(eps))

    def sq_eps(self, eps):
        mu, s = self.p["mu"], self.p["s"]
        z = _normal_tail_z(eps)
        return mp.exp(mu + s * s / 2) * mp.erfc((z - s) / mp.sqrt(2)) / 2 / eps


class Logistic(Model):
    def mean(self):
        return self.p["mu"]

    def tq(self, eps):
        return self.p["mu"] + self.p["s"] * mp.log((1 - eps) / eps)

    def sq_eps(self, eps):
        alpha = 1 - eps
        entropy = -alpha * mp.log(alpha) - eps * mp.log(eps)
        return self.p["mu"] + self.p["s"] * entropy / eps


class StudentT(Model):
    def mean(self):
        return self.p["mu"]

    def _t_tail(self, eps):
        """Standardised t with P(T > t) = eps."""
        if eps == mp.mpf(1) / 2:
            return mp.mpf(0)
        if eps > mp.mpf(1) / 2:
            return -self._t_tail(1 - eps)
        nu = self.p["nu"]
        a, b = nu / 2, mp.mpf(1) / 2
        target = mp.log(2 * eps)

        # P(|T| > t) = I_x(nu/2, 1/2) with x = nu / (nu + t^2); solve in ln x
        def g(u):
            return mp.log(mp.betainc(a, b, 0, mp.exp(u), regularized=True)) - target

        x0 = (2 * eps * a * mp.beta(a, b)) ** (1 / a)   # I_x >= x^a / (a B)
        hi = min(mp.log(x0), mp.mpf(0)) if x0 < 1 else mp.mpf(0)
        if g(hi) == 0:
            u = hi
        else:
            hi = hi + mp.mpf("1e-30") if hi < 0 else hi
            lo = hi - 1
            while g(lo) >= 0:
                lo -= 2 * (hi - lo)
            u = _illinois(g, lo, hi if g(hi) > 0 else mp.mpf(0))
        x = mp.exp(u)
        return mp.sqrt(nu * (1 - x) / x)

    def _std_pdf(self, t):
        nu = self.p["nu"]
        return mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2)) \
            * (1 + t * t / nu) ** (-(nu + 1) / 2)

    def tq(self, eps):
        return self.p["mu"] + self.p["s"] * self._t_tail(eps)

    def sq_eps(self, eps):
        nu, s, mu = self.p["nu"], self.p["s"], self.p["mu"]
        t = self._t_tail(eps)
        return mu + s * (nu + t * t) / ((nu - 1) * eps) * self._std_pdf(t)


class Weibull(Model):
    def mean(self):
        return self.p["lam"] * mp.gamma(1 + 1 / self.p["k"])

    def tq(self, eps):
        return self.p["lam"] * (-mp.log(eps)) ** (1 / self.p["k"])

    def sq_eps(self, eps):
        lam, k = self.p["lam"], self.p["k"]
        return lam * mp.gammainc(1 + 1 / k, -mp.log(eps)) / eps


class LogLogistic(Model):
    def mean(self):
        a, b = self.p["a"], self.p["b"]
        c = mp.pi / b
        return a * c / mp.sin(c)

    def tq(self, eps):
        return self.p["a"] * ((1 - eps) / eps) ** (1 / self.p["b"])

    def sq_eps(self, eps):
        a, b = self.p["a"], self.p["b"]
        # int_alpha^1 a (p / (1 - p))^(1/b) dp, an incomplete beta integral
        return a * mp.betainc(1 + 1 / b, 1 - 1 / b, 1 - eps, 1) / eps


class GEV(Model):
    def _xi0(self):
        return abs(self.p["xi"]) < mp.mpf("1e-9")

    def upper(self):
        if self.p["xi"] < 0 and not self._xi0():
            return self.p["mu"] - self.p["s"] / self.p["xi"]
        return mp.inf

    def mean(self):
        mu, s, xi = self.p["mu"], self.p["s"], self.p["xi"]
        if self._xi0():
            return mu + s * mp.euler
        return mu + s * (mp.gamma(1 - xi) - 1) / xi

    def tq(self, eps):
        mu, s, xi = self.p["mu"], self.p["s"], self.p["xi"]
        y = -mp.log1p(-eps)
        if self._xi0():
            return mu - s * mp.log(y)
        return mu + s * mp.expm1(-xi * mp.log(y)) / xi

    def sq_eps(self, eps):
        mu, s, xi = self.p["mu"], self.p["s"], self.p["xi"]
        y = -mp.log1p(-eps)
        if self._xi0():
            # int_0^y -ln(t) e^(-t) dt, with p = exp(-t)
            integral = -mp.quad(lambda t: mp.log(t) * mp.exp(-t), [0, y])
            return mu + s * integral / eps
        return mu + s * (mp.gammainc(1 - xi, 0, y) - eps) / (xi * eps)


MODELS = {
    "exponential": Exponential, "pareto": Pareto, "gpd": GPD,
    "laplace": Laplace, "normal": Normal, "lognormal": LogNormal,
    "logistic": Logistic, "student-t": StudentT, "weibull": Weibull,
    "loglogistic": LogLogistic, "gev": GEV,
}


def model(family: str, params: dict[str, float]) -> Model:
    return MODELS[family](family, params)


def bpoe_at(m: Model, x, guess_eps=None):
    """bPOE at threshold x: the tail mass eps with sq(1 - eps) = x."""
    x = mp.mpf(x)
    if x <= m.mean():
        return mp.mpf(1)
    if x >= m.upper():
        return mp.mpf(0)

    # increasing in s = -ln(eps)
    def g(s):
        return m.sq_eps(mp.exp(-s)) - x

    if guess_eps is not None and 0 < guess_eps < 1:
        s0 = -mp.log(guess_eps)
        lo, hi = s0 * (1 - mp.mpf("1e-6")), s0 * (1 + mp.mpf("1e-6")) + mp.mpf("1e-30")
    else:
        lo, hi = mp.mpf("1e-3"), mp.mpf(1)
    while g(lo) >= 0:
        lo /= 4
    while g(hi) <= 0:
        hi *= 2
    return mp.exp(-_illinois(g, lo, hi))


def _quad_sq(m: Model, alpha):
    """Superquantile by quadrature of the quantile, for the cross-check."""
    eps = 1 - mp.mpf(alpha)
    # sq = int_0^inf tq(eps e^-t) e^-t dt, with p = 1 - eps e^-t
    return mp.quad(lambda t: m.tq(eps * mp.exp(-t)) * mp.exp(-t), [0, 1, 10, mp.inf])


def _cross_check(models) -> None:
    for key, m in models:
        for alpha in (0.5, 0.95):
            closed = m.sq(alpha)
            quad = _quad_sq(m, alpha)
            if abs(closed - quad) > mp.mpf("1e-20") * max(1, abs(quad)):
                raise AssertionError(f"closed form disagrees with quadrature: "
                                     f"{key} alpha={alpha}: {closed} vs {quad}")


def grid_reference() -> list[dict]:
    out = []
    for family, params in grid.SETTINGS:
        m = model(family, params)
        key = grid.setting_id(family, params)
        print(f"  {key}", file=sys.stderr, flush=True)
        q25, q75 = m.q(0.25), m.q(0.75)
        row = {"id": key, "family": family, "params": params,
               "mean": _f(m.mean()), "iqr": _f(q75 - q25),
               "upper": _f(m.upper()) if m.upper() != mp.inf else "inf",
               "quantile": [], "superquantile": [], "bpoe": [],
               "tail_quantile": []}
        for alpha in grid.ALPHAS:
            row["quantile"].append(_f(m.q(alpha)) if alpha > 0 else None)
            sq = m.sq(alpha)
            row["superquantile"].append(_f(sq))
            # the bPOE threshold is the binary64 reference superquantile
            threshold = _f(sq)
            guess = 1 - mp.mpf(alpha) if alpha > 0 else None
            row["bpoe"].append(_f(bpoe_at(m, threshold, guess)))
        for eps in grid.EPSILONS:
            row["tail_quantile"].append(_f(m.tq(mp.mpf(eps))))
        out.append(row)
    return out


def probe_reference() -> list[dict]:
    out = []
    for probe in grid.PROBES:
        m = model(probe["family"], probe["params"])
        out.append({**probe, "value": _f(bpoe_at(m, probe["x"]))})
    return out


# qualified families on their unit-variance members, as the portfolio layer
# builds them: (label, family, params)
def _unit_members() -> list[tuple[str, str, dict[str, float]]]:
    nu, xi = 3.0, 0.1
    return [
        ("normal", "normal", {"mu": 0.0, "sigma": 1.0}),
        ("laplace", "laplace", {"mu": 0.0, "b": 1.0 / math.sqrt(2.0)}),
        ("logistic", "logistic", {"mu": 0.0, "s": math.sqrt(3.0) / math.pi}),
        ("student-t", "student-t", {"nu": nu, "s": math.sqrt((nu - 2.0) / nu), "mu": 0.0}),
        ("gev", "gev", {"mu": 0.0, "s": 1.0, "xi": xi}),
    ]


def _variance(family: str, p: dict) -> mp.mpf:
    p = {k: mp.mpf(v) for k, v in p.items()}
    if family == "normal":
        return p["sigma"] ** 2
    if family == "laplace":
        return 2 * p["b"] ** 2
    if family == "logistic":
        return (p["s"] * mp.pi) ** 2 / 3
    if family == "student-t":
        return p["s"] ** 2 * p["nu"] / (p["nu"] - 2)
    g1, g2 = mp.gamma(1 - p["xi"]), mp.gamma(1 - 2 * p["xi"])
    return p["s"] ** 2 * (g2 - g1 * g1) / p["xi"] ** 2


def zeta_reference() -> dict:
    """zeta(alpha) = (mean - left superquantile at 1 - alpha) / stdev."""
    out = {}
    for label, family, params in _unit_members():
        m = model(family, params)
        sd = mp.sqrt(_variance(family, params))
        mean = m.mean()
        values = {}
        for alpha in grid.ZETA_LEVELS:
            a = mp.mpf(alpha)
            beta = 1 - a                    # left level; binary64-exact here
            left = (mean - a * m.sq(beta)) / beta
            values[repr(alpha)] = _f((mean - left) / sd)
        out[label] = values
    return out


def mos_reference() -> list[dict]:
    out = []
    for family, params, levels in grid.MOS_CASES:
        m = model(family, params)
        out.append({"family": family, "params": params, "levels": list(levels),
                    "targets": [_f(m.sq(a)) for a in levels]})
    return out


def main() -> None:
    models = [(grid.setting_id(f, p), model(f, p)) for f, p in grid.SETTINGS]
    print("cross-checking closed forms against quadrature", file=sys.stderr)
    _cross_check(models)
    print("tail grid", file=sys.stderr)
    ref = {
        "generator": "bench/reference/make_reference.py",
        "mpmath": mp.__version__,
        "digits": mp.mp.dps,
        "alphas": grid.ALPHAS,
        "epsilons": grid.EPSILONS,
        "settings": grid_reference(),
        "probes": probe_reference(),
        "zeta": zeta_reference(),
        "mos": mos_reference(),
    }
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
