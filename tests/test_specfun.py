import math

import pytest

from tailrisk import specfun as sf
from tailrisk._quad import adaptive_quad
from tailrisk.errors import DomainError


def test_erf_trivials():
    assert sf.erf(0.0) == 0.0
    assert sf.erfc(0.0) == 1.0


def test_erf_erfc_complement_grid():
    worst = max(abs(sf.erf(-6 + 12 * i / 999) + sf.erfc(-6 + 12 * i / 999) - 1.0)
                for i in range(1000))
    assert worst <= 1e-13


def test_erf_inv_roundtrip():
    for i in range(1, 99):
        p = -0.99 + 1.98 * i / 98
        assert abs(sf.erf(sf.erf_inv(p)) - p) <= 1e-12


def test_erf_inv_against_bisection():
    # independent oracle: bisection on erf
    lo, hi = 0.0, 6.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sf.erf(mid) < 0.9:
            lo = mid
        else:
            hi = mid
    assert abs(sf.erf_inv(0.9) - 0.5 * (lo + hi)) <= 1e-12


@pytest.mark.parametrize("p", [-1.0, 1.0, -1.5, 2.0])
def test_erf_inv_domain(p):
    with pytest.raises(DomainError):
        sf.erf_inv(p)


def test_gamma_values():
    assert sf.gamma_fn(1.0) == 1.0
    assert abs(sf.gamma_fn(0.5) - math.sqrt(math.pi)) <= 1e-14
    assert sf.gamma_fn(4.0) == 6.0
    assert abs(sf.gamma_fn(2.5) / (0.75 * math.sqrt(math.pi)) - 1.0) <= 1e-12
    with pytest.raises(DomainError):
        sf.gamma_fn(0.0)
    with pytest.raises(DomainError):
        sf.gamma_fn(-2.0)


def test_upper_inc_gamma_closed_cases():
    for b in (0.0, 0.5, 1.0, 3.0, 10.0):
        assert abs(sf.upper_inc_gamma(1.0, b) - math.exp(-b)) <= 1e-13
    for a in (0.3, 1.0, 2.7):
        assert abs(sf.upper_inc_gamma(a, 0.0) - sf.gamma_fn(a)) <= 1e-13


def test_upper_inc_gamma_monotone_in_b():
    values = [sf.upper_inc_gamma(1.5, b) for b in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_upper_inc_gamma_quadrature_oracle():
    # frozen: adaptive quadrature of p^0.5 e^-p over [2, inf)
    assert abs(sf.upper_inc_gamma(1.5, 2.0) - 0.2317165520009807) <= 1e-10


def test_lower_inc_gamma():
    for b in (0.2, 1.0, 4.0):
        assert abs(sf.lower_inc_gamma(1.0, b) - (1.0 - math.exp(-b))) <= 1e-13
    assert abs(sf.lower_inc_gamma(2.0, 50.0) - 1.0) <= 1e-10   # saturation, Gamma(2)=1
    direct = sf.lower_inc_gamma(0.7, 1.3)
    complement = sf.gamma_fn(0.7) - sf.upper_inc_gamma(0.7, 1.3)
    assert abs(direct - complement) <= 1e-12


def test_incomplete_gamma_additivity_grid():
    for a in (0.3, 0.7, 1.0, 2.0, 3.5, 5.0):
        for b in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            total = sf.lower_inc_gamma(a, b) + sf.upper_inc_gamma(a, b)
            assert abs(total - sf.gamma_fn(a)) <= 1e-11 * max(1.0, sf.gamma_fn(a))


def test_reg_inc_beta_edges():
    assert sf.reg_inc_beta(0.0, 1.3, 2.2) == 0.0
    assert sf.reg_inc_beta(1.0, 1.3, 2.2) == 1.0
    assert abs(sf.reg_inc_beta(0.5, 2.0, 2.0) - 0.5) <= 1e-14


def test_reg_inc_beta_monotone():
    grid = [i / 50 for i in range(51)]
    vals = [sf.reg_inc_beta(t, 1.7, 0.6) for t in grid]
    assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))


def test_reg_inc_beta_inv_two_sided():
    for a, b in ((0.5, 0.5), (2.0, 3.0), (1.25, 0.5), (4.0, 1.0)):
        for i in range(1, 100):
            p = i / 100
            t = sf.reg_inc_beta_inv(p, a, b)
            assert abs(sf.reg_inc_beta(t, a, b) - p) <= 1e-9
            assert abs(sf.reg_inc_beta_inv(sf.reg_inc_beta(t, a, b), a, b) - t) <= 1e-9


def test_reg_inc_beta_inv_deep_tail():
    # roots far below 2^-61, from mpmath 1.3 at 40 digits
    for p, a, b, x in ((1e-30, 1.5, 0.5, 1.77068275400022721e-20),
                       (1e-25, 0.5, 0.5, 2.4674011002723398447e-50),
                       (1e-300, 3.0, 0.5, 1.4736125994561546546e-100)):
        assert abs(sf.reg_inc_beta_inv(p, a, b) - x) <= 1e-13 * x
    assert sf.reg_inc_beta_inv(1e-300, 0.2, 0.5) == 0.0        # x underflows
    assert sf.reg_inc_beta_inv(1.0 - 1e-300, 0.5, 0.2) == 1.0


def test_inc_beta_values():
    assert sf.inc_beta(0.0, 1.5, 0.5) == 0.0
    assert abs(sf.inc_beta(1.0, 2.0, 2.0) - 1.0 / 6.0) <= 1e-14   # Beta(2,2)
    # frozen: adaptive quadrature of p^0.5 (1-p)^-0.5 over [0, 0.3]
    assert abs(sf.inc_beta(0.3, 1.5, 0.5) - 0.12138217086812025) <= 1e-10
    with pytest.raises(DomainError):
        sf.inc_beta(0.3, 1.5, -0.2)


def test_ln_beta_against_mpmath():
    mp = pytest.importorskip("mpmath")
    # lgamma(b) and lgamma(a + b) carry digits far beyond ln B when b is large
    for a, b in ((0.5, 150.0), (0.01, 1000.0), (0.5, 5e39), (30.0, 30.0), (1e6, 1e6),
                 (0.5, 9.99), (3.0, 10.0), (1e-3, 1e-3), (1e12, 0.5)):
        with mp.workdps(40):
            ref = mp.log(mp.beta(a, b))
        assert abs(sf.ln_beta(a, b) - ref) <= 6e-16 * abs(ref), (a, b)
        assert sf.ln_beta(b, a) == sf.ln_beta(a, b)


def test_lambert_w_trivials():
    assert sf.lambert_w(0.0) == 0.0
    branch_point = -math.exp(-1.0)
    assert sf.lambert_w(branch_point, sf.WBranch.PRINCIPAL) == -1.0
    assert sf.lambert_w(branch_point, sf.WBranch.LOWER) == -1.0
    w = sf.lambert_w(-2.0 * math.exp(-2.0), sf.WBranch.LOWER)
    assert abs(w + 2.0) <= 1e-12


def test_lambert_w_identity_grids():
    for i in range(60):
        y = -math.exp(-1.0) + 1e-6 + i * 0.5
        w = sf.lambert_w(y, sf.WBranch.PRINCIPAL)
        assert abs(w * math.exp(w) - y) <= 1e-12 * max(1.0, abs(y))
        assert w >= -1.0
    for i in range(1, 60):
        y = -math.exp(-1.0) * i / 60
        w = sf.lambert_w(y, sf.WBranch.LOWER)
        assert abs(w * math.exp(w) - y) <= 1e-12 * max(1.0, abs(y))
        assert w <= -1.0


def test_lambert_w_domain():
    with pytest.raises(DomainError):
        sf.lambert_w(-0.4)
    with pytest.raises(DomainError):
        sf.lambert_w(0.5, sf.WBranch.LOWER)


def test_log_integral_small_limit():
    assert abs(sf.log_integral(1e-13)) <= 1e-12


def test_log_integral_against_quadrature():
    for x in (0.001, 0.05, 0.5, 0.9, 0.99):
        ref, _ = adaptive_quad(lambda t: 1.0 / math.log(t), 1e-12, x,
                               atol=1e-12, rtol=1e-12, limit=4000)
        assert abs(sf.log_integral(x) - ref) <= 1e-8


def test_log_integral_against_mpmath():
    mp = pytest.importorskip("mpmath")
    # deep tail, where the leading term x / ln x alone is 3.2% off at 1e-13
    for k in range(12, 301):
        for x in (10.0 ** -k, 3.7 * 10.0 ** -k):
            ref = float(mp.li(x))
            assert abs(sf.log_integral(x) - ref) <= 1e-12 * abs(ref)
    for x in (1e-6, 0.002, 0.05, 0.13, 0.5, 0.9):
        ref = float(mp.li(x))
        assert abs(sf.log_integral(x) - ref) <= 1e-12 * abs(ref)


def test_log_integral_monotone():
    assert sf.log_integral(0.9) < sf.log_integral(0.5) < 0.0
    with pytest.raises(DomainError):
        sf.log_integral(1.0)
    with pytest.raises(DomainError):
        sf.log_integral(0.0)


def test_binary_entropy():
    assert sf.binary_entropy(0.0) == 0.0
    assert sf.binary_entropy(1.0) == 0.0
    assert abs(sf.binary_entropy(0.5) - math.log(2.0)) <= 1e-15
    direct = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
    assert abs(sf.binary_entropy(0.25) - direct) <= 1e-15
    assert abs(sf.binary_entropy(0.3) - sf.binary_entropy(0.7)) <= 1e-15
