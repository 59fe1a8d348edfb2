import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from doublespend import specfun
from doublespend.errors import ConvergenceError, DomainError
from doublespend.specfun import (
    HypergeomParams,
    bd0,
    erlang_pdf,
    hypergeom_pfq,
    log_hypergeom_pfq,
    poisson_term,
    regularized_gamma_p,
    scaled_pow,
    stirlerr,
)
from doublespend.walk import ballot_number


# mpmath.gammainc(a, 0, x, regularized=True) at 30 dps
GAMMA_P_ORACLE = [
    (1.0, 0.5, 0.39346934028736658),
    (3.0, 2.0, 0.32332358381693654),
    (6.0, 20.0, 0.99992809115947157),
    (11.0, 7.0, 0.098520794110912815),
    (5.5, 5.5, 0.55673672157353469),
    (100.0, 80.0, 0.017108313035133114),
    (2.0, 1e-8, 4.999999966666667e-17),
]


@pytest.mark.parametrize("a,x,expected", GAMMA_P_ORACLE)
def test_regularized_gamma_p_oracle(a, x, expected):
    assert regularized_gamma_p(a, x) == pytest.approx(expected, rel=1e-13)


def test_gamma_p_edges():
    assert regularized_gamma_p(3.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        regularized_gamma_p(0.0, 1.0)
    with pytest.raises(DomainError):
        regularized_gamma_p(2.0, -0.1)


@pytest.mark.parametrize("a,x,route", [(5.0, 3.0, "series"),
                                        (3.0, 8.0, "continued fraction")])
def test_gamma_p_iteration_cap_raises_with_partial(a, x, route, monkeypatch):
    # x < a + 1 takes the power series, x >= a + 1 the continued fraction
    monkeypatch.setattr(specfun, "_IGAM_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match=f"incomplete gamma {route} did not"
                                               " converge") as info:
        regularized_gamma_p(a, x)
    assert math.isfinite(info.value.partial) and info.value.partial > 0.0


@given(a=st.floats(0.5, 50), x=st.floats(1e-6, 200))
@settings(max_examples=200, deadline=None)
def test_gamma_p_matches_scipy(a, x):
    assert regularized_gamma_p(a, x) == pytest.approx(
        float(special.gammainc(a, x)), rel=1e-10, abs=1e-280
    )


@given(a=st.floats(0.5, 50), x=st.floats(1e-3, 200))
@settings(max_examples=100, deadline=None)
def test_gamma_p_upward_recurrence(a, x):
    # P(a+1, x) = P(a, x) - x^a e^-x / Gamma(a+1)
    term = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
    assert regularized_gamma_p(a + 1.0, x) == pytest.approx(
        regularized_gamma_p(a, x) - term, rel=1e-10, abs=1e-14
    )


@pytest.mark.parametrize("a,x", [(2001.0, 1900.0), (7000.0, 7273.0),
                                 (1e5, 1e5 + 300.0), (1e5, 1e5 - 600.0),
                                 (1e6, 1e6 + 3000.0), (1e6, 1e6 - 2000.0),
                                 (2e6, 2e6)])
def test_gamma_p_at_large_arguments(a, x):
    # the prefactor x^a e^-x / Gamma(a) comes from the saddle-point kernel;
    # from lgamma it lost |a ln x| * eps, 2.5e-10 at a = 1e5. Near x = a the
    # series needs about 9 sqrt(a) terms, 13,000 at a = 2e6. mpmath's own
    # lower series gives up there, so the reference is 1 - Q at 50 digits.
    with mpmath.workdps(50):
        exact = 1 - mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        assert abs(regularized_gamma_p(a, x) / exact - 1) <= 1e-12


def _exact_stirlerr(n):
    n = mpmath.mpf(n)
    return mpmath.loggamma(n + 1) - (n + 0.5) * mpmath.log(n) + n \
        - mpmath.log(2 * mpmath.pi) / 2


@pytest.mark.parametrize("n", [*range(1, 41), 50, 80, 81, 100, 499, 500, 501,
                               1e3, 1e4, 1e5, 1e6, 1e7, 15.5, 35.5, 80.5, 1e7 + 0.5])
def test_stirlerr_against_mpmath(n):
    # it enters exp() as an absolute term, so its absolute error is what
    # counts: about an ulp of 1 at most (the series' truncation at n = 16)
    with mpmath.workdps(50):
        assert abs(stirlerr(n) - _exact_stirlerr(n)) <= 2e-16


@pytest.mark.parametrize("n", [0.5, 2.5, 7.3, 14.9])
def test_stirlerr_below_16_off_the_integers(n):
    with mpmath.workdps(50):
        assert abs(stirlerr(n) - _exact_stirlerr(n)) <= 1e-14


@pytest.mark.parametrize("x", [1.0, 10.0, 1e3, 1e5, 1e7])
@pytest.mark.parametrize("d", [-0.5, -0.15, -1e-3, -1e-9, 1e-9, 0.05, 0.15, 2.0])
def test_bd0_against_mpmath(x, d):
    m = x * (1.0 + d)
    with mpmath.workdps(50):
        exact = x * mpmath.log(x / mpmath.mpf(m)) + m - x
        assert abs(bd0(x, m) / exact - 1) <= 1e-14


@pytest.mark.parametrize("k", [1, 10, 100, 10 ** 4, 10 ** 6, 10 ** 7])
@pytest.mark.parametrize("z", [-5.0, -1.0, 0.0, 0.5, 3.0])
def test_poisson_term_against_mpmath(k, z):
    # e^-lam lam^k / k! with lam within a few standard deviations of k; in
    # log space the term is |k ln lam| * eps off, 4e-9 at k = 1e7
    lam = max(k + z * math.sqrt(k), 0.5)
    with mpmath.workdps(50):
        exact = mpmath.exp(k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1))
        assert abs(poisson_term(k, lam) / exact - 1) <= 1e-14


def test_poisson_term_edges():
    assert poisson_term(0, 2.0) == math.exp(-2.0)
    assert poisson_term(0, 0.0) == 1.0
    assert poisson_term(3, 0.0) == 0.0
    assert poisson_term(10 ** 6, 10.0) == 0.0  # far below the float range


@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-100, 0.75 * 2.0 ** -64, 1e-15, 0.05,
                               0.35, 0.5, 0.65, 0.99, 1.0 - 2.0 ** -40, 1.0])
@pytest.mark.parametrize("k", [0, 1, 1000, 3500, 10 ** 5, 10 ** 6, 10 ** 6 + 6])
def test_scaled_pow_against_mpmath(x, k):
    # the binary exponent is split off, so the mantissa's power takes one
    # math.pow per 1000 factors or more, whatever x: below 2^-1000 it took
    # one per factor, and shorter chunks of a small x lost 1.8e-12 at 10^6
    m, e = scaled_pow(x, k)
    assert 0.5 <= m < 1.0 or (k == 0 and m == 1.0)
    with mpmath.workdps(50):
        exact = mpmath.mpf(x) ** k
        assert abs(mpmath.ldexp(m, e) / exact - 1) <= 1e-13


ERLANG_CASES = [
    (1, 0.01, 30.0),
    (3, 1 / 600, 1800.0),
    (7, 0.5, 2.0),
    (40, 2.0, 25.0),
]


@pytest.mark.parametrize("i,rate,t", ERLANG_CASES)
def test_erlang_matches_scipy(i, rate, t):
    assert erlang_pdf(i, rate, t) == pytest.approx(
        float(stats.erlang.pdf(t, i, scale=1 / rate)), rel=1e-11
    )


@pytest.mark.parametrize("i,rate,t", ERLANG_CASES)
def test_gamma_p_is_erlang_cdf(i, rate, t):
    # the mixture series in timing reads the Erlang CDF as P(i, rate * t)
    assert regularized_gamma_p(float(i), rate * t) == pytest.approx(
        float(stats.erlang.cdf(t, i, scale=1 / rate)), rel=1e-11
    )


def test_erlang_at_zero():
    # density of the i-th arrival at t=0: rate for i=1, zero beyond
    assert erlang_pdf(1, 2.0, 0.0) == 2.0
    assert erlang_pdf(2, 2.0, 0.0) == 0.0


def test_erlang_validation():
    with pytest.raises(DomainError):
        erlang_pdf(0, 1.0, 1.0)
    with pytest.raises(DomainError):
        erlang_pdf(2, -1.0, 1.0)
    with pytest.raises(DomainError):
        erlang_pdf(2, 1.0, -1.0)


def test_pfq_exponential():
    # 0F0(;;x) = e^x
    p = HypergeomParams(a=(), b=())
    for x in (0.0, 1.0, 5.5, 20.0):
        assert hypergeom_pfq(p, x, tol=1e-14) == pytest.approx(math.exp(x), rel=1e-12)


def test_pfq_1f1_closed_form():
    # 1F1(1;2;x) = (e^x - 1)/x; mpmath.hyper([1],[2],0.7) = 1.4482181535292521
    p = HypergeomParams(a=(1.0,), b=(2.0,))
    assert hypergeom_pfq(p, 0.7, tol=1e-14) == pytest.approx(
        1.4482181535292521, rel=1e-13
    )
    assert hypergeom_pfq(p, 3.0, tol=1e-14) == pytest.approx(
        (math.exp(3.0) - 1.0) / 3.0, rel=1e-12
    )


# mpmath.hyper at 30 dps for the 2F3 shapes the achieving-time density uses
PFQ_ORACLE = [
    ((2.5, 2.0), (5.0, 6.0, 5.5), 3.3, 1.1066567628581159),
    ((2.5, 2.0), (5.0, 6.0, 5.5), 40.0, 4.0391724589579316),
    ((1.5, 1.0), (3.0, 2.0, 1.5), 2.2, 1.4418551474692271),
    ((1.2, 0.8), (2.5, -0.5, 3.0), 0.9, 0.70606615037711686),
]


@pytest.mark.parametrize("upper,lower,x,expected", PFQ_ORACLE)
def test_pfq_oracle_values(upper, lower, x, expected):
    p = HypergeomParams(a=upper, b=lower)
    assert hypergeom_pfq(p, x, tol=1e-14) == pytest.approx(expected, rel=1e-12)


def test_pfq_pole_rejected():
    with pytest.raises(DomainError):
        HypergeomParams(a=(1.0,), b=(-2.0,))
    with pytest.raises(DomainError):
        HypergeomParams(a=(1.0,), b=(0.0,))
    # negative non-integer lower parameter is fine
    HypergeomParams(a=(1.0,), b=(-0.5,))


def test_log_pfq_consistency():
    p = HypergeomParams(a=(2.5, 2.0), b=(5.0, 6.0, 5.5))
    for x in (0.5, 10.0, 300.0):
        direct = hypergeom_pfq(p, x, tol=1e-14)
        assert math.exp(log_hypergeom_pfq(p, x, tol=1e-14)) \
            == pytest.approx(direct, rel=1e-11)


def test_log_pfq_huge_argument_no_overflow():
    # x of the order (rate * time)^2 at long horizons overflows the plain
    # series; the log route must survive it
    p = HypergeomParams(a=(2.5, 2.0), b=(5.0, 6.0, 5.5))
    val = log_hypergeom_pfq(p, 4.0e6, tol=1e-12)
    assert math.isfinite(val)
    assert val > 1000.0


def test_pfq_ballot_series_identity():
    # (2n_bc)! * sum_n ballot(n, 2n_bc - j) x^n / (2n_bc + 2n)!  as a 2F3:
    # upper (n_bc+1-j/2, n_bc+1/2-j/2), lower (2n_bc+2-j, n_bc+1, n_bc+1/2)
    n_bc, j, x = 3, 4, 5.25
    p = HypergeomParams(
        a=(n_bc + 1 - j / 2, n_bc + 0.5 - j / 2),
        b=(2 * n_bc + 2 - j, n_bc + 1, n_bc + 0.5),
    )
    series = sum(
        ballot_number(n, 2 * n_bc - j) * x ** n
        * math.factorial(2 * n_bc) / math.factorial(2 * n_bc + 2 * n)
        for n in range(80)
    )
    assert hypergeom_pfq(p, x, tol=1e-14) == pytest.approx(series, rel=1e-12)
