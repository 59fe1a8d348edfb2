"""Numerical kernels: the regularized incomplete gamma function, saddle-point
binomial and Poisson terms, the Erlang density and the generalized
hypergeometric series pFq.

The Erlang-mixture series of `timing` runs on regularized_gamma_p and
poisson_term, and its state masses are seeded from stirlerr and scaled_pow,
as is the confirmation-race sum of `walk` (the central binomial term
C(2k, k) / 4^k from stirlerr); the Erlang density and the pFq series are
the building blocks of the paper's closed-form density, which the tests
keep as an oracle. Real arguments only. Stability where needed (Stirling's
error and the deviance term instead of differences of large logarithms,
scaled accumulation for series whose terms overflow long before their
weighted sum does).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConvergenceError, DomainError

_IGAM_TOL = 1e-14          # internal tolerance of the incomplete-gamma split
_IGAM_MAX_ITER = 100_000
_PFQ_MAX_TERMS = 100_000


# ---------------------------------------------------------------------------
# saddle-point terms (C. Loader, "Fast and Accurate Computation of Binomial
# Probabilities", 2000)
# ---------------------------------------------------------------------------

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# stirlerr(n) for n = 1..15 (index 0 unused)
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def stirlerr(n: float) -> float:
    """Stirling's error ln(n!) - (n + 1/2) ln n + n - ln sqrt(2 pi), n > 0.

    A table for the integers up to 15, the asymptotic series beyond; other
    n up to 15 go through lgamma. Small (1/(12 n)), so exp of a sum of these
    terms carries no large-logarithm rounding.
    """
    if n <= 15.0:
        k = int(n)
        if k == n:
            return _STIRLERR[k]
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI
    nn = n * n
    if n > 500.0:
        return (_S0 - _S1 / nn) / n
    if n > 80.0:
        return (_S0 - (_S1 - _S2 / nn) / nn) / n
    if n > 35.0:
        return (_S0 - (_S1 - (_S2 - _S3 / nn) / nn) / nn) / n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _central(k: int) -> float:
    # C(2k, k) / 4^k
    if k == 0:
        return 1.0
    return math.exp(stirlerr(2 * k) - 2.0 * stirlerr(k)) / math.sqrt(math.pi * k)


def bd0(x: float, m: float) -> float:
    """Deviance term x ln(x/m) + m - x >= 0 for x, m > 0, by a series in
    v = (x-m)/(x+m) where x and m are close, so it keeps its relative
    precision where the plain form cancels."""
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s = (x - m) * v
        ej = 2.0 * x * v
        v *= v
        for j in range(3, 2000, 2):
            ej *= v
            s1 = s + ej / j
            if s1 == s:
                return s
            s = s1
    return x * math.log(x / m) + m - x


def poisson_term(k: float, lam: float) -> float:
    """e^-lam lam^k / Gamma(k+1) for k, lam >= 0, as
    e^-(stirlerr(k) + bd0(k, lam)) / sqrt(2 pi k): about 1e-15 relative
    near the mode at any size of k, where the log-space form loses
    |k ln lam| * eps; in the far tails the error grows like bd0 * eps."""
    if lam == 0.0:
        return 1.0 if k == 0.0 else 0.0
    if k == 0.0:
        return math.exp(-lam)
    return math.exp(-stirlerr(k) - bd0(k, lam)) / math.sqrt(2.0 * math.pi * k)


def scaled_pow(x: float, k: int) -> tuple[float, int]:
    """x**k as (m, e) with x**k = m * 2**e, for 0 < x <= 1 and an integer
    k >= 0. The binary exponent of x is split off first (x = f 2^d,
    1/2 <= f < 1), so k d is added exactly and f^k takes one math.pow per
    chunk of at least 1000 factors, each partial power staying above
    2^-1000: the result keeps its relative precision (an ulp or so per
    chunk) far below the float range, whatever x."""
    f, d = math.frexp(x)
    e = k * d
    lg = -math.log2(f)
    chunk = k if lg * k <= 1000.0 else int(1000.0 / lg)
    m = 1.0
    while k > 0:
        c = min(k, chunk)
        m, de = math.frexp(m * math.pow(f, c))
        e += de
        k -= c
    return m, e


# ---------------------------------------------------------------------------
# regularized incomplete gamma
# ---------------------------------------------------------------------------

def _igam_prefactor(a: float, x: float) -> float:
    # x^a e^-x / Gamma(a) = a * poisson_term(a, x), free of the large
    # logarithms a ln x and lgamma(a)
    return a * poisson_term(a, x)


def _gamma_p_series(a: float, x: float) -> float:
    # P(a,x) = x^a e^-x / Gamma(a) * sum_k x^k / (a)_{k+1}, good for x < a+1
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_IGAM_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        # the later terms shrink at least geometrically, by x/(n+1) < 1, so
        # their sum is below term / (1 - x/(n+1))
        if term < total * _IGAM_TOL * (1.0 - x / (n + 1.0)):
            return total * _igam_prefactor(a, x)
    raise ConvergenceError("incomplete gamma series did not converge", total)


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Q(a,x) via the Legendre continued fraction, modified Lentz iteration,
    # good for x >= a+1
    big = 1e30
    b = x + 1.0 - a
    c = big
    d = 1.0 / b
    h = d
    for i in range(1, _IGAM_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < 1.0 / big:
            d = 1.0 / big
        c = b + an / c
        if abs(c) < 1.0 / big:
            c = 1.0 / big
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _IGAM_TOL:
            return h * _igam_prefactor(a, x)
    raise ConvergenceError("incomplete gamma continued fraction did not converge", h)


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    if a <= 0.0:
        raise DomainError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise DomainError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


# ---------------------------------------------------------------------------
# Erlang density
# ---------------------------------------------------------------------------

def erlang_pdf(i: int, rate: float, t: float) -> float:
    """Density of the sum of i independent exponential(rate) variables.

    rate * (rate*t)^(i-1) * e^(-rate*t) / (i-1)!, evaluated through logs so
    deep stages (large i) neither overflow nor underflow prematurely.
    """
    if i < 1:
        raise DomainError(f"stage count must be a positive integer, got {i}")
    if rate <= 0.0:
        raise DomainError(f"rate must be positive, got {rate}")
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return rate if i == 1 else 0.0
    log_pdf = (
        math.log(rate)
        + (i - 1) * math.log(rate * t)
        - rate * t
        - math.lgamma(i)
    )
    try:
        return math.exp(log_pdf)
    except OverflowError:  # cannot happen for a true density, defensive
        raise ConvergenceError("erlang pdf overflowed") from None


# ---------------------------------------------------------------------------
# generalized hypergeometric series pFq
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypergeomParams:
    """Numerator and denominator parameter vectors of a pFq series."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        for bj in self.b:
            if bj <= 0.0 and bj == int(bj):
                raise DomainError(
                    f"denominator parameter {bj} is a pole of the series"
                )


def _pfq_scaled(a: Sequence[float], b: Sequence[float], x: float,
                tol: float) -> tuple[float, int]:
    """Sum the pFq series, returning (mantissa, exp2) with value = m * 2**exp2.

    Term recursion: term_{k+1} = term_k * prod(a+k)/prod(b+k) * x/(k+1).
    The running term and sum are renormalized with frexp so series whose peak
    term exceeds float range still accumulate exactly (callers divide the huge
    scale back out, e.g. against e^(-rate*t)).
    """
    # term and acc share one base-2 scale so addition stays exact
    term = 1.0
    acc = 1.0
    scale = 0
    k = 0
    while k < _PFQ_MAX_TERMS:
        num = 1.0
        for aj in a:
            num *= aj + k
        den = 1.0
        for bj in b:
            den *= bj + k
        if den == 0.0:
            raise DomainError("pFq denominator parameter hit a pole")
        ratio = num / den * x / (k + 1)
        term *= ratio
        acc += term
        k += 1
        if abs(term) <= tol * abs(acc):
            # certify the tail once the term ratio has fallen below 1:
            # |remaining| <= |term| * r/(1-r) under a decreasing ratio
            r = abs(ratio)
            if r < 1.0:
                if abs(term) * r / (1.0 - r) <= tol * abs(acc):
                    break
            elif term == 0.0:
                break
        if abs(acc) > 1e270 or (abs(acc) < 1e-270 and acc != 0.0):
            m, e = math.frexp(acc)
            scale += e
            acc = m
            term = math.ldexp(term, -e)
    else:
        raise ConvergenceError(
            f"pFq did not converge within {_PFQ_MAX_TERMS} terms",
            math.ldexp(acc, scale) if abs(scale) < 1000 else None,
        )
    return acc, scale


def hypergeom_pfq(params: HypergeomParams, x: float, tol: float = 1e-12) -> float:
    """Evaluate pFq(a; b; x) = sum_k prod(a)_k / prod(b)_k * x^k / k!.

    Truncates when a geometric bound on the remaining tail drops below
    tol * |partial sum|. Raises DomainError on a parameter pole and
    ConvergenceError if the cap is hit first.
    """
    if tol <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    mant, scale = _pfq_scaled(params.a, params.b, x, tol)
    try:
        return math.ldexp(mant, scale)
    except OverflowError:
        raise ConvergenceError(
            f"pFq value overflows double precision (scale 2**{scale})"
        ) from None


def log_hypergeom_pfq(params: HypergeomParams, x: float, tol: float = 1e-12) -> float:
    """log pFq(a; b; x) for series with all-positive terms (a, b > 0, x >= 0).

    Safe far beyond float range; used where a decaying prefactor cancels the
    magnitude.
    """
    if tol <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if x < 0.0 or any(aj <= 0.0 for aj in params.a) or any(bj <= 0.0 for bj in params.b):
        raise DomainError("log evaluation requires positive parameters and x >= 0")
    mant, scale = _pfq_scaled(params.a, params.b, x, tol)
    return math.log(mant) + scale * math.log(2.0)
