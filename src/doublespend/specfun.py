"""Numerical kernels: the regularized incomplete gamma function, the Erlang
density and the generalized hypergeometric series pFq.

The Erlang-mixture series of `timing` runs on regularized_gamma_p; the
Erlang density and the pFq series are the building blocks of the paper's
closed-form density, which the tests keep as an oracle. Real arguments
only. Stability where needed (log-gamma for factorials beyond 20!, scaled
accumulation for series whose terms overflow long before their weighted sum
does).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConvergenceError, DomainError

_IGAM_TOL = 1e-14          # internal tolerance of the incomplete-gamma split
_IGAM_MAX_ITER = 10_000
_PFQ_MAX_TERMS = 100_000


# ---------------------------------------------------------------------------
# regularized incomplete gamma
# ---------------------------------------------------------------------------

def _igam_prefactor(a: float, x: float) -> float:
    # x^a e^-x / Gamma(a), in log space to survive large a or x
    return math.exp(a * math.log(x) - x - math.lgamma(a))


def _gamma_p_series(a: float, x: float) -> float:
    # P(a,x) = x^a e^-x / Gamma(a) * sum_k x^k / (a)_{k+1}, good for x < a+1
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_IGAM_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _IGAM_TOL:
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
