"""Oracles for the unbounded success probability and mean.

The paper's closed forms, evaluated in Fraction from the exact binary value
of p_a (with p_h = 1 - p_a exact), so their cancellations cost nothing:

  p_dsa = 1 - sum_{j=n_bc}^{2 n_bc} binom(j-1, n_bc-1)
                * (p_h^n_bc p_a^(j-n_bc) - p_a^(n_bc+1) p_h^(j-n_bc-1))

  lambda_t E_TAS^inf = (sum_j binom(j-1, n_bc-1) Z_j + n_bc / p_h) / p_dsa,
  Z_j = p_a p_min^n_bc p_max^(j-n_bc-1) (2 n_bc - 2 j p_min + 1) / (p_max - p_min)
        - j p_a^(j-n_bc) p_h^n_bc

with p_max, p_min the larger and smaller of p_a, p_h. The sums over j are
polynomials in one share with coefficients binom(n_bc+k-1, k), k = j - n_bc,
evaluated by Horner's rule so that n_bc = 1000 takes about a second.

full_race is walk._race without its stop: every one of the n_bc terms of
each binomial-tail sum is added, so the stop rule can be checked against it
bit for bit. mp_race is the negative-binomial race sum itself in mpmath,
under the float p_h = 1 - p_a of AttackSpec; it shares no identity with
walk._race and takes under a second at n_bc 20,000. The Fraction oracles
above use the exact p_h = 1 - p_a instead, which differs from the float
convention by up to 5e-13 relative at (0.45, 5000).
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from doublespend.specfun import _central, scaled_pow


def _series(n_bc: int, x: Fraction, by_arrivals: bool = False) -> Fraction:
    # sum_{k=0}^{n_bc} binom(n_bc+k-1, k) * x^k, each term also times
    # n_bc + k (the state j) when by_arrivals
    acc = Fraction(0)
    for k in range(n_bc, -1, -1):
        acc = acc * x + math.comb(n_bc + k - 1, k) * ((n_bc + k) if by_arrivals else 1)
    return acc


def exact_p_dsa(p_a: float, n_bc: int) -> Fraction:
    p = Fraction(p_a)
    q = 1 - p
    if p >= Fraction(1, 2):
        return Fraction(1)
    return 1 - q ** n_bc * _series(n_bc, p) + p ** (n_bc + 1) * _series(n_bc, q) / q


def exact_mean_arrivals(p_a: float, n_bc: int) -> Fraction:
    """lambda_t * E_TAS^inf: the mean arrival count at success, given success."""
    p = Fraction(p_a)
    q = 1 - p
    big, small = max(p, q), min(p, q)
    lead = p * small ** n_bc / ((big - small) * big)
    z = lead * ((2 * n_bc + 1) * _series(n_bc, big)
                - 2 * small * _series(n_bc, big, True)) \
        - q ** n_bc * _series(n_bc, p, True)
    return (z + Fraction(n_bc) / q) / exact_p_dsa(p_a, n_bc)


def rel_error(got: float, want: Fraction) -> float:
    return float(abs(Fraction(got) - want) / want)


def full_race(spec) -> tuple[float, float]:
    """(p_dsa, mean arrival count at success) from walk._race's binomial-tail
    sums with no term left out."""
    n = spec.n_bc
    pa, ph = spec.p_a, spec.p_h
    if pa == 0.5:
        return 1.0, math.inf
    lo, hi = min(pa, ph), max(pa, ph)
    rho, gap = lo / hi, hi - lo
    t, u, v = n / (n + 1), 0.0, 0.0
    for j in range(1, n + 1):
        u += t
        v += (2 * n + 1) * (j + 1) / (n + j + 1) * t
        t *= (n - j) / (n + j + 1) * rho
    w = (2 * n + 1) / (n + 1) + rho * v
    ma, ea = scaled_pow(pa, n)
    mh, eh = scaled_pow(ph, n)
    b = math.ldexp(_central(n) * ma * mh, ea + eh + 2 * n)
    if pa > 0.5:
        return 1.0, n / ph + b * w / gap
    s = 1.0 + u + rho * u
    return min(b * rho * s, 1.0), 2 * n + w / (gap * s)


def mp_race(p_a: float, n_bc: int, dps: int = 40) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(p_dsa, mean arrival count at success) as the negative-binomial race
    sums of walk._race, term by term at dps digits, with p_h the float
    1 - p_a (the AttackSpec.p_h convention):

      p_dsa    = sum_k w_k min(1, r)^max(d, 0)
      arrivals = sum_k w_k min(1, r)^max(d, 0) (n_bc + k + max(d, 0) / gap)
                 / p_dsa

    w_k = binom(n_bc+k-1, k) p_h^n_bc p_a^k, d = n_bc+1-k, r = p_a/p_h,
    gap = |p_h - p_a|. The sum over k runs past n_bc until its term ratio
    is below 1 and a geometric bound on the mean's remaining terms is below
    10^-(dps+5) of its sum; mpf has no float range, so nothing underflows.
    """
    with mpmath.workdps(dps):
        n = n_bc
        p = mpmath.mpf(p_a)
        q = mpmath.mpf(1.0 - p_a)
        if p == q:
            return mpmath.mpf(1), mpmath.inf
        gap = abs(q - p)
        x = min(p / q, 1)
        eps = mpmath.mpf(10) ** -(dps + 5)
        w = q ** n
        lead = x ** (n + 1)  # min(1, r)^max(d, 0)
        total = moment = mpmath.mpf(0)
        k = 0
        while True:
            d = max(n + 1 - k, 0)
            v = w * lead
            total += v
            moment += v * (n + k + d / gap)
            ratio = mpmath.mpf(n + k) / (k + 1) * p
            w *= ratio
            if d:
                lead /= x
            k += 1
            # past n_bc the terms fall by ratio or faster, each weight by at
            # most 1 more per step
            if k > n and ratio < 1 and w * (n + k) / (1 - ratio) ** 2 < eps * moment:
                return total, moment / total
