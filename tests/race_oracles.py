"""Exact rational oracles for the unbounded success probability and mean.

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
"""
from __future__ import annotations

import math
from fractions import Fraction


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
