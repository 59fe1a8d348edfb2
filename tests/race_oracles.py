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

full_race is walk._race as it was before its sums stopped early: every one
of the n_bc terms of each sum is added, so the stop rule can be checked
against it bit for bit.
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


def full_race(spec) -> tuple[float, float]:
    """(p_dsa, mean arrival count at success) from the confirmation-race
    sums with no term left out."""
    n = spec.n_bc
    pa, ph = spec.p_a, spec.p_h
    if pa == 0.5:
        return 1.0, math.inf
    ahead = pa > 0.5
    # v_(k+1) / v_k = (n+k)/(k+1) * c for k <= n; start at the largest v_k
    c, other = (pa, ph) if ahead else (ph, pa)
    peak = (n * c - 1.0) / other
    m = n if peak >= n else max(0, math.floor(peak) + 1)
    log_vm = math.log(math.comb(n + m - 1, m)) + (
        n * math.log(ph) + m * math.log(pa) if ahead
        else (n + 1) * math.log(pa) + (m - 1) * math.log(ph))
    total = extra = 0.0  # sums of v_k and d v_k over k <= n, relative to v_m
    v = 1.0
    for k in range(m, -1, -1):
        total += v
        extra += (n + 1 - k) * v
        v *= k / ((n + k - 1) * c) if k else 0.0
    v = 1.0
    for k in range(m + 1, n + 1):
        v *= (n + k - 1) / k * c
        total += v
        extra += (n + 1 - k) * v
    gap = abs(ph - pa)
    if ahead:
        return 1.0, n / ph + math.exp(log_vm) * extra / gap
    # k > n: the tails 2F1(1, 2n+1; n+2; p_a) and its derivative series
    # 2F1(2, 2n+2; n+3; p_a) end after n terms under Pfaff's transformation:
    #   sum_k w_k         = w_(n+1) / p_h * sum_j u_j
    #   sum_k (k-n-1) w_k = w_(n+1) p_a (2n+1) / ((n+2) p_h^2)
    #                       * sum_j (j+1) (n+2) / (n+2+j) * u_j
    # with u_j = (n-1)! / (n-1-j)! / (n+2)_j * (p_a/p_h)^j, j < n
    x = pa / ph
    u = s0 = s1 = 1.0
    for j in range(1, n):
        u *= (n - j) / (n + 1 + j) * x
        s0 += u
        s1 += (j + 1) * (n + 2) / (n + 2 + j) * u
    head = v * 2 * n / (n + 1)  # v_(n+1) / p_h
    total += head * s0
    late = head * pa * (2 * n + 1) / ((n + 2) * ph) * s1
    p = min(math.exp(log_vm + math.log(total)), 1.0)
    return p, 2 * n + 1 + (2.0 * pa / gap * extra + late) / total

