"""Oracles for the per-state masses and the finite-cut moments.

- exact_mass: the mass of state i at 40 digits in mpmath, from the exact
  integer weights of _ballot_coeff and math.comb. _ballot_coeff(N, n) is
  the path count W(n) of timing._state_mass_iter in exact integers, summed
  term by term; it shares no rounding with timing.p_dsa_at_state, which
  seeds its float sum with the saddle-point terms.
- walk_dp_cut: the finite-cut success probability and mean arrival count by
  a forward dynamic program over the block-arrival walk, which shares no
  formula with the package: after i arrivals the state is the honest count
  h, and a path is absorbed the first time h >= n_bc and i - h > h. The DP
  runs in extended precision (numpy longdouble, 64-bit mantissa and a range
  to 1e-4951 on x86-64, so no rescaling is needed); the Erlang CDFs come from
  one mpmath incomplete gamma and the recursion P(i+1, x) = P(i, x) -
  e^-x x^i / i! at 40 digits.
- full_seed: timing._ballot_seed, which returns q(n) and the gap delta of
  W(n+1) / W(n) below 4, with its stop rule tested at every term and its
  ratios and weights formed from Python integers (each one correctly
  rounded integer division), the reference for the seed that tests the
  rule every 8th term only and carries its integer factors as floats.
- int_state_masses: timing._state_masses with the delta recurrence's
  coefficients and the lane ratio formed from Python integers, each
  rounded once when it meets a float, and seeded by full_seed; the
  reference for the iterator, which forms them from floats.
"""
from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np

from doublespend.specfun import _central, scaled_pow
from doublespend.timing import (
    _BELOW_FLOATS,
    _LANE_FLOOR,
    _RESEED,
    _first_lane,
)


@lru_cache(maxsize=None)
def _ballot_coeff(n_bc: int, n: int) -> int:
    # integer weight of the odd-state term: paths that confirm at state
    # j = 2*n_bc - m, m = 0..n_bc (C(j-1, n_bc-1) ways to place the
    # confirming blocks) and then first touch -1 after 2n + m more steps,
    # ballot_number(n, m) = (m+1) C(2n+m, n) / (n+m+1) ways; both binomials
    # step in m by exact integer ratios
    confirm, walk = math.comb(2 * n_bc - 1, n_bc - 1), math.comb(2 * n, n)
    total = 0
    for m in range(n_bc + 1):
        if m:
            confirm = confirm * (n_bc - m + 1) // (2 * n_bc - m)
            walk = walk * (2 * n + m) // (n + m)
        total += confirm * (m + 1) * walk // (n + m + 1)
    return total


def exact_mass(p_a: float, n_bc: int, i: int) -> mpmath.mpf:
    """First-achievement mass at state i, p_h = 1 - p_a as a float."""
    with mpmath.workdps(40):
        pa, ph = mpmath.mpf(p_a), mpmath.mpf(1.0 - p_a)
        mass = math.comb(i - 1, n_bc - 1) * ph ** n_bc * pa ** (i - n_bc)
        if (i - 2 * n_bc - 1) % 2 == 0:
            n = (i - 2 * n_bc - 1) // 2
            mass += _ballot_coeff(n_bc, n) * pa ** (n_bc + n + 1) * ph ** (n_bc + n)
        return +mass


def walk_dp_cut(p_a: float, n_bc: int, x: float) -> tuple[float, float]:
    """(p_as, E_TAS * lambda_t) for the cut at x = lambda_t * t_cut, summing
    the states up to x + 40 sqrt(x) (P(i, x) is below e^-700 beyond)."""
    p_h = 1.0 - p_a
    i_max = 2 * n_bc + 1 + int(x + 40.0 * math.sqrt(x))
    pa, ph = np.longdouble(p_a), np.longdouble(p_h)
    alive = np.zeros(i_max + 1, dtype=np.longdouble)  # by honest count h
    alive[0] = 1.0
    masses = []  # (state, mass)
    for i in range(1, i_max + 1):
        alive[1:i + 1] = alive[1:i + 1] * pa + alive[:i] * ph
        alive[0] *= pa
        hi = (i - 1) // 2  # absorbed: n_bc <= h and 2h < i
        if hi >= n_bc:
            masses.append((i, alive[n_bc:hi + 1].sum()))
            alive[n_bc:hi + 1] = 0.0
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        i0 = masses[0][0]
        cdf = mpmath.gammainc(i0, 0, xm, regularized=True)
        u = mpmath.exp(i0 * mpmath.log(xm) - xm - mpmath.loggamma(i0 + 1))
        p_as = moment = mpmath.mpf(0)
        for i, q in masses:
            mass = mpmath.mpf(float(q))
            cdf_next = cdf - u
            p_as += mass * cdf
            moment += mass * i * cdf_next
            cdf, u = cdf_next, u * xm / (i + 1)
        return float(p_as), float(moment / p_as)


def full_seed(n_bc: int, n: int, pa: float, ph: float) -> tuple[float, float, int]:
    """timing._ballot_seed in integer ratios, stopping at the first term
    where the tails of both sums are below 2^-60 of them."""
    s0 = t0 = 1.0
    d = (6 * n + 6) / (n + 2)
    for m in range(1, n_bc + 1):
        r0 = (n_bc - m + 1) * (m + 1) * (2 * n + m) / (
            (2 * n_bc - m) * m * (n + m + 1))
        t0 *= r0
        s0 += t0
        d += t0 * ((6 * n + 6 + m - m * m) / (n + m + 2))
        if r0 < 1.0:
            tail = t0 * r0 / (1.0 - r0)
            if tail <= s0 * 2.0 ** -60 and tail * (6 + m + 1.0 / (1.0 - r0)) <= (
                    abs(d) * 2.0 ** -60):
                break
    ma, ea = scaled_pow(pa, n_bc + n + 1)
    mh, eh = scaled_pow(ph, n_bc + n)
    a = (_central(n_bc) * _central(n) * s0 / (2 * (n + 1))) * ma * mh
    return a, d / (4 * (n + 1) * s0), ea + eh + 2 * (n_bc + n)


def int_state_masses(spec):
    """timing._state_mass_iter with the recurrence's coefficients and the
    lane ratio formed from Python integers and seeds from full_seed."""
    n_bc = spec.n_bc
    pa, ph = spec.p_a, spec.p_h
    r4 = 4 * (pa * ph)
    ldexp, frexp = math.ldexp, math.frexp
    low, high = _LANE_FLOOR, 1.0 / _LANE_FLOOR
    t2, e2 = _first_lane(n_bc, pa, ph)
    ballot = True  # the overtake family is still inside the float range
    odd = True  # state i is odd, so the overtake family has mass on it
    a = delta = 0.0
    i = 2 * n_bc + 1
    n = 0
    while True:
        p_i = ldexp(t2, e2)
        if ballot and odd:
            if n % _RESEED == 0:
                a, delta, e = full_seed(n_bc, n, pa, ph)
                ballot = frexp(a)[1] + e >= _BELOW_FLOATS
            p_i += ldexp(a, e)
            keep = 1 - delta
            a *= r4 * keep
            nn = n + n_bc
            delta = (15 * n + 9 * n_bc + 21 + (nn + 1) * (2 * n + 1) * (2 * nn + 1)
                     * (delta / keep)) / (4 * (n + 2) * (nn + 2) * (nn + 3))
            if a < low:
                a, d = frexp(a)
                e += d
            n += 1
        odd = not odd
        yield p_i
        t2 *= i / (i - n_bc + 1) * pa
        if not low <= t2 <= high:
            t2, d = frexp(t2)
            e2 += d
        i += 1
