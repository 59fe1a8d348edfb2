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
- full_seed: timing._ballot_seed with its stop rule tested at every term
  and its ratios formed from Python integers (each one correctly rounded
  integer division), the reference for the seed that tests the rule every
  8th term only and carries its integer factors as floats.
- int_state_masses: timing._state_masses with the recurrence's
  coefficients and the lane ratio formed from Python integers, each
  rounded once when it meets a float, and seeded by full_seed; the
  reference for the iterator, which forms them from floats.
"""
from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np

from doublespend.specfun import scaled_pow
from doublespend.timing import _BELOW_FLOATS, _LANE_FLOOR, _RESEED, _central


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
    whose geometric tail is below 2^-60 of both sums."""
    s0 = t0 = 1.0
    u = s1 = (2 * n + 1) * (2 * n + 2) / ((n + 1) * (n + 2))
    for m in range(1, n_bc + 1):
        r0 = (n_bc - m + 1) * (m + 1) * (2 * n + m) / (
            (2 * n_bc - m) * m * (n + m + 1))
        t0 *= r0
        u_next = t0 * ((2 * n + m + 1) * (2 * n + m + 2) / ((n + 1) * (n + m + 2)))
        r1, u = u_next / u, u_next
        s0 += t0
        s1 += u
        if r1 < 1.0 and u * r1 <= (1.0 - r1) * s1 * 2.0 ** -60 and (
                t0 * r0 <= (1.0 - r0) * s0 * 2.0 ** -60):
            break
    ma, ea = scaled_pow(pa, n_bc + n + 1)
    mh, eh = scaled_pow(ph, n_bc + n)
    a = (_central(n_bc) * _central(n) * s0 / (2 * (n + 1))) * ma * mh
    b = a * (pa * ph) * (s1 / s0)
    return a, b, ea + eh + 2 * (n_bc + n)


def int_state_masses(spec):
    """timing._state_mass_iter with integer coefficients and seeds from
    full_seed."""
    n_bc = spec.n_bc
    pa, ph = spec.p_a, spec.p_h
    r = pa * ph
    ldexp, frexp = math.ldexp, math.frexp
    low, high = _LANE_FLOOR, 1.0 / _LANE_FLOOR
    # C(2N, N-1) p_h^N p_a^(N+1) = t2 * 2^e2, C(2N, N-1) = 4^N c(N) N/(N+1)
    ma, ea = scaled_pow(pa, n_bc + 1)
    mh, eh = scaled_pow(ph, n_bc)
    t2, e2 = frexp(_central(n_bc) * n_bc / (n_bc + 1) * ma * mh)
    e2 += ea + eh + 2 * n_bc
    ballot = True  # the overtake family is still inside the float range
    odd = True  # state i is odd, so the overtake family has mass on it
    a = b = 0.0
    i = 2 * n_bc + 1
    n = 0
    while True:
        p_i = ldexp(t2, e2)
        if ballot and odd:
            if n % _RESEED == 0:
                a, b, e = full_seed(n_bc, n, pa, ph)
                ballot = frexp(a)[1] + e >= _BELOW_FLOATS
            p_i += ldexp(a, e)
            # the recurrence at n for q = W r^n * const, r = p_a p_h: one
            # rounded r throughout, since r * r rounded apart from r splits
            # the double root and the drift grows quadratically
            nn = n + n_bc
            c = (2 * (nn + 2) * (4 * n * n + (4 * n_bc + 10) * n + 5 * n_bc + 7) * b
                 - 4 * (nn + 1) * (2 * n + 1) * (2 * nn + 1) * (r * a)
                 ) * r / ((n + 2) * (nn + 2) * (nn + 3))
            a, b = b, c if c > 0.0 else 0.0
            if b < low:
                b, d = frexp(b)
                a, e = ldexp(a, -d), e + d
            n += 1
        odd = not odd
        yield p_i
        t2 *= i / (i - n_bc + 1) * pa
        if not low <= t2 <= high:
            t2, d = frexp(t2)
            e2 += d
        i += 1
