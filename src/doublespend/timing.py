"""The defective distribution of the attack-achieving time.

The time to first achievement is continuous on (0, inf) with total mass
p_dsa(spec) < 1 for an inferior attacker; the remaining mass 1 - p_dsa is
a point defect at infinity ("never succeeds"), never a density feature.

One runtime route evaluates it: the Erlang-mixture series, per-state masses
p_i times the Erlang stage laws of the merged arrival process. It gives the
success probability (the distribution function at the cut), the expected
success time and the density, each with a certified truncation tail. A
finite-cut pass gives the probability and the mean together, certified
against the total mass and first moment of the state masses, both from one
confirmation-race sum (walk._race, within about 1e-14 relative at n_bc
20,000); with no deadline that sum gives the probability and mean
directly. sampling_grid walks the state masses once for a whole grid of
times. The state masses cost O(1) work each at any depth: a recurrence
of positive terms carries the overtake family's step ratio and one exact
ratio the confirmation-last family, both seeded from the saddle-point
kernel of specfun, and the masses hold within 3e-13 of the exact ones
(see _state_mass_iter); p_dsa_at_state gives one state's mass from the
same closed forms. The paper's closed-form density (a hypergeometric block
plus an incomplete-gamma block) is kept in the tests as an oracle for this
series.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

from .errors import (
    ConvergenceError,
    DomainError,
    SingularityError,
    UndefinedExpectationError,
)
from .specfun import _central, poisson_term, regularized_gamma_p, scaled_pow
from .walk import INFINITE, AttackSpec, _race, p_dsa

_MIXTURE_CAP = 2_000_000
_TINY = 1e-300
# deepest n_bc served by the finite-cut series, a cost limit: the states up
# to lambda_t * t_cut and the pair seeds grow with n_bc; the slowest case,
# p_a = 1/2 at c 4, takes about 0.11 s at this depth (2-core x86-64
# machine, Python 3.11)
_MAX_NBC = 20_000
# a scaled q or lane that leaves [2^-600, 2^600] is put back into [1/2, 1)
_LANE_FLOOR = 2.0 ** -600
# odd states between fresh seeds of the overtake family's recurrence
_RESEED = 256
# a mass whose binary exponent is below this rounds to 0
_BELOW_FLOATS = -1080


def dsa_time_density(spec: AttackSpec, t: float, tol: float = 1e-12) -> float:
    """Continuous density of the achieving time at t >= 0,

      sum_i p_i * erlang_pdf(i, lambda_t, t),

    the one-time case of sampling_grid. Strictly nonnegative; t = 0 returns
    0 (at least 2*n_bc + 1 arrivals are needed, so the density vanishes at
    the origin like t^(2*n_bc)).
    """
    return sampling_grid(spec, [t], tol)[0][1]


def _state_mass_iter(spec: AttackSpec):
    """Yield p_i for i = 2*n_bc + 1, 2*n_bc + 2, ... in O(1) work per state.

    The masses of p_dsa_at_state, from two float recursions seeded by the
    same closed forms; p_dsa_at_state evaluates one state on its own.

    The overtake family puts q(n) = W(n) p_a^(N+n+1) p_h^(N+n) on odd state
    2N + 1 + 2n, N = n_bc, with the path count

      W(n) = sum_(m=0..N) C(2N-m-1, N-1) (m+1) C(2n+m, n) / (n+m+1):

    confirmation at state 2N - m with the honest chain m blocks ahead, then
    a first drop to -1 at the (2n + m + 1)-th step after it
    (ballot_number(n, m) ways). The weights obey the three-term recurrence
    (creative telescoping; Petkovsek, Wilf and Zeilberger, "A = B", 1996)

      C_n W(n+2) = A_n W(n+1) - 4 B_n W(n),
      A_n = 2(n+N+2)(4n^2 + (4N+10)n + 5N+7),
      B_n = (n+N+1)(2n+1)(2n+2N+1),  C_n = (n+2)(n+N+2)(n+N+3).

    W(n+1) < 4 W(n), so the family is carried as q(n) and delta_n, with
    W(n+1) / W(n) = 4 (1 - delta_n), 0 < delta_n < 1; as
    4 C_n - A_n + B_n = 15n + 9N + 21, the recurrence reads

      q(n+1)      = q(n) 4 p_a p_h (1 - delta_n),
      delta_(n+1) = (15n + 9N + 21 + B_n delta_n / (1 - delta_n)) / (4 C_n),

    every term positive, so no step cancels. Every _RESEED = 256 odd states
    (q, delta) is seeded afresh from _ballot_seed, which costs O(n_bc) at
    most. With u = 2^-53, a step rounds q at most 4 times (p_a p_h,
    1 - delta, their product and the product with q) and delta at most 5
    times (7 where n > 10^5, as B_n and C_n round). An error of delta_n
    reaches q through 1 - delta_n, and the recurrence carries it on; to
    first order this adds at most 4.7u per step over the worst interval
    (n from 0 at N = 20,000, where delta_n falls from 1/2 like 1 / (2n))
    and 1.3u per step in later ones, plus 54u for each u of the seed's
    delta error (at most 5u measured). The worst interval thus adds at
    most 256 * 4u + 1140u + 270u = 2430u = 2.7e-13 relative to q, and the
    seed's q is within 3e-15, so every mass stays within 3e-13 (checked
    in tests/test_timing.py). Measured against 40-digit masses to state
    3000 (n_bc up to 1000), the worst is 4.1e-14. q decreases in n (p_a
    p_h <= 1/4), so once a seed lies below the float range the family is
    dropped for good.

    The confirmation-last family puts C(i-1, n_bc-1) p_h^n_bc p_a^(i-n_bc)
    on every state; its lane t2 steps by i/(i-n_bc+1) * p_a per state (at
    p_a > 1/2 and deep n_bc it starts below the floats and carries nearly
    all the mass). p_dsa_at_state seeds state 2 n_bc + 1 from the same
    _first_lane, so the first mass is its float, bit for bit.

    Both families are carried as a float times 2^e, e an exact integer,
    under one rule: when the lane, or q's float a, leaves [2^-600, 2^600],
    math.frexp puts it back into [1/2, 1) and e takes up the difference.
    The lane's ratio per step is below 2, and a only falls, by the factor
    4 p_a p_h (1 - delta_n) > 2^-543 while the family is in the float
    range, so neither overflows, and a turns subnormal only where q is
    below 2^-970. Powers of two are exact, so the scaling changes no bits:
    each mass is one ldexp, and a mass below the float range reads 0.

    The depth limit is checked at the call, so a caller that makes the
    iterator first refuses a deep spec before computing its totals.
    """
    if spec.n_bc > _MAX_NBC:
        raise DomainError(
            f"n_bc = {spec.n_bc} exceeds {_MAX_NBC}, the deepest confirmation "
            f"count whose finite-cut series runs in seconds"
        )
    return _state_masses(spec)


def p_dsa_at_state(spec: AttackSpec, i: int) -> float:
    """Probability the attack first achieves both conditions exactly at state i.

    Zero for i <= 2*n_bc (the attacker needs n_bc+1 + n_bc arrivals at
    minimum). Beyond that, two disjoint path families contribute (see
    _state_mass_iter):

    - confirmation completes at state i, the attacker already ahead:
      binom(i-1, n_bc-1) p_h^n_bc p_a^(i-n_bc), on every state;
    - confirmation completed earlier and the walk first drops below zero at
      state i: q(n) on odd i = 2*n_bc + 1 + 2n only.

    The first takes the top 64 bits of the exact binomial and the powers
    from scaled_pow (at i = 2*n_bc + 1 the iterator's own first lane, so
    both give that state's mass bit for bit), the second one pair seed;
    each is one ldexp. Within
    about 1e-14 of the exact mass (a mass below the float range reads 0),
    for one exact binomial and at most n_bc seed terms, nothing kept
    between calls.
    """
    if not isinstance(i, int) or isinstance(i, bool) or i < 1:
        raise DomainError(f"state index must be an integer >= 1, got {i!r}")
    n_bc = spec.n_bc
    if i <= 2 * n_bc:
        return 0.0
    pa, ph = spec.p_a, spec.p_h
    if i == 2 * n_bc + 1:
        mass = math.ldexp(*_first_lane(n_bc, pa, ph))
    else:
        ways = math.comb(i - 1, n_bc - 1)
        shift = max(ways.bit_length() - 64, 0)
        ma, ea = scaled_pow(pa, i - n_bc)
        mh, eh = scaled_pow(ph, n_bc)
        mass = math.ldexp(float(ways >> shift) * ma * mh, shift + ea + eh)
    if i % 2:
        a, _, e = _ballot_seed(n_bc, (i - 2 * n_bc - 1) // 2, pa, ph)
        mass += math.ldexp(a, e)
    return mass


def _ballot_seed(n_bc: int, n: int, pa: float, ph: float) -> tuple[float, float, int]:
    """(a, delta, e) with q(n) = a * 2^e and W(n+1) / W(n) = 4 (1 - delta).

    W(n) = C(2N-1, N-1) C(2n, n) / (n+1) * S(n), where S(n) = sum_m t_m sums
    the m-terms of W(n) (see _state_mass_iter) relative to the m = 0 term;
    each ratio t_m / t_(m-1) is a quotient of integer products, and the
    ratios fall in m. The m-term steps from n to n+1 by the exact factor
    H_m = (2n+m+1)(2n+m+2) / ((n+1)(n+m+2)), and 4 - H_m = w_m / (n+1) with
    w_m = (6n+6+m-m^2) / (n+m+2), so

      delta = sum_m t_m w_m / (4 (n+1) S(n)),

    weighting the same rounded t_m without the cancellation of 4 - H_m.
    |w_m| < 6 + m, so past a term t_m with ratio r < 1 the sum S(n) has a
    tail below t_m r / (1-r) and the weighted sum one below
    t_m r ((6+m) / (1-r) + 1 / (1-r)^2); both sums stop once each tail is
    below 2^-60 of its sum. The stop is tested every 8th term only: the
    terms past the first stop are each below 2^-60 of their sum, less than
    half an ulp of it, so adding them leaves the sums' bits as they are.
    Testing every term gives the same bits (3000 random seeds hashed
    equal) but took 10-30% longer over those seeds, so the stride stays.
    C(2k, k) = 4^k exp(stirlerr(2k) - 2 stirlerr(k)) / sqrt(pi k) and the
    powers come from scaled_pow, so no large logarithm is rounded.
    The integer factors are carried as floats. Each product of them is an
    integer of at most (N+2)^2 (n+N+1), below 2^53 while N <= 20,000 and
    n <= 10^7, so it is exact; a quotient of exact floats is correctly
    rounded (Higham, "Accuracy and Stability of Numerical Algorithms",
    2002, sec. 2.1), so each ratio and w_m is the one rounding of the
    integer quotient, bit for bit. Past that range, which only
    p_dsa_at_state reaches, a product may round as well.
    """
    k, top = float(n), float(n_bc)
    n1, n2, top1, top2 = k + 1.0, 2.0 * k, top + 1.0, 2.0 * top
    six = 6.0 * n1
    s0 = t0 = 1.0
    d = six / (k + 2.0)
    m = 0.0
    for j in range(1, n_bc + 1):
        m += 1.0
        q = n1 + m
        r0 = (top1 - m) * (m + 1.0) * (n2 + m) / ((top2 - m) * m * q)
        t0 *= r0
        s0 += t0
        d += t0 * ((six + m - m * m) / (q + 1.0))
        if not j % 8 and r0 < 1.0:
            tail = t0 * r0 / (1.0 - r0)
            if tail <= s0 * 2.0 ** -60 and tail * (6.0 + m + 1.0 / (1.0 - r0)) <= (
                    abs(d) * 2.0 ** -60):
                break
    ma, ea = scaled_pow(pa, n_bc + n + 1)
    mh, eh = scaled_pow(ph, n_bc + n)
    a = (_central(n_bc) * _central(n) * s0 / (2 * (n + 1))) * ma * mh
    return a, d / (4.0 * n1 * s0), ea + eh + 2 * (n_bc + n)


def _first_lane(n_bc: int, pa: float, ph: float) -> tuple[float, int]:
    # the confirmation-last mass of state 2N + 1 as (t, e), mass = t * 2^e:
    # C(2N, N-1) p_h^N p_a^(N+1), C(2N, N-1) = 4^N c(N) N/(N+1)
    ma, ea = scaled_pow(pa, n_bc + 1)
    mh, eh = scaled_pow(ph, n_bc)
    t, e = math.frexp(_central(n_bc) * n_bc / (n_bc + 1) * ma * mh)
    return t, e + ea + eh + 2 * n_bc


def _state_masses(spec: AttackSpec):
    n_bc = spec.n_bc
    pa, ph = spec.p_a, spec.p_h
    r4 = 4.0 * (pa * ph)
    ldexp, frexp = math.ldexp, math.frexp
    low, high = _LANE_FLOOR, 1.0 / _LANE_FLOOR
    t2, e2 = _first_lane(n_bc, pa, ph)
    ballot = True  # the overtake family is still inside the float range
    a = delta = 0.0
    reseed = 0  # odd states left before the next fresh seed
    # the integer factors are floats: every sum and product in a coefficient
    # but its last product is an integer below 2^53 while n < 3 * 10^7 (a
    # mixture pass stops near n = 10^6), so each coefficient takes the one
    # rounding that converting its exact integer gives
    big_n = float(n_bc)
    g = 9.0 * big_n + 21.0
    i = 2.0 * big_n + 1.0
    n = 0.0
    while True:  # an odd state i, which alone carries q(n), then an even one
        p_i = ldexp(t2, e2)
        if ballot:
            if not reseed:
                reseed = _RESEED
                a, delta, e = _ballot_seed(n_bc, int(n), pa, ph)
                ballot = frexp(a)[1] + e >= _BELOW_FLOATS
            reseed -= 1
            p_i += ldexp(a, e)
            # q(n+1) = q(n) 4 p_a p_h (1 - delta_n), and delta_(n+1) from
            # the recurrence, every term positive
            keep = 1.0 - delta
            a *= r4 * keep
            nn = n + big_n
            delta = (15.0 * n + g + (nn + 1.0) * (2.0 * n + 1.0) * (2.0 * nn + 1.0)
                     * (delta / keep)) / (4.0 * (n + 2.0) * (nn + 2.0) * (nn + 3.0))
            if a < low:
                a, d = frexp(a)
                e += d
            n += 1.0
        yield p_i
        t2 *= i / (i - big_n + 1.0) * pa
        if not low <= t2 <= high:
            t2, d = frexp(t2)
            e2 += d
        i += 1.0
        yield ldexp(t2, e2)
        t2 *= i / (i - big_n + 1.0) * pa
        if not low <= t2 <= high:
            t2, d = frexp(t2)
            e2 += d
        i += 1.0


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")


def _mixture_moments(spec: AttackSpec, t_cut: float, tol: float, density: bool,
                     states, total_mass: float,
                     total_moment: float = math.inf) -> tuple[float, float]:
    """Shared Erlang-mixture series over the state masses p_i that states
    yields, whose closed-form totals are total_mass = sum_i p_i and
    total_moment = sum_i i * p_i (read for e_tas only). With
    x = lambda_t * t_cut it returns (p_as, e_tas), or (p_as, f) when
    density is set:

      p_as  = sum_i p_i * ErlangCDF(i, lambda_t, t_cut)
      e_tas = sum_i p_i * (i / lambda_t) * ErlangCDF(i+1, lambda_t, t_cut) / p_as
      f     = sum_i p_i * erlang_pdf(i, lambda_t, t_cut)

    The Erlang CDFs advance by P(i+1, x) = P(i, x) - u_i, with
    u_i = e^-x x^i / i!; every 64 states the CDF is reset from the
    incomplete-gamma evaluator and u_i from specfun.poisson_term (Loader's
    saddle-point form, free of large logarithms), to cancel drift;
    erlang_pdf(i) = lambda_t * u_(i-1).

    Head blocks (probability and mean passes only). Let Q = 1 - P. A stage
    k with Q(k, x) <= 2^-60 is tried at floor(x - 10 sqrt(x)) and certified
    by one poisson_term, as Q(k, x) = sum_(j<k) u_j <= u_(k-1) /
    (1 - (k-1)/x) for k - 1 < x (u_(j-1) = u_j j / x). It is tried only
    where whole 64-state blocks lie below it (k >= 2 n_bc + 65), so a pass
    without such a head pays nothing. In those blocks the per-state loop
    finds cdf = cdf_next = 1.0 at every state i: each reset is 1 - Q(i+1,
    x) (the stage lies below x - 1, where the continued fraction serves)
    and each u_i is at most Q(i+1, x), both at most 2^-60, so both
    differences round to 1.0, as anything below 2^-54, half the spacing of
    the floats just under 1, does; the factor 64 between the margins
    covers the kernels' rounding (about 1e-13 relative at worst). Every
    product by cdf is then exact, so a head block adds p_i, i * p_i and
    p_i * (i / lambda_t) to the same sums in the same order without a
    kernel call, and its end runs the certification and cap tests with
    cdf_next = 1.0. The last block's end computes cdf and u as a checkpoint
    does, and the per-state loop goes on from there: every result is the
    per-state loop's, bit for bit.

    Truncation is certified against the closed-form totals: the CDF
    decreases in the stage count i at fixed t, so the remaining p_as mass
    after state I is at most P(I+1, x) * (total_mass - accumulated p-mass).
    The e_tas numerator's remainder is at most the smaller of that bound
    times t_cut (integral(0..T) s * erlang_pdf(i, s) ds <= T *
    ErlangCDF(i, T)) and P(I+1, x) * (total_moment - accumulated i * p_i) /
    lambda_t. The first holds where the moment is infinite (p_a = 1/2); the
    second shrinks where x is large and the first cannot. Both remainders
    are clamped at 0, so the results are only as exact as the totals (the
    race sums are within 4.6e-15 relative of a 40-digit race sum for p_dsa
    and 1.3e-14 for the mean, measured up to n_bc 20,000) and the masses
    (within 3e-13, about 4e-14 measured; see _state_mass_iter). The
    density's far terms lie below the rounding of the remaining mass, so
    its tail uses masses <= 1 instead: u_j shrinks by x / (j+1) per stage,
    so once I + 1 > x the tail after state I is at most
    lambda_t * u_I * (I+1) / (I+1-x).

    p_as is the sum at the first checkpoint that certifies it, whether or
    not the pass goes on to certify the second value. e_tas divides by the
    sum where the pass stops; it is 0 when that sum is 0. A pass that walks
    _MIXTURE_CAP states uncertified raises ConvergenceError; at p_a = 1/2
    a pass that provably cannot certify within the cap raises it before
    drawing a state.
    """
    lam_t = spec.lambda_t
    x = lam_t * t_cut
    if not x < math.inf:
        raise DomainError(
            f"lambda_t * t = {x} is not finite; "
            f"use INFINITE for an unbounded attack"
        )
    i0 = 2 * spec.n_bc + 1
    if spec.p_a == 0.5:
        # Refuse a pass that no checkpoint within the cap can certify. A
        # checkpoint at state I certifies only if P(I+1, x) (S - s_I) <=
        # tol * acc_p, S being the total mass, s_I the mass of the states up
        # to I and acc_p <= s_I <= S. Checkpoints are at most 64 states
        # apart and the cap raises at the first one at or past
        # i0 + cap - 1, so each has I + 1 <= k = i0 + cap + 63, and
        # P(I+1, x) >= P(k, x) as the Erlang CDF falls with the stage count.
        # At p_a = 1/2, S = 1 and the attack achieves only once the lead
        # a - h, a simple symmetric walk, reaches 1, so S - s_I is at least
        # the chance that the walk stays at or below 0 for I steps,
        # C(I, I//2) 2^-I >= 1 / sqrt(2(I+1)) >= 1 / sqrt(2k) (reflection
        # principle; Feller, vol. 1, ch. III). Every checkpoint's bound is
        # thus at least P(k, x) / sqrt(2k); where that exceeds 2 tol S, none
        # certifies. The factor 2 spares the rounding of P and of the float
        # totals, both far smaller.
        k = i0 + _MIXTURE_CAP + 63
        if regularized_gamma_p(float(k), x) > 2.0 * tol * total_mass * math.sqrt(2 * k):
            raise _cap_error(None)
    acc_p = acc_t = acc_d = 0.0
    p_as = None
    mass_seen = moment_seen = 0.0
    i = float(i0)  # exact, and float-only arithmetic is cheaper
    head_end = i0 if density else _head_end(i0, x)
    while i < head_end:  # a head block: cdf = cdf_next = 1.0 at every state
        for p_i in itertools.islice(states, 64):
            mass_seen += p_i
            moment_seen += i * p_i
            acc_t += p_i * (i / lam_t)
            i += 1.0
        acc_p = mass_seen
        bound = max(total_mass - mass_seen, 0.0)
        if bound <= tol * max(acc_p, _TINY):
            if p_as is None:
                p_as = acc_p
            tol_t = tol * max(acc_t, _TINY)
            if t_cut * bound <= tol_t or max(
                    total_moment - moment_seen, 0.0) / lam_t <= tol_t:
                return p_as, acc_t / acc_p if acc_p > 0.0 else 0.0
        if i - i0 >= _MIXTURE_CAP:
            raise _cap_error(acc_p)
    cdf = regularized_gamma_p(i, x)
    if cdf <= 0.0 and (x == 0.0 or not density):
        return 0.0, 0.0  # not even the earliest state fits before t_cut
    u = poisson_term(i, x)
    if density:
        w = poisson_term(i0 - 1, x)  # u_(i-1) at state i
    left = 64  # states to the next fixed checkpoint
    for p_i in states:
        cdf_next = cdf - u
        if cdf_next < 0.0:
            cdf_next = 0.0
        mass_seen += p_i
        acc_p += p_i * cdf
        if density:
            acc_d += p_i * w
            w = u
        else:
            moment_seen += i * p_i
            acc_t += p_i * (i / lam_t) * cdf_next
        left -= 1
        if not left or cdf_next <= 1e-280:
            left = left or 64
            cdf_next = regularized_gamma_p(i + 1.0, x)
            u = poisson_term(i + 1.0, x)
            bound = cdf_next * max(total_mass - mass_seen, 0.0)
            if bound <= tol * max(acc_p, _TINY):
                if p_as is None:
                    p_as = acc_p
                if not density:
                    # or, not min: 0 * inf is nan where the moment is infinite
                    tol_t = tol * max(acc_t, _TINY)
                    if t_cut * bound <= tol_t or cdf_next * max(
                            total_moment - moment_seen, 0.0) / lam_t <= tol_t:
                        return p_as, acc_t / acc_p if acc_p > 0.0 else 0.0
                elif i + 1.0 > x and (
                        w * (i + 1.0) / (i + 1.0 - x) <= tol * max(acc_d, _TINY)):
                    return p_as, lam_t * acc_d
            if i + 1.0 - i0 >= _MIXTURE_CAP:
                raise _cap_error(acc_p)
        else:
            u *= x / (i + 1.0)
        cdf = cdf_next
        i += 1.0
    raise ConvergenceError("Erlang-mixture series terminated unexpectedly", acc_p)


def _head_end(i0: int, x: float) -> int:
    """The first state past a pass's head blocks: i0 + 64 m for the most
    whole 64-state blocks from i0 whose stages k, up to the last block's
    end, all have Q(k, x) <= 2^-60; i0 where no whole block qualifies."""
    # the cap stops a pass before any later block, and keeps k exact
    k = min(math.floor(x - 10.0 * math.sqrt(x)), i0 + _MIXTURE_CAP)
    if k < i0 + 64:
        return i0
    # Q(k, x) <= u_(k-1) / (1 - (k-1)/x), see _mixture_moments
    if poisson_term(k - 1.0, x) * x > 2.0 ** -60 * (x - (k - 1.0)):
        return i0
    return i0 + 64 * ((k - i0) // 64)


def _cap_error(partial: float | None) -> ConvergenceError:
    return ConvergenceError(
        f"Erlang-mixture series did not converge within {_MIXTURE_CAP} states",
        partial)


def _success_moments(spec: AttackSpec, tol: float) -> tuple[float, float]:
    """(p_as, e_tas) of one spec from a single Erlang-mixture pass, bit for
    bit the values of attack_success_prob and expected_success_time; every
    derived quantity of the paper is arithmetic on this pair. The pass is
    certified against the totals of one confirmation-race pass. Infinite
    cut: p_dsa and the race's mean arrival count over lambda_t, refused at
    p_a = 1/2. e_tas reads 0 where p_as is 0.
    """
    _check_tol(tol)
    if spec.infinite_cut:
        if spec.p_a == 0.5:
            raise SingularityError(
                "the conditional mean success time diverges at p_a = 1/2; "
                "use a finite cut-time or the Monte Carlo estimator"
            )
        total, arrivals = _race(spec)
        return total, arrivals / spec.lambda_t
    states = _state_mass_iter(spec)
    total, arrivals = _race(spec)
    p_as, e_tas = _mixture_moments(spec, spec.t_cut, tol, False, states,
                                   total, total * arrivals)
    return min(p_as, 1.0), e_tas


def _conditional_moments(spec: AttackSpec, tol: float) -> tuple[float, float]:
    """_success_moments for callers that report e_tas: refuses a finite-cut
    pair whose conditional mean is undefined. With no deadline the mean is
    always defined (p_dsa > 0, though it can underflow to 0 at depth)."""
    p_as, e_tas = _success_moments(spec, tol)
    if p_as <= 0.0 and not spec.infinite_cut:
        raise UndefinedExpectationError(
            "success has zero probability before this cut-time; "
            "the conditional mean is undefined"
        )
    return p_as, e_tas


def attack_success_prob(spec: AttackSpec, tol: float = 1e-12) -> float:
    """Probability the attack achieves before the cut-time.

    Finite cut: certified truncation of the Erlang-mixture series, from the
    same pass that certifies expected_success_time. Infinite cut: exactly
    the total mass p_dsa (waiting forever collects every state).
    Nondecreasing in t_cut with limit p_dsa.
    """
    if spec.infinite_cut:
        _check_tol(tol)
        return p_dsa(spec)
    return _success_moments(spec, tol)[0]


def expected_success_time(spec: AttackSpec, tol: float = 1e-12) -> float:
    """Mean achieving time conditioned on success before the cut-time.

    Finite cut: the mixture numerator uses the exact moment identity
    integral(0..T) s * erlang_pdf(i, s) ds = (i / lambda_t) *
    ErlangCDF(i+1, T), divided by the success probability. Always below
    t_cut. Infinite cut: expected_success_time_inf.
    """
    return _conditional_moments(spec, tol)[1]


def expected_success_time_inf(spec: AttackSpec) -> float:
    """Mean achieving time with no deadline, conditioned on eventual success:
    the mean arrival count of the confirmation race (see walk._race) over
    lambda_t. Defined at every depth, also where p_dsa underflows to 0.

    Singular at p_a = 1/2: the symmetric walk overtakes with probability one
    but only after a time of infinite mean, so evaluation is refused and
    callers are pointed to a finite cut or the simulation oracle.
    """
    return expected_success_time(dataclasses.replace(spec, t_cut=INFINITE))


def sampling_grid(spec: AttackSpec, times: list[float],
                  tol: float = 1e-12) -> list[tuple[float, float, float]]:
    """(t, density, cdf) rows for export, cdf being the success probability
    with the cut moved to t (the continuous part's distribution function).

    The state masses are generated once for the whole grid and kept (tee)
    for the later times' passes; each pass gives its time's density and
    cdf, the cdf equal to attack_success_prob with t_cut = t, bit for bit.
    Every time is checked before any pass runs.
    """
    _check_tol(tol)
    for t in times:
        if not 0.0 <= t < math.inf:
            raise DomainError(f"times must be finite and nonnegative, got {t}")
    states = _state_mass_iter(spec)
    total_mass = p_dsa(spec)
    passes = itertools.tee(states, len(times))
    rows = []
    for t, states in zip(times, passes):
        cdf, dens = _mixture_moments(spec, t, tol, True, states, total_mass)
        rows.append((t, dens, min(cdf, 1.0)))
    return rows
