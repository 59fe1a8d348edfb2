"""Attack parameterization and the exact per-state success probabilities.

Model: honest miners and the attacker each find blocks as independent Poisson
processes with rates lambda_H and lambda_A = lambda_H * p_A / p_H. The merged
process has rate lambda_T, and each arrival is an attacker block with
probability p_A. The walk S_i = (honest blocks) - (attacker blocks) after i
arrivals drives two conditions:

  confirmation: the honest chain has accumulated at least N_BC blocks;
  overtake:     the attacker chain is strictly longer, i.e. S_i < 0.

The attack achieves at the first state where both hold simultaneously. This
module computes, from one confirmation-race sum of positive terms, the total
success probability over all states together with the mean arrival count at
success (no 1 - sum subtraction, so both hold their precision at any depth).
It also gives the success probability under the stricter pre-mining rule.
The per-state masses are in timing (p_dsa_at_state).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError


class _CutTime(enum.Enum):
    """Distinguished marker for an unbounded attack (no give-up deadline)."""

    INFINITE = "infinite"

    def __repr__(self) -> str:
        return "INFINITE"

    def __str__(self) -> str:
        return "infinite"


INFINITE = _CutTime.INFINITE


@dataclass(frozen=True)
class AttackSpec:
    """Stochastic parameters of one double-spend attempt.

    p_a        attacker share of total computing power, 0 < p_a < 1
    n_bc       confirmation count the merchant waits for, >= 1
    t_cut      give-up deadline in seconds, or INFINITE
    lambda_h   honest-chain block rate in blocks/second, positive and
               finite (defaults to 1.0, a dimensionless convention; success
               probabilities do not depend on it, absolute times scale
               with it)
    """

    p_a: float
    n_bc: int
    t_cut: float | _CutTime
    lambda_h: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_a < 1.0:
            raise DomainError(f"p_a must lie strictly in (0, 1), got {self.p_a}")
        if not isinstance(self.n_bc, int) or isinstance(self.n_bc, bool) or self.n_bc < 1:
            raise DomainError(f"n_bc must be an integer >= 1, got {self.n_bc!r}")
        if self.t_cut is not INFINITE:
            if not isinstance(self.t_cut, (int, float)) or not self.t_cut > 0.0:
                raise DomainError(
                    f"t_cut must be a positive number of seconds or INFINITE, got {self.t_cut!r}"
                )
            if math.isinf(self.t_cut):
                raise DomainError("use INFINITE for an unbounded attack, not float('inf')")
        if not 0.0 < self.lambda_h < math.inf:
            raise DomainError(
                f"lambda_h must be positive and finite, got {self.lambda_h}")

    @property
    def p_h(self) -> float:
        """Honest share, stored only as the complement 1 - p_a."""
        return 1.0 - self.p_a

    @property
    def lambda_a(self) -> float:
        return self.lambda_h * self.p_a / self.p_h

    @property
    def lambda_t(self) -> float:
        return self.lambda_a + self.lambda_h

    @property
    def infinite_cut(self) -> bool:
        return self.t_cut is INFINITE


def _deadline(c: float, n_bc: int, block_time: float) -> float | _CutTime:
    """t_cut of c block intervals of block_time seconds per confirmation;
    INFINITE when c is +inf. Other values go to AttackSpec to be checked."""
    return INFINITE if c == math.inf else c * n_bc * block_time


def ballot_number(n: int, m: int) -> int:
    """Count of length-(2n+m) walks of +/-1 steps from 0 to m never going negative.

    (m+1)/(n+m+1) * binom(2n+m, n) for n, m >= 0 (the division is exact);
    0 for any negative argument. Exact arbitrary-precision integers; any
    other argument type, bool included, raises DomainError.
    """
    for arg in (n, m):
        if not isinstance(arg, int) or isinstance(arg, bool):
            raise DomainError(f"ballot_number takes integers, got {arg!r}")
    if n < 0 or m < 0:
        return 0
    return (m + 1) * math.comb(2 * n + m, n) // (n + m + 1)


# a positive term below this share of a float sum s is below half an ulp of
# s (> 2^-54 s), with a factor 2 to spare for the rounding of the term, and
# round-to-nearest leaves s unchanged (Higham, Accuracy and Stability of
# Numerical Algorithms, 2002, section 2.1)
_NO_BIT = 2.0 ** -55


def _race(spec: AttackSpec) -> tuple[float, float]:
    """(p_dsa, mean arrival count at success given success), one pass over
    positive terms.

    Conditions on K, the number of attacker blocks present when the n_bc-th
    honest block arrives, with negative binomial mass
    w_k = binom(n_bc+k-1, k) p_h^n_bc p_a^k. For k <= n_bc the attacker
    still needs d = n_bc+1-k net blocks; it gets them with probability
    min(1, p_a/p_h)^d, after d/|p_h - p_a| further arrivals on average given
    that it does. For k > n_bc it has won at arrival n_bc+k. So with
    v_k = w_k min(1, p_a/p_h)^max(d, 0):

      p_dsa    = sum_k v_k
      arrivals = sum_k v_k (n_bc + k + max(d, 0) / |p_h - p_a|) / p_dsa

    For p_a > 1/2 no tail is needed: p_dsa = 1 and the n_bc + k part of the
    mean sums to E[n_bc + K] = n_bc/p_h. For p_a < 1/2 every arrival count
    is 2 n_bc + 1 plus a nonnegative excess (2 p_a d/(p_h - p_a), or
    k - n_bc - 1), so the mean never reads below 2 n_bc + 1, and the
    infinite tail k > n_bc is a hypergeometric series that terminates after
    a transformation: at most n_bc positive terms. All terms are scaled by
    one near the largest, whose logarithm is computed once, so the sums
    cannot underflow; only p_dsa itself reads 0 when it is below the float
    range. At p_a = 1/2, p_dsa is 1 and the mean is infinite.

    The sum down from the largest v_k and the transformed tail each stop
    once their term ratio is below 1, from where it only falls, and the
    next term times the largest weight (n_bc+1, n_bc+2) is below 2^-55 of
    each running sum. Every later term would then leave the sums
    unchanged under round-to-nearest, so the stop changes no bit.
    """
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
        r = k / ((n + k - 1) * c) if k else 0.0
        v *= r
        # extra >= total, and every later term times its weight is below v (n+1)
        if r < 1.0 and (n + 1) * v < _NO_BIT * total:
            break
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
        u *= (n - j) / (n + 1 + j) * x  # the ratio is below 1 and falls in j
        if (n + 2) * u < _NO_BIT * s0:  # s1 >= s0, every weight < n+2
            break
        s0 += u
        s1 += (j + 1) * (n + 2) / (n + 2 + j) * u
    head = v * 2 * n / (n + 1)  # v_(n+1) / p_h
    total += head * s0
    late = head * pa * (2 * n + 1) / ((n + 2) * ph) * s1
    p = min(math.exp(log_vm + math.log(total)), 1.0)
    return p, 2 * n + 1 + (2.0 * pa / gap * extra + late) / total


def p_dsa(spec: AttackSpec) -> float:
    """Total probability the attack ever achieves, with unlimited time.

    1 when p_a >= 1/2 (the attacker's walk drifts its way). Otherwise the
    confirmation-race sum of positive terms (see _race), within about 3e-13
    relative at n_bc 1000 (the logarithm of its leading term rounds once);
    0.0 where the true value is below the float range.
    """
    return 1.0 if spec.p_a >= 0.5 else _race(spec)[0]


def premine_success_prob(spec: AttackSpec) -> float:
    """Success probability under the stricter pre-mining rule.

    The attacker must not merely overtake but lead by n_bc + 1 blocks, a
    pure gambler's-ruin event with probability (p_a/p_h)^(n_bc+1); certain
    when p_a >= 1/2. Always strictly below p_dsa for p_a < 1/2.
    """
    if spec.p_a >= 0.5:
        return 1.0
    return (spec.p_a / spec.p_h) ** (spec.n_bc + 1)
