"""Attack parameterization and the exact per-state success probabilities.

Model: honest miners and the attacker each find blocks as independent Poisson
processes with rates lambda_H and lambda_A = lambda_H * p_A / p_H. The merged
process has rate lambda_T, and each arrival is an attacker block with
probability p_A. The walk S_i = (honest blocks) - (attacker blocks) after i
arrivals drives two conditions:

  confirmation: the honest chain has accumulated at least N_BC blocks;
  overtake:     the attacker chain is strictly longer, i.e. S_i < 0.

The attack achieves at the first state where both hold simultaneously. This
module computes, from one confirmation-race sum, the total success
probability over all states together with the mean arrival count at
success. The race is a pair of binomial tails, summed upward from the
central binomial term with positive weights only (no 1 - sum subtraction
and no difference in the mean), so both hold to a few ulps at any depth.
It also gives the success probability under the stricter pre-mining rule.
The per-state masses are in timing (p_dsa_at_state).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, _is_int, _is_real
from .specfun import _central, scaled_pow


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
        if not (_is_real(self.p_a) and 0.0 < self.p_a < 1.0):
            raise DomainError(f"p_a must lie strictly in (0, 1), got {self.p_a!r}")
        if not _is_int(self.n_bc) or self.n_bc < 1:
            raise DomainError(f"n_bc must be an integer >= 1, got {self.n_bc!r}")
        if self.t_cut is not INFINITE:
            if not (_is_real(self.t_cut) and self.t_cut > 0.0):
                raise DomainError(
                    f"t_cut must be a positive number of seconds or INFINITE, got {self.t_cut!r}"
                )
            if math.isinf(self.t_cut):
                raise DomainError("use INFINITE for an unbounded attack, not float('inf')")
        if not (_is_real(self.lambda_h) and 0.0 < self.lambda_h < math.inf):
            raise DomainError(
                f"lambda_h must be positive and finite, got {self.lambda_h!r}")

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


def _cut_seconds(spec: AttackSpec) -> float:
    """t_cut in seconds as a float: math.inf with no deadline."""
    return math.inf if spec.infinite_cut else spec.t_cut


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
        if not _is_int(arg):
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
    """(p_dsa, mean arrival count at success given success), one sum of
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

    Both sums are binomial tails (Grunspan and Perez-Marco, "Double spend
    races", 2018), by the duality of negative-binomial and binomial tails.
    With n = n_bc, lo and hi the smaller and larger share, rho = lo/hi,
    gap = hi - lo, the central term b_n = binom(2n, n) p_a^n p_h^n and
    beta_j = b_(n+j) / b_n along the upper tail of Bin(2n, lo), so that
    T_j = P(Bin(2n, lo) >= n + j) = b_n sum_(i>=j) beta_i:

      U = sum_(j>=1) beta_j / rho
      W = sum_(j>=0) (2n+1)(j+1)/(n+j+1) beta_j

      p_a < 1/2 (rho = p_a/p_h):  p_dsa = T_1 + rho T_0
                                        = b_n rho (1 + U + rho U)
                                  arrivals = 2n + W / (gap (1 + U + rho U))
      p_a > 1/2:                  p_dsa = 1,  arrivals = n/p_h + b_n W / gap

    For p_a < 1/2 the mean's excess over 2n, times p_dsa, reads
    ((n+1) rho T_0 - n T_1) / gap, a difference; k binom(n+k-1, k) =
    n binom(n+k-1, k-1) regroups it as rho b_n W / gap, with
    b_n W = E[(Y - n)^+] / lo for Y ~ Bin(2n+1, lo), whose weights
    (j+1) binom(2n+1, n+j+1) / binom(2n, n+j) are all positive. So no
    difference is formed anywhere, and the mean never reads below
    2n + 1. beta_(j+1) = beta_j (n-j)/(n+j+1) rho, a ratio below 1 that
    falls, so the terms fall from the central one, which comes from the
    saddle-point central binomial and scaled_pow with no large logarithm.
    The terms past it are carried as beta_j / rho, so none is subnormal
    where rho is; only p_dsa itself reads 0 when it is below the float
    range, and the mean, free of b_n for p_a < 1/2, is still returned
    there. At p_a = 1/2, p_dsa is 1 and the mean is infinite.

    Every weight is below 2(n+1), and the weighted sum is at least the
    plain one, so once the next term times 2(n+1) is at most 2^-55 of U,
    it and every later, smaller term would leave both sums unchanged under
    round-to-nearest: the stop changes no bit. A term that underflows to 0
    stops the sum too.
    """
    n = spec.n_bc
    pa, ph = spec.p_a, spec.p_h
    if pa == 0.5:
        return 1.0, math.inf
    lo, hi = min(pa, ph), max(pa, ph)
    rho, gap = lo / hi, hi - lo
    t, u, v = n / (n + 1), 0.0, 0.0  # t = beta_j / rho from j = 1
    for j in range(1, n + 1):
        u += t
        v += (2 * n + 1) * (j + 1) / (n + j + 1) * t
        t *= (n - j) / (n + j + 1) * rho
        if 2 * (n + 1) * t <= _NO_BIT * u:
            break
    w = (2 * n + 1) / (n + 1) + rho * v
    ma, ea = scaled_pow(pa, n)
    mh, eh = scaled_pow(ph, n)
    b = math.ldexp(_central(n) * ma * mh, ea + eh + 2 * n)
    if pa > 0.5:
        return 1.0, n / ph + b * w / gap
    s = 1.0 + u + rho * u
    return min(b * rho * s, 1.0), 2 * n + w / (gap * s)


def p_dsa(spec: AttackSpec) -> float:
    """Total probability the attack ever achieves, with unlimited time.

    1 when p_a >= 1/2 (the attacker's walk drifts its way). Otherwise the
    confirmation-race sum of positive terms (see _race), within 4.6e-15
    relative of a 40-digit race sum up to n_bc 20,000 (5e-14 at p_a 0.49999,
    n_bc 10^6); 0.0 where the true value is below the float range.
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
