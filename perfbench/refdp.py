"""Reference values computed apart from the package under test.

Nothing here imports `doublespend`. Two routes:

- `WalkDP`: a dynamic program over the block-arrival walk. After i
  arrivals the state is the honest count h (the attacker count is i - h).
  A state is absorbed the first time h >= n_bc and i - h > h; the mass
  absorbed at arrival i is the first-achievement mass q_i. Combined with
  Erlang laws of the merged arrival process this gives the finite-cut
  success probability, the conditional mean success time and the density.
  Masses are kept as float mantissas times a power of two that is rescaled
  exactly after every step, so values far below the float range (1e-225 at
  n_bc = 500, p_a = 0.1) keep full relative precision.
- `rosenfeld_p_dsa`: the positive-term confirmation-race sum for the
  unbounded success probability, at 50 significant digits in mpmath.

Every truncation is certified from the mass still alive in the DP, which
bounds every later achievement, so no reference leans on a closed-form
total.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special

TAIL_REL = 1e-17          # certified truncation, relative to the result
_LN2 = math.log(2.0)


class Scaled:
    """Terms mant_k * 2**exp_k, summed exactly in powers of two."""

    def __init__(self, mant: np.ndarray, exp2: np.ndarray):
        self.mant = mant
        self.exp2 = exp2

    @classmethod
    def plain(cls, values: np.ndarray) -> "Scaled":
        return cls(np.asarray(values, dtype=float), np.zeros(len(values), dtype=np.int64))

    @classmethod
    def from_log(cls, log_values: np.ndarray) -> "Scaled":
        k = np.floor(log_values / _LN2)
        return cls(np.exp(log_values - k * _LN2), k.astype(np.int64))

    def __mul__(self, other: "Scaled") -> "Scaled":
        return Scaled(self.mant * other.mant, self.exp2 + other.exp2)

    def concat(self, other: "Scaled") -> "Scaled":
        return Scaled(np.concatenate([self.mant, other.mant]),
                      np.concatenate([self.exp2, other.exp2]))

    def total(self) -> tuple[float, int]:
        keep = self.mant > 0.0
        if not keep.any():
            return 0.0, 0
        top = int(self.exp2[keep].max())
        return math.fsum(np.ldexp(self.mant[keep], self.exp2[keep] - top)), top

    def value(self) -> float:
        s, e = self.total()
        return math.ldexp(s, e)

    def log(self) -> float:
        s, e = self.total()
        return math.log(s) + e * _LN2 if s > 0.0 else -math.inf

    def ratio(self, other: "Scaled") -> float:
        s1, e1 = self.total()
        s2, e2 = other.total()
        return math.ldexp(s1 / s2, e1 - e2)


def log_gamma_p(a: float, x: float) -> float:
    """log P(a, x) by the power series x^a e^-x / Gamma(a+1) *
    sum_k x^k / ((a+1)...(a+k)), for values below the float range (which
    only happens for x well below a, where the series converges fast)."""
    term = 1.0
    total = 1.0
    k = 0
    while term > 1e-18 * total:
        k += 1
        term *= x / (a + k)
        total += term
    return a * math.log(x) - x - math.lgamma(a + 1.0) + math.log(total)


def gamma_p(a: np.ndarray, x: float) -> Scaled:
    """Regularized lower incomplete gamma P(a, x) over an array of shapes:
    scipy where the value is a normal float, the log series elsewhere."""
    p = special.gammainc(a, x)
    normal = p > 1e-290
    mant = np.where(normal, p, 0.0)
    exp2 = np.zeros(a.shape, dtype=np.int64)
    small = np.nonzero(~normal)[0]
    if small.size:
        tiny = Scaled.from_log(np.array([log_gamma_p(float(a[k]), x) for k in small]))
        mant[small] = tiny.mant
        exp2[small] = tiny.exp2
    return Scaled(mant, exp2)


def log_gamma_p_upper_bound(a: float, x: float) -> float:
    """An upper bound on log P(a, x) for a > x + 1 (geometric series tail)."""
    return a * math.log(x) - x - math.lgamma(a + 1.0) - math.log1p(-x / (a + 1.0))


class WalkDP:
    """First-achievement masses q_i of the attack, by a forward DP."""

    def __init__(self, p_a: float, n_bc: int):
        if not 0.0 < p_a < 1.0 or n_bc < 1:
            raise ValueError("need 0 < p_a < 1 and n_bc >= 1")
        self.p_a = p_a
        self.p_h = 1.0 - p_a
        self.n_bc = n_bc
        self.i = 0
        self.alive = np.ones(1)     # mass by honest count h, times 2**exp2
        self.exp2 = 0
        self._q: list[float] = []
        self._q_exp: list[int] = []
        self._q_stage: list[int] = []

    def step(self) -> None:
        old = self.alive
        new = np.empty(old.size + 1)
        new[0] = old[0] * self.p_a
        new[-1] = old[-1] * self.p_h
        new[1:-1] = old[:-1] * self.p_h + old[1:] * self.p_a
        self.i += 1
        # absorbed now: h >= n_bc and the attacker count i - h exceeds h
        hi = (self.i - 1) // 2
        if hi >= self.n_bc:
            q = math.fsum(new[self.n_bc:hi + 1])
            new[self.n_bc:hi + 1] = 0.0
            if q > 0.0:
                self._q.append(q)
                self._q_exp.append(self.exp2)
                self._q_stage.append(self.i)
        _, e = math.frexp(float(new.max()))
        self.alive = np.ldexp(new, -e)
        self.exp2 += e

    def run_to(self, i_max: int) -> None:
        while self.i < i_max:
            self.step()

    def log_alive(self, upto: int | None = None) -> float:
        """log of the mass not yet absorbed (below honest count `upto`):
        it bounds every later q_i."""
        s = float(np.sum(self.alive[:upto]))
        return math.log(s) + self.exp2 * _LN2 if s > 0.0 else -math.inf

    def stages(self) -> np.ndarray:
        return np.array(self._q_stage, dtype=float)

    def masses(self) -> Scaled:
        return Scaled(np.array(self._q), np.array(self._q_exp, dtype=np.int64))


def finite_cut(p_a: float, n_bc: int, x: float) -> tuple[float, float]:
    """(p_as, E_TAS * lambda_t) for the cut at x = lambda_t * t_cut.

    p_as = sum_i q_i P(i, x) and the time numerator sum_i q_i i P(i+1, x);
    the mean in arrival units is their ratio. Runs until the alive mass
    times P(I+1, x) is below TAIL_REL of both sums.
    """
    dp = WalkDP(p_a, n_bc)
    dp.run_to(max(2 * n_bc + 1, int(x) + 2))
    while True:
        dp.run_to(dp.i + 64)
        i, q = dp.stages(), dp.masses()
        p_as = q * gamma_p(i, x)
        num = q * gamma_p(i + 1.0, x) * Scaled.plain(i)
        tail = dp.log_alive() + log_gamma_p_upper_bound(dp.i + 1.0, x)
        if tail <= p_as.log() + math.log(TAIL_REL) \
                and tail + math.log(x) <= num.log() + math.log(TAIL_REL):
            return p_as.value(), num.ratio(p_as)


def unbounded(p_a: float, n_bc: int) -> tuple[float, float]:
    """(p_dsa, E_TAS * lambda_t) with no deadline, for p_a < 1/2.

    Sums q_i until the pre-confirmation mass is negligible, then closes the
    remaining post-confirmation states exactly: from height s = h - a >= 0
    the attacker still wins with probability (p_a/p_h)^(s+1), after
    (s+1)/(p_h - p_a) further arrivals on average (the walk conditioned to
    win is the walk with p_a and p_h exchanged).
    """
    if not p_a < 0.5:
        raise ValueError("the unbounded reference needs p_a < 1/2")
    p_h = 1.0 - p_a
    dp = WalkDP(p_a, n_bc)
    dp.run_to(2 * n_bc + 1)
    while True:
        dp.run_to(dp.i + 64)
        i, q = dp.stages(), dp.masses()
        h = np.arange(n_bc, dp.alive.size)
        h = h[dp.alive[n_bc:] > 0.0]
        s = 2 * h - dp.i
        later = Scaled.from_log(np.log(dp.alive[h]) + (s + 1) * math.log(p_a / p_h))
        later = Scaled(later.mant, later.exp2 + dp.exp2)
        win = q.concat(later)
        steps = (q * Scaled.plain(i)).concat(
            later * Scaled.plain(dp.i + (s + 1) / (p_h - p_a)))
        pre = dp.log_alive(n_bc)
        if pre + math.log(dp.i + 2.0 * n_bc) <= win.log() + math.log(TAIL_REL):
            return win.value(), steps.ratio(win)


def density_and_cdf(p_a: float, n_bc: int, lambda_t: float,
                    times: list[float]) -> tuple[list[float], list[float]]:
    """Achieving-time density sum_i q_i ErlangPdf(i, lambda_t, t) and the
    success probability with the cut at t, on a grid of times."""
    xs = [lambda_t * t for t in times]
    dp = WalkDP(p_a, n_bc)
    dp.run_to(max(2 * n_bc + 1, int(max(xs)) + 2))
    while True:
        dp.run_to(dp.i + 64)
        i, q = dp.stages(), dp.masses()
        a = dp.i + 1.0
        dens, cdf = [], []
        for x in xs:
            pdf = q * Scaled.from_log(math.log(lambda_t) + (i - 1.0) * math.log(x)
                                      - x - special.gammaln(i))
            p_as = q * gamma_p(i, x)
            # beyond x + 1 both the pdf and the cdf decrease in the stage
            tail_pdf = dp.log_alive() + math.log(lambda_t) + (a - 1.0) * math.log(x) \
                - x - math.lgamma(a)
            tail_cdf = dp.log_alive() + log_gamma_p_upper_bound(a, x)
            if tail_pdf > pdf.log() + math.log(TAIL_REL) \
                    or tail_cdf > p_as.log() + math.log(TAIL_REL):
                break
            dens.append(pdf.value())
            cdf.append(p_as.value())
        else:
            return dens, cdf


def rosenfeld_p_dsa(p_a: float, n_bc: int, dps: int = 50) -> float:
    """Unbounded success probability from the confirmation-race sum.

    Condition on k, the attacker blocks found by the time the n_bc-th honest
    block arrives (negative binomial mass C(n_bc+k-1, k) p_h^n_bc p_a^k).
    Trailing by n_bc - k, the attacker still wins with probability
    (p_a/p_h)^(n_bc-k+1); with k > n_bc it has already won. Only positive
    terms, at `dps` digits.
    """
    with mpmath.workdps(dps):
        pa = mpmath.mpf(p_a)
        ph = 1 - pa
        if pa >= mpmath.mpf(1) / 2:
            return 1.0
        n = n_bc
        r = pa / ph
        term = ph ** n
        total = term * r ** (n + 1)
        for k in range(1, n + 1):
            term *= mpmath.mpf(n + k - 1) / k * pa
            total += term * r ** (n - k + 1)
        k = n
        eps = mpmath.mpf(10) ** (-dps - 3)
        while True:
            k += 1
            term *= mpmath.mpf(n + k - 1) / k * pa
            total += term
            ratio = mpmath.mpf(n + k) / (k + 1) * pa
            if ratio < 1 and term * ratio / (1 - ratio) <= eps * total:
                return float(total)
