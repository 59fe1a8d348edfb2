"""Cost, reward and profitability of an attack campaign.

Operating expense and mining reward are linear in attack duration in the
base model (cost gamma and reward beta per expected block), with optional
growth factors for generalized cost curves. Closed-form expectations exist
only for the linear model; nonlinear models are evaluated pointwise here and
in expectation by the Monte Carlo module.

All currency quantities are unit-agnostic: outputs carry whatever unit
gamma, beta and the transaction value were supplied in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UnsupportedAnalyticError, _is_real
from .timing import _success_moments
from .walk import AttackSpec

GrowthPairs = tuple[tuple[float, float], tuple[float, float]]

#: Returned by required_value when no finite transaction value can make the
#: attack profitable (inferior attacker refusing to ever give up). A typed
#: float outcome rather than an exception so tables can render it inline and
#: expressions like expected_profit = p_as * (value - required) stay ordered.
INFINITE_REQUIREMENT = math.inf


@dataclass(frozen=True)
class EconomicModel:
    """Cost/reward parameters of the attacker.

    gamma          cost per block-mining effort, currency/block
    beta           block reward, currency/block
    value          the fraudulent transaction's value (currency); only the
                   profit operations read it
    cost_growth    optional ((x1, x2), (x3, x4)), each base and argument > 1;
                   omitted or with x1 == x2 and x3 == x4 the cost is linear
    reward_growth  same shape for the reward side
    """

    gamma: float
    beta: float
    value: float = 0.0
    cost_growth: GrowthPairs | None = None
    reward_growth: GrowthPairs | None = None

    def __post_init__(self):
        for label, number in (("gamma", self.gamma), ("beta", self.beta),
                              ("transaction value", self.value)):
            if not (_is_real(number) and math.isfinite(number)):
                raise DomainError(f"{label} must be finite, got {number!r}")
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if not self.beta > 0.0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        if self.value < 0.0:
            raise DomainError(f"transaction value must be nonnegative, got {self.value}")
        for label, pairs in (("cost_growth", self.cost_growth),
                             ("reward_growth", self.reward_growth)):
            if pairs is None:
                continue
            try:
                (b1, a1), (b2, a2) = pairs
            except (TypeError, ValueError):
                raise DomainError(
                    f"{label} must be two (base, argument) pairs, got {pairs!r}"
                ) from None
            if not all(_is_real(x) and x > 1.0 for x in (b1, a1, b2, a2)):
                raise DomainError(f"{label} constants must all exceed 1, got {pairs!r}")

    @property
    def mu(self) -> float:
        """Reward-to-cost ratio beta/gamma; above 1, honest mining pays."""
        return self.beta / self.gamma

    @property
    def linear_cost(self) -> bool:
        if self.cost_growth is None:
            return True
        (x1, x2), (x3, x4) = self.cost_growth
        return x1 == x2 and x3 == x4

    @property
    def linear_reward(self) -> bool:
        if self.reward_growth is None:
            return True
        (r1, r2), (r3, r4) = self.reward_growth
        return r1 == r2 and r3 == r4


def _growth_factor(pairs: GrowthPairs | None, lambda_a: float, t: float) -> float:
    """The growth factor of opex and reward at (lambda_a, t); checks both."""
    if not (lambda_a >= 0.0 and t >= 0.0):  # nan fails both
        raise DomainError(f"rate and time must be nonnegative, got {lambda_a}, {t}")
    if pairs is None:
        return 1.0
    (b1, a1), (b2, a2) = pairs
    try:
        factor = (math.log(a1) / math.log(b1)) ** lambda_a \
            * (math.log(a2) / math.log(b2)) ** t
    except OverflowError:
        factor = math.inf
    if factor == math.inf and t < math.inf:
        raise DomainError(f"the growth factor at t = {t} exceeds the float range")
    return factor


def _pointwise(price: float, pairs: GrowthPairs | None, lambda_a: float,
               t: float) -> float:
    factor = _growth_factor(pairs, lambda_a, t)
    if t == math.inf:
        # the limit of price * lambda_a * t * factor: linear growth in t
        # against a factor that decays (ratio below 1), stays or grows
        return 0.0 if lambda_a == 0.0 or factor == 0.0 else math.inf
    return price * lambda_a * t * factor


def opex(model: EconomicModel, lambda_a: float, t: float) -> float:
    """Operating expense of attacking for t seconds at block rate lambda_a.

    gamma * lambda_a * t scaled by the cost growth factors (both exactly 1
    in the linear model). At t = inf, its limit: 0 where the time growth
    ratio is below 1 (or lambda_a is 0), inf otherwise.
    """
    return _pointwise(model.gamma, model.cost_growth, lambda_a, t)


def reward(model: EconomicModel, lambda_a: float, t: float) -> float:
    """Mining reward earned over t seconds, the beta-side mirror of opex."""
    return _pointwise(model.beta, model.reward_growth, lambda_a, t)


def _require_linear(model: EconomicModel, need_reward: bool) -> None:
    if not model.linear_cost or (need_reward and not model.linear_reward):
        raise UnsupportedAnalyticError(
            "closed forms exist only for linear cost/reward; "
            "use the Monte Carlo estimator for growth models"
        )


def _fails_forever(spec: AttackSpec) -> bool:
    """No deadline and p_a < 1/2: an attempt may fail and then mine forever,
    at unbounded cost. Decided on the spec: p_dsa rounds to 1 just below 1/2."""
    return spec.infinite_cut and spec.p_a < 0.5


def _give_up_time(spec: AttackSpec) -> float:
    """t_cut in the give-up terms (1 - p_as) * ... * t_cut. With no deadline
    (and p_a >= 1/2) p_as is exactly 1, and -0.0, the identity of float
    addition, makes each term vanish rather than read 0 * inf = nan."""
    return -0.0 if spec.infinite_cut else spec.t_cut


def _runtime(spec: AttackSpec, p_as: float, e_tas: float) -> float:
    if _fails_forever(spec):
        return math.inf
    return p_as * e_tas + (1.0 - p_as) * _give_up_time(spec)


def _opex(model: EconomicModel, spec: AttackSpec, p_as: float, e_tas: float) -> float:
    if _fails_forever(spec):
        return math.inf
    rate_cost = model.gamma * spec.lambda_a
    return p_as * rate_cost * e_tas \
        + (1.0 - p_as) * rate_cost * _give_up_time(spec)


def _give_up_per_success(spec: AttackSpec, p_as: float, rate_cost: float) -> float:
    """The give-up term of c_req: failed attempts' cost per success."""
    return (1.0 - p_as) / p_as * rate_cost * _give_up_time(spec)


def _required(model: EconomicModel, spec: AttackSpec, p_as: float, e_tas: float) -> float:
    if _fails_forever(spec):
        return INFINITE_REQUIREMENT
    if p_as <= 0.0:
        raise DomainError(
            "success probability is zero at this cut-time; "
            "no finite value makes the attack profitable"
        )
    rate_cost = model.gamma * spec.lambda_a
    return _give_up_per_success(spec, p_as, rate_cost) \
        - (model.mu - 1.0) * rate_cost * e_tas


def expected_opex(model: EconomicModel, spec: AttackSpec, tol: float = 1e-12) -> float:
    """Expected OPEX of one attempt: pay until success or until giving up.

    p_as * gamma * lambda_a * e_tas + (1 - p_as) * gamma * lambda_a * t_cut.
    With no deadline this is finite only for a superior attacker (success is
    certain); an inferior attacker who never gives up pays without bound, so
    the expectation is returned as inf.
    """
    _require_linear(model, need_reward=False)
    return _opex(model, spec, *_success_moments(spec, tol))


def expected_profit(model: EconomicModel, spec: AttackSpec, tol: float = 1e-12) -> float:
    """Expected profit of one attempt at the model's transaction value.

    p_as * (value + beta * lambda_a * e_tas) - expected opex. Positive iff
    the attack is profitable; affine in the value with slope p_as and root
    at required_value.
    """
    _require_linear(model, need_reward=True)
    p_as, e_tas = _success_moments(spec, tol)
    gain = model.value + model.beta * spec.lambda_a * e_tas
    return p_as * gain - _opex(model, spec, p_as, e_tas)


def required_value(model: EconomicModel, spec: AttackSpec, tol: float = 1e-12) -> float:
    """Smallest transaction value making the expected profit positive.

    Finite cut:  (1 - p_as)/p_as * gamma * lambda_a * t_cut
                 - (mu - 1) * gamma * lambda_a * e_tas.
    No deadline, superior attacker: the first term vanishes (success is
    certain), leaving -(mu - 1) * gamma * lambda_a * e_tas — negative
    whenever mining is profitable (mu > 1), i.e. profitable at any value.
    With mu < 1 the same formula yields a positive requirement (the attack
    must recoup unprofitable mining) and is applied as stated.
    No deadline, inferior attacker: the requirement grows without bound;
    returns INFINITE_REQUIREMENT.
    """
    _require_linear(model, need_reward=True)
    return _required(model, spec, *_success_moments(spec, tol))


def repeated_attack_projection(model: EconomicModel, spec: AttackSpec, n: int,
                               tol: float = 1e-12) -> dict[str, float]:
    """Long-run projection over n independent attempts.

    expected_runtime_per_attempt: p_as * e_tas + (1 - p_as) * t_cut
    expected_net_profit:          n * p_as * (value - required_value)
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"attack count must be a nonnegative integer, got {n!r}")
    _require_linear(model, need_reward=True)
    p_as, e_tas = _success_moments(spec, tol)
    if n == 0:
        net = 0.0
    elif _fails_forever(spec):  # p_as may underflow to 0, and 0 * -inf is nan
        net = -math.inf
    else:
        net = n * p_as * (model.value - _required(model, spec, p_as, e_tas))
    return {
        "expected_runtime_per_attempt": _runtime(spec, p_as, e_tas),
        "expected_net_profit": net,
    }
