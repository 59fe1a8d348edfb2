import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublespend import timing
from doublespend.cli import run
from doublespend.economics import (
    INFINITE_REQUIREMENT,
    EconomicModel,
    expected_opex,
    expected_profit,
    opex,
    repeated_attack_projection,
    required_value,
    reward,
)
from doublespend.errors import DomainError, SingularityError, \
    UnsupportedAnalyticError
from doublespend.reporting import NetworkConfig, build_resource_table, case_study
from doublespend.simulate import estimate_profit
from doublespend.timing import attack_success_prob, expected_success_time, sampling_grid
from doublespend.walk import INFINITE, AttackSpec

BCH_SPEC = AttackSpec(p_a=0.35, n_bc=5, t_cut=12000.0, lambda_h=1 / 600)
BCH_MODEL = EconomicModel(gamma=0.422, beta=0.44)


class TestEconomicModel:
    def test_mu(self):
        assert BCH_MODEL.mu == pytest.approx(0.44 / 0.422, rel=1e-12)

    @pytest.mark.parametrize("kw", [
        dict(gamma=0.0, beta=1.0),
        dict(gamma=1.0, beta=-0.1),
        dict(gamma=-1.0, beta=1.0),
        dict(gamma=1.0, beta=1.0, value=-5.0),
    ])
    def test_rejects_nonpositive(self, kw):
        with pytest.raises(DomainError):
            EconomicModel(**kw)

    @pytest.mark.parametrize("kw", [
        dict(gamma=math.inf, beta=1.0),
        dict(gamma=math.nan, beta=1.0),
        dict(gamma=1.0, beta=math.inf),
        dict(gamma=1.0, beta=math.nan),
        dict(gamma=1.0, beta=1.0, value=math.inf),
        dict(gamma=1.0, beta=1.0, value=math.nan),
    ])
    def test_rejects_nonfinite(self, kw):
        with pytest.raises(DomainError, match="must be finite"):
            EconomicModel(**kw)

    def test_growth_pairs_validated(self):
        with pytest.raises(DomainError):
            EconomicModel(gamma=1.0, beta=1.0,
                          cost_growth=((1.0, 2.0), (2.0, 2.0)))
        with pytest.raises(DomainError):
            EconomicModel(gamma=1.0, beta=1.0,
                          cost_growth=((0.5, 2.0), (2.0, 2.0)))
        EconomicModel(gamma=1.0, beta=1.0, cost_growth=((2.0, 2.0), (2.0, 2.0)))

    def test_linear_flags(self):
        assert BCH_MODEL.linear_cost
        assert BCH_MODEL.linear_reward
        bent = EconomicModel(gamma=1.0, beta=1.0,
                             cost_growth=((2.0, 3.0), (2.0, 2.0)))
        assert not bent.linear_cost


@pytest.mark.parametrize("make, kw", [
    (AttackSpec, dict(p_a=0.3, n_bc=1, t_cut=10.0, lambda_h=True)),
    (AttackSpec, dict(p_a=0.3, n_bc=1, t_cut=True)),
    (AttackSpec, dict(p_a="0.3", n_bc=1, t_cut=10.0)),
    (AttackSpec, dict(p_a=0.3, n_bc=1, t_cut=10.0, lambda_h="1")),
    (EconomicModel, dict(gamma=True, beta=1.0)),
    (EconomicModel, dict(gamma="x", beta=1.0)),
    (EconomicModel, dict(gamma=1.0, beta=1.0, value=None)),
    (EconomicModel, dict(gamma=1.0, beta=1.0, cost_growth=((2.0, 3.0),))),
    (EconomicModel, dict(gamma=1.0, beta=1.0, reward_growth=2.0)),
    (EconomicModel, dict(gamma=1.0, beta=1.0, cost_growth=(("2", 3.0), (2.0, 2.0)))),
], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
def test_real_inputs_must_be_numbers(make, kw):
    # an int or a float, never a bool or a string, as NetworkConfig asks
    with pytest.raises(DomainError):
        make(**kw)


BIG = 10 ** 400  # an int beyond the float range; it compares exactly with inf


@pytest.mark.parametrize("call", [
    lambda: EconomicModel(gamma=BIG, beta=1.0),
    lambda: attack_success_prob(AttackSpec(p_a=0.3, n_bc=2, t_cut=10.0, lambda_h=BIG)),
    lambda: build_resource_table([1], [0.35], BIG),
    lambda: case_study(BCH_CONFIG, 0.35, 5, BIG),
    lambda: repeated_attack_projection(BCH_MODEL, BCH_SPEC, n=BIG),
    lambda: attack_success_prob(BCH_SPEC, tol="x"),
    lambda: attack_success_prob(AttackSpec(p_a=0.3, n_bc=2, t_cut=INFINITE), tol="x"),
    lambda: sampling_grid(BCH_SPEC, ["1"]),
    lambda: build_resource_table([1], [0.35], True),
    lambda: case_study(BCH_CONFIG, 0.35, 5, True),
    lambda: attack_success_prob(BCH_SPEC, tol=True),
    lambda: sampling_grid(BCH_SPEC, [True]),
], ids=["gamma int overflow", "lambda_h int overflow", "table c int overflow",
        "case c int overflow", "attack count overflow", "tol str", "tol str unbounded",
        "time str", "table c bool", "case c bool", "tol bool", "time bool"])
def test_malformed_numbers_get_domain_error(call):
    # each raised a raw OverflowError or TypeError, or was read as 1.0
    with pytest.raises(DomainError):
        call()


def test_pointwise_opex_and_reward_linear():
    lam_a = BCH_SPEC.lambda_a
    assert opex(BCH_MODEL, lam_a, 600.0) == pytest.approx(0.422 * lam_a * 600.0)
    assert reward(BCH_MODEL, lam_a, 600.0) == pytest.approx(0.44 * lam_a * 600.0)
    # linear in both arguments
    assert opex(BCH_MODEL, 2 * lam_a, 600.0) == pytest.approx(
        2 * opex(BCH_MODEL, lam_a, 600.0)
    )


def test_pointwise_opex_nonlinear_growth():
    model = EconomicModel(gamma=1.0, beta=1.0,
                          cost_growth=((2.0, 2.0), (2.0, 4.0)))
    base = EconomicModel(gamma=1.0, beta=1.0)
    lam_a = 0.001
    # growth constants equal along each pair reduce to a power law; doubling
    # time must cost more than double
    assert opex(model, lam_a, 200.0) > 2 * opex(model, lam_a, 100.0)
    assert opex(base, lam_a, 200.0) == pytest.approx(2 * opex(base, lam_a, 100.0))


@pytest.mark.parametrize("lam_a, t", [(math.nan, 600.0), (0.001, math.nan)])
def test_pointwise_opex_and_reward_reject_nan(lam_a, t):
    # nan passed the sign check and came back as a nan cost
    for f in (opex, reward):
        with pytest.raises(DomainError, match="nonnegative"):
            f(BCH_MODEL, lam_a, t)


def test_growth_factor_overflow_is_typed():
    # (ln 3 / ln 2)^t overflows at the paper's time scale; it raised a raw
    # OverflowError from inside the Monte Carlo profit estimate
    model = EconomicModel(gamma=0.422, beta=0.44, value=10.0,
                          cost_growth=((2.0, 3.0), (2.0, 3.0)))
    with pytest.raises(DomainError, match="t = 12000"):
        opex(model, 0.001, 12000.0)
    with pytest.raises(DomainError, match="growth factor"):
        estimate_profit(model, AttackSpec(p_a=0.35, n_bc=5, t_cut=12000.0,
                                          lambda_h=1 / 600), 10, 1)


@pytest.mark.parametrize("growth, limit", [
    (((3.0, 2.0), (3.0, 2.0)), 0.0),   # ratio ln 2 / ln 3 < 1: decays
    (((2.0, 2.0), (2.0, 2.0)), math.inf),
    (((2.0, 3.0), (2.0, 3.0)), math.inf),
    (None, math.inf),
])
def test_pointwise_opex_and_reward_at_infinite_time(growth, limit):
    # gamma * lambda_a * inf * 0 read nan for a decaying growth factor; the
    # value at t = inf is the limit in t
    model = EconomicModel(gamma=1.0, beta=1.0, cost_growth=growth,
                          reward_growth=growth)
    for f in (opex, reward):
        assert f(model, 0.001, math.inf) == limit
        assert f(model, 0.0, math.inf) == 0.0


def test_expected_opex_case_study_anchor():
    assert expected_opex(BCH_MODEL, BCH_SPEC) == pytest.approx(3.98, rel=0.01)


def test_expected_opex_formula():
    p_as = attack_success_prob(BCH_SPEC)
    e_tas = expected_success_time(BCH_SPEC)
    rate_cost = 0.422 * BCH_SPEC.lambda_a
    expected = p_as * rate_cost * e_tas + (1 - p_as) * rate_cost * 12000.0
    assert expected_opex(BCH_MODEL, BCH_SPEC) == pytest.approx(expected, rel=1e-12)


def test_expected_opex_unbounded():
    sup = AttackSpec(p_a=0.6, n_bc=5, t_cut=INFINITE, lambda_h=1 / 600)
    assert math.isfinite(expected_opex(BCH_MODEL, sup))
    sub = AttackSpec(p_a=0.3, n_bc=5, t_cut=INFINITE, lambda_h=1 / 600)
    assert expected_opex(BCH_MODEL, sub) == math.inf


def test_expected_opex_rejects_nonlinear():
    bent = EconomicModel(gamma=1.0, beta=1.0,
                         cost_growth=((2.0, 3.0), (2.0, 2.0)))
    with pytest.raises(UnsupportedAnalyticError):
        expected_opex(bent, BCH_SPEC)


def test_growing_reward_refuses_profit_closed_forms():
    # the cost stays linear, so only the forms that read the reward refuse
    growing = EconomicModel(gamma=0.422, beta=0.44,
                            reward_growth=((2.0, 3.0), (2.0, 2.0)))
    assert growing.linear_cost and not growing.linear_reward
    for closed_form in (expected_profit, required_value):
        with pytest.raises(UnsupportedAnalyticError):
            closed_form(growing, BCH_SPEC)
    assert expected_opex(growing, BCH_SPEC) == expected_opex(BCH_MODEL, BCH_SPEC)


def test_required_value_case_study_anchor():
    assert required_value(BCH_MODEL, BCH_SPEC) == pytest.approx(16.22, rel=0.01)


def test_profit_zero_at_required_value():
    c_req = required_value(BCH_MODEL, BCH_SPEC)
    model = EconomicModel(gamma=0.422, beta=0.44, value=c_req)
    assert expected_profit(model, BCH_SPEC) == pytest.approx(0.0, abs=1e-9)


def test_profit_is_success_prob_times_margin():
    p_as = attack_success_prob(BCH_SPEC)
    c_req = required_value(BCH_MODEL, BCH_SPEC)
    for value in (0.0, 5.0, 16.0, 40.0):
        model = EconomicModel(gamma=0.422, beta=0.44, value=value)
        assert expected_profit(model, BCH_SPEC) == pytest.approx(
            p_as * (value - c_req), rel=1e-9, abs=1e-9
        )


def test_unbounded_superior_attack_always_profitable():
    spec = AttackSpec(p_a=0.6, n_bc=5, t_cut=INFINITE, lambda_h=1 / 600)
    model = EconomicModel(gamma=1.0, beta=1.04)
    c_req = required_value(model, spec)
    assert c_req < 0.0
    at_zero = EconomicModel(gamma=1.0, beta=1.04, value=0.0)
    assert expected_profit(at_zero, spec) > 0.0


def test_unbounded_subhalf_attack_requires_infinite_value():
    spec = AttackSpec(p_a=0.3, n_bc=5, t_cut=INFINITE, lambda_h=1 / 600)
    model = EconomicModel(gamma=1.0, beta=1.04)
    assert required_value(model, spec) is INFINITE_REQUIREMENT
    assert required_value(model, spec) == math.inf
    at_any = EconomicModel(gamma=1.0, beta=1.04, value=1e9)
    assert expected_profit(at_any, spec) == -math.inf


def test_projection_where_p_dsa_underflows():
    # p_dsa is below the float range at (0.05, 500): n * 0.0 * (value - inf)
    # read nan, while expected_profit reads -inf for the same attack
    model = EconomicModel(gamma=0.422, beta=0.44, value=10.0)
    spec = AttackSpec(p_a=0.05, n_bc=500, t_cut=INFINITE)
    assert expected_profit(model, spec) == -math.inf
    assert repeated_attack_projection(model, spec, 3)["expected_net_profit"] \
        == -math.inf
    assert repeated_attack_projection(model, spec, 0)["expected_net_profit"] == 0.0


@pytest.mark.parametrize("n_bc", [100, 530])
def test_unbounded_subhalf_attack_does_not_read_p_dsa(n_bc):
    # p_dsa is 6e-47 at (0.1, 100) and 4e-238 at 530; an attack that never
    # gives up costs inf however small it is, and reads no mean success time
    spec = AttackSpec(p_a=0.1, n_bc=n_bc, t_cut=INFINITE)
    model = EconomicModel(gamma=1.0, beta=1.04, value=5.0)
    assert required_value(model, spec) is INFINITE_REQUIREMENT
    assert expected_opex(model, spec) == math.inf
    assert expected_profit(model, spec) == -math.inf
    proj = repeated_attack_projection(model, spec, 3)
    assert proj["expected_runtime_per_attempt"] == math.inf


def test_required_value_singular_at_half():
    spec = AttackSpec(p_a=0.5, n_bc=5, t_cut=INFINITE, lambda_h=1 / 600)
    model = EconomicModel(gamma=1.0, beta=1.04)
    with pytest.raises(SingularityError):
        required_value(model, spec)


def test_required_value_grows_with_cut_time():
    model = EconomicModel(gamma=1.0, beta=1.04)
    values = []
    for t_cut in (1e3, 1e4, 1e5, 1e6, 1e7):
        spec = AttackSpec(p_a=0.3, n_bc=1, t_cut=t_cut, lambda_h=1 / 600)
        values.append(required_value(model, spec))
    assert values == sorted(values)
    assert values[-1] > 100 * values[1]


def test_mu_one_requirement_is_pure_giveup_ratio():
    model = EconomicModel(gamma=0.422, beta=0.422)
    p_as = attack_success_prob(BCH_SPEC)
    pure = (1 - p_as) / p_as * 0.422 * BCH_SPEC.lambda_a * 12000.0
    assert required_value(model, BCH_SPEC) == pytest.approx(pure, rel=1e-12)


def test_repeated_attack_projection_case_study():
    proj = repeated_attack_projection(BCH_MODEL, BCH_SPEC, 1)
    # around 2 h 55 m per attempt
    assert proj["expected_runtime_per_attempt"] == pytest.approx(10500, abs=60)


def test_repeated_attack_projection_scales_linearly():
    one = repeated_attack_projection(BCH_MODEL, BCH_SPEC, 1)
    ten = repeated_attack_projection(BCH_MODEL, BCH_SPEC, 10)
    assert ten["expected_net_profit"] == pytest.approx(
        10 * one["expected_net_profit"], rel=1e-12
    )
    zero = repeated_attack_projection(BCH_MODEL, BCH_SPEC, 0)
    assert zero["expected_net_profit"] == 0.0


def test_repeated_attack_projection_validation():
    with pytest.raises(DomainError):
        repeated_attack_projection(BCH_MODEL, BCH_SPEC, -1)
    with pytest.raises(DomainError):
        repeated_attack_projection(BCH_MODEL, BCH_SPEC, True)


@given(
    value=st.floats(0.0, 100.0),
    gamma=st.floats(0.05, 5.0),
    mu=st.floats(0.5, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_profit_consistency_sweep(value, gamma, mu):
    model = EconomicModel(gamma=gamma, beta=gamma * mu, value=value)
    bare = EconomicModel(gamma=gamma, beta=gamma * mu)
    p_as = attack_success_prob(BCH_SPEC)
    c_req = required_value(bare, BCH_SPEC)
    assert expected_profit(model, BCH_SPEC) == pytest.approx(
        p_as * (value - c_req), rel=1e-8, abs=1e-8
    )


def _pass_counter(monkeypatch):
    calls = []
    original = timing._mixture_moments

    def counted(spec, t_cut, *args):
        calls.append(spec)
        return original(spec, t_cut, *args)

    monkeypatch.setattr(timing, "_mixture_moments", counted)
    return calls


BCH_CONFIG = NetworkConfig(name="bch", beta_per_block=0.44,
                           block_time_seconds=600.0, gamma_override=0.422)


@pytest.mark.parametrize("compute", [
    lambda: expected_opex(BCH_MODEL, BCH_SPEC),
    lambda: expected_profit(BCH_MODEL, BCH_SPEC),
    lambda: required_value(BCH_MODEL, BCH_SPEC),
    lambda: repeated_attack_projection(BCH_MODEL, BCH_SPEC, 3),
    lambda: case_study(BCH_CONFIG, 0.35, 5, 4.0),
    lambda: run(["expect-time", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4"]),
], ids=["expected_opex", "expected_profit", "required_value",
        "repeated_attack_projection", "case_study", "cli expect-time"])
def test_one_mixture_pass_per_spec(compute, monkeypatch, capsys):
    calls = _pass_counter(monkeypatch)
    compute()
    assert len(calls) == 1


def test_one_mixture_pass_per_table_cell(monkeypatch):
    calls = _pass_counter(monkeypatch)
    build_resource_table([1, 3, 5], [0.3, 0.4], 4.0)
    assert len(calls) == 6


def test_pair_matches_single_quantity_passes():
    # at (0.45, 4, c 4) the series certifies p_as some states before E_TAS
    for spec in (AttackSpec(p_a=0.45, n_bc=4, t_cut=16.0), BCH_SPEC,
                 AttackSpec(p_a=0.6, n_bc=3, t_cut=INFINITE)):
        assert timing._success_moments(spec, 1e-12) == (
            attack_success_prob(spec), expected_success_time(spec))
