"""Release acceptance checklist.

Eight end-to-end criteria, each printing one PASS/FAIL line so a verbose
run reads as a checklist. Run this file directly for the same output
without pytest.
"""

import functools
import math
import time

from scipy import integrate

from doublespend import (
    INFINITE,
    AttackSpec,
    EconomicModel,
    NetworkConfig,
    attack_success_prob,
    build_resource_table,
    case_study,
    dsa_time_density,
    enumerate_exact,
    estimate,
    expected_profit,
    expected_success_time_inf,
    p_dsa,
    p_dsa_at_state,
    premine_comparison,
    premine_success_prob,
    required_value,
)
from doublespend.specfun import erlang_pdf
from race_oracles import exact_p_dsa, rel_error

LAMBDA_H = 1 / 600
BCH_CFG = NetworkConfig(name="bitcoincash", beta_per_block=0.44,
                        block_time_seconds=600, gamma_override=0.422)

# frozen reference grid at c = 4:
# (n_bc, p_a) -> p_as, e_tas (block intervals), e_x (multiples of gamma),
#                c_req mu-coefficient, c_req constant
TABLE_REFERENCE = {
    (1, 0.35): (0.315, 2.004, 1.815, 1.079, 4.680),
    (1, 0.40): (0.411, 1.953, 2.106, 1.302, 3.819),
    (3, 0.35): (0.279, 5.518, 5.487, 2.971, 16.68),
    (3, 0.40): (0.419, 5.338, 6.139, 3.559, 11.10),
    (5, 0.35): (0.218, 8.681, 9.440, 4.675, 38.62),
    (5, 0.40): (0.376, 8.434, 10.436, 5.622, 22.15),
    (7, 0.35): (0.170, 11.694, 13.588, 6.297, 73.84),
    (7, 0.40): (0.334, 11.418, 14.977, 7.612, 37.25),
    (9, 0.35): (0.132, 14.607, 17.859, 7.866, 127.00),
    (9, 0.40): (0.297, 14.325, 19.716, 9.550, 56.96),
}


def _criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {label}", flush=True)
                raise
            print(f"PASS criterion {num}: {label}", flush=True)
        wrapper.criterion = num
        return wrapper
    return deco


@_criterion(1, "scaled resource table reproduced")
def test_criterion_1_resource_table():
    start = time.perf_counter()
    table = build_resource_table([1, 3, 5, 7, 9], [0.35, 0.40], c=4.0)
    elapsed = time.perf_counter() - start
    for key, (p_as, e_tas, e_x, coeff, const) in TABLE_REFERENCE.items():
        cell = table[key]
        assert abs(cell.p_as - p_as) <= 0.001, key
        assert abs(cell.e_tas_scaled - e_tas) <= 0.005, key
        assert abs(cell.e_x_scaled - e_x) <= 0.005, key
        assert abs(cell.c_req_mu_coeff - coeff) <= 0.01, key
        assert abs(cell.c_req_const - const) <= 0.01, key
    assert elapsed < 10.0, f"table took {elapsed:.2f}s"


@_criterion(2, "network case study anchors")
def test_criterion_2_case_study():
    out = case_study(BCH_CFG, p_a=0.35, n_bc=5, c=4.0)
    assert abs(out["mu"] - 0.44 / 0.422) < 1e-12
    assert abs(out["p_as"] - 0.218) <= 0.001
    assert abs(out["e_tas_seconds"] - 5200.0) <= 0.01 * 5200.0
    assert abs(out["e_x"] - 3.98) <= 0.01 * 3.98
    assert abs(out["c_req"] - 16.22) <= 0.01 * 16.22
    # 2 h 55 m per attempt, within one minute
    assert abs(out["runtime_per_attempt"] - 10500.0) <= 60.0


@_criterion(3, "attack beats pre-mine everywhere")
def test_criterion_3_premine():
    out = premine_comparison(0.35, 5)
    assert abs(out["p_dsa"] - 0.2287) <= 5e-4
    assert abs(out["p_premine"] - 0.0244) <= 5e-4
    shares = [0.01 + 0.48 * (k + 0.5) / 50 for k in range(50)]
    for n_bc in range(1, 10):
        for p_a in shares:
            spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
            assert p_dsa(spec) > premine_success_prob(spec), (p_a, n_bc)


@_criterion(4, "exact enumeration matches closed form")
def test_criterion_4_enumeration():
    start = time.perf_counter()
    for n_bc in (1, 2, 3):
        for p_a in (0.1, 0.35, 0.5, 0.65):
            spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
            masses = enumerate_exact(spec, 15)
            for i in range(1, 16):
                diff = abs(masses[i - 1] - p_dsa_at_state(spec, i))
                assert diff <= 1e-12, (n_bc, p_a, i)
    assert time.perf_counter() - start < 60.0


@_criterion(5, "Monte Carlo concordance and reproducibility")
def test_criterion_5_monte_carlo():
    spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=12000.0, lambda_h=LAMBDA_H)
    summaries = []
    for _ in range(2):
        start = time.perf_counter()
        summaries.append(estimate(spec, trials=1_000_000, master_seed=42))
        assert time.perf_counter() - start < 60.0
    first, second = summaries
    assert first == second  # bit-exact reproduction, every float field
    from doublespend import expected_success_time
    p_ref = attack_success_prob(spec)
    t_ref = expected_success_time(spec)
    assert abs(first.p_as_hat - p_ref) < 3 * first.se_p_as
    assert abs(first.mean_tas - t_ref) < 3 * first.se_tas


@_criterion(6, "achieving-time distribution integrity")
def test_criterion_6_distribution():
    spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=INFINITE, lambda_h=LAMBDA_H)

    def mixture(t):
        return sum(
            p_dsa_at_state(spec, i) * erlang_pdf(i, spec.lambda_t, t)
            for i in range(2 * spec.n_bc + 1, 1600)
        )

    for k in range(1, 21):
        t = 1500.0 * k
        assert abs(dsa_time_density(spec, t) - mixture(t)) <= 1e-9, t
    mass, err = integrate.quad(lambda t: dsa_time_density(spec, t),
                               0.0, 200000.0, limit=400)
    assert err < 1e-8
    defect = 1.0 - p_dsa(spec)  # "never succeeds", the mass at infinity
    assert abs(mass + defect - 1.0) <= 1e-6
    cuts = [3000.0 * k for k in range(1, 21)]
    probs = [
        attack_success_prob(
            AttackSpec(p_a=0.35, n_bc=5, t_cut=t, lambda_h=LAMBDA_H))
        for t in cuts
    ]
    assert all(a <= b for a, b in zip(probs, probs[1:]))
    limit_spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=300000.0,
                            lambda_h=LAMBDA_H)
    assert abs(attack_success_prob(limit_spec) - p_dsa(spec)) <= 1e-6


@_criterion(7, "independent formula routes agree")
def test_criterion_7_cross_checks():
    shares = [0.05 * k for k in range(1, 10)] + [0.49]
    for n_bc in range(1, 10):
        for p_a in shares:
            spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
            assert rel_error(p_dsa(spec), exact_p_dsa(p_a, n_bc)) <= 1e-12, \
                (p_a, n_bc)
    for p_a, n_bc in [(0.35, 5), (0.2, 3), (0.65, 1), (0.4, 2)]:
        spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE,
                          lambda_h=LAMBDA_H)
        series = sum(
            p_dsa_at_state(spec, i) * i / spec.lambda_t
            for i in range(2 * n_bc + 1, 2600)
        ) / p_dsa(spec)
        closed = expected_success_time_inf(spec)
        assert abs(closed - series) <= 1e-8 * abs(series), (p_a, n_bc)


@_criterion(8, "requirement growth and sign behavior")
def test_criterion_8_theorem_behavior():
    model = EconomicModel(gamma=1.0, beta=1.04)
    values = []
    for t_cut in (1e3, 1e4, 1e5, 1e6, 1e7):
        spec = AttackSpec(p_a=0.3, n_bc=1, t_cut=t_cut, lambda_h=LAMBDA_H)
        values.append(required_value(model, spec))
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 1000.0 * values[0]  # no finite ceiling in sight

    majority = AttackSpec(p_a=0.6, n_bc=1, t_cut=INFINITE, lambda_h=LAMBDA_H)
    c_req = required_value(model, majority)
    assert c_req < 0.0
    profit_at_zero = expected_profit(model, majority)
    assert profit_at_zero > 0.0  # profitable even at C = 0
    # E_P(C) = p_as * (C - c_req) with p_as = 1, so the zero-value profit
    # mirrors the (negative) requirement exactly
    assert abs(profit_at_zero + c_req) <= 1e-9

    bch = AttackSpec(p_a=0.35, n_bc=5, t_cut=12000.0, lambda_h=LAMBDA_H)
    bch_model = EconomicModel(gamma=0.422, beta=0.44)
    boundary = EconomicModel(gamma=0.422, beta=0.44,
                             value=required_value(bch_model, bch))
    assert abs(expected_profit(boundary, bch)) <= 1e-9


if __name__ == "__main__":
    import sys

    checks = sorted(
        (fn for name, fn in sorted(globals().items())
         if name.startswith("test_criterion_")),
        key=lambda fn: fn.criterion,
    )
    failed = 0
    for check in checks:
        try:
            check()
        except BaseException as exc:  # keep going; report every criterion
            failed += 1
            print(f"  ({type(exc).__name__}: {exc})", flush=True)
    sys.exit(1 if failed else 0)
