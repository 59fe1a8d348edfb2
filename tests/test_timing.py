import contextlib
import io
import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from doublespend import timing
from doublespend.cli import run
from doublespend.errors import ConvergenceError, DomainError, DoubleSpendError, \
    SingularityError, UndefinedExpectationError
from doublespend.specfun import (
    HypergeomParams,
    erlang_pdf,
    log_hypergeom_pfq,
    regularized_gamma_p,
)
from doublespend.timing import (
    attack_success_prob,
    dsa_time_density,
    expected_success_time,
    expected_success_time_inf,
    p_dsa_at_state,
    sampling_grid,
)
from doublespend.walk import INFINITE, AttackSpec, p_dsa, premine_success_prob
from mass_oracles import (
    _ballot_coeff,
    exact_mass,
    full_seed,
    int_state_masses,
    walk_dp_cut,
)
from race_oracles import exact_mean_arrivals, exact_p_dsa, mp_race, rel_error

BCH = dict(p_a=0.35, n_bc=5, lambda_h=1 / 600)


def mixture_density(spec, t, terms=1600):
    # reference route: the achieving-state masses weighted by Erlang arrival
    # densities of the merged process
    return sum(
        p_dsa_at_state(spec, i) * erlang_pdf(i, spec.lambda_t, t)
        for i in range(2 * spec.n_bc + 1, terms)
    )


def closed_form_density(spec, t, tol=1e-12):
    """The paper's closed-form density of the achieving time at t > 0.

    Sum of two blocks mirroring the two path families of p_dsa_at_state,
    with x = p_a * p_h * (lambda_t * t)^2:

    - overtake-after-confirmation: p_a * lambda_t * e^(-lambda_t t)
      * x^n_bc / (2 n_bc)! * sum_j binom(j-1, n_bc-1) 2F3(a_j; b_j; x),
      where for j = n_bc..2*n_bc
        a_j = (n_bc + 1 - j/2, n_bc + 1/2 - j/2)
        b_j = (2*n_bc + 2 - j, n_bc + 1, n_bc + 1/2);
    - confirmation-last: (p_h lambda_t t)^n_bc / (t (n_bc-1)!)
      * e^(-lambda_t t) * (e^(p_a lambda_t t) - sum_{k<=n_bc} (p_a lambda_t t)^k / k!),
      evaluated as e^(-lambda_h t) * P(n_bc+1, p_a lambda_t t) via the
      regularized lower incomplete gamma, which removes both the
      large-argument overflow and the small-argument cancellation of the
      raw form.

    Everything combines in log space; the hypergeometric factors use scaled
    accumulation, so large t cannot overflow before the e^(-lambda_t t)
    prefactor cancels the growth. Its pFq series do not converge within
    their term cap for lambda_t * t beyond about 3e5.
    """
    n_bc = spec.n_bc
    lam_t = spec.lambda_t
    z = lam_t * t
    x = spec.p_a * spec.p_h * z * z
    log_pref = (
        math.log(spec.p_a)
        + math.log(lam_t)
        - z
        + n_bc * math.log(x)
        - math.lgamma(2 * n_bc + 1)
    )
    term1 = 0.0
    for j in range(n_bc, 2 * n_bc + 1):
        params = HypergeomParams(
            a=(n_bc + 1.0 - j / 2.0, n_bc + 0.5 - j / 2.0),
            b=(2.0 * n_bc + 2.0 - j, n_bc + 1.0, n_bc + 0.5),
        )
        log_f = log_hypergeom_pfq(params, x, tol)
        log_term = log_pref + math.log(math.comb(j - 1, n_bc - 1)) + log_f
        if log_term > -745.0:
            term1 += math.exp(log_term)

    gamma_factor = regularized_gamma_p(n_bc + 1.0, spec.p_a * z)
    term2 = 0.0
    if gamma_factor > 0.0:
        log_term2 = (
            n_bc * math.log(spec.p_h * z)
            - math.log(t)
            - math.lgamma(n_bc)
            - spec.lambda_h * t
            + math.log(gamma_factor)
        )
        if log_term2 > -745.0:
            term2 = math.exp(log_term2)
    return term1 + term2


@pytest.mark.parametrize("p_a, n_bc, times", [
    (0.35, 5, [1500.0 * k for k in range(1, 21)]),  # the criterion-6 times
    (0.3, 1, [120.0 * k for k in range(1, 51)]),
    (0.6, 3, [360.0 * k for k in range(1, 51)]),
    (0.45, 12, [1440.0 * k for k in range(1, 51)]),
])
def test_density_matches_closed_form(p_a, n_bc, times):
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE, lambda_h=1 / 600)
    for t, density, _ in sampling_grid(spec, times):
        assert density == dsa_time_density(spec, t)
        assert density == pytest.approx(closed_form_density(spec, t), rel=1e-11,
                                        abs=0)


def test_density_at_large_times():
    # lambda_t * t = 7.7e5: the closed form's pFq series give up here
    spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=INFINITE)
    assert 0.0 <= dsa_time_density(spec, 5e5) <= 1e-300


def test_density_underflows_at_large_times():
    # the true density is far below the float range; stuck subnormal ballot
    # lanes made it read 3.5e-321
    spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=INFINITE)
    assert dsa_time_density(spec, 5e5) == 0.0


def test_density_where_lanes_decay_from_normal():
    # the ballot lanes start normal here and used to decay into the
    # subnormals while their weighted masses were still normal; the density
    # at t 1900 read 4.2e-145. The float Erlang pdf of the reference is
    # itself about 1e-12 off at lambda_t * t near 2000, hence 2e-12.
    spec = AttackSpec(p_a=0.2, n_bc=300, t_cut=INFINITE, lambda_h=1.0)
    for t in (1200.0, 1900.0):
        assert dsa_time_density(spec, t) == pytest.approx(
            mixture_density(spec, t, terms=2400), rel=2e-12, abs=0)


def test_density_matches_mixture_series():
    spec = AttackSpec(t_cut=12000.0, **BCH)
    for t in (400.0, 1800.0, 5200.0, 12000.0, 30000.0):
        assert dsa_time_density(spec, t) == pytest.approx(
            mixture_density(spec, t), rel=1e-11, abs=1e-300
        )


def test_density_matches_mixture_series_small_depth():
    spec = AttackSpec(p_a=0.3, n_bc=1, t_cut=600.0, lambda_h=1 / 600)
    for t in (60.0, 600.0, 3600.0):
        assert dsa_time_density(spec, t) == pytest.approx(
            mixture_density(spec, t), rel=1e-11, abs=0
        )


def test_density_edges():
    spec = AttackSpec(t_cut=12000.0, **BCH)
    assert dsa_time_density(spec, 0.0) == 0.0
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            dsa_time_density(spec, bad)


def test_density_integrates_to_success_prob():
    # P_AS(t_cut) must equal the integral of the density over [0, t_cut]
    spec = AttackSpec(t_cut=9000.0, **BCH)
    integral, err = integrate.quad(
        lambda t: dsa_time_density(spec, t), 0.0, 9000.0, limit=200
    )
    assert err < 1e-8
    assert attack_success_prob(spec) == pytest.approx(integral, rel=1e-9)


def test_density_total_mass_is_defect_complement():
    spec = AttackSpec(t_cut=INFINITE, **BCH)
    integral, err = integrate.quad(
        lambda t: dsa_time_density(spec, t), 0.0, 200000.0, limit=400
    )
    assert err < 1e-9
    assert integral == pytest.approx(p_dsa(spec), rel=1e-8)


def test_success_prob_printed_anchors():
    # scaled operating points and their published success probabilities
    cases = [
        (1, 0.35, 0.315), (1, 0.4, 0.411),
        (3, 0.35, 0.279), (3, 0.4, 0.419),
        (5, 0.35, 0.218), (5, 0.4, 0.376),
        (7, 0.35, 0.170), (7, 0.4, 0.334),
        (9, 0.35, 0.132), (9, 0.4, 0.297),
    ]
    for n_bc, p_a, expected in cases:
        spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=4.0 * n_bc, lambda_h=1.0)
        assert attack_success_prob(spec) == pytest.approx(expected, abs=1e-3)


def test_success_prob_monotone_and_limits_to_unbounded_value():
    spec_inf = AttackSpec(t_cut=INFINITE, **BCH)
    limit = p_dsa(spec_inf)
    prev = 0.0
    for t_cut in (600.0, 3000.0, 12000.0, 60000.0, 600000.0):
        p = attack_success_prob(AttackSpec(t_cut=t_cut, **BCH))
        assert prev < p <= limit + 1e-12
        prev = p
    assert prev == pytest.approx(limit, rel=1e-10)
    assert attack_success_prob(spec_inf) == limit


def test_expected_success_time_against_numeric_integral():
    spec = AttackSpec(t_cut=12000.0, **BCH)
    num, err = integrate.quad(
        lambda t: t * dsa_time_density(spec, t), 0.0, 12000.0, limit=200
    )
    assert err < 1e-6
    p_as = attack_success_prob(spec)
    assert expected_success_time(spec) == pytest.approx(num / p_as, rel=1e-9)


def test_expected_success_time_printed_anchor():
    spec = AttackSpec(t_cut=12000.0, **BCH)
    assert expected_success_time(spec) == pytest.approx(5200, rel=0.01)
    spec_scaled = AttackSpec(p_a=0.35, n_bc=5, t_cut=20.0, lambda_h=1.0)
    assert expected_success_time(spec_scaled) == pytest.approx(8.681, abs=5e-3)


def test_expected_success_time_unbounded_closed_form_vs_series():
    for p_a, n_bc in [(0.35, 5), (0.2, 3), (0.65, 1), (0.4, 2)]:
        spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE, lambda_h=1 / 600)
        series = sum(
            p_dsa_at_state(spec, i) * i / spec.lambda_t
            for i in range(2 * n_bc + 1, 2600)
        ) / p_dsa(spec)
        assert expected_success_time_inf(spec) == pytest.approx(series, rel=1e-9)
        assert expected_success_time(spec) == expected_success_time_inf(spec)


def test_expected_success_time_singularity_at_half():
    spec = AttackSpec(p_a=0.5, n_bc=3, t_cut=INFINITE)
    with pytest.raises(SingularityError):
        expected_success_time_inf(spec)


@pytest.mark.parametrize("p_a,n_bc", [
    (0.05, 1), (0.35, 5), (0.65, 1), (0.3, 60), (0.35, 400), (0.1, 500),
    (0.05, 500), (0.49, 1000), (0.51, 1000), (0.55, 1000),
])
def test_unbounded_mean_matches_exact_closed_form(p_a, n_bc):
    # the generating-function form with its Z_j in exact rationals; in floats
    # each Z_j subtracts, and the mean read -0.476 at (0.35, 400). Exact
    # p_h = 1 - p_a here, the float 1 - p_a in the package; the conventions
    # move the mean by under 1e-16 on the specs probed (p_dsa by up to 5e-13
    # relative at (0.45, 5000)), and the bound stays at 1e-12
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE, lambda_h=1 / 600)
    arrivals = expected_success_time_inf(spec) * spec.lambda_t
    assert rel_error(arrivals, exact_mean_arrivals(p_a, n_bc)) <= 1e-12


_SHARES = st.one_of(
    st.floats(-300.0, -1.0).map(lambda u: 10.0 ** u),  # log-uniform
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.builds(lambda k, side: 0.5 + side * 10.0 ** -k,
              st.integers(1, 16), st.sampled_from((-1.0, 1.0))),
    st.just(0.5),
)


@given(p_a=_SHARES,
       n_bc=st.floats(0.0, 6.0).map(lambda u: round(10.0 ** u)))
@example(p_a=0.49999, n_bc=10 ** 6)  # the longest race sums, a few
@example(p_a=0.50001, n_bc=10 ** 6)  # thousand terms each
@settings(max_examples=100, deadline=None)
def test_unbounded_race_bounds(p_a, n_bc):
    # p_a from 1e-300 to 1 - 1e-16 and within 10^-k of 1/2, n_bc up to 10^6:
    # every unbounded value returns fast and in range, or raises typed
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
    start = time.perf_counter()
    p = p_dsa(spec)
    assert time.perf_counter() - start < 0.05
    assert 0.0 <= p <= 1.0
    # premine needs a lead of n_bc + 1 from the start, a subset of the
    # race's successes; the slack covers the rounding of both
    assert p >= premine_success_prob(spec) * (1.0 - 1e-12)
    start = time.perf_counter()
    if p_a == 0.5:
        with pytest.raises(SingularityError):
            expected_success_time_inf(spec)
    else:
        # lambda_t * E_TAS >= 2 n_bc + 1: no success before that many arrivals
        e_tas = expected_success_time_inf(spec)
        assert math.isfinite(e_tas) and e_tas >= (2 * n_bc + 1) / spec.lambda_t
    assert time.perf_counter() - start < 0.05
    for command in ("prob", "expect-time"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run([command, "--pa", repr(p_a), "--nbc", str(n_bc),
                        "--cut-mult", "inf", "--format", "json"])
        assert code in (0, 2, 3), (command, code)
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("p_a,n_bc", [(0.05, 500), (1e-310, 1), (5e-324, 1)])
def test_unbounded_mean_where_p_dsa_underflows(p_a, n_bc):
    # the last two have a subnormal p_a/p_h: carried as a race term, it gave
    # a mean of 4.0 against 3 + 1e-323 at (5e-324, 1)
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
    assert p_dsa(spec) == 0.0
    e_tas = expected_success_time_inf(spec)
    # within the race-sum bound although the mean divides by p_dsa
    assert math.isclose(e_tas * spec.lambda_t, mp_race(p_a, n_bc)[1], rel_tol=3e-14)
    assert expected_success_time(spec) == e_tas


@pytest.mark.parametrize("p_a, n_bc, c", [
    (0.45, 516, 4.0), (0.6, 700, 2.0), (0.45, 1000, 4.0)])
def test_finite_cut_past_the_float_binomials(p_a, n_bc, c):
    # C(2 n_bc - 1, n_bc - 1) overflows a float from n_bc 516 on, where the
    # ballot lanes refused the spec; the walk DP shares no formula with the
    # series. tol 1e-13 keeps the certified truncation inside the 1e-12.
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=c * n_bc)
    p_as, arrivals = walk_dp_cut(p_a, n_bc, spec.lambda_t * spec.t_cut)
    assert math.isclose(attack_success_prob(spec, 1e-13), p_as, rel_tol=1e-12)
    assert math.isclose(expected_success_time(spec, 1e-13) * spec.lambda_t,
                        arrivals, rel_tol=1e-12)


@st.composite
def _finite_cuts(draw):
    """(p_a, n_bc, c) over the finite-cut domain. Within 2e-3 of 1/2 the
    masses fall slowly and a pass walks to about lambda_t * t_cut states
    (up to the 2M-state cap, 1-3 s), so there c keeps lambda_t * t_cut =
    c n_bc / p_h at most 2e4."""
    p_a = draw(_SHARES)
    n_bc = draw(st.one_of(
        st.floats(0.0, math.log10(20_000)).map(lambda u: round(10.0 ** u)),
        st.integers(timing._MAX_NBC + 1, timing._MAX_NBC + 3)))
    c = 10.0 ** draw(st.floats(-1.0, 6.0))
    if abs(p_a - 0.5) < 2e-3:
        c = min(c, 2e4 * (1.0 - p_a) / n_bc)
    return p_a, n_bc, c


@given(point=_finite_cuts(), lambda_h=st.floats(-4.0, 2.0).map(lambda u: 10.0 ** u))
@example(point=(0.5, 20_000, 4.0), lambda_h=1.0)  # the slowest pass served
@settings(max_examples=100, deadline=None)
def test_finite_cut_bounds(point, lambda_h):
    # every finite-cut value returns in range or raises typed, from p_a
    # 1e-300 to 1 - 1e-16, n_bc up to the depth limit and just past it, c
    # from 0.1 to 1e6 and lambda_h over six decades
    p_a, n_bc, c = point
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=c * n_bc / lambda_h,
                      lambda_h=lambda_h)
    try:
        p_as = attack_success_prob(spec)
        # below the normal floats a mass keeps no relative precision
        assert 0.0 <= p_as <= p_dsa(replace(spec, t_cut=INFINITE)) * (
            1.0 + 1e-12) + 2.0 ** -1022
        if p_as > 0.0:
            assert 0.0 < expected_success_time(spec) < spec.t_cut
    except DoubleSpendError:
        pass
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["expect-time", "--pa", repr(p_a), "--nbc", str(n_bc),
                    "--cut-mult", repr(c), "--lambda-h", repr(lambda_h),
                    "--format", "json"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_depth_limit():
    # a limit on cost, not on the float range: the deepest spec still starts,
    # and the unbounded quantities have no limit at all
    limit = timing._MAX_NBC
    assert next(timing._state_mass_iter(AttackSpec(0.45, limit, 4.0 * limit))) > 0.0
    with pytest.raises(DomainError, match=f"exceeds {limit}, .* in seconds"):
        attack_success_prob(AttackSpec(p_a=0.45, n_bc=limit + 1, t_cut=4e5))
    for n_bc in (515, 516, 1000, limit + 1):
        spec = AttackSpec(p_a=0.35, n_bc=n_bc, t_cut=INFINITE)
        e_tas = expected_success_time_inf(spec)
        assert math.isfinite(e_tas) and e_tas >= (2 * n_bc + 1) / spec.lambda_t


def test_depth_limit_checked_before_totals(monkeypatch):
    # the race totals cost O(n_bc); at n_bc 1e6 they took 37 s before the
    # depth limit refused the spec
    races = _call_counter(monkeypatch, "_race")
    totals = _call_counter(monkeypatch, "p_dsa")
    spec = AttackSpec(p_a=0.6, n_bc=10 ** 6, t_cut=4e6)
    with pytest.raises(DomainError, match=f"exceeds {timing._MAX_NBC}"):
        attack_success_prob(spec)
    with pytest.raises(DomainError, match=f"exceeds {timing._MAX_NBC}"):
        sampling_grid(spec, [1.0])
    assert races == totals == []


@pytest.mark.parametrize("p_a", [0.1, 0.35])
def test_state_masses_at_depth(p_a):
    # the ballot lanes start below the normal floats at n_bc 500; unscaled
    # they lost the overtake family and p_as at c 4 read 10.4x too large
    spec = AttackSpec(p_a=p_a, n_bc=500, t_cut=2000.0)
    masses = itertools.islice(timing._state_mass_iter(spec), 100)
    for i, mass in enumerate(masses, start=2 * spec.n_bc + 1):
        exact = float(exact_mass(p_a, spec.n_bc, i))
        assert math.isclose(mass, exact, rel_tol=1e-12), i


@pytest.mark.parametrize("p_a, n_bc, states", [
    (0.2, 300, (1501, 2001, 2447)), (0.3, 400, (2001,))])
def test_state_masses_where_lanes_decay_from_normal(p_a, n_bc, states):
    # unscaled, the lanes turned subnormal and stopped decaying: every mass
    # from about state 1500 on read 6.7e-145 at (0.2, 300)
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
    masses = list(itertools.islice(timing._state_mass_iter(spec),
                                   max(states) - 2 * n_bc))
    for i in states:
        exact = float(exact_mass(p_a, n_bc, i))
        assert math.isclose(masses[i - 2 * n_bc - 1], exact, rel_tol=1e-12), i


def test_confirmation_last_lane_at_depth():
    # at p_a 0.99, n_bc 250 the confirmation-last lane starts at e^-810;
    # unscaled it read 0.0 from state 700 on, where the masses are normal
    spec = AttackSpec(p_a=0.99, n_bc=250, t_cut=300.0)
    masses = list(itertools.islice(timing._state_mass_iter(spec), 1500))
    for i in [*range(700, 2001, 50), 1000, 2000]:
        exact = float(exact_mass(spec.p_a, spec.n_bc, i))
        assert math.isclose(masses[i - 501], exact, rel_tol=1e-12), i


def test_state_mass_against_exact_masses_on_a_seeded_grid():
    # one state at a time from the pair seed and the top bits of the exact
    # binomial; the log of exact integers it replaced was 5e-13 off here
    rng = random.Random(20261021)
    specs = [(0.5, 1000, 5001), (0.99, 1000, 2001), (0.5, 1, 3003)]
    for k in range(400):
        n_bc = min(1000, int(math.exp(rng.uniform(0.0, math.log(1001)))))
        p_a = (0.5, 0.99)[k % 16 // 8] if k % 8 == 0 else rng.uniform(0.01, 0.99)
        specs.append((p_a, n_bc, 2 * n_bc + rng.randint(1, 3001)))
    for p_a, n_bc, i in specs:
        mass = p_dsa_at_state(AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE), i)
        exact = exact_mass(p_a, n_bc, i)
        assert abs(mass - exact) <= 1e-14 * exact + 2.0 ** -1073, (p_a, n_bc, i)


def test_state_mass_at_a_tiny_share_is_quick():
    # scaled_pow took one math.pow per factor below 2^-1000: 0.26 s for
    # this state on a 2-core x86-64 machine
    spec = AttackSpec(p_a=1e-300, n_bc=5, t_cut=INFINITE)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        assert p_dsa_at_state(spec, 10 ** 6 + 11) == 0.0
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.01


def test_pair_seed_stops_on_the_bits_of_an_every_term_stop():
    # the seed tests its stop rule every 8th term only; the terms it adds
    # past the first stop round away, and its float factors round as the
    # oracle's integer ratios do, so it returns the oracle's tuple; the
    # corners reach the largest products the mixture cap allows
    rng = random.Random(20261020)
    cases = [(n_bc, n, pa) for n_bc in (1, 2, 1000, 19_999, 20_000)
             for n in (0, 1, 64, 10 ** 5, 10 ** 6, 10 ** 6 + 63)
             for pa in (0.01, 0.5, 0.99)]
    for _ in range(2000):
        n_bc = min(20_000, int(math.exp(rng.uniform(0.0, math.log(20_001)))))
        cases.append((n_bc, rng.randint(0, 4000), rng.uniform(0.01, 0.99)))
    for n_bc, n, pa in cases:
        args = (n_bc, n, pa, 1.0 - pa)
        assert timing._ballot_seed(*args) == full_seed(*args), args


def test_pair_seed_ratio_against_exact_ratio():
    # the seed's delta = 1 - W(n+1) / (4 W(n)) weighs the rounded m-terms
    # by 4 - H_m in its exact integer form; the worst here is 2.7e-15, at
    # (5000, 4000), where the weights change sign within the sum
    for n_bc in (1, 2, 3, 12, 60, 500, 5000):
        for n in (0, 1, 2, 7, 63, 255, 256, 1000, 4000):
            delta = timing._ballot_seed(n_bc, n, 0.5, 0.5)[1]
            w0, w1 = _ballot_coeff(n_bc, n), _ballot_coeff(n_bc, n + 1)
            exact = Fraction(4 * w0 - w1, 4 * w0)
            assert abs(Fraction(delta) / exact - 1) <= 4e-15, (n_bc, n)


def test_first_mass_is_the_one_state_form():
    # the iterator and p_dsa_at_state seed the confirmation-last lane of
    # state 2 n_bc + 1 from one form, so its mass is the same float
    rng = random.Random(20261024)
    specs = [(p_a, n_bc) for p_a in (1e-9, 0.01, 0.5, 0.99, 0.999999)
             for n_bc in (1, 2, 1000, 20_000)]
    for _ in range(200):
        n_bc = min(20_000, int(math.exp(rng.uniform(0.0, math.log(20_001)))))
        specs.append((rng.uniform(0.01, 0.99), n_bc))
    for p_a, n_bc in specs:
        spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
        first = next(timing._state_mass_iter(spec))
        assert first == p_dsa_at_state(spec, 2 * n_bc + 1), (p_a, n_bc)


def test_state_masses_equal_the_integer_coefficient_oracle():
    # the recurrence's coefficients and the lane ratio are formed from
    # floats, each rounded once as its exact integer is, so every mass is
    # the integer form's bit for bit
    rng = random.Random(20261023)
    specs = [(0.5, 1), (0.5, 20_000), (0.01, 20_000), (0.99, 20_000)]
    for k in range(46):
        n_bc = min(20_000, int(math.exp(rng.uniform(0.0, math.log(20_001)))))
        specs.append((0.5 if k % 8 == 0 else rng.uniform(0.01, 0.99), n_bc))
    # and longer streams: at (1e-4, 1) the overtake family leaves the float
    # range at the n = 256 reseed
    specs += [(0.5, 5, 20_000), (0.45, 500, 20_000), (1e-4, 1, 20_000)]
    for p_a, n_bc, *count in specs:
        spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
        count = count[0] if count else 3000
        masses = itertools.islice(timing._state_mass_iter(spec), count)
        oracle = itertools.islice(int_state_masses(spec), count)
        assert list(masses) == list(oracle), (p_a, n_bc)


def _reseed_states(n_bc, last):
    # odd states just before, at and just after each fresh seed of the
    # recurrence pair, the even state after each, and the last state
    states = {last}
    for n in range(0, (last - 2 * n_bc - 1) // 2 + 1, timing._RESEED):
        for k in (n - 1, n, n + 1):
            i = 2 * n_bc + 1 + 2 * k
            states.update(j for j in (i, i + 1) if 2 * n_bc < j <= last)
    return sorted(states)


@pytest.mark.parametrize("n_bc", [1, 5, 60, 500, 1000])
def test_state_masses_against_exact_masses(n_bc):
    # the worst here is 4.1e-14, at (0.2, 500, state 1509); reseeding every
    # 1024 odd states instead of 256 reaches 1.05e-13 over every state of
    # this grid, so the bound shows a coarser reseed
    for p_a in (1e-4, 0.05, 0.2, 0.35, 0.45, 0.5, 0.6, 0.9, 0.99):
        spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
        masses = list(itertools.islice(timing._state_mass_iter(spec),
                                       3000 - 2 * n_bc))
        for i in _reseed_states(n_bc, 3000):
            exact, mass = exact_mass(p_a, n_bc, i), masses[i - 2 * n_bc - 1]
            if exact > 1e-300:
                assert abs(mass / exact - 1) <= 1e-13, (p_a, i)
            else:  # below the normal floats: reads 0 or a subnormal
                assert 0.0 <= mass <= 1e-299, (p_a, i)


def test_reseed_interval_rounding_bound():
    # the first-order bound of _state_mass_iter's docstring in units of
    # u = 2^-53: each step adds 4u to q and delta_n's relative error eta_n
    # times delta_n / (1 - delta_n); eta grows by delta's own 5 roundings
    # (7 once B_n and C_n exceed 2^53) and by the recurrence's gain on it.
    # The seed's delta starts 5u off and its q 3e-15 off; the worst
    # interval, from n = 0 at n_bc 20,000, adds 2430u
    worst = 0.0
    for n_bc in (1, 2, 10, 100, 1000, 20_000):
        for n0 in (0, 256, 4096, 10 ** 6):
            delta = timing._ballot_seed(n_bc, n0, 0.5, 0.5)[1]
            eta, total = 5.0 / delta, 0.0
            for n in range(n0, n0 + timing._RESEED):
                total += 4.0 + delta * eta / (1.0 - delta)
                b = (n + n_bc + 1) * (2 * n + 1) * (2 * n + 2 * n_bc + 1)
                c4 = 4 * (n + 2) * (n + n_bc + 2) * (n + n_bc + 3)
                y = b * delta / (1.0 - delta) / c4
                step = (15 * n + 9 * n_bc + 21) / c4 + y
                big = float(b >= 2 ** 53)
                eta = 2.0 + big + y / step * (3.0 + big + eta / (1.0 - delta))
                delta = step
            worst = max(worst, total)
    assert 2400.0 < worst < 2440.0
    assert worst * 2.0 ** -53 + 3e-15 < 3e-13


@pytest.mark.parametrize("p_a, n_bc", [(0.5, 5), (0.45, 60), (0.5, 200)])
def test_state_masses_far_out(p_a, n_bc):
    # with no fresh seed the delta recurrence drifts up to 6.3e-14 by
    # n = 20,000 here (the pair recurrence it replaced, 1e-11 to 1e-10);
    # the fresh seeds hold it near 2e-15
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
    masses = list(itertools.islice(timing._state_mass_iter(spec), 40_002))
    for n in (3000, 10_000, 20_000):
        i = 2 * n_bc + 1 + 2 * n
        exact = exact_mass(p_a, n_bc, i)
        assert abs(masses[i - 2 * n_bc - 1] / exact - 1) <= 1e-12, n


def test_density_at_large_lambda_t():
    # x = lambda_t * t = 800: the Erlang factor's log-gamma reset was 2.2e-13
    # off here; the saddle-point reset keeps the density near 1e-14
    spec = AttackSpec(p_a=0.8, n_bc=30, t_cut=INFINITE, lambda_h=1.0)
    with mpmath.workdps(40):
        x = mpmath.mpf(spec.lambda_t) * 160
        i0 = 2 * spec.n_bc + 1
        pdf = mpmath.exp((i0 - 1) * mpmath.log(x) - x - mpmath.loggamma(i0))
        exact = mpmath.mpf(0)
        for i in range(i0, i0 + 2000):  # the masses decay like 0.8^i
            exact += exact_mass(spec.p_a, spec.n_bc, i) * pdf
            pdf *= x / i
        exact *= spec.lambda_t
    assert abs(dsa_time_density(spec, 160.0) / exact - 1) <= 5e-14


def test_success_prob_where_confirmation_decides():
    # the attacker leads when the n_bc-th honest block arrives except with
    # probability far below 1e-300, so p_as is that block's Erlang CDF;
    # the lost lane made this read 0.0
    spec = AttackSpec(p_a=0.99, n_bc=250, t_cut=300.0)
    assert attack_success_prob(spec) == pytest.approx(
        regularized_gamma_p(250.0, 300.0), rel=1e-11, abs=0)


@pytest.mark.parametrize("p_a,n_bc", [(0.35, 5), (0.6, 5), (0.1, 12)])
def test_expected_success_time_at_large_cut(p_a, n_bc):
    # the first-moment bound certifies without walking to state lambda_t *
    # t_cut; at c 1e6 the old bound took 5 s at (0.35, 5)
    finite = expected_success_time(AttackSpec(p_a, n_bc, 1e6 * n_bc))
    unbounded = expected_success_time_inf(AttackSpec(p_a, n_bc, INFINITE))
    assert finite == pytest.approx(unbounded, rel=1e-11, abs=0)


@given(
    p_a=st.one_of(st.floats(0.05, 0.49), st.floats(0.51, 0.95)),
    n_bc=st.integers(1, 12),
    log_c=st.tuples(st.floats(-0.3, 6.0), st.floats(-0.3, 6.0)),
)
@settings(max_examples=25, deadline=None)
def test_expected_success_time_bounded_by_unbounded(p_a, n_bc, log_c):
    # nondecreasing in t_cut and never above E_TAS^inf, up to the series'
    # 1e-12 certification
    c1, c2 = sorted(10.0 ** v for v in log_c)
    e1, e2 = (expected_success_time(AttackSpec(p_a, n_bc, c * n_bc))
              for c in (c1, c2))
    limit = expected_success_time_inf(AttackSpec(p_a, n_bc, INFINITE))
    assert e1 <= e2 * (1 + 1e-11)
    assert e2 <= limit * (1 + 1e-11)


def test_mixture_time_must_be_finite():
    # lambda_t * t overflows: the incomplete gamma used to fail to converge
    with pytest.raises(DomainError, match="INFINITE"):
        attack_success_prob(AttackSpec(0.35, 5, 1e308, lambda_h=10.0))
    with pytest.raises(DomainError, match="INFINITE"):
        sampling_grid(AttackSpec(0.35, 5, 100.0, lambda_h=1e300), [1e10])


def test_expected_success_time_unbounded_below_bounded_cut():
    # conditioning on success within a deadline biases the mean downward
    spec_fin = AttackSpec(t_cut=12000.0, **BCH)
    spec_inf = AttackSpec(t_cut=INFINITE, **BCH)
    assert expected_success_time(spec_fin) < expected_success_time(spec_inf)


def test_sampling_grid_rows():
    spec = AttackSpec(t_cut=12000.0, **BCH)
    times = [2400.0, 4800.0, 7200.0]
    rows = sampling_grid(spec, times)
    assert len(rows) == 3
    for (t, density, cdf), t_in in zip(rows, times):
        assert t == t_in
        assert density == pytest.approx(dsa_time_density(spec, t), rel=1e-12,
                                        abs=0)
        assert cdf == pytest.approx(
            attack_success_prob(AttackSpec(t_cut=t, **BCH)), rel=1e-12
        )
    # cdf column is nondecreasing
    assert rows[0][2] <= rows[1][2] <= rows[2][2]


def test_mixture_out_of_states_raises():
    # a state iterator that ends before any checkpoint certifies: x is about
    # 31, so the first checkpoint would come after 64 states
    spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=20.0)
    masses = list(itertools.islice(timing._state_mass_iter(spec), 10))
    with pytest.raises(ConvergenceError, match="terminated unexpectedly") as info:
        timing._mixture_moments(spec, spec.t_cut, 1e-12, False, iter(masses),
                                p_dsa(spec))
    assert 0.0 < info.value.partial <= sum(masses)


def _call_counter(monkeypatch, name):
    calls = []
    original = getattr(timing, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(timing, name, counted)
    return calls


@pytest.mark.parametrize("spec", [
    AttackSpec(t_cut=INFINITE, **BCH),
    AttackSpec(t_cut=12000.0, **BCH),
    AttackSpec(p_a=0.6, n_bc=3, t_cut=INFINITE, lambda_h=1 / 600),
], ids=["0.35 unbounded", "0.35 finite cut", "0.6 unbounded"])
def test_one_state_walk_per_grid(spec, monkeypatch):
    walks = _call_counter(monkeypatch, "_state_mass_iter")
    totals = _call_counter(monkeypatch, "p_dsa")
    # the first time lies before the earliest state can arrive
    times = [1e-60] + [600.0 * k for k in range(1, 50)]
    rows = sampling_grid(spec, times)
    assert len(walks) == 1
    assert len(totals) == 1
    monkeypatch.undo()
    assert rows[0][2] == 0.0
    for t, _, cdf in rows:
        assert cdf == attack_success_prob(replace(spec, t_cut=t))


@pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf, -math.inf])
def test_sampling_grid_validation(bad, monkeypatch):
    spec = AttackSpec(t_cut=12000.0, **BCH)
    walks = _call_counter(monkeypatch, "_state_mass_iter")
    with pytest.raises(DomainError, match="times must be finite and nonnegative"):
        sampling_grid(spec, [100.0, bad])
    assert walks == []  # every time is checked before any pass


def test_head_blocks_make_no_kernel_call(monkeypatch):
    # at (0.45, 500, c 4) the first 31 blocks of 64 states lie far below
    # lambda_t * t_cut, and one poisson_term certifies them: the per-state
    # loop made 47 calls to each kernel there
    resets = _call_counter(monkeypatch, "regularized_gamma_p")
    terms = _call_counter(monkeypatch, "poisson_term")
    attack_success_prob(AttackSpec(p_a=0.45, n_bc=500, t_cut=2000.0))
    assert resets[0][0] == 1001.0 + 31 * 64
    assert (len(resets), len(terms)) == (16, 17)
    # a pass with no whole head block makes the calls it made before
    resets.clear()
    terms.clear()
    spec = AttackSpec(t_cut=12000.0, **BCH)
    attack_success_prob(spec)
    x = spec.lambda_t * spec.t_cut
    assert resets == terms == [(11.0, x), (75.0, x)]


@pytest.mark.parametrize("p_a, n_bc, c, tol", [
    (0.45, 500, 4.0, 1e-12), (0.35, 5, 1000.0, 1e-12), (0.3, 12, 40.0, 1e-15),
    (0.45, 200, 4.0, 1e-9), (0.6, 30, 8.0, 1e-12), (0.499, 40, 60.0, 1e-12),
    (0.5, 3, 5000.0, 1e-12), (0.9, 100, 10.0, 1e-12), (1e-3, 2, 1e6, 1e-12)])
def test_head_blocks_change_no_bit(p_a, n_bc, c, tol, monkeypatch):
    # with no head block the pass is the per-state loop throughout
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=c * n_bc)
    x = spec.lambda_t * spec.t_cut
    assert timing._head_end(2 * n_bc + 1, x) > 2 * n_bc + 1
    fast = timing._success_moments(spec, tol)
    monkeypatch.setattr(timing, "_head_end", lambda i0, x: i0)
    assert timing._success_moments(spec, tol) == fast


@pytest.mark.parametrize("i0, x", [
    (3, 150.0), (3, 400.0), (1001, 3636.4), (61, 369.3), (11, 7692.3),
    (40_001, 2e5), (3, 1e12), (3, 1e300)])
def test_head_end_is_certified(i0, x):
    end = timing._head_end(i0, x)
    assert (end - i0) % 64 == 0 and end - i0 <= timing._MIXTURE_CAP
    if end > i0:
        # every reset inside the head reads 1, and the 2^-60 holds
        assert regularized_gamma_p(float(end), x) == 1.0
        with mpmath.workdps(30):
            assert mpmath.gammainc(end, x, regularized=True) <= 2.0 ** -60
    else:
        assert x - 10.0 * math.sqrt(x) < i0 + 64


def test_head_end_without_certificate_is_i0(monkeypatch):
    # whole blocks fit below x - 10 sqrt(x), but if u_(k-1) bounds Q(k, x)
    # above 2^-60 the pass keeps no head
    i0, x = 11, 7692.3
    assert timing._head_end(i0, x) > i0
    monkeypatch.setattr(timing, "poisson_term", lambda k, x: 1.0)
    assert timing._head_end(i0, x) == i0


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    for spec in (AttackSpec(t_cut=12000.0, **BCH),
                 AttackSpec(t_cut=INFINITE, **BCH)):
        with pytest.raises(DomainError, match="tolerance"):
            attack_success_prob(spec, tol)
        with pytest.raises(DomainError, match="tolerance"):
            expected_success_time(spec, tol)
        with pytest.raises(DomainError, match="tolerance"):
            sampling_grid(spec, [100.0], tol)


@given(t=st.floats(1.0, 1e6))
@settings(max_examples=60, deadline=None)
def test_density_nonnegative(t):
    spec = AttackSpec(p_a=0.4, n_bc=2, t_cut=INFINITE, lambda_h=1 / 600)
    assert dsa_time_density(spec, t) >= 0.0


@given(
    p_a=st.floats(0.05, 0.95),
    n_bc=st.integers(1, 7),
    mult=st.floats(0.5, 30.0),
)
@settings(max_examples=60, deadline=None)
def test_success_prob_never_exceeds_unbounded(p_a, n_bc, mult):
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=mult * n_bc, lambda_h=1.0)
    bound = p_dsa(AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE))
    assert 0.0 <= attack_success_prob(spec) <= bound + 1e-12
