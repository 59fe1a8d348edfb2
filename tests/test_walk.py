import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublespend import timing, walk
from doublespend.errors import DomainError
from doublespend.timing import attack_success_prob, p_dsa_at_state
from doublespend.walk import (
    INFINITE,
    AttackSpec,
    _deadline,
    ballot_number,
    p_dsa,
    premine_success_prob,
)
from mass_oracles import _ballot_coeff
from race_oracles import exact_p_dsa, full_race, mp_race, rel_error


def lattice_path_count(n, m):
    # independent oracle: count monotone paths from (0,0) to (n, n+m)
    # that never go above the diagonal y = x + m
    if n < 0 or m < 0:
        return 0
    grid = {(0, 0): 1}
    for x in range(n + 1):
        for y in range(n + m + 1):
            if (x, y) == (0, 0):
                continue
            if y > x + m:
                grid[(x, y)] = 0
                continue
            grid[(x, y)] = grid.get((x - 1, y), 0) + grid.get((x, y - 1), 0)
    return grid[(n, n + m)]


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("m", range(6))
def test_ballot_number_counts_lattice_paths(n, m):
    assert ballot_number(n, m) == lattice_path_count(n, m)


def test_ballot_number_catalan_column():
    # m = 0 gives the Catalan numbers
    assert [ballot_number(n, 0) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_ballot_number_generating_function():
    # sum_n ballot(n, k) x^n = (2 / (1 + sqrt(1 - 4x)))^(k+1) for x <= 1/4
    for k in (0, 1, 4):
        for x in (0.0, 0.1, 0.2, 0.24):
            series = sum(ballot_number(n, k) * x ** n for n in range(400))
            closed = (2.0 / (1.0 + math.sqrt(1.0 - 4.0 * x))) ** (k + 1)
            assert series == pytest.approx(closed, rel=1e-9)


def test_ballot_coeff_matches_its_definition():
    # the odd-state weight steps its binomials in m; the definition sums
    # C(j-1, n_bc-1) * ballot(n, 2*n_bc - j) over j = n_bc..2*n_bc
    for n_bc in (1, 2, 3, 7, 20):
        for n in range(40):
            assert _ballot_coeff(n_bc, n) == sum(
                math.comb(j - 1, n_bc - 1) * ballot_number(n, 2 * n_bc - j)
                for j in range(n_bc, 2 * n_bc + 1)), (n_bc, n)


def test_ballot_coeff_three_term_recurrence():
    # the recurrence that steps the state masses of timing, exactly; and
    # W(n+1) < 4 W(n), so with p_a p_h <= 1/4 the overtake masses decrease
    for N in range(1, 61):
        w = [_ballot_coeff(N, n) for n in range(302)]
        for n in range(300):
            assert (n + 2) * (n + N + 2) * (n + N + 3) * w[n + 2] == (
                2 * (n + N + 2) * (4 * n * n + (4 * N + 10) * n + 5 * N + 7) * w[n + 1]
                - 4 * (n + N + 1) * (2 * n + 1) * (2 * n + 2 * N + 1) * w[n]), (N, n)
            assert w[n + 1] < 4 * w[n], (N, n)


def test_ballot_coeff_ratio_recurrence():
    # timing steps the overtake family by delta_n, W(n+1) = 4 (1 - delta_n)
    # W(n): the three-term recurrence with B_n delta_n / (1 - delta_n) split
    # off, whose other coefficients sum to 15n + 9N + 21, so no term is
    # negative
    for N in range(1, 61):
        for n in range(301):
            a = 2 * (n + N + 2) * (4 * n * n + (4 * N + 10) * n + 5 * N + 7)
            b = (n + N + 1) * (2 * n + 1) * (2 * n + 2 * N + 1)
            c = (n + 2) * (n + N + 2) * (n + N + 3)
            assert 4 * c - a + b == 15 * n + 9 * N + 21, (N, n)
    for N in (1, 2, 7, 60):
        w = [_ballot_coeff(N, n) for n in range(302)]
        delta = [Fraction(4 * w[n] - w[n + 1], 4 * w[n]) for n in range(301)]
        for n in range(300):
            b = (n + N + 1) * (2 * n + 1) * (2 * n + 2 * N + 1)
            c = (n + 2) * (n + N + 2) * (n + N + 3)
            assert delta[n + 1] == (15 * n + 9 * N + 21 + b * delta[n] / (1 - delta[n])
                                    ) / (4 * c), (N, n)
            assert 0 < delta[n] < 1, (N, n)


def test_ballot_number_negative():
    assert ballot_number(-1, 2) == 0
    assert ballot_number(2, -1) == 0


@pytest.mark.parametrize("args", [(2.0, 1), (1, 2.0), (True, 1), (1, False),
                                  ("2", 1)])
def test_ballot_number_rejects_non_integers(args):
    # a float used to raise a raw TypeError and True counted as 1
    with pytest.raises(DomainError, match="integers"):
        ballot_number(*args)


def test_ballot_number_stays_exact_when_large():
    v = ballot_number(300, 10)
    assert isinstance(v, int)
    # ratio identity: C(n+1,m)/C(n,m) = (2n+m+1)(2n+m+2)/((n+1)(n+m+2))
    n, m = 300, 10
    lhs = ballot_number(n + 1, m) * (n + 1) * (n + m + 2)
    rhs = ballot_number(n, m) * (2 * n + m + 1) * (2 * n + m + 2)
    assert lhs == rhs


class TestAttackSpec:
    def test_basic_properties(self):
        spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=12000.0, lambda_h=1 / 600)
        assert spec.p_h == pytest.approx(0.65)
        assert spec.lambda_a == pytest.approx((0.35 / 0.65) / 600)
        assert spec.lambda_t == pytest.approx(spec.lambda_a + 1 / 600)
        assert not spec.infinite_cut

    def test_infinite_cut_sentinel(self):
        spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=INFINITE)
        assert spec.infinite_cut
        assert repr(spec.t_cut) == "INFINITE"

    def test_float_inf_rejected(self):
        # the sentinel is deliberate: a bare inf is most often an upstream bug
        with pytest.raises(DomainError, match="INFINITE"):
            AttackSpec(p_a=0.35, n_bc=5, t_cut=float("inf"))

    @pytest.mark.parametrize("p_a", [0.0, 1.0, -0.2, 1.7])
    def test_p_a_out_of_range(self, p_a):
        with pytest.raises(DomainError):
            AttackSpec(p_a=p_a, n_bc=3, t_cut=100.0)

    @pytest.mark.parametrize("n_bc", [0, -1, 2.5, True])
    def test_bad_n_bc(self, n_bc):
        with pytest.raises(DomainError):
            AttackSpec(p_a=0.3, n_bc=n_bc, t_cut=100.0)

    def test_bad_cut_and_rate(self):
        with pytest.raises(DomainError):
            AttackSpec(p_a=0.3, n_bc=3, t_cut=0.0)
        with pytest.raises(DomainError):
            AttackSpec(p_a=0.3, n_bc=3, t_cut=-5.0)
        with pytest.raises(DomainError):
            AttackSpec(p_a=0.3, n_bc=3, t_cut=100.0, lambda_h=0.0)
        for rate in (math.inf, math.nan):
            with pytest.raises(DomainError, match="lambda_h"):
                AttackSpec(p_a=0.3, n_bc=3, t_cut=100.0, lambda_h=rate)


def test_p_dsa_printed_anchors():
    spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=INFINITE)
    assert p_dsa(spec) == pytest.approx(0.2287, abs=5e-5)
    spec = AttackSpec(p_a=0.3, n_bc=1, t_cut=INFINITE)
    assert p_dsa(spec) == pytest.approx(0.30857, abs=5e-6)


def test_p_dsa_majority_attacker_certain():
    for p_a in (0.5, 0.6, 0.9):
        spec = AttackSpec(p_a=p_a, n_bc=4, t_cut=INFINITE)
        assert p_dsa(spec) == 1.0


def test_p_dsa_majority_skips_race_pass(monkeypatch):
    # the unbounded answer is known to be 1, so no O(n_bc) race pass may
    # run; a finite cut runs exactly one, whose totals certify the series
    calls = []

    def counted(spec):
        calls.append(spec)
        return race(spec)

    race = walk._race
    monkeypatch.setattr(walk, "_race", counted)
    monkeypatch.setattr(timing, "_race", counted)
    spec = AttackSpec(p_a=0.6, n_bc=40, t_cut=INFINITE)
    assert p_dsa(spec) == 1.0
    assert attack_success_prob(spec) == 1.0
    assert calls == []
    for p_a in (0.35, 0.6):
        finite = AttackSpec(p_a=p_a, n_bc=40, t_cut=200.0)
        assert 0.0 < attack_success_prob(finite) < 1.0
        assert calls == [finite]
        calls.clear()


def test_p_dsa_hand_computed_tiny_case():
    # n_bc = 1: achieving by state 3 needs (-,+,+) or (+,+,... no: the three
    # first-achieving length-3 sequences weigh p_h * p_a^2 each
    spec = AttackSpec(p_a=0.3, n_bc=1, t_cut=INFINITE)
    assert p_dsa_at_state(spec, 3) == pytest.approx(3 * 0.7 * 0.3 ** 2 * 0.3, rel=1e-12) \
        or p_dsa_at_state(spec, 3) == pytest.approx(0.189, rel=1e-12)


def test_p_dsa_at_state_zero_through_2n():
    spec = AttackSpec(p_a=0.4, n_bc=3, t_cut=INFINITE)
    for i in range(1, 7):
        assert p_dsa_at_state(spec, i) == 0.0
    assert p_dsa_at_state(spec, 7) > 0.0


def test_p_dsa_at_state_even_states_have_mass():
    # (-,-,-,+) first achieves at state 4 for n_bc = 1
    spec = AttackSpec(p_a=0.3, n_bc=1, t_cut=INFINITE)
    assert p_dsa_at_state(spec, 4) == pytest.approx(0.7 * 0.3 ** 3, rel=1e-12)


def test_p_dsa_at_state_sums_to_p_dsa():
    # per-state mass decays like (4 p_a p_h)^(i/2), slowest near p_a = 0.5,
    # so the partial sum needs a couple thousand terms
    for p_a, n_bc in [(0.2, 1), (0.35, 2), (0.42, 3), (0.6, 2)]:
        spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
        total = p_dsa(spec)
        partial = sum(p_dsa_at_state(spec, i) for i in range(1, 2600))
        assert partial <= total + 1e-12
        assert partial == pytest.approx(total, abs=2e-9)


def test_p_dsa_at_state_validation():
    spec = AttackSpec(p_a=0.3, n_bc=2, t_cut=INFINITE)
    for i in (0, 11.0, True, "7"):
        with pytest.raises(DomainError):
            p_dsa_at_state(spec, i)


@given(
    p_a=st.floats(0.01, 0.99),
    n_bc=st.integers(1, 8),
)
@settings(max_examples=150, deadline=None)
def test_p_dsa_in_unit_interval(p_a, n_bc):
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
    v = p_dsa(spec)
    assert 0.0 < v <= 1.0


@given(n_bc=st.integers(1, 6), idx=st.integers(0, 20))
@settings(max_examples=80, deadline=None)
def test_p_dsa_monotone_in_p_a(n_bc, idx):
    grid = [0.02 + 0.46 * k / 21 for k in range(22)]
    lo, hi = grid[idx], grid[idx + 1]
    spec_lo = AttackSpec(p_a=lo, n_bc=n_bc, t_cut=INFINITE)
    spec_hi = AttackSpec(p_a=hi, n_bc=n_bc, t_cut=INFINITE)
    assert p_dsa(spec_lo) < p_dsa(spec_hi)


@pytest.mark.parametrize("p_a,n_bc", [
    (0.05, 1), (0.2, 3), (0.35, 5), (0.45, 9), (0.49, 2), (0.3, 60),
    (0.1, 500), (0.35, 500), (0.45, 200), (0.49, 1000),
])
def test_p_dsa_matches_exact_closed_form(p_a, n_bc):
    # the paper's 1 - sum form in exact rationals; in floats it cancels at
    # depth (2.3e210 times too large at (0.1, 500)). The oracle takes the
    # exact p_h = 1 - p_a, the package the float 1 - p_a: the two conventions
    # differ by 1e-13 relative at (0.45, 1000) and 5e-13 at (0.45, 5000), so
    # the bound stays at 1e-12 (see test_race_against_negative_binomial_sum)
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
    assert rel_error(p_dsa(spec), exact_p_dsa(p_a, n_bc)) <= 1e-12


def _race_grid():
    # corners: tiny p_a, p_a within 1e-4 of 1/2 on both sides, p_a > 1/2,
    # and every n_bc up to 30; then seeded draws out to n_bc 5000; then the
    # ends of the float range: subnormal p_a (a subnormal rho), 1e-300
    # (terms that underflow to 0) and p_h = 1e-12
    shares = [1e-9, 1e-6, 1e-3, 0.05, 0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.49,
              0.4999, 0.49999, 0.5, 0.50001, 0.5001, 0.51, 0.6, 0.75, 0.9,
              0.99, 0.999999]
    depths = list(range(1, 31)) + [60, 100, 200, 500, 1000, 2000, 5000]
    specs = [(p_a, n_bc) for p_a in shares for n_bc in depths]
    rng = random.Random(20140815)
    while len(specs) < 2100:
        p_a = rng.choice([rng.uniform(0.0, 1.0), 0.5 + rng.uniform(-1e-4, 1e-4),
                          10.0 ** rng.uniform(-9.0, -1.0)])
        n_bc = round(10.0 ** rng.uniform(0.0, math.log10(5000.0)))
        if 0.0 < p_a < 1.0:
            specs.append((p_a, n_bc))
    ends = [5e-324, 1e-310, 1e-300, 1.0 - 1e-12]
    return specs + [(p_a, n_bc) for p_a in ends for n_bc in depths]


def test_race_stop_rule_changes_no_bit():
    # the binomial-tail sums stop once no later term can change them; the
    # sums over all n_bc terms must give the same two floats to the last bit
    specs = _race_grid()
    assert len(specs) >= 2000
    for p_a, n_bc in specs:
        spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
        assert walk._race(spec) == full_race(spec), (p_a, n_bc)


@pytest.mark.parametrize("p_a,n_bc", [
    (0.1, 5), (0.1, 300), (0.45, 1000), (0.45, 5000), (0.49, 20000),
    (0.49999, 3000), (0.49999, 20000), (0.50001, 3000), (0.50001, 20000),
    (0.9, 5000),
])
def test_race_against_negative_binomial_sum(p_a, n_bc):
    # the race sum itself at 40 digits under the float p_h of AttackSpec, so
    # past n_bc 1000, where the Fraction oracles (exact p_h) take too long
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
    got_p, got_mean = walk._race(spec)
    want_p, want_mean = mp_race(p_a, n_bc)
    assert abs(got_p - want_p) <= 2e-14 * want_p
    assert abs(got_mean - want_mean) <= 3e-14 * want_mean


def test_p_dsa_underflows_to_zero():
    # the true value is about 1e-363, below the smallest float
    spec = AttackSpec(p_a=0.05, n_bc=500, t_cut=INFINITE)
    assert exact_p_dsa(0.05, 500) < Fraction(10) ** -360
    assert p_dsa(spec) == 0.0


def test_premine_anchor():
    spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=INFINITE)
    assert premine_success_prob(spec) == pytest.approx(0.0244, abs=5e-5)
    assert premine_success_prob(spec) == pytest.approx((0.35 / 0.65) ** 6, rel=1e-12)


@given(p_a=st.floats(0.01, 0.49), n_bc=st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_premine_strictly_easier_target_still_loses(p_a, n_bc):
    # recovering from behind must beat needing an immediate n_bc+1 streak
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
    assert p_dsa(spec) > premine_success_prob(spec)


def test_deadline_is_c_block_intervals_per_confirmation():
    assert _deadline(2.0, 3, 600.0) == 3600.0
    assert _deadline(4, 5, 1.0) == 20.0
    assert _deadline(math.inf, 5, 600.0) is INFINITE
    # any other value is left to AttackSpec to refuse
    assert _deadline(-math.inf, 5, 600.0) == -math.inf
    assert math.isnan(_deadline(math.nan, 5, 600.0))
