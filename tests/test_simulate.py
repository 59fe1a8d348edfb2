"""Monte Carlo engine and exact-enumeration oracle tests.

The sampler is checked three independent ways: bit-exact reproducibility
under fixed stream keys, statistical agreement with the analytic success
probability and success-time mean, and exact agreement of the small-state
enumeration with the closed-form per-state mass.
"""

import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublespend import (
    INFINITE,
    AttackSpec,
    CostGuardError,
    DomainError,
    EconomicModel,
    attack_success_prob,
    enumerate_exact,
    estimate,
    estimate_profit,
    expected_profit,
    expected_success_time,
    opex,
    p_dsa,
    p_dsa_at_state,
    required_value,
    reward,
    simulate_one,
)
from doublespend import simulate as simulate_module
from doublespend.simulate import (
    _BLOCK_ELEMENTS,
    _CHUNK,
    _MAX_CHUNKS,
    TrialOutcome,
    _check_cap,
    _first_chunks,
)

BCH = AttackSpec(p_a=0.35, n_bc=5, t_cut=12000.0, lambda_h=1 / 600)
SMALL = AttackSpec(p_a=0.35, n_bc=2, t_cut=4800.0, lambda_h=1 / 600)


class TestDeterminism:
    def test_same_key_same_outcome(self):
        a = simulate_one(SMALL, (42, 7))
        b = simulate_one(SMALL, (42, 7))
        assert a == b

    def test_same_key_same_outcome_two_clocks(self):
        a = simulate_one(SMALL, (42, 7), independent_clocks=True)
        b = simulate_one(SMALL, (42, 7), independent_clocks=True)
        assert a == b

    def test_distinct_seeds_vary(self):
        outs = {simulate_one(SMALL, (0, k)) for k in range(50)}
        assert len(outs) > 10

    def test_estimate_bit_exact_rerun(self):
        a = estimate(SMALL, trials=500, master_seed=3)
        b = estimate(SMALL, trials=500, master_seed=3)
        assert a == b  # every float field bit-identical

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_any_seed_reproducible(self, seed):
        assert simulate_one(SMALL, seed) == simulate_one(SMALL, seed)

    def test_large_seeds_keep_distinct_streams(self):
        # keys above 2**53 must not collapse through a float cast
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = {simulate_one(SMALL, 2 ** 63 + k) for k in range(10)}
        assert len(outs) > 5


def test_philox_known_answer():
    # Random123's published Philox4x64-10 block for counter 0, key 0. numpy
    # steps the counter before each block, so the state starts at 2^256 - 1.
    words = np.random.Philox(key=[0, 0], counter=[2 ** 64 - 1] * 4).random_raw(4)
    assert [f"{w:016x}" for w in words.tolist()] == [
        "16554d9eca36314c", "db20fe9d672d0fdc", "d7e772cee186176b", "7e68b68aec7ba23b"]


def _hand_trial(spec, master_seed, k, event_cap):
    """Trial k walked one arrival at a time from the documented counters."""
    first_len = _first_chunks(spec, event_cap) * _CHUNK
    cut = math.inf if spec.infinite_cut else spec.t_cut
    t, a = 0.0, 0
    for j in range(event_cap):
        if j < first_len:
            counter = k * first_len // 2 + j // 2
        else:
            counter = (j - first_len) // 2 + (k << 64) + (1 << 128)
        philox = np.random.Philox(key=master_seed, counter=(counter - 1) % 2 ** 256)
        w0, w1 = philox.random_raw(4).tolist()[2 * (j % 2):2 * (j % 2) + 2]
        t += -np.log([((w0 >> 11) + 1) * 2.0 ** -53])[0] / spec.lambda_t
        if t >= cut:
            return TrialOutcome(False, None, a, j - a)
        a += (w1 >> 11) * 2.0 ** -53 < spec.p_a
        h = j + 1 - a
        if h >= spec.n_bc and a > h:
            return TrialOutcome(True, float(t), a, h)
    return TrialOutcome(False, None, a, event_cap - a, truncated=True)


@pytest.mark.parametrize("spec,event_cap", [
    # first pass of 48 arrivals at counter k*24 + j//2
    (AttackSpec(p_a=0.35, n_bc=5, t_cut=12000.0, lambda_h=1 / 600), None),
    # first pass of 48 arrivals; every trial needs 61 or more, so it goes on
    # to the counters (m, k, 1, 0)
    (AttackSpec(p_a=0.45, n_bc=30, t_cut=INFINITE, lambda_h=1 / 600), 200),
])
@pytest.mark.parametrize("k", [0, 1, 2 ** 64 - 1])
def test_counter_layout_by_hand(spec, event_cap, k):
    # k = 2^64 - 1 carries the first-pass counter into word 1
    seed = 2 ** 63 + 11
    by_hand = _hand_trial(spec, seed, k, _check_cap(spec, event_cap))
    assert simulate_one(spec, (seed, k), event_cap) == by_hand


@pytest.mark.parametrize("x", [1e-6, 1.0, 30.8, 35.0, 40.5, 218.0, 1e9])
@pytest.mark.parametrize("event_cap", [_check_cap(BCH, None), 30])
def test_first_pass_covers_mean_plus_two_sd(x, event_cap):
    # whole chunks over x + 2 sqrt(x) + 1 arrivals, unless the chunk limit
    # or the event cap (rounded up to a whole chunk) comes first
    spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=x * 0.65 * 600, lambda_h=1 / 600)
    x = spec.lambda_t * spec.t_cut
    first_len = _first_chunks(spec, event_cap) * _CHUNK
    cap_len = min(_MAX_CHUNKS, -(-event_cap // _CHUNK)) * _CHUNK
    need = x + 2.0 * math.sqrt(x) + 1.0
    assert first_len == cap_len or first_len >= need > first_len - _CHUNK
    assert first_len <= cap_len


def test_few_trials_open_a_second_pass(monkeypatch):
    # at the case-study spec (x = 30.8) the 48-arrival first pass settles
    # all but at most P(Poisson(30.8) >= 48) = 0.24% of the trials
    later_rows = []
    settle = simulate_module._settle

    def counting_settle(spec, words, events, *rest):
        if events > 0:
            later_rows.append(words.shape[0])
        return settle(spec, words, events, *rest)

    monkeypatch.setattr(simulate_module, "_settle", counting_settle)
    trials = 20_000
    estimate(BCH, trials, master_seed=2 ** 63 + 17)
    assert _first_chunks(BCH, _check_cap(BCH, None)) == 1
    assert sum(later_rows) <= trials // 100


class TestValidation:
    @pytest.mark.parametrize("seed", [-1, 2 ** 64, True, 1.0])
    def test_bad_master_seed(self, seed):
        with pytest.raises(DomainError):
            estimate(SMALL, trials=10, master_seed=seed)

    def test_bad_trial_count(self):
        with pytest.raises(DomainError):
            estimate(SMALL, trials=0, master_seed=1)

    @pytest.mark.parametrize("trials", [2.5, 3.0, True, "3"])
    def test_trial_count_must_be_integer(self, trials):
        with pytest.raises(DomainError, match="trial count must be an integer"):
            estimate(SMALL, trials=trials, master_seed=1)
        with pytest.raises(DomainError, match="trial count must be an integer"):
            estimate_profit(TestProfitEstimation.MODEL, SMALL, trials=trials,
                            master_seed=1)

    def test_cap_checked_before_any_trial(self):
        open_ended = AttackSpec(p_a=0.35, n_bc=1, t_cut=INFINITE,
                                lambda_h=1 / 600)
        for cap in (None, 0):
            buf = io.StringIO()
            with pytest.raises(DomainError):
                estimate(open_ended, trials=10, master_seed=1, event_cap=cap,
                         trace_to=buf)
            assert buf.getvalue() == ""

    def test_bad_event_cap(self):
        with pytest.raises(DomainError):
            simulate_one(SMALL, 1, event_cap=0)

    def test_stream_key_of_three_words(self):
        with pytest.raises(DomainError) as exc:
            simulate_one(SMALL, (1, 2, 3))
        assert str(exc.value) == "stream key must hold two 64-bit words, got 3"

    @pytest.mark.parametrize("cap", [2.5, 30.0, True])
    def test_event_cap_must_be_integer(self, cap):
        with pytest.raises(DomainError, match="event cap must be an integer"):
            estimate(SMALL, trials=5, master_seed=1, event_cap=cap)
        with pytest.raises(DomainError, match="event cap must be an integer"):
            simulate_one(SMALL, 1, event_cap=cap)

    def test_unbounded_subhalf_needs_explicit_cap(self):
        open_ended = AttackSpec(p_a=0.35, n_bc=1, t_cut=INFINITE,
                                lambda_h=1 / 600)
        with pytest.raises(DomainError):
            simulate_one(open_ended, 1)
        # an explicit cap makes the trial well-defined again
        simulate_one(open_ended, 1, event_cap=50)

    def test_unbounded_majority_runs_without_cap(self):
        spec = AttackSpec(p_a=0.6, n_bc=1, t_cut=INFINITE, lambda_h=1 / 600)
        out = simulate_one(spec, 5)
        assert out.success and out.t_dsa > 0.0


def test_estimate_matches_analytic_within_three_se():
    summary = estimate(SMALL, trials=20_000, master_seed=11)
    p_ref = attack_success_prob(SMALL)
    t_ref = expected_success_time(SMALL)
    assert abs(summary.p_as_hat - p_ref) < 3 * summary.se_p_as
    assert abs(summary.mean_tas - t_ref) < 3 * summary.se_tas
    assert summary.mean_profit is None
    assert summary.truncated_trials == 0


def test_two_clock_route_agrees_with_merged():
    merged = estimate(SMALL, trials=5_000, master_seed=2)
    split = estimate(SMALL, trials=5_000, master_seed=902,
                     independent_clocks=True)
    pooled = math.hypot(merged.se_p_as, split.se_p_as)
    assert abs(merged.p_as_hat - split.p_as_hat) < 3 * pooled


def test_vanishing_attacker_share_never_succeeds():
    # stand-in for a powerless attacker: the spec type requires p_a > 0
    feeble = AttackSpec(p_a=1e-12, n_bc=1, t_cut=6000.0, lambda_h=1 / 600)
    summary = estimate(feeble, trials=200, master_seed=0)
    assert summary.successes == 0
    assert summary.p_as_hat == 0.0
    assert math.isnan(summary.mean_tas)


@pytest.mark.parametrize("independent_clocks", [False, True])
def test_truncation_counted_separately(independent_clocks):
    # cap far below the events needed to reach a distant cut-time
    far = AttackSpec(p_a=0.35, n_bc=2, t_cut=1e6, lambda_h=1 / 600)
    summary = estimate(far, trials=50, master_seed=1, event_cap=10,
                       independent_clocks=independent_clocks)
    assert summary.truncated_trials > 0
    counted = summary.trials - summary.truncated_trials
    if counted:
        assert summary.p_as_hat == summary.successes / counted
    else:
        assert math.isnan(summary.p_as_hat)


def test_unbounded_survivors_are_truncated_not_failed():
    open_ended = AttackSpec(p_a=0.35, n_bc=1, t_cut=INFINITE,
                            lambda_h=1 / 600)
    summary = estimate(open_ended, trials=300, master_seed=8, event_cap=30)
    # with no cut-time a trial can only succeed or be cut off by the cap
    assert summary.successes + summary.truncated_trials == summary.trials
    assert summary.truncated_trials > 0


def test_trace_stream():
    buf = io.StringIO()
    summary = estimate(SMALL, trials=40, master_seed=4, trace_to=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "trial,success,t_dsa,blocks_a,blocks_h"
    assert len(lines) == 41
    successes = 0
    for line in lines[1:]:
        trial, success, t_dsa, blocks_a, blocks_h = line.split(",")
        assert success in {"0", "1"}
        if success == "1":
            successes += 1
            assert float(t_dsa) > 0.0
        else:
            assert t_dsa == ""
        assert int(blocks_a) >= 0 and int(blocks_h) >= 0
    assert successes == summary.successes


def _block_rows(spec, event_cap):
    chunks = _first_chunks(spec, _check_cap(spec, event_cap))
    return max(1, _BLOCK_ELEMENTS // (_CHUNK * chunks))


def _trace_rows(spec, trials, seed, event_cap, independent_clocks=False):
    buf = io.StringIO()
    estimate(spec, trials, seed, event_cap=event_cap,
             independent_clocks=independent_clocks, trace_to=buf)
    return buf.getvalue().splitlines()[1:]


# a finite cut with short and with multi-chunk trials, and no cut on both
# sides of p_a = 1/2; 130 is not a multiple of the 48-arrival chunk
BATCH_SPECS = [
    (AttackSpec(p_a=0.35, n_bc=5, t_cut=12000.0, lambda_h=1 / 600), 130),
    (AttackSpec(p_a=0.45, n_bc=30, t_cut=72000.0, lambda_h=1 / 600), 130),
    (AttackSpec(p_a=0.6, n_bc=3, t_cut=INFINITE, lambda_h=1 / 600), 130),
    (AttackSpec(p_a=0.3, n_bc=2, t_cut=INFINITE, lambda_h=1 / 600), 130),
    (AttackSpec(p_a=0.35, n_bc=5, t_cut=12000.0, lambda_h=1 / 600), None),
    # every trial needs more arrivals than its 48-arrival first pass, so
    # each goes on through several passes on the counters (m, k, 1, 0)
    (AttackSpec(p_a=0.45, n_bc=30, t_cut=INFINITE, lambda_h=1 / 600), 1000),
]


@pytest.mark.parametrize("independent_clocks", [False, True])
@pytest.mark.parametrize("spec,event_cap", BATCH_SPECS)
def test_batched_trials_replay_alone(spec, event_cap, independent_clocks):
    # both trial sources yield the same rows to estimate and simulate_one
    trials = 3 * _block_rows(spec, event_cap) + 7
    seed = 2 ** 63 + 11
    rows = _trace_rows(spec, trials, seed, event_cap, independent_clocks)
    for k, row in enumerate(rows):
        out = simulate_one(spec, (seed, k), event_cap, independent_clocks)
        t_dsa = "" if out.t_dsa is None else repr(out.t_dsa)
        assert row == f"{k},{int(out.success)},{t_dsa},{out.blocks_a},{out.blocks_h}"


@pytest.mark.parametrize("spec,event_cap", BATCH_SPECS)
def test_batched_trials_do_not_depend_on_run_length(spec, event_cap):
    trials = 3 * _block_rows(spec, event_cap) + 7
    short = _trace_rows(spec, trials, 5, event_cap)
    assert _trace_rows(spec, 2 * trials, 5, event_cap)[:trials] == short


def _peak_bytes(spec, trials, event_cap=None):
    tracemalloc.start()
    try:
        estimate(spec, trials, 3, event_cap=event_cap)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_trials_or_cap():
    long_walk = AttackSpec(p_a=0.45, n_bc=30, t_cut=72000.0, lambda_h=1 / 600)
    open_ended = AttackSpec(p_a=0.3, n_bc=2, t_cut=INFINITE, lambda_h=1 / 600)
    _peak_bytes(long_walk, 10)  # leave first-call allocations out
    few = _peak_bytes(long_walk, 1_000)
    many = _peak_bytes(long_walk, 10_000)
    # keeping a number per trial would add at least 9_000 * 8 bytes
    assert many - few < 64 * 1024
    assert many < 3 * 2 ** 20
    # trials that run to a cap of 200_000 arrivals stay within the same bound
    assert _peak_bytes(open_ended, 3, event_cap=200_000) < 3 * 2 ** 20


class TestProfitEstimation:
    MODEL = EconomicModel(gamma=0.422, beta=0.44)

    def test_rejects_unbounded_cut(self):
        open_ended = AttackSpec(p_a=0.6, n_bc=1, t_cut=INFINITE,
                                lambda_h=1 / 600)
        with pytest.raises(DomainError):
            estimate_profit(self.MODEL, open_ended, trials=10, master_seed=0)

    def test_mean_profit_near_break_even_value(self):
        model = EconomicModel(gamma=0.422, beta=0.44,
                              value=required_value(self.MODEL, BCH))
        summary = estimate_profit(model, BCH, trials=20_000, master_seed=17)
        target = expected_profit(model, BCH)
        # Popoviciu bound on the per-trial profit spread gives a worst-case
        # standard error; 4 of those is a comfortable deterministic band
        lam_a = BCH.lambda_a
        lo = -opex(model, lam_a, BCH.t_cut)
        hi = model.value + reward(model, lam_a, BCH.t_cut)
        se_bound = (hi - lo) / (2 * math.sqrt(summary.trials))
        assert abs(summary.mean_profit - target) < 4 * se_bound

    def test_mean_profit_matches_replayed_outcomes(self):
        model = EconomicModel(gamma=0.422, beta=0.44, value=10.0)
        trials = 400
        summary = estimate_profit(model, SMALL, trials=trials, master_seed=6)
        lam_a = SMALL.lambda_a
        total = 0.0
        for k in range(trials):
            out = simulate_one(SMALL, (6, k))
            if out.success:
                total += model.value + reward(model, lam_a, out.t_dsa) \
                    - opex(model, lam_a, out.t_dsa)
            else:
                total += -opex(model, lam_a, SMALL.t_cut)
        assert summary.mean_profit == pytest.approx(total / trials, rel=1e-12)


def _brute_force_state_mass(p_a: Fraction, n_bc: int, i: int) -> Fraction:
    """Sum the exact mass of attribution strings first achieving at step i.

    Walks all 2^i strings directly; bit set = honest arrival.
    """
    p_h = 1 - p_a
    total = Fraction(0)
    for bits in range(1 << i):
        height = honest = 0
        hit_at = None
        for k in range(i):
            if (bits >> k) & 1:
                honest += 1
                height += 1
            else:
                height -= 1
            if honest >= n_bc and height < 0:
                hit_at = k + 1
                break
        if hit_at == i:
            total += p_h ** honest * p_a ** (i - honest)
    return total


class TestEnumerateExact:
    def test_guard_rails(self):
        for i_max in (0, 2.5, 11.0, True):
            with pytest.raises(DomainError):
                enumerate_exact(SMALL, i_max)
        with pytest.raises(CostGuardError):
            enumerate_exact(SMALL, 25)

    @pytest.mark.parametrize("n_bc", [1, 2])
    @pytest.mark.parametrize("p_a", [0.35, 0.5])
    def test_matches_brute_force(self, n_bc, p_a):
        spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE, lambda_h=1.0)
        masses = enumerate_exact(spec, 10)
        frac = Fraction(p_a)
        for i in range(1, 11):
            assert masses[i - 1] == float(_brute_force_state_mass(frac, n_bc, i))

    @pytest.mark.parametrize("n_bc", [1, 2, 3])
    @pytest.mark.parametrize("p_a", [0.1, 0.35, 0.65])
    def test_matches_closed_form(self, n_bc, p_a):
        spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE, lambda_h=1.0)
        masses = enumerate_exact(spec, 12)
        for i in range(1, 13):
            assert masses[i - 1] == pytest.approx(
                p_dsa_at_state(spec, i), abs=1e-14)

    def test_partial_sums_bounded_by_total(self):
        spec = AttackSpec(p_a=0.35, n_bc=2, t_cut=INFINITE, lambda_h=1.0)
        total = p_dsa(spec)
        running = 0.0
        for mass in enumerate_exact(spec, 20):
            assert mass >= 0.0
            running += mass
            assert running <= total + 1e-12
        assert running > 0.5 * total
