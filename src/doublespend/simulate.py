"""Independent validation: process-level simulation and exact enumeration.

The simulation draws the merged block-arrival process directly (exponential
inter-arrival gaps at the total rate, each arrival attributed to the
attacker with probability p_a) and replays the walk until the attack
achieves or the cut-time passes. From the analytic modules it takes only
the AttackSpec type and walk._cut_seconds, the pointwise economics.opex and
reward, and economics._fails_forever (an unbounded cut below one half may
never end); no probability, series or race code, which is what makes it an
oracle.

Streams are counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11). A run seeded master_seed reads numpy's
Philox4x64-10 under the key (master_seed, 0); the trial index k and the
arrival index j pick the counter. One counter's block of four 64-bit words
serves two arrivals, (w0, w1) then (w2, w3). L0, the arrivals of the
spec's first pass (`_first_chunks` * `_CHUNK`), is the fewest whole
48-arrival chunks that hold x + 2 sqrt(x) + 1 arrivals, x = lambda_t *
t_cut being the mean number of arrivals before the cut (with an unbounded
cut, one chunk); it is capped at `_MAX_CHUNKS` chunks and at the event cap
rounded up to a whole chunk. Then:

- arrival j < L0 of trial k reads the counter k*L0/2 + j//2, a 128-bit
  count in words 0 and 1 with words 2 and 3 zero;
- arrival j >= L0 reads the counter (m, k, 1, 0), m = (j - L0)//2.

An arrival's gap is the exponential inverse CDF -ln(u)/lambda_t with
u = ((w0 >> 11) + 1) 2^-53, and the arrival is the attacker's when
(w1 >> 11) 2^-53 < p_a. A trial's outcome thus depends only on the spec,
the event cap, master_seed and k: results are bit-identical whatever the
block size, run length or execution order, and trials could be farmed
out concurrently without reordering randomness.

Execution is batched. The first passes of a block of trials are one run
of counters, so one draw covers them all, and the block is resolved with
a few array operations; a trial still open then draws its later arrivals
on its own. Summaries fold the trials in trial order, so they do not
depend on the block size, and memory stays bounded whatever the trial
count and event cap.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .economics import EconomicModel, _fails_forever, opex, reward
from .errors import CostGuardError, DomainError, _is_int
from .walk import AttackSpec, _cut_seconds

_EVENT_CAP_DEFAULT = 10_000_000
_CHUNK = 48
# arrivals per array in one block of the batched walk
_BLOCK_ELEMENTS = 16384
_MAX_CHUNKS = _BLOCK_ELEMENTS // _CHUNK
_WORD = 2 ** 64 - 1
_ENUM_MAX_STATES = 24


@dataclass(frozen=True)
class TrialOutcome:
    """One simulated attempt.

    t_dsa is the achieving time in seconds on success and None otherwise;
    truncated marks an unbounded-cut trial stopped by the event cap, which
    is neither a success nor a failure and is counted separately.
    """

    success: bool
    t_dsa: float | None
    blocks_a: int
    blocks_h: int
    truncated: bool = False


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregates of an estimation run.

    mean_tas / var_tas are the sample mean and (ddof=1) variance of the
    achieving time over successful trials (NaN when there are none, or when
    fewer than two for the variance); se_p_as and se_tas are standard errors
    computed from observed counts and moments only. mean_profit is filled by
    estimate_profit and None otherwise. truncated_trials counts event-cap
    stops, excluded from every other aggregate.
    """

    trials: int
    successes: int
    p_as_hat: float
    mean_tas: float
    var_tas: float
    se_p_as: float
    se_tas: float
    seed: int
    mean_profit: float | None = None
    truncated_trials: int = 0


def _check_seed(seed: int) -> int:
    if not _is_int(seed) or not 0 <= seed < 2 ** 64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def _check_count(count: int, label: str) -> int:
    if not _is_int(count):
        raise DomainError(f"{label} must be an integer, got {count!r}")
    if count < 1:
        raise DomainError(f"{label} must be positive, got {count}")
    return count


def _check_cap(spec: AttackSpec, event_cap: int | None) -> int:
    if event_cap is None:
        if _fails_forever(spec):
            raise DomainError(
                "unbounded cut-time with attacker share below one half needs "
                "an explicit event_cap: failing trials never terminate"
            )
        return _EVENT_CAP_DEFAULT
    return _check_count(event_cap, "event cap")


def simulate_one(spec: AttackSpec, stream_seed: int | tuple[int, int],
                 event_cap: int | None = None,
                 independent_clocks: bool = False) -> TrialOutcome:
    """Run trial k of the run seeded master_seed; stream_seed is (master_seed, k).

    A single 64-bit integer s is short for (s, 0). The trial draws what the
    module docstring lays out for it, so it equals trial k of `estimate`
    bit for bit. It succeeds at the first arrival where the honest chain
    has at least n_bc blocks and the attacker chain is strictly longer,
    provided that arrival lands before the cut-time; it fails when the
    cut-time passes first; with an unbounded cut it is cut off (truncated)
    after event_cap arrivals. With independent_clocks it instead races two
    exponential clocks on a Generator over Philox keyed (master_seed, k).

    An unbounded cut with p_a < 0.5 requires an explicit event_cap: such a
    walk fails with positive probability only by running forever, so a trial
    without a cap could never report failure.
    """
    event_cap = _check_cap(spec, event_cap)
    if isinstance(stream_seed, tuple):
        key = tuple(_check_seed(word) for word in stream_seed)
        if len(key) != 2:
            raise DomainError(
                f"stream key must hold two 64-bit words, got {len(key)}"
            )
    else:
        key = (_check_seed(stream_seed), 0)
    source = _clocks if independent_clocks else _walk
    success, t_dsa, blocks_a, blocks_h, truncated = next(source(spec, *key, 1, event_cap))
    return TrialOutcome(success=success, t_dsa=t_dsa if success else None,
                        blocks_a=blocks_a, blocks_h=blocks_h, truncated=truncated)


def _first_chunks(spec: AttackSpec, event_cap: int) -> int:
    # enough whole chunks to cover the arrivals before the cut in about 98%
    # of trials: mean x plus two standard deviations of a Poisson(x) count.
    # A longer pass would draw and settle arrivals that most trials never
    # reach; the few trials still open go on to the later passes.
    if spec.infinite_cut:
        chunks = 1.0
    else:
        x = spec.lambda_t * spec.t_cut
        chunks = (x + 2.0 * math.sqrt(x) + 1.0) / _CHUNK
    return min(math.ceil(min(chunks, _MAX_CHUNKS)), -(-event_cap // _CHUNK))


def _walk(spec: AttackSpec, master_seed: int, first: int, count: int,
          event_cap: int) -> Iterator[tuple]:
    """Walk trials first .. first + count - 1 of the run seeded master_seed.

    Yields one row (success, t_dsa, blocks_a, blocks_h, truncated) per
    trial, in trial order; t_dsa is NaN where a trial did not succeed.
    Trials are resolved a block at a time, and those still open after the
    first pass go on with twice as many arrivals per pass. No array holds
    more than about _BLOCK_ELEMENTS arrivals.
    """
    counter = [0, 0, 0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": [master_seed, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bitgen = np.random.Philox()

    def draw(at: int, arrivals: int) -> np.ndarray:
        # the words of `arrivals` arrivals from counter `at` on; numpy steps
        # the counter before each block, so the state starts one below
        below = (at - 1) % 2 ** 256
        counter[:] = [below >> shift & _WORD for shift in (0, 64, 128, 192)]
        bitgen.state = state
        return bitgen.random_raw(2 * arrivals).reshape(arrivals, 2)

    first_len = _first_chunks(spec, event_cap) * _CHUNK
    block_rows = max(1, _BLOCK_ELEMENTS // first_len)
    for start in range(first, first + count, block_rows):
        n = min(block_rows, first + count - start)
        out = (np.zeros(n, dtype=bool), np.full(n, math.nan),
               np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
               np.zeros(n, dtype=bool))
        t_base = np.zeros(n)
        a_base = np.zeros(n, dtype=np.int64)
        words = draw(start * first_len // 2, n * first_len).reshape(n, first_len, 2)
        events = min(first_len, event_cap)
        open_rows = _settle(spec, words[:, :events], 0, event_cap, np.arange(n), out,
                            t_base, a_base)
        span = first_len
        while open_rows.size:
            span = min(2 * span, _MAX_CHUNKS * _CHUNK)
            drawn = min(span, event_cap - events)
            rows = max(1, _BLOCK_ELEMENTS // drawn)
            still_open = []
            for lo in range(0, open_rows.size, rows):
                pos = open_rows[lo:lo + rows]
                words = np.empty((pos.size, drawn, 2), dtype=np.uint64)
                for row, p in zip(words, pos.tolist()):
                    row[:] = draw((1 << 128) + ((start + p) << 64)
                                  + (events - first_len) // 2, drawn)
                still_open.append(_settle(spec, words, events, event_cap, pos, out,
                                          t_base, a_base))
            open_rows = np.concatenate(still_open)
            events += drawn
        yield from zip(*(column.tolist() for column in out))


def _settle(spec: AttackSpec, words: np.ndarray, events: int, event_cap: int,
            pos: np.ndarray, out: tuple[np.ndarray, ...], t_base: np.ndarray,
            a_base: np.ndarray) -> np.ndarray:
    """Resolve the arrivals drawn for the trials at block positions pos.

    Row r of words holds the two random words of each of the next arrivals
    of the trial at pos[r], `events` arrivals having gone before. A row
    stops at its first achieving arrival if that comes before its first
    arrival at or after the cut, and otherwise fails there. Outcomes go
    into out; rows that reach the event cap are truncated. Returns the
    positions still open, whose last time and attacker count are carried
    in t_base and a_base.
    """
    success, t_dsa, blocks_a, blocks_h, truncated = out
    rows, drawn = words.shape[:2]
    # gap -ln(u)/lambda_t, u = ((w0 >> 11) + 1) 2^-53 in (0, 1], formed
    # exactly as (w0 >> 11) 2^-53 + 2^-53. Column 0 carries the time so far,
    # so the times are one running sum over the trial, wherever passes end.
    times = np.empty((rows, drawn + 1))
    times[:, 0] = t_base[pos]
    gaps = times[:, 1:]
    np.multiply(words[:, :, 0] >> 11, 2.0 ** -53, out=gaps)
    gaps += 2.0 ** -53
    np.log(gaps, out=gaps)
    gaps /= -spec.lambda_t
    np.cumsum(times, axis=1, out=times)
    times = times[:, 1:]
    # attacker blocks before each arrival (column 0) and after it. The
    # arrival is the attacker's when (w1 >> 11) 2^-53 < p_a, that is when
    # w1 < ceil(p_a 2^53) 2^11.
    a_cum = np.empty((rows, drawn + 1), dtype=np.int64)
    a_cum[:, 0] = a_base[pos]
    np.less(words[:, :, 1], np.uint64(math.ceil(spec.p_a * 2 ** 53) << 11),
            out=a_cum[:, 1:])
    np.cumsum(a_cum, axis=1, out=a_cum)
    arrivals = np.arange(events + 1, events + drawn + 1)
    # h = arrivals - a honest blocks: achieved when h >= n_bc and a > h
    achieved = (a_cum[:, 1:] <= arrivals - spec.n_bc) & (a_cum[:, 1:] > arrivals // 2)
    cut = times >= _cut_seconds(spec)
    stop = achieved | cut
    at = stop.argmax(axis=1)
    row = np.arange(rows)
    stopped = stop[row, at]
    won = stopped & ~cut[row, at]
    lost = stopped & ~won
    i = pos[won]
    success[i] = True
    t_dsa[i] = times[won, at[won]]
    blocks_a[i] = a_cum[won, at[won] + 1]
    blocks_h[i] = arrivals[at[won]] - blocks_a[i]
    # a trial cut off at an arrival reports the blocks found before it
    i = pos[lost]
    blocks_a[i] = a_cum[lost, at[lost]]
    blocks_h[i] = events + at[lost] - blocks_a[i]
    going = ~stopped
    i = pos[going]
    a_base[i] = a_cum[going, -1]
    if events + drawn == event_cap:
        truncated[i] = True
        blocks_a[i] = a_base[i]
        blocks_h[i] = event_cap - a_base[i]
        return pos[:0]
    t_base[i] = times[going, -1]
    return i


def _clocks(spec: AttackSpec, master_seed: int, first: int, count: int,
            event_cap: int) -> Iterator[tuple]:
    # _walk's rows from the self-check variant: two independent exponential
    # clocks racing, no attribution draw; statistically identical to the
    # merged process. Trial k draws from a Generator on Philox keyed
    # (master_seed, k), the dtype keeping seeds above 2**53 exact.
    n_bc = spec.n_bc
    t_cut = _cut_seconds(spec)
    scale_a = 1.0 / spec.lambda_a
    scale_h = 1.0 / spec.lambda_h
    for k in range(first, first + count):
        key = np.array((master_seed, k), dtype=np.uint64)
        draw = np.random.Generator(np.random.Philox(key=key)).standard_exponential
        next_a = draw() * scale_a
        next_h = draw() * scale_h
        blocks_a = blocks_h = 0
        for _ in range(event_cap):
            now = min(next_a, next_h)
            if now >= t_cut:
                yield False, math.nan, blocks_a, blocks_h, False
                break
            if next_a < next_h:
                blocks_a += 1
                next_a = now + draw() * scale_a
            else:
                blocks_h += 1
                next_h = now + draw() * scale_h
            if blocks_h >= n_bc and blocks_a > blocks_h:
                yield True, now, blocks_a, blocks_h, False
                break
        else:
            yield False, math.nan, blocks_a, blocks_h, True


def _aggregate(outcomes: Iterable[tuple[bool, float, int, int, bool]],
               trials: int, master_seed: int,
               profit_of: Callable[[float | None], float] | None = None,
               trace_to: IO[str] | None = None) -> SimulationSummary:
    # outcomes are (success, t_dsa, blocks_a, blocks_h, truncated) in trial
    # order; t_dsa is read only on success
    writer = None
    if trace_to is not None:
        writer = csv.writer(trace_to)
        writer.writerow(["trial", "success", "t_dsa", "blocks_a", "blocks_h"])
    successes = 0
    truncated = 0
    sum_t = 0.0
    sum_t2 = 0.0
    sum_profit = 0.0
    counted = 0
    for k, (success, t_dsa, blocks_a, blocks_h, cut_off) in enumerate(outcomes):
        if writer is not None:
            writer.writerow([k, int(success), repr(t_dsa) if success else "",
                             blocks_a, blocks_h])
        if cut_off:
            truncated += 1
            continue
        counted += 1
        if success:
            successes += 1
            sum_t += t_dsa
            sum_t2 += t_dsa * t_dsa
        if profit_of is not None:
            sum_profit += profit_of(t_dsa if success else None)
    p_hat = successes / counted if counted else math.nan
    if successes > 0:
        mean_t = sum_t / successes
        var_t = (
            (sum_t2 - successes * mean_t * mean_t) / (successes - 1)
            if successes > 1 else math.nan
        )
    else:
        mean_t = math.nan
        var_t = math.nan
    se_p = math.sqrt(p_hat * (1.0 - p_hat) / counted) if counted else math.nan
    se_t = (
        math.sqrt(var_t / successes)
        if successes > 1 and var_t == var_t else math.nan
    )
    return SimulationSummary(
        trials=trials,
        successes=successes,
        p_as_hat=p_hat,
        mean_tas=mean_t,
        var_tas=var_t,
        se_p_as=se_p,
        se_tas=se_t,
        seed=master_seed,
        mean_profit=(sum_profit / counted if profit_of is not None and counted else None),
        truncated_trials=truncated,
    )


def _run(spec: AttackSpec, trials: int, master_seed: int, event_cap: int | None,
         source: Callable[..., Iterator[tuple]], trace_to: IO[str] | None,
         profit_of: Callable[[float | None], float] | None = None) -> SimulationSummary:
    # check the inputs, then fold the source's trials 0 .. trials - 1 in order
    _check_count(trials, "trial count")
    _check_seed(master_seed)
    event_cap = _check_cap(spec, event_cap)
    return _aggregate(source(spec, master_seed, 0, trials, event_cap), trials, master_seed,
                      profit_of=profit_of, trace_to=trace_to)


def estimate(spec: AttackSpec, trials: int, master_seed: int,
             event_cap: int | None = None,
             independent_clocks: bool = False,
             trace_to: IO[str] | None = None) -> SimulationSummary:
    """Estimate the success probability and success-time moments.

    Runs `trials` attempts on streams keyed (master_seed, 0..trials-1) and
    aggregates in fixed trial order. Optional trace_to receives one CSV row
    per trial.
    """
    return _run(spec, trials, master_seed, event_cap,
                _clocks if independent_clocks else _walk, trace_to)


def estimate_profit(model: EconomicModel, spec: AttackSpec, trials: int,
                    master_seed: int, event_cap: int | None = None,
                    trace_to: IO[str] | None = None) -> SimulationSummary:
    """Estimate like `estimate`, adding the per-trial profit mean.

    Profit of a successful trial is value + reward(t_dsa) - opex(t_dsa); a
    failed trial pays -opex(t_cut). Cost and reward growth models are
    evaluated pointwise, so nonlinear models are fully supported here.
    """
    if spec.infinite_cut:
        raise DomainError(
            "profit estimation needs a finite cut-time: a failed unbounded "
            "attempt has unbounded cost"
        )
    lam_a = spec.lambda_a

    def profit_of(t_dsa: float | None) -> float:
        if t_dsa is not None:
            return model.value + reward(model, lam_a, t_dsa) \
                - opex(model, lam_a, t_dsa)
        return -opex(model, lam_a, spec.t_cut)

    return _run(spec, trials, master_seed, event_cap, _walk, trace_to, profit_of)


def enumerate_exact(spec: AttackSpec, i_max: int) -> list[float]:
    """Exact first-achievement mass at every state i = 1..i_max.

    Walks the full binary tree of arrival attributions as a dynamic program
    over (walk height, honest count) with exact integer path counts, weighing
    each first-achieving path by p_h^(honest) * p_a^(attacker) in exact
    rational arithmetic before a single final rounding to float. Element
    k of the result is the mass for state i = k + 1.

    Refuses i_max beyond 24: the implied path space doubles per state and
    this is a verification oracle, not a production path.
    """
    if not _is_int(i_max) or i_max < 1:
        raise DomainError(f"i_max must be a positive integer, got {i_max!r}")
    if i_max > _ENUM_MAX_STATES:
        raise CostGuardError(
            f"exact enumeration is limited to {_ENUM_MAX_STATES} states, "
            f"got {i_max}"
        )
    p_a = Fraction(spec.p_a)
    p_h = 1 - p_a
    n_bc = spec.n_bc
    # survivors: (height s, honest count h) -> number of length-k paths that
    # never achieved; achieving extensions leave the survivor set immediately
    survivors: dict[tuple[int, int], int] = {(0, 0): 1}
    result: list[float] = []
    for step in range(1, i_max + 1):
        nxt: dict[tuple[int, int], int] = {}
        achieved_mass = Fraction(0)
        for (s, h), count in survivors.items():
            for delta, dh in ((1, 1), (-1, 0)):
                s2, h2 = s + delta, h + dh
                if h2 >= n_bc and s2 < 0:
                    achieved_mass += count * p_h ** h2 * p_a ** (step - h2)
                else:
                    key = (s2, h2)
                    nxt[key] = nxt.get(key, 0) + count
        result.append(float(achieved_mass))
        survivors = nxt
    return result
