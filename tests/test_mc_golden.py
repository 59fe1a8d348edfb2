"""Monte Carlo outputs compared byte for byte against recorded golden outputs.

Each case runs `estimate` or `estimate_profit` with a per-trial trace and
records the CSV rows and the repr of the returned SimulationSummary. Any
change to the streams a trial draws, to the order it consumes them, to the
walk or to the aggregation shows up here as a byte difference.

To record the file from the code under test (do this only on the commit
whose outputs are the reference):

    PYTHONPATH=src python tests/test_mc_golden.py
"""
from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from doublespend import INFINITE, AttackSpec, EconomicModel, estimate, estimate_profit

GOLDEN_FILE = Path(__file__).with_name("golden") / "mc_outputs.json"
BLOCK = 600.0


def _spec(p_a: float, n_bc: int, c: float | None) -> AttackSpec:
    t_cut = INFINITE if c is None else c * n_bc * BLOCK
    return AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=t_cut, lambda_h=1 / BLOCK)


MODEL = EconomicModel(gamma=0.422, beta=0.44, value=20.0)

# name -> (function, spec, trials, seed, keyword arguments)
CASES = {
    "0.35-5-c4-seed7": (estimate, _spec(0.35, 5, 4.0), 300, 7, {}),
    "0.35-5-c4-seed2^63+5": (estimate, _spec(0.35, 5, 4.0), 300, 2 ** 63 + 5, {}),
    "0.45-30-c4": (estimate, _spec(0.45, 30, 4.0), 120, 11, {}),
    "0.45-30-c4-cap130": (estimate, _spec(0.45, 30, 4.0), 120, 2 ** 64 - 1,
                          {"event_cap": 130}),
    "0.6-3-nocut": (estimate, _spec(0.6, 3, None), 200, 3, {}),
    "0.6-3-nocut-cap30": (estimate, _spec(0.6, 3, None), 200, 3, {"event_cap": 30}),
    "0.6-3-nocut-cap1": (estimate, _spec(0.6, 3, None), 20, 3, {"event_cap": 1}),
    "0.3-2-nocut-cap50": (estimate, _spec(0.3, 2, None), 200, 5, {"event_cap": 50}),
    "0.35-5-c4-cap100": (estimate, _spec(0.35, 5, 4.0), 200, 9, {"event_cap": 100}),
    "0.35-5-tcut1e-3": (
        estimate, AttackSpec(p_a=0.35, n_bc=5, t_cut=1e-3, lambda_h=1 / BLOCK),
        50, 1, {}),
    "profit-0.6-3-c2": (estimate_profit, _spec(0.6, 3, 2.0), 300, 13, {"model": MODEL}),
    "0.35-5-c4-two-clocks": (estimate, _spec(0.35, 5, 4.0), 200, 7,
                             {"independent_clocks": True}),
}


def _run(name: str) -> dict[str, str]:
    fn, spec, trials, seed, kwargs = CASES[name]
    kwargs = dict(kwargs)
    buf = io.StringIO()
    if fn is estimate_profit:
        summary = fn(kwargs.pop("model"), spec, trials, seed, trace_to=buf, **kwargs)
    else:
        summary = fn(spec, trials, seed, trace_to=buf, **kwargs)
    return {"trace": buf.getvalue(), "summary": repr(summary)}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_mc_output_matches_golden(name, golden):
    assert _run(name) == golden[name]


def test_golden_file_covers_every_case(golden):
    assert set(golden) == set(CASES)


if __name__ == "__main__":
    from golden_record import record

    record(GOLDEN_FILE, {name: _run(name) for name in CASES})
