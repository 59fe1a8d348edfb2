"""CLI outputs compared byte for byte against recorded golden outputs.

Every subcommand runs in text, csv and json at a few operating points,
plus the error cases; stdout, stderr and the exit code must match
golden/cli_outputs.json exactly. Refactors that claim to keep every number
are checked against this file.

To record the file from the code under test (do this only on the commit
whose outputs are the reference):

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from doublespend.cli import run
from golden_record import largest_move, numbers

GOLDEN_DIR = Path(__file__).with_name("golden")
GOLDEN_FILE = GOLDEN_DIR / "cli_outputs.json"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# p_a below and above 1/2, each with a finite and an unbounded cut
POINTS = (
    ("--pa", "0.35", "--nbc", "5", "--cut-mult", "4"),
    ("--pa", "0.35", "--nbc", "5", "--cut-mult", "inf"),
    ("--pa", "0.6", "--nbc", "3", "--cut-mult", "2"),
    ("--pa", "0.6", "--nbc", "3", "--cut-time", "inf"),
)
RATES = ("--gamma", "0.422", "--beta", "0.44")  # creq takes no value
ECON = (*RATES, "--value", "20")
FORMATS = ("text", "csv", "json")
# the earliest achieving state cannot arrive before this cut: p_as is 0
NEVER = ("--pa", "0.35", "--nbc", "5", "--cut-time", "1e-30")
# points where the series certifies p_as at an earlier state than E_TAS
LATE_TIME = (("--pa", "0.45", "--nbc", "4", "--cut-mult", "4"),
             ("--pa", "0.35", "--nbc", "7", "--cut-mult", "8"))
# passes that start with whole 64-state blocks far below lambda_t * t_cut,
# where every Erlang CDF of the block rounds to 1
HEAD = (("prob", "--pa", "0.45", "--nbc", "200", "--cut-mult", "4", "--lambda-h", "1"),
        ("expect-time", "--pa", "0.35", "--nbc", "5", "--cut-mult", "1000"),
        ("table", "--nbc", "30,100", "--pa", "0.35,0.45", "--cut-mult", "8"),
        ("case-study", "--config", "bch.conf", "--pa", "0.3", "--nbc", "12",
         "--cut-mult", "40"))


def _cases() -> list[tuple[str, ...]]:
    cases = []
    for fmt in FORMATS:
        out = ("--format", fmt)
        for point in POINTS:
            cases.append(("prob", *point, *out))
            cases.append(("expect-time", *point, *out))
            cases.append(("profit", *point, *ECON, *out))
            cases.append(("creq", *point, *RATES, *out))
            cases.append(("case-study", "--config", "bch.conf", *point, *out))
        cases += [
            ("prob", "--pa", "0.45", "--nbc", "2", "--cut-time", "3000",
             "--block-time", "300", *out),
            ("case-study", "--config", "bch.conf", "--pa", "0.35", "--nbc", "5",
             "--cut-time", "12000", *out),
            ("table", "--nbc", "1,3,5", "--pa", "0.3,0.35,0.4", "--cut-mult", "4",
             *out),
            ("pdf", *POINTS[0], "--points", "5", *out),
            ("pdf", "--pa", "0.35", "--nbc", "5", "--points", "5", *out),
            ("pdf", *POINTS[2], "--points", "5", "--lambda-h", "0.01", *out),
            ("simulate", *POINTS[0], "--trials", "200", "--seed", "7", *out),
            ("simulate", *POINTS[2], "--trials", "200", "--seed", "7", *ECON, *out),
            ("simulate", *POINTS[1], "--event-cap", "1000", "--trials", "200",
             "--seed", "7", *out),
            ("simulate", *POINTS[0], "--independent-clocks", "--trials", "200",
             "--seed", "7", *out),
            ("compare-premine", "--pa", "0.35", "--nbc", "5", *out),
            ("compare-premine", "--pa", "0.6", "--nbc", "3", *out),
            ("market-gamma", "--config", "bch.conf", *out),
            ("profit", *NEVER, *ECON, *out),
        ]
        for point in LATE_TIME:
            cases.append(("expect-time", *point, "--lambda-h", "1", *out))
            cases.append(("table", *point, *out))
        cases += [(*argv, *out) for argv in HEAD]
    cases += [
        ("expect-time", "--pa", "0.5", "--nbc", "3", "--cut-mult", "inf"),
        ("profit", "--pa", "0.5", "--nbc", "3", "--cut-mult", "inf", *ECON),
        ("creq", *NEVER, *RATES),
        ("expect-time", *NEVER),
        ("case-study", "--config", "bch.conf", *NEVER),
        ("table", "--nbc", "5", "--pa", "0.35", "--cut-mult", "1e-33"),
        ("prob", "--pa", "1.5", "--nbc", "5", "--cut-mult", "4"),
    ]
    return cases


CASES = _cases()


def _key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def _run(argv: tuple[str, ...]) -> dict[str, object]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)  # config paths are echoed, so keep them relative
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_cli_output_matches_golden(argv, golden):
    assert _run(argv) == golden[_key(argv)]


@pytest.mark.parametrize("argv", [
    ("prob", *POINTS[0], "--format", "text"),
    ("prob", "--pa", "1.5", "--nbc", "5", "--cut-mult", "4"),  # exits 2
], ids=_key)
def test_console_entry_matches_golden(argv, golden):
    # cli.main in a fresh interpreter: sys.exit(run()) sets the exit status
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    done = subprocess.run([sys.executable, "-m", "doublespend.cli", *argv], cwd=GOLDEN_DIR,
                          env=env, capture_output=True, encoding="utf-8")
    assert {"exit": done.returncode, "stdout": done.stdout,
            "stderr": done.stderr} == golden[_key(argv)]


def test_golden_file_covers_every_subcommand(golden):
    commands = {key.split()[0] for key in golden}
    assert commands == {"prob", "pdf", "expect-time", "profit", "creq", "table",
                        "case-study", "compare-premine", "simulate", "market-gamma"}
    assert set(golden) == {_key(argv) for argv in CASES}


def test_recorder_reports_the_largest_relative_move():
    old = {"exit": 0, "stdout": "# n_bc = 5\np_as,0.21804332702412232\n"}
    new = {"exit": 0, "stdout": "# n_bc = 5\np_as,0.2180433270241223\n"}
    assert numbers(old) == [0.0, 5.0, 0.21804332702412232]
    assert largest_move(old, new) == "largest relative move 1.3e-16"
    assert largest_move(old, {"stdout": "p_as 1e-3"}) == "3 numbers -> 1"
    # the digits inside a hex digest are no numbers
    assert largest_move("9e0a51c7", "75f5905f") == "no numbers"


if __name__ == "__main__":
    from golden_record import record

    record(GOLDEN_FILE, {_key(argv): _run(argv) for argv in CASES})
