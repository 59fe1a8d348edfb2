"""`--help` texts compared byte for byte against recorded golden outputs.

The top-level help and the help of every subcommand are rendered at a
fixed terminal width of 80 columns; stdout, stderr and the exit code must
match golden/cli_help.json exactly. Parser refactors that claim to keep
every option and help line are checked against this file.

To record the file from the code under test (do this only on the commit
whose help texts are the reference):

    PYTHONPATH=src python tests/test_help_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from doublespend.cli import run

GOLDEN_FILE = Path(__file__).with_name("golden") / "cli_help.json"
COMMANDS = ("prob", "pdf", "expect-time", "profit", "creq", "table",
            "case-study", "compare-premine", "simulate", "market-gamma")
CASES = (("--help",),) + tuple((command, "--help") for command in COMMANDS)


def _key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def _run(argv: tuple[str, ...]) -> dict[str, object]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_help_matches_golden(argv, golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(argv) == golden[_key(argv)]


def test_help_golden_covers_every_subcommand(golden):
    assert set(golden) == {_key(argv) for argv in CASES}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    from golden_record import record

    record(GOLDEN_FILE, {_key(argv): _run(argv) for argv in CASES})
