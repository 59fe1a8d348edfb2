"""Per-state masses compared bit for bit against recorded hashes.

For each spec the first 3000 masses of timing._state_mass_iter are packed
as little-endian float64 and hashed with sha256; the hash must match
golden/state_masses.json. The CLI goldens stop at n_bc 12, where neither
mass family leaves the float range, so the specs here are chosen to reach
the scaled paths: a confirmation-last lane that starts below the normal
floats (p_a 0.99, n_bc 250), one that grows or decays over many binades,
and an overtake pair that falls far enough to be raised (p_a 1e-4).
Refactors of the iterator that claim to keep every mass are checked
against this file.

To record the file from the code under test (do this only on the commit
whose masses are the reference):

    PYTHONPATH=src python tests/test_mass_golden.py
"""
from __future__ import annotations

import hashlib
import itertools
import json
import struct
from pathlib import Path

import pytest

from doublespend import timing
from doublespend.walk import INFINITE, AttackSpec

GOLDEN_FILE = Path(__file__).with_name("golden") / "state_masses.json"
COUNT = 3000

# (p_a, n_bc)
SPECS = (
    (0.99, 250),   # the lane starts below the normal floats
    (0.9, 1000),   # the lane grows through many binades
    (1e-4, 1),     # the overtake pair falls below the floor and is raised
    (1e-4, 5),
    (0.2, 300),    # the lane decays through many binades
    (0.5, 200),
    (0.45, 1000),
    (0.35, 5),
    (0.6, 3),
    (1e-9, 1),
    (0.999999, 1),
    (0.5, 20_000),
)


def _key(spec: tuple[float, int]) -> str:
    return f"{spec[0]!r}-{spec[1]}"


def _digest(p_a: float, n_bc: int) -> str:
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
    masses = list(itertools.islice(timing._state_mass_iter(spec), COUNT))
    return hashlib.sha256(struct.pack(f"<{COUNT}d", *masses)).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("spec", SPECS, ids=_key)
def test_state_masses_match_golden(spec, golden):
    assert _digest(*spec) == golden[_key(spec)]


def test_golden_file_covers_every_spec(golden):
    assert set(golden) == {_key(spec) for spec in SPECS}


if __name__ == "__main__":
    from golden_record import record

    record(GOLDEN_FILE, {_key(spec): _digest(*spec) for spec in SPECS})
