"""BENCHMARK.json, the workloads and references.json agree with each other.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
from pathlib import Path

import inputs
import workloads

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_match_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_every_known_fault_names_an_operation():
    keys = {f"{q} {p_a},{n_bc},{'inf' if c is None else f'{c:g}'}"
            for p_a, n_bc, c in inputs.DEEP_POINTS for q in ("p_as", "e_tas")}
    assert set(workloads.DeepConfirmations.known_faults) <= keys
    assert not workloads.PaperGrid.known_faults and not workloads.MonteCarlo.known_faults


def test_references_cover_every_point():
    refs = json.loads((Path(__file__).resolve().parent / "references.json").read_text())
    key = inputs.key
    needed = [key(p, n, c) for c in inputs.TABLE_C for n in inputs.TABLE_NBC
              for p in inputs.TABLE_PA]
    needed += [key(*pt) for pt in inputs.DEEP_POINTS]
    needed += [key(p, n, None) for p, n, _ in inputs.DEEP_POINTS]
    needed += [key(*inputs.MC_LONG), key(*inputs.BCH_POINT)]
    assert not [k for k in needed if k not in refs["points"]]
    assert sorted(refs["pdf"]) == sorted(key(*s) for s in inputs.PDF_SPECS)
