"""Write perfbench/references.json: reference values for every operating
point the benchmark checks, made without the package under test.

    python3 perfbench/make_references.py

Needs numpy, scipy and mpmath; takes a few seconds. The walk DP and the
50-digit Rosenfeld sum must agree on every unbounded point before anything
is written.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from scipy import special

import inputs
import refdp

OUT = Path(__file__).resolve().parent / "references.json"
DP_VS_ROSENFELD = 1e-12


def finite(p_a: float, n_bc: int, c: float) -> dict[str, float]:
    """p_as and E_TAS (seconds at lambda_h = 1) with t_cut = c * n_bc, and
    the least E_TAS can be: success needs at least 2 n_bc + 1 arrivals, and
    E[S_i | S_i <= t_cut] grows with the stage i, so E_TAS is at least that
    mean at i = 2 n_bc + 1."""
    p_h = 1.0 - p_a
    x = c * n_bc / p_h
    p_as, arrivals = refdp.finite_cut(p_a, n_bc, x)
    i = 2 * n_bc + 1
    floor = i * p_h * special.gammainc(i + 1, x) / special.gammainc(i, x)
    return {"p_as": p_as, "e_tas": arrivals * p_h, "e_tas_floor": floor}


def unbounded(p_a: float, n_bc: int) -> dict[str, float]:
    p_dsa, arrivals = refdp.unbounded(p_a, n_bc)
    ros = refdp.rosenfeld_p_dsa(p_a, n_bc)
    if abs(p_dsa - ros) > DP_VS_ROSENFELD * ros:
        sys.exit(f"walk DP and Rosenfeld disagree at {(p_a, n_bc)}: {p_dsa!r} vs {ros!r}")
    return {"p_as": ros, "e_tas": arrivals * (1.0 - p_a), "p_dsa": ros}


def main() -> int:
    refs: dict[str, object] = {"generator": "python3 perfbench/make_references.py"}
    points = {}
    grid = [(p_a, n_bc, c) for c in inputs.TABLE_C
            for n_bc in inputs.TABLE_NBC for p_a in inputs.TABLE_PA]
    grid += [p for p in inputs.DEEP_POINTS if p[2] is not None]
    grid += [inputs.MC_LONG]
    for p_a, n_bc, c in grid:
        points[inputs.key(p_a, n_bc, c)] = finite(p_a, n_bc, c)
    for p_a, n_bc, _ in inputs.DEEP_POINTS + [inputs.BCH_POINT]:
        points[inputs.key(p_a, n_bc, None)] = unbounded(p_a, n_bc)
    refs["points"] = points

    pdf = {}
    for p_a, n_bc, c in inputs.PDF_SPECS:
        t_max = c * n_bc * inputs.BLOCK_TIME
        times = [t_max * k / inputs.PDF_POINTS for k in range(1, inputs.PDF_POINTS + 1)]
        lambda_t = inputs.LAMBDA_H / (1.0 - p_a)
        density, cdf = refdp.density_and_cdf(p_a, n_bc, lambda_t, times)
        pdf[inputs.key(p_a, n_bc, c)] = {"t": times, "density": density, "cdf": cdf}
    refs["pdf"] = pdf

    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT.name}: {len(points)} points, {len(pdf)} sampling grids")
    return 0


if __name__ == "__main__":
    sys.exit(main())
