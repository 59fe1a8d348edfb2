"""The benchmark's fixed operating points, shared by the workloads and by
the reference generator. Plain data: importing this module imports nothing
from the package under test.

The seed never changes which points are run, only their order, the Monte
Carlo master seeds and the transaction value of the profit call, so every
run does the same work and meets the same faults.
"""
from __future__ import annotations

from pathlib import Path


def key(p_a: float, n_bc: int, c: float | None) -> str:
    """The name of an operating point in references.json; c None is no cut."""
    return f"{p_a!r},{n_bc},{'inf' if c is None else repr(c)}"


def _read_conf(path: Path) -> dict[str, object]:
    """The `key = value` lines of a network config, numbers as floats."""
    values: dict[str, object] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, _, value = (part.strip() for part in line.partition("="))
        values[name] = value if name == "name" else float(value)
    return values


# the BitcoinCash figures of the paper's case study; the CLI reads the same file
BCH_CONF = Path(__file__).resolve().parent / "bitcoincash.conf"
BCH = _read_conf(BCH_CONF)
BLOCK_TIME = BCH["block_time_seconds"]
LAMBDA_H = 1.0 / BLOCK_TIME

# paper-grid: the resource table over the paper's operating range
TABLE_NBC = list(range(1, 13))
TABLE_PA = [round(0.05 * k, 2) for k in range(1, 10)]
TABLE_C = [2.0, 4.0, 8.0]

# case studies on the BitcoinCash figures at the paper's table points
CASE_NBC = TABLE_NBC
CASE_PA = [0.35, 0.40]
CASE_C = [2.0, 4.0, 8.0]

BCH_POINT = (0.35, 5, 4.0)          # (p_a, n_bc, c) of the paper's case study

# 50-point sampling grids, t_max = c * n_bc block intervals
PDF_POINTS = 50
PDF_SPECS = [
    (0.35, 5, 4.0),
    (0.10, 1, 2.0),
    (0.25, 3, 8.0),
    (0.45, 12, 4.0),
    (0.40, 9, 2.0),
    (0.30, 7, 8.0),
]

# deep-confirmations: (p_a, n_bc, c), c None for an unbounded cut
DEEP_POINTS = [
    (p_a, n_bc, c)
    for n_bc in (100, 200, 500)
    for p_a in (0.1, 0.35, 0.45)
    for c in (4.0, None)
] + [(0.2, 60, 50.0)]

# monte-carlo: the paper's case-study spec (short trials) and a deep,
# nearly even race (long trials)
MC_SHORT = (0.35, 5, 4.0)
MC_LONG = (0.45, 30, 4.0)

# figures printed in the paper: the c = 4 resource table, scaled units,
# (n_bc, p_a) -> (p_as, e_tas/blk, e_x/gamma, c_req mu-coefficient,
# c_req constant), and the BitcoinCash case study
PAPER_TABLE = {
    (1, 0.35): ("0.315", "2.004", "1.815", "1.079", "4.680"),
    (1, 0.40): ("0.411", "1.953", "2.106", "1.302", "3.819"),
    (3, 0.35): ("0.279", "5.518", "5.487", "2.971", "16.68"),
    (3, 0.40): ("0.419", "5.338", "6.139", "3.559", "11.10"),
    (5, 0.35): ("0.218", "8.681", "9.440", "4.675", "38.62"),
    (5, 0.40): ("0.376", "8.434", "10.436", "5.622", "22.15"),
    (7, 0.35): ("0.170", "11.694", "13.588", "6.297", "73.84"),
    (7, 0.40): ("0.334", "11.418", "14.977", "7.612", "37.25"),
    (9, 0.35): ("0.132", "14.607", "17.859", "7.866", "127.00"),
    (9, 0.40): ("0.297", "14.325", "19.716", "9.550", "56.96"),
}
PAPER_CASE = {   # value as printed, absolute tolerance
    "p_as": ("0.218", 0.001),
    "e_tas_seconds": ("5200", 52.0),
    "e_x": ("3.98", 0.04),
    "c_req": ("16.22", 0.17),
    "runtime_per_attempt": ("10500", 60.0),   # 2 h 55 min, to the minute
}
