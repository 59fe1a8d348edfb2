"""Write a golden JSON file and name the keys whose values moved.

The `__main__` block of each golden test module records its file through
`record`, so a commit that re-records a file can say what changed: each
changed key is printed with the largest relative move among the numbers
parsed from its old and new values, matched in order.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

# a decimal number standing alone, not part of a word or a hex digest
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def numbers(value: object) -> list[float]:
    """The numbers in a golden value, in order: its ints and floats and
    every decimal number inside its strings."""
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, str):
        return [float(token) for token in _NUMBER.findall(value)]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in numbers(item)]
    return []


def largest_move(old: object, new: object) -> str:
    """The largest relative move between the numbers of two values, or why
    there is none to give."""
    before, after = numbers(old), numbers(new)
    if len(before) != len(after):
        return f"{len(before)} numbers -> {len(after)}"
    if not before:
        return "no numbers"
    worst = 0.0
    for x, y in zip(before, after):
        if x != y:
            worst = max(worst, abs(y - x) / abs(x) if x else math.inf)
    return f"largest relative move {worst:.2g}"


def record(path: Path, recorded: dict[str, object]) -> None:
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    path.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    for key, value in recorded.items():
        if key not in old:
            print(f"added   {key}")
        elif old[key] != value:
            print(f"changed {key}  ({largest_move(old[key], value)})")
    for key in old:
        if key not in recorded:
            print(f"removed {key}")
    print(f"wrote {len(recorded)} keys to {path}")
