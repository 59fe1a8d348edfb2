"""Write a golden JSON file and name the keys whose values moved.

The `__main__` block of each golden test module records its file through
`record`, so a commit that re-records a file can say what changed.
"""
from __future__ import annotations

import json
from pathlib import Path


def record(path: Path, recorded: dict[str, object]) -> None:
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    path.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    for key, value in recorded.items():
        if key not in old:
            print(f"added   {key}")
        elif old[key] != value:
            print(f"changed {key}")
    for key in old:
        if key not in recorded:
            print(f"removed {key}")
    print(f"wrote {len(recorded)} keys to {path}")
