"""Run the benchmark on seeds 1 to 10 of every workload and print, per
end-to-end metric, the median and the quartile spread as a share of the
median, next to the bound in BENCHMARK.json (the spread should stay below
a third of it). Each run's result line is kept in perfbench/results/.

    python3 perfbench/spread.py
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
SEEDS = range(1, 11)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    RESULTS.mkdir(exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for seed in SEEDS:
            out = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True).stdout
            line = out.strip().splitlines()[-1]
            (RESULTS / f"{workload}-seed{seed}.json").write_text(line + "\n")
            result = json.loads(line)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: failed/attempted {sorted(shares)}", flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:16s} median {med:.5g}  spread {(q3 - q1) / med:.3f}"
                  f"  bound {bounds[name]}  values {[round(v, 4) for v in vals]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
