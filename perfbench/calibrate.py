"""How fast the machine runs work like the package's own, right now.

The machine the benchmark was built on is shared, and the same code ran
up to 3.5x slower there from one period to the next, in CPU time as well as
wall time (the time the hypervisor gives to other guests is already left
out of CPU time; this slowdown is not). Cold start-up slowed much less
than computation did. So there are two yardsticks, neither of which runs
any code of the package, so a change to the package never moves them:

- `slice_s()` times one fixed slice of computation in CPU seconds: a
  forward walk DP over short numpy arrays with Python float math, many
  ufunc calls on short arrays, weighted sums and updates over lists of
  floats (as the per-state mass iterator does), and churn of small Python
  objects. A time divided by slices timed in the same seconds, times
  `SLICE_REF_S`, is that time at the reference speed.
- `cold_start_s()` is the CPU time of a fresh interpreter that imports
  numpy, the fastest of three. A set-up time divided by it, times
  `COLD_START_REF_S`, is that set-up at the reference speed.
"""
from __future__ import annotations

import math
import resource
import subprocess
import sys
import time

import numpy as np

# On the reference machine (2-core shared VM, Python 3.11.7, numpy 2.4.6),
# chosen so that reported times match the raw times of its quietest period
SLICE_REF_S = 0.0025
COLD_START_REF_S = 0.088
COLD_START_TIMEOUT_S = 120


def _work() -> float:
    alive = np.ones(1)
    acc = 0.0
    for i in range(80):
        new = np.empty(alive.size + 1)
        new[0] = alive[0] * 0.35
        new[-1] = alive[-1] * 0.65
        new[1:-1] = alive[:-1] * 0.65 + alive[1:] * 0.35
        acc += math.fsum(new[: i // 2]) + math.lgamma(i + 1.5)
        alive = new / new.max()
    x = np.linspace(0.0, 1.0, 16)
    for _ in range(250):
        x = np.exp(-x) * 0.5 + np.minimum(x, 0.25)
    acc += float(x.sum())
    weights = [1.0 / (k + 1) for k in range(60)]
    lanes = [0.5] * 60
    for n in range(90):
        acc += sum(w * v for w, v in zip(weights, lanes))
        for k in range(60):
            lanes[k] *= (2 * n + k + 1) * (2 * n + k + 2) / ((n + 1) * (n + k + 2)) * 0.2275
    objects = {}
    for i in range(5000):
        objects[i % 100] = (i, float(i), str(i))
    return acc + len(objects)


def slice_s() -> float:
    """CPU seconds of one fixed slice of work."""
    start = time.process_time()
    _work()
    return time.process_time() - start


def cold_start_s() -> float:
    """CPU seconds of a fresh interpreter importing numpy, fastest of three."""
    samples = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                       timeout=COLD_START_TIMEOUT_S, stdout=subprocess.DEVNULL)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        samples.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return min(samples)
