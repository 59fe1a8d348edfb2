"""Per-layer spans recorded from outside the package.

`Tracer.install` swaps each traced function of `doublespend` for a wrapper
in every package module that holds a reference to it, so calls made from
inside the package are caught too; `uninstall` puts the originals back.
A layer's self time is its wall time minus the time of traced calls made
inside it. Spans stay in memory; only per-layer totals are kept.

A traced function the package no longer has is an error, not a silent 0:
a layer that reads 0 because its function was renamed would look like a
gain on metrics where lower is better.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, function names)
LAYERS = {
    "specfun.gamma_p": ("specfun", ["regularized_gamma_p"]),
    "specfun.pfq": ("specfun", ["log_hypergeom_pfq", "hypergeom_pfq"]),
    "walk.p_dsa": ("walk", ["p_dsa"]),
    "timing.mixture": ("timing", ["_mixture_moments"]),
    "timing.density": ("timing", ["dsa_time_density"]),
    "economics": ("economics", ["expected_opex", "expected_profit",
                                "required_value", "repeated_attack_projection"]),
    "reporting.build": ("reporting", ["build_resource_table", "case_study",
                                      "premine_comparison"]),
    "reporting.render": ("reporting", ["render_record", "render_rows", "render_table"]),
    "simulate.trial": ("simulate", ["simulate_one"]),
    "simulate.aggregate": ("simulate", ["_aggregate"]),
    "cli.run": ("cli", ["run"]),
}
# generators whose items are counted (their time stays with the caller)
COUNTED = {"timing.states": ("timing", ["_state_mass_iter"])}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.mixture_specs: set[object] = set()
        self._child = [0.0]
        self._patched: list[tuple[object, str, object]] = []
        self._targets: list[tuple[object, object]] = []   # (original, wrapper)
        missing = []
        for table, make in ((LAYERS, self._span), (COUNTED, self._counted)):
            for layer, (home, names) in table.items():
                owner = sys.modules.get(f"doublespend.{home}")
                for name in names:
                    original = getattr(owner, name, None)
                    if original is None:
                        missing.append(f"doublespend.{home}.{name}")
                    else:
                        self._targets.append((original, make(layer, original)))
        if missing:
            raise LookupError("traced functions missing from the package: "
                              + ", ".join(missing))

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.mixture_specs.clear()

    def _span(self, layer: str, fn):
        child = self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            if layer == "timing.mixture":
                self.mixture_specs.add((args[0], args[1]))
            child.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                inner = child.pop()
                self.self_s[layer] += spent - inner
                child[-1] += spent
        return wrapper

    def _counted(self, layer: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                calls[layer] += 1
                yield item
        return wrapper

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "doublespend" or name.startswith("doublespend.")]
        for original, wrapped in self._targets:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
