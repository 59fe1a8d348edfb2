"""The three workloads: their inputs, one round of operations, and the
checks of every output against references.json or a property the method
must have.

A round is a fixed list of library calls (timed one by one) followed by a
fixed list of CLI runs. The seed only reorders the calls and picks the
Monte Carlo master seeds and the transaction value of the profit call, so
every run does the same work and meets the same known faults.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import inputs

TOL = 1e-12            # the package's documented default truncation tolerance
UNBOUNDED_REL = 1e-10  # closed forms with no tol parameter: p_dsa, E_TAS with no cut
DERIVED_REL = 1e-10    # arithmetic on top of p_as and E_TAS (costs, c_req, profit)
DENSITY_REL = 1e-9
MC_SIGMAS = 4.0

Check = Callable[[object], "str | None"]


@dataclass
class Op:
    key: str            # stable name; known faults are listed by key
    part: str           # which end-to-end figure its time and work go to
    work: int           # units of work (cells, points, trials, commands)
    run: Callable[[], object]
    check: Check


@dataclass
class CliOp:
    key: str
    argv: list[str]
    check: Check


def _rel_err(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / abs(want) if want != 0.0 else math.inf


def _near(label: str, got: object, want: float, rel: float) -> str | None:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not math.isfinite(got):
        return f"{label}: got {got!r}, want {want!r}"
    err = _rel_err(got, want)
    return None if err <= rel else f"{label}: {got!r} vs reference {want!r} (rel {err:.2e})"


def _first(*messages: str | None) -> str | None:
    return next((m for m in messages if m), None)


def strict_json(text: str) -> object:
    def refuse(name: str) -> object:
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def paper_table_msg(cell: dict) -> str | None:
    """A c = 4 table cell against the paper's printed figures, to within one
    unit of the last printed digit."""
    printed = inputs.PAPER_TABLE[(cell["n_bc"], cell["p_a"])]
    for text, name in zip(printed, ("p_as", "e_tas_scaled", "e_x_scaled",
                                    "c_req_mu_coeff", "c_req_const")):
        if abs(cell[name] - float(text)) > 10.0 ** -len(text.partition(".")[2]):
            return f"table cell {(cell['n_bc'], cell['p_a'])}: {name} {cell[name]!r} " \
                   f"vs paper {text}"
    return None


class Workload:
    """Shared plumbing: references, seeded order, the CLI config path."""

    name = ""
    known_faults: dict[str, str] = {}

    def __init__(self, ds, refs: dict, seed: int):
        self.ds = ds
        self.refs = refs
        self.points = refs["points"]
        self.rng = random.Random(seed)
        self._estimates: dict[tuple, object] = {}

    def ref(self, p_a: float, n_bc: int, c: float | None) -> dict:
        return self.points[inputs.key(p_a, n_bc, c)]

    def shuffled(self, items: list) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items

    def lib_ops(self, round_no: int) -> list[Op]:
        raise NotImplementedError

    def cli_ops(self, round_no: int) -> list[CliOp]:
        return []

    def round_checks(self, results: dict[str, object]) -> list[str]:
        """Properties that span several calls of one round."""
        return []

    def finish(self) -> list[str]:
        """Checks over the whole run, after the last round."""
        return []

    def figures(self, part_time: dict[str, float],
                part_work: dict[str, int]) -> dict[str, tuple[float, str]]:
        """Per-part rates of the workload, for the `# figures` line."""
        raise NotImplementedError

    # shared checks ------------------------------------------------------

    def check_finite_point(self, p_a: float, n_bc: int, c: float, lambda_h: float,
                           p_as: object, e_tas: object) -> str | None:
        ref = self.ref(p_a, n_bc, c)
        p_h = 1.0 - p_a
        t_cut = c * n_bc / lambda_h
        floor = ref["e_tas_floor"] / lambda_h
        msg = _first(_near("p_as", p_as, ref["p_as"], TOL),
                     _near("e_tas", e_tas, ref["e_tas"] / lambda_h, TOL))
        if msg:
            return msg
        if not floor <= e_tas <= t_cut:
            return f"e_tas {e_tas!r} outside [{floor!r}, {t_cut!r}]"
        return None

    def check_summary(self, label: str, s, spec_point: tuple, trials: int) -> str | None:
        p_a, n_bc, c = spec_point
        if s.trials != trials or s.truncated_trials != 0:
            return f"{label}: {s.trials} trials, {s.truncated_trials} truncated"
        if not 0.0 <= s.p_as_hat <= 1.0:
            return f"{label}: p_as_hat {s.p_as_hat!r}"
        floor = self.ref(*spec_point)["e_tas_floor"] * inputs.BLOCK_TIME
        if s.successes and not floor <= s.mean_tas <= c * n_bc * inputs.BLOCK_TIME:
            return f"{label}: mean_tas {s.mean_tas!r} outside the feasible range"
        return None

    def within_sigmas(self, label: str, got: float, want: float, se: float) -> str | None:
        if not (math.isfinite(got) and math.isfinite(se)) or abs(got - want) > MC_SIGMAS * se:
            return f"{label}: {got!r} vs {want!r}, more than {MC_SIGMAS:g} standard errors ({se!r})"
        return None

    def check_cli_simulate(self, doc: dict, point: tuple, trials: int, seed: int):
        p_a, n_bc, c = point
        res = doc["result"]
        ref = self.ref(p_a, n_bc, c)
        if res["trials"] != trials or doc["params"]["seed"] != seed:
            return f"simulate echoed {res['trials']} trials, seed {doc['params']['seed']}"
        if (point, trials, seed) not in self._estimates:
            self._estimates[point, trials, seed] = self.ds.estimate(
                self.spec(p_a, n_bc, c), trials, seed)
        want = self._estimates[point, trials, seed]
        if res["p_as_hat"] != want.p_as_hat or res["successes"] != want.successes:
            return "simulate CLI and library estimate differ on the same seed"
        return self.within_sigmas("simulate p_as_hat", res["p_as_hat"], ref["p_as"],
                                  math.sqrt(ref["p_as"] * (1 - ref["p_as"]) / trials))

    def spec(self, p_a: float, n_bc: int, c: float | None, lambda_h: float = inputs.LAMBDA_H):
        t_cut = self.ds.INFINITE if c is None else c * n_bc / lambda_h
        return self.ds.AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=t_cut, lambda_h=lambda_h)


class PaperGrid(Workload):
    """The paper's operating points through the library and the CLI."""

    name = "paper-grid"

    def __init__(self, ds, refs, seed):
        super().__init__(ds, refs, seed)
        self.cfg = ds.load_network_config(inputs.BCH_CONF)
        self.tables = [(c, self.shuffled(inputs.TABLE_NBC), self.shuffled(inputs.TABLE_PA))
                       for c in self.shuffled(inputs.TABLE_C)]
        self.cases = self.shuffled([(p_a, n_bc, c) for p_a in inputs.CASE_PA
                                    for n_bc in inputs.CASE_NBC for c in inputs.CASE_C])
        self.grids = self.shuffled(inputs.PDF_SPECS)
        self.value = round(self.rng.uniform(5.0, 50.0), 6)
        self.sim_seed = self.rng.getrandbits(32)
        self.bch_spec = self.spec(*inputs.BCH_POINT)
        self.bch_model = ds.EconomicModel(gamma=inputs.BCH["gamma_override"],
                                          beta=inputs.BCH["beta_per_block"])
        self.ops = self._lib_ops()
        self.cli = self.shuffled(self._cli_ops())

    # arithmetic of the paper from reference p_as and E_TAS (currency units)
    def _economics(self, p_a, n_bc, c, lambda_h, gamma, beta):
        ref = self.ref(p_a, n_bc, c)
        p, e = ref["p_as"], ref["e_tas"] / lambda_h
        rate = gamma * lambda_h * p_a / (1.0 - p_a)
        t_cut = c * n_bc / lambda_h
        e_x = p * rate * e + (1.0 - p) * rate * t_cut
        c_req = (1.0 - p) / p * rate * t_cut - (beta / gamma - 1.0) * rate * e
        return {"p_as": p, "e_tas": e, "e_x": e_x, "c_req": c_req,
                "runtime": p * e + (1.0 - p) * t_cut, "rate": rate, "t_cut": t_cut}

    def lib_ops(self, round_no):
        return self.ops

    def _lib_ops(self):
        ds = self.ds
        ops = []
        for c, nbcs, pas in self.tables:
            ops.append(Op(f"table c={c:g}", "grid", len(nbcs) * len(pas),
                          lambda c=c, n=nbcs, p=pas: ds.build_resource_table(n, p, c),
                          lambda t, c=c: self._check_table(t, c)))
        for p_a, n_bc, c in self.cases:
            ops.append(Op(f"case_study {p_a},{n_bc},{c:g}", "case", 1,
                          lambda p_a=p_a, n_bc=n_bc, c=c: ds.case_study(self.cfg, p_a, n_bc, c),
                          lambda r, pt=(p_a, n_bc, c): self._check_case(r, pt)))
        bch = self._economics(*inputs.BCH_POINT, inputs.LAMBDA_H,
                              inputs.BCH["gamma_override"], inputs.BCH["beta_per_block"])
        ops.append(Op("required_value bch", "case", 1,
                      lambda: ds.required_value(self.bch_model, self.bch_spec),
                      lambda v: _near("c_req", v, bch["c_req"], DERIVED_REL)))
        at_req = ds.EconomicModel(gamma=inputs.BCH["gamma_override"],
                                  beta=inputs.BCH["beta_per_block"], value=bch["c_req"])
        scale = bch["e_x"]
        ops.append(Op("expected_profit bch at c_req", "case", 1,
                      lambda: ds.expected_profit(at_req, self.bch_spec),
                      lambda v: None if abs(v) <= DERIVED_REL * scale
                      else f"expected profit at c_req is {v!r}, not 0"))
        at_value = ds.EconomicModel(gamma=inputs.BCH["gamma_override"],
                                    beta=inputs.BCH["beta_per_block"], value=self.value)
        want = bch["p_as"] * (self.value - bch["c_req"])
        ops.append(Op("expected_profit bch at value", "case", 1,
                      lambda: ds.expected_profit(at_value, self.bch_spec),
                      lambda v: None if abs(v - want) <= DERIVED_REL * (self.value + scale)
                      else f"expected profit {v!r} vs {want!r}"))
        for p_a, n_bc, c in self.grids:
            ref = self.refs["pdf"][inputs.key(p_a, n_bc, c)]
            spec = self.spec(p_a, n_bc, None)
            ops.append(Op(f"sampling_grid {p_a},{n_bc},{c:g}", "pdf", len(ref["t"]),
                          lambda s=spec, t=ref["t"]: ds.sampling_grid(s, t),
                          lambda rows, ref=ref: self._check_grid(rows, ref)))
        return ops

    def _check_table(self, table, c):
        if len(table.cells) != len(inputs.TABLE_NBC) * len(inputs.TABLE_PA):
            return f"table c={c:g} has {len(table.cells)} cells"
        for cell in table.cells:
            want = self._economics(cell.p_a, cell.n_bc, c, 1.0, 1.0, 1.0)
            ratio = cell.p_a / (1.0 - cell.p_a)
            msg = _first(
                self.check_finite_point(cell.p_a, cell.n_bc, c, 1.0,
                                        cell.p_as, cell.e_tas_scaled),
                _near("e_x", cell.e_x_scaled, want["e_x"], DERIVED_REL),
                _near("c_req coefficient", cell.c_req_mu_coeff, ratio * want["e_tas"],
                      DERIVED_REL),
                _near("c_req constant", cell.c_req_const,
                      (1 - want["p_as"]) / want["p_as"] * ratio * want["t_cut"], DERIVED_REL))
            if msg:
                return f"table cell {(cell.n_bc, cell.p_a, c)}: {msg}"
            if c == 4.0 and (cell.n_bc, cell.p_a) in inputs.PAPER_TABLE:
                msg = paper_table_msg(vars(cell))
                if msg:
                    return msg
        return None

    def round_checks(self, results):
        tables = {c: {(cell.n_bc, cell.p_a): cell.p_as for cell in results[f"table c={c:g}"].cells}
                  for c, _, _ in self.tables}
        cs = sorted(tables)
        for key in tables[cs[0]]:
            seq = [tables[c][key] for c in cs]
            if any(a > b * (1 + TOL) for a, b in zip(seq, seq[1:])):
                return [f"p_as decreases in c at {key}: {seq}"]
        return []

    def _check_case(self, r, point):
        p_a, n_bc, c = point
        want = self._economics(p_a, n_bc, c, inputs.LAMBDA_H,
                               inputs.BCH["gamma_override"], inputs.BCH["beta_per_block"])
        msg = _first(
            self.check_finite_point(p_a, n_bc, c, inputs.LAMBDA_H, r["p_as"], r["e_tas_seconds"]),
            _near("e_x", r["e_x"], want["e_x"], DERIVED_REL),
            _near("c_req", r["c_req"], want["c_req"], DERIVED_REL),
            _near("runtime", r["runtime_per_attempt"], want["runtime"], DERIVED_REL),
            None if r["assessment"] == "profitable above required value"
            else f"assessment {r['assessment']!r}")
        if msg is None and point == inputs.BCH_POINT:
            for name, (text, tol) in inputs.PAPER_CASE.items():
                if abs(r[name] - float(text)) > tol:
                    msg = f"{name} {r[name]!r} vs paper {text}"
        return msg and f"case study {point}: {msg}"

    def _check_grid(self, rows, ref):
        if [t for t, _, _ in rows] != ref["t"]:
            return "sampling grid times changed"
        last = 0.0
        for (t, dens, cdf), want_d, want_c in zip(rows, ref["density"], ref["cdf"]):
            msg = _first(_near(f"density at {t}", dens, want_d, DENSITY_REL),
                         _near(f"cdf at {t}", cdf, want_c, TOL))
            if msg:
                return msg
            if cdf < last:
                return f"cdf decreases at t = {t}"
            last = cdf
        return None

    def _cli_ops(self):
        pt = ["--pa", "0.35", "--nbc", "5", "--cut-mult", "4"]
        econ = ["--gamma", "0.422", "--beta", "0.44"]
        bch = self._economics(*inputs.BCH_POINT, inputs.LAMBDA_H,
                              inputs.BCH["gamma_override"], inputs.BCH["beta_per_block"])
        bch_ref = self.ref(*inputs.BCH_POINT)
        t40 = self._economics(0.40, 3, 4.0, inputs.LAMBDA_H, 1.0, 1.0)
        grid_ref = self.refs["pdf"][inputs.key(*inputs.BCH_POINT)]
        unbounded = self.ref(0.35, 5, None)
        sim_trials = 300

        def table(doc):
            cells = doc["result"]["cells"]
            if len(cells) != len(inputs.PAPER_TABLE):
                return f"table has {len(cells)} cells"
            return _first(*(paper_table_msg(cell) for cell in cells))

        def pdf(doc):
            rows = [(r["t_seconds"], r["density"], r["success_prob"]) for r in doc["result"]]
            return self._check_grid(rows, grid_ref)

        def profit(doc):
            want = bch["p_as"] * (self.value - bch["c_req"])
            got = doc["result"]["e_p"]
            return None if abs(got - want) <= DERIVED_REL * (self.value + bch["e_x"]) \
                else f"profit {got!r} vs {want!r}"

        gamma = inputs.BCH["rental_price_per_hash"] * inputs.BCH["network_hashrate"] \
            * inputs.BLOCK_TIME
        return [
            CliOp("prob", ["prob", *pt],
                  lambda d: _near("p_as", d["result"]["p_as"], bch_ref["p_as"], TOL)),
            CliOp("pdf", ["pdf", *pt], pdf),
            CliOp("expect-time", ["expect-time", "--pa", "0.4", "--nbc", "3", "--cut-mult", "4"],
                  lambda d: _first(
                      _near("e_tas", d["result"]["e_tas_seconds"], t40["e_tas"], TOL),
                      _near("p_as", d["result"]["p_as"], t40["p_as"], TOL))),
            CliOp("profit", ["profit", *pt, *econ, "--value", repr(self.value)], profit),
            CliOp("creq", ["creq", *pt, *econ],
                  lambda d: _near("c_req", d["result"]["c_req"], bch["c_req"], DERIVED_REL)),
            CliOp("table", ["table", "--nbc", "1,3,5,7,9", "--pa", "0.35,0.4", "--c", "4"], table),
            CliOp("case-study", ["case-study", "--config", str(inputs.BCH_CONF), *pt],
                  lambda d: self._check_case(d["result"], inputs.BCH_POINT)),
            CliOp("compare-premine", ["compare-premine", "--pa", "0.35", "--nbc", "5"],
                  lambda d: _first(
                      _near("p_dsa", d["result"]["p_dsa"], unbounded["p_dsa"], UNBOUNDED_REL),
                      _near("p_premine", d["result"]["p_premine"], (0.35 / 0.65) ** 6,
                            DERIVED_REL))),
            CliOp("market-gamma", ["market-gamma", "--config", str(inputs.BCH_CONF)],
                  lambda d: _near("gamma", d["result"]["gamma"], gamma, DERIVED_REL)),
            CliOp("simulate", ["simulate", *pt, "--trials", str(sim_trials),
                               "--seed", str(self.sim_seed)],
                  lambda d: self.check_cli_simulate(d, inputs.BCH_POINT, sim_trials,
                                                    self.sim_seed)),
        ]

    def cli_ops(self, round_no):
        return self.cli

    def figures(self, part_time, part_work):
        return {
            "grid_cells_per_s": (part_work["grid"] / part_time["grid"], "1/s"),
            "case_studies_per_s": (part_work["case"] / part_time["case"], "1/s"),
            "pdf_points_per_s": (part_work["pdf"] / part_time["pdf"], "1/s"),
        }


class DeepConfirmations(Workload):
    """attack_success_prob and expected_success_time at deep n_bc, called
    directly; the economics layer is not involved."""

    name = "deep-confirmations"
    known_faults = {
        **{f"p_as {p_a},{n},inf": "p_dsa computes 1 - sum and the subtraction cancels"
           for p_a in (0.1, 0.35) for n in (100, 200, 500)},
        **{f"e_tas {p_a},{n},inf": "expected_success_time_inf inherits the cancelled "
           "p_dsa (below the (2 n_bc + 1)/lambda_t floor at p_a = 0.1, negative at "
           "(0.35, 500))"
           for p_a in (0.1, 0.35) for n in (100, 200, 500)},
        **{f"{q} {p_a},500,4": "_state_mass_iter starts its ballot lanes at "
           "exp((n_bc+1) ln p_a + n_bc ln p_h), subnormal or zero at n_bc = 500, so "
           "finite-cut sums lose the overtake family"
           for q in ("p_as", "e_tas") for p_a in (0.1, 0.35)},
        **{f"{q} 0.2,60,50": "_mixture_moments certifies its tail against the "
           "inaccurate p_dsa and stops early (3.5e-8 relative, tol 1e-12)"
           for q in ("p_as", "e_tas")},
    }

    def __init__(self, ds, refs, seed):
        super().__init__(ds, refs, seed)
        self.calls = self.shuffled([(q, pt) for pt in inputs.DEEP_POINTS
                                    for q in ("p_as", "e_tas")])
        self.ops = self._lib_ops()

    def lib_ops(self, round_no):
        return self.ops

    def _lib_ops(self):
        ds = self.ds
        ops = []
        for q, (p_a, n_bc, c) in self.calls:
            spec = self.spec(p_a, n_bc, c, lambda_h=1.0)
            fn = ds.attack_success_prob if q == "p_as" else ds.expected_success_time
            ops.append(Op(f"{q} {p_a},{n_bc},{'inf' if c is None else f'{c:g}'}", "sweep", 1,
                          lambda fn=fn, spec=spec: fn(spec),
                          lambda v, q=q, pt=(p_a, n_bc, c): self._check(q, pt, v)))
        return ops

    def _check(self, q, point, value):
        p_a, n_bc, c = point
        ref = self.ref(*point)
        p_dsa = self.ref(p_a, n_bc, None)["p_dsa"]
        rel = UNBOUNDED_REL if c is None else TOL
        if q == "p_as":
            if not 0.0 <= value <= p_dsa * (1.0 + rel):
                return f"p_as {value!r} outside [0, p_dsa = {p_dsa!r}]"
            return _near("p_as", value, ref["p_as"], rel)
        floor = (2 * n_bc + 1) * (1.0 - p_a) if c is None else ref["e_tas_floor"]
        if not floor <= value <= (math.inf if c is None else c * n_bc):
            return f"e_tas {value!r} outside [{floor!r}, t_cut]"
        return _near("e_tas", value, ref["e_tas"], rel)

    def figures(self, part_time, part_work):
        return {"sweep_s": (part_time["sweep"] / (part_work["sweep"] / len(self.calls)), "s")}


class MonteCarlo(Workload):
    """estimate with short trials (per-trial set-up dominates) and long
    trials (the chunked walk dominates), plus a small estimate_profit."""

    name = "monte-carlo"
    SHORT, LONG, PROFIT = 2000, 500, 400

    def __init__(self, ds, refs, seed):
        super().__init__(ds, refs, seed)
        self.short = self.spec(*inputs.MC_SHORT)
        self.long = self.spec(*inputs.MC_LONG)
        bch = self.ref(*inputs.MC_SHORT)
        p, e = bch["p_as"], bch["e_tas"] / inputs.LAMBDA_H
        self.rate = inputs.BCH["gamma_override"] * self.short.lambda_a
        t_cut = self.short.t_cut
        mu = inputs.BCH["beta_per_block"] / inputs.BCH["gamma_override"]
        self.c_req = (1 - p) / p * self.rate * t_cut - (mu - 1) * self.rate * e
        self.model = ds.EconomicModel(gamma=inputs.BCH["gamma_override"],
                                      beta=inputs.BCH["beta_per_block"], value=self.c_req)
        self.seeds: list[tuple[int, int, int]] = []
        self.summaries: dict[str, list] = {"short": [], "long": [], "profit": []}
        self.first = None
    def _seeds(self, round_no):
        while len(self.seeds) <= round_no:
            self.seeds.append(tuple(self.rng.getrandbits(63) for _ in range(3)))
        return self.seeds[round_no]

    def lib_ops(self, round_no):
        ds = self.ds
        s_short, s_long, s_profit = self._seeds(round_no)

        def keep(name, point, trials):
            def check(s):
                self.summaries[name].append(s)
                if round_no == 0 and name == "short":
                    self.first = s
                return self.check_summary(name, s, point, trials)
            return check

        return [
            Op("estimate short", "short", self.SHORT,
               lambda: ds.estimate(self.short, self.SHORT, s_short),
               keep("short", inputs.MC_SHORT, self.SHORT)),
            Op("estimate long", "long", self.LONG,
               lambda: ds.estimate(self.long, self.LONG, s_long),
               keep("long", inputs.MC_LONG, self.LONG)),
            Op("estimate_profit", "profit", self.PROFIT,
               lambda: ds.estimate_profit(self.model, self.short, self.PROFIT, s_profit),
               keep("profit", inputs.MC_SHORT, self.PROFIT)),
        ]

    def finish(self):
        problems = []
        for name, point in (("short", inputs.MC_SHORT), ("long", inputs.MC_LONG)):
            ref = self.ref(*point)
            runs = self.summaries[name]
            n = sum(s.trials for s in runs)
            k = sum(s.successes for s in runs)
            p_hat = k / n
            problems.append(self.within_sigmas(f"{name} p_as_hat", p_hat, ref["p_as"],
                                               math.sqrt(ref["p_as"] * (1 - ref["p_as"]) / n)))
            total_t = sum(s.mean_tas * s.successes for s in runs)
            total_t2 = sum(s.var_tas * (s.successes - 1) + s.mean_tas ** 2 * s.successes
                           for s in runs)
            mean = total_t / k
            var = (total_t2 - k * mean * mean) / (k - 1)
            problems.append(self.within_sigmas(f"{name} mean_tas", mean,
                                               ref["e_tas"] / inputs.LAMBDA_H,
                                               math.sqrt(var / k)))
        # a trial's profit lies in [-rate t_cut, c_req + (beta/gamma - 1) rate t_cut],
        # so its standard deviation is at most half that span
        runs = self.summaries["profit"]
        n = sum(s.trials for s in runs)
        mean = sum(s.mean_profit * s.trials for s in runs) / n
        span = self.c_req + self.rate * self.short.t_cut * inputs.BCH["beta_per_block"] \
            / inputs.BCH["gamma_override"]
        if abs(mean) > MC_SIGMAS * span / 2 / math.sqrt(n):
            problems.append(f"mean profit at c_req is {mean!r}, expected 0")
        again = self.ds.estimate(self.short, self.SHORT, self._seeds(0)[0])
        if again != self.first:
            problems.append("a repeated seeded estimate did not reproduce itself bit for bit")
        return [p for p in problems if p]

    def figures(self, part_time, part_work):
        return {"mc_short_trials_per_s": (part_work["short"] / part_time["short"], "1/s"),
                "mc_long_trials_per_s": (part_work["long"] / part_time["long"], "1/s")}


WORKLOADS = {w.name: w for w in (PaperGrid, DeepConfirmations, MonteCarlo)}
