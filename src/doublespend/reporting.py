"""Report assembly: resource tables, network case studies, and rendering.

The resource table is computed in scaled units — times in multiples of the
mean honest block interval, money in multiples of the per-block operating
cost gamma — by fixing lambda_h = 1 and gamma = 1 internally. The scaling
therefore cancels exactly rather than to rounding error, and one table
serves every network with the same (p_a, n_bc, c).

Output formats: aligned plain text with 4 significant digits for reading,
CSV and JSON at full float precision for plotting and round-tripping. JSON
output never contains bare Infinity (it would not round-trip through a
strict parser); non-finite values are rendered as the strings "infinite",
"-infinite", and "nan".
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .economics import EconomicModel, _give_up_per_success, _opex, _required, \
    _runtime
from .errors import ConfigError, DomainError, _is_real
from .timing import _conditional_moments
from .walk import INFINITE, AttackSpec, _cut_seconds, _deadline, p_dsa, \
    premine_success_prob


@dataclass(frozen=True)
class NetworkConfig:
    """Economic parameters of one proof-of-work network.

    The fields are the keys of a network config file; those without a
    default are required. Either both market fields (rental_price_per_hash,
    network_hashrate) or gamma_override must be present so that the
    per-block operating cost is derivable. Market fields accept zero (a
    degenerate free-hashrate market, flagged with a warning when used);
    everything else must be positive.
    """

    name: str
    beta_per_block: float
    block_time_seconds: float
    rental_price_per_hash: float | None = None
    network_hashrate: float | None = None
    gamma_override: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("network name must be non-empty")
        for field in dataclasses.fields(self):
            label, v = field.name, getattr(self, field.name)
            if field.type == "str" or (v is None and field.default is None):
                continue
            market = label in ("rental_price_per_hash", "network_hashrate")
            # nan fails every comparison
            valid = _is_real(v) and (0 <= v if market else 0 < v) and v < math.inf
            if not valid:
                kind = "nonnegative" if market else "positive"
                raise ConfigError(f"{label} must be a {kind} finite number, got {v!r}")
        market = (self.rental_price_per_hash is not None
                  and self.network_hashrate is not None)
        if not market and self.gamma_override is None:
            raise ConfigError(
                "per-block cost is not derivable: provide both "
                "rental_price_per_hash and network_hashrate, or gamma_override"
            )

    @property
    def lambda_h(self) -> float:
        return 1.0 / self.block_time_seconds


def load_network_config(path: str | Path) -> NetworkConfig:
    """Parse a flat key=value network config file.

    One `key = value` pair per line; blank lines and lines starting with
    '#' are ignored. Unknown and duplicate keys are errors, not warnings:
    a silently dropped typo in a cost field corrupts every downstream
    number.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    fields = {field.name: field for field in dataclasses.fields(NetworkConfig)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if fields[key].type == "str":
            values[key] = value
        else:
            try:
                values[key] = float(value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: {key} must be a number, got {value!r}"
                ) from exc
    for key, field in fields.items():
        if field.default is dataclasses.MISSING and key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return NetworkConfig(**values)  # type: ignore[arg-type]


def gamma_from_market(cfg: NetworkConfig) -> float:
    """Per-block operating cost implied by the hashrate rental market.

    price per hash x network hashrate x seconds per block = cost of renting
    the whole network's hashrate for one block interval. Falls back to
    gamma_override when the market fields are absent (NetworkConfig holds
    one or the other); a zero market price yields zero with a warning
    rather than an error.
    """
    if cfg.rental_price_per_hash is None or cfg.network_hashrate is None:
        return cfg.gamma_override
    gamma = cfg.rental_price_per_hash * cfg.network_hashrate \
        * cfg.block_time_seconds
    if gamma == 0.0:
        warnings.warn(
            f"network {cfg.name!r}: market-implied per-block cost is zero; "
            "downstream cost figures will be degenerate",
            stacklevel=2,
        )
    return gamma


def resolve_gamma(cfg: NetworkConfig) -> float:
    """Per-block cost with explicit override taking precedence."""
    if cfg.gamma_override is not None:
        return cfg.gamma_override
    return gamma_from_market(cfg)


@dataclass(frozen=True)
class TableCell:
    """One resource-table entry, all values in scaled units.

    e_tas_scaled is in block intervals (multiples of 1/lambda_h); e_x_scaled
    and the c_req coefficients are in multiples of gamma. The required value
    is affine in the reward-to-cost ratio mu:
        c_req(mu) = gamma * (c_req_mu_coeff * (1 - mu) + c_req_const)
    """

    n_bc: int
    p_a: float
    p_as: float
    e_tas_scaled: float
    e_x_scaled: float
    c_req_mu_coeff: float
    c_req_const: float

    def c_req(self, mu: float, gamma: float = 1.0) -> float:
        return gamma * (self.c_req_mu_coeff * (1.0 - mu) + self.c_req_const)


@dataclass(frozen=True)
class ResourceTable:
    """Grid of TableCell rows in row-major (n_bc outer, p_a inner) order."""

    c: float
    cells: tuple[TableCell, ...]

    def __getitem__(self, key: tuple[int, float]) -> TableCell:
        n_bc, p_a = key
        for cell in self.cells:
            if cell.n_bc == n_bc and cell.p_a == p_a:
                return cell
        raise KeyError(key)


def build_resource_table(n_bc_list: Sequence[int], p_a_list: Sequence[float],
                         c: float, tol: float = 1e-12) -> ResourceTable:
    """Success/cost/requirement grid at cut-time c block intervals per
    confirmation.

    Each cell fixes t_cut = c * n_bc block intervals and reports success
    probability, conditional success time, expected operating cost, and the
    affine coefficients of the required transaction value, all in scaled
    units (see TableCell).
    """
    if not n_bc_list or not p_a_list:
        raise DomainError("n_bc_list and p_a_list must be non-empty")
    if not (isinstance(c, (int, float)) and 0 < c < math.inf):
        raise DomainError(f"cut-time multiplier must be positive and finite, got {c!r}")
    cells = []
    for n_bc in n_bc_list:
        for p_a in p_a_list:
            spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=_deadline(c, n_bc, 1.0),
                              lambda_h=1.0)
            p_as, e_tas = _conditional_moments(spec, tol)
            ratio = spec.lambda_a  # p_a / p_h at lambda_h = 1
            e_x = ratio * _runtime(spec, p_as, e_tas)
            coeff = ratio * e_tas
            const = _give_up_per_success(spec, p_as, ratio)
            cells.append(TableCell(
                n_bc=n_bc, p_a=p_a, p_as=p_as, e_tas_scaled=e_tas,
                e_x_scaled=e_x, c_req_mu_coeff=coeff, c_req_const=const,
            ))
    return ResourceTable(c=float(c), cells=tuple(cells))


def case_study(cfg: NetworkConfig, p_a: float, n_bc: int, c: float,
               tol: float = 1e-12) -> dict[str, object]:
    """Full attack economics for one network at one operating point.

    c is the cut-time in block intervals per confirmation; pass math.inf
    for an unbounded attack. Echoes every resolved parameter alongside the
    results; the assessment field classifies the requirement: a negative
    required value means the attack pays for itself at any transaction
    value ("always profitable"), an infinite one means no value suffices.
    """
    if c is INFINITE:
        c = math.inf
    if not (isinstance(c, (int, float)) and c > 0):
        raise DomainError(f"cut-time multiplier must be positive, got {c!r}")
    c = float(c)
    t_cut = _deadline(c, n_bc, cfg.block_time_seconds)
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=t_cut, lambda_h=cfg.lambda_h)
    return _case_report(cfg, spec, c, tol)


def _case_report(cfg: NetworkConfig, spec: AttackSpec, c: float,
                 tol: float) -> dict[str, object]:
    """case_study's report for a spec on cfg's clock; c is only echoed."""
    model = EconomicModel(gamma=resolve_gamma(cfg), beta=cfg.beta_per_block)
    p_as, e_tas = _conditional_moments(spec, tol)
    c_req = _required(model, spec, p_as, e_tas)
    return {
        "network": cfg.name,
        "p_a": spec.p_a,
        "n_bc": spec.n_bc,
        "c": c,
        "t_cut_seconds": _cut_seconds(spec),
        "lambda_h": spec.lambda_h,
        "gamma": model.gamma,
        "beta": model.beta,
        "mu": model.mu,
        "p_as": p_as,
        "e_tas_seconds": e_tas,
        "e_x": _opex(model, spec, p_as, e_tas),
        "c_req": c_req,
        "runtime_per_attempt": _runtime(spec, p_as, e_tas),
        "assessment": _requirement_assessment(c_req),
    }


def _requirement_assessment(c_req: float) -> str:
    """Classify a required value: negative means the attack pays for itself
    at any transaction value, infinite means no value suffices."""
    if c_req == math.inf:
        return "never profitable"
    if c_req < 0:
        return "always profitable"
    return "profitable above required value"


def premine_comparison(p_a: float, n_bc: int) -> dict[str, float]:
    """Success probability of the attack versus a pre-built secret lead.

    The pre-mine route must assemble n_bc + 1 consecutive attacker blocks
    before any honest block; the attack proper may fall behind and recover,
    so its probability is strictly larger for p_a < 1/2. Where p_premine
    is below the normal floats, dividing by it would lose digits or divide
    by zero, so the ratio comes from logarithms instead.
    """
    spec = AttackSpec(p_a=p_a, n_bc=n_bc, t_cut=INFINITE)
    p = p_dsa(spec)
    pre = premine_success_prob(spec)
    if p == 0.0:
        raise DomainError(f"p_dsa underflows to 0 at p_a = {p_a}, n_bc = {n_bc}; "
                          f"the ratio is undefined in floating point")
    if pre >= sys.float_info.min:
        ratio = p / pre
    else:
        try:
            ratio = math.exp(math.log(p) - (n_bc + 1) * math.log(spec.p_a / spec.p_h))
        except OverflowError:
            raise DomainError(f"the ratio at p_a = {p_a}, n_bc = {n_bc} "
                              f"exceeds the float range") from None
    return {"p_dsa": p, "p_premine": pre, "ratio": ratio}


# ---------------------------------------------------------------------------
# rendering

def _nonfinite_word(x: float) -> str:
    return "nan" if math.isnan(x) else "infinite" if x > 0 else "-infinite"


def format_sig(x: object, digits: int = 4) -> str:
    """Human-facing number: 4 significant digits, words for non-finite."""
    if not isinstance(x, float):
        return str(x)
    return f"{x:.{digits}g}" if math.isfinite(x) else _nonfinite_word(x)


def format_full(x: object) -> str:
    """Machine-facing number: shortest round-tripping decimal."""
    if not isinstance(x, float):
        return str(x)
    return repr(x) if math.isfinite(x) else _nonfinite_word(x)


def to_jsonable(obj: object) -> object:
    """Recursively convert to strict-JSON-safe values.

    Non-finite floats become the strings "infinite" / "-infinite" / "nan";
    dataclasses become dicts; tuples become lists.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else _nonfinite_word(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return to_jsonable(dataclasses.asdict(obj))
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def render_json(params: Mapping[str, object], result: object) -> str:
    payload = {"params": to_jsonable(params), "result": to_jsonable(result)}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _params_text(params: Mapping[str, object]) -> list[str]:
    return [f"# {k} = {format_sig(v, 6)}" for k, v in params.items()]


def render_record(params: Mapping[str, object], result: Mapping[str, object],
                  fmt: str = "text") -> str:
    """One scalar report in the requested format, parameters echoed."""
    if fmt == "json":
        return render_json(params, result)
    if fmt == "csv":
        return render_rows(params, [result], list(result), fmt)
    if fmt == "text":
        lines = _params_text(params)
        width = max(len(k) for k in result)
        lines.extend(
            f"{k.ljust(width)}  {format_sig(v)}" for k, v in result.items()
        )
        return "\n".join(lines) + "\n"
    raise DomainError(f"unknown format {fmt!r}")


def render_rows(params: Mapping[str, object], rows: Iterable[Mapping[str, object]],
                fieldnames: Sequence[str], fmt: str = "text") -> str:
    """Tabular rows (sampling grids, traces) in the requested format."""
    rows = list(rows)
    if fmt == "json":
        return render_json(params, rows)
    if fmt == "csv":
        buf = io.StringIO()
        buf.writelines(line + "\n" for line in _params_text(params))
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([format_full(row[f]) for f in fieldnames] for row in rows)
        return buf.getvalue()
    if fmt == "text":
        cells = [[format_sig(row[f]) for f in fieldnames] for row in rows]
        widths = [
            max(len(name), *(len(r[i]) for r in cells)) if cells else len(name)
            for i, name in enumerate(fieldnames)
        ]
        lines = _params_text(params)
        lines.append("  ".join(n.rjust(w) for n, w in zip(fieldnames, widths)))
        lines.extend(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in cells
        )
        return "\n".join(lines) + "\n"
    raise DomainError(f"unknown format {fmt!r}")


def render_table(table: ResourceTable, fmt: str = "text",
                 params: Mapping[str, object] | None = None) -> str:
    """Resource table in the requested format.

    Text shows the required value as its affine form in the reward-to-cost
    ratio mu; CSV/JSON expose the raw coefficients at full precision.
    """
    params = dict(params or {})
    params.setdefault("c", table.c)
    if fmt == "json":
        return render_json(params, table)
    if fmt == "text":
        header = ("n_bc", "p_a", "p_as", "e_tas/blk", "e_x/gamma", "c_req/gamma")
        rows = [
            dict(zip(header, (cell.n_bc, cell.p_a, cell.p_as, cell.e_tas_scaled,
                              cell.e_x_scaled,
                              f"{format_sig(cell.c_req_mu_coeff)}*(1-mu)+"
                              f"{format_sig(cell.c_req_const)}")))
            for cell in table.cells
        ]
        return render_rows(params, rows, header, fmt)
    fields = [f.name for f in dataclasses.fields(TableCell)]
    return render_rows(params, map(dataclasses.asdict, table.cells), fields, fmt)
