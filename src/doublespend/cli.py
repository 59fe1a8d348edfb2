"""Command-line interface.

Every analytic and simulation capability is exposed as a subcommand. All
outputs echo the resolved parameters for auditability, identical
invocations produce byte-identical output (simulation included, via the
seed), and JSON output round-trips through a strict parser.

Exit codes: 0 success, 2 invalid input or configuration, 3 a series or
integration failed to converge within its certified bounds.
"""
from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Sequence

from .economics import EconomicModel, expected_profit, required_value
from .errors import ConvergenceError, DoubleSpendError
from .reporting import _case_report, _requirement_assessment, build_resource_table, \
    gamma_from_market, load_network_config, premine_comparison, render_record, \
    render_rows, render_table
from .simulate import estimate, estimate_profit
from .timing import _conditional_moments, attack_success_prob, sampling_grid
from .walk import INFINITE, AttackSpec, _cut_seconds, _deadline

_DEFAULT_BLOCK_TIME = 600.0
_DEFAULT_TOL = 1e-12
_DEFAULT_TRIALS = 100_000
_DEFAULT_SEED = 0


def _cut_float(text: str) -> float:
    """Parse --cut-time / --cut-mult: a number, or 'inf' for an unbounded cut."""
    try:  # float() reads 'inf' and 'infinity' itself
        return math.inf if text.strip().lower() == "infinite" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or 'inf', got {text!r}"
        ) from None


def _list_of(cast: Callable[[str], object], what: str) -> Callable[[str], list]:
    """An argparse type reading comma-separated values through cast."""
    def parse(text: str) -> list:
        try:
            return [cast(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse


def _add_point_flags(parser: argparse.ArgumentParser, *, economics: bool = False,
                     value: bool = False, cut_required: bool = True,
                     rate: bool = True, tol: bool = True) -> None:
    """The operating point: share, depth, the cost and reward rates (if
    economics is set) and transaction value (if value is set), tolerance
    (unless tol is unset), cut and honest rate."""
    parser.add_argument("--pa", type=float, required=True,
                        help="attacker share of total block-finding power")
    parser.add_argument("--nbc", type=int, required=True,
                        help="confirmations required by the merchant")
    if economics:
        parser.add_argument("--gamma", type=float, required=True,
                            help="operating cost per block interval of "
                                 "attacker-scale hashrate")
        parser.add_argument("--beta", type=float, required=True,
                            help="block reward")
    if value:
        parser.add_argument("--value", type=float, default=0.0, metavar="C",
                            help="double-spent transaction value (default 0)")
    if tol:
        parser.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                            help=f"series truncation tolerance (default {_DEFAULT_TOL:g})")
    group = parser.add_mutually_exclusive_group(required=cut_required)
    group.add_argument("--cut-time", type=_cut_float, dest="cut_time",
                       metavar="SECONDS|inf",
                       help="give-up deadline in seconds, or 'inf'")
    group.add_argument("--cut-mult", "--c", type=_cut_float, dest="cut_mult",
                       metavar="C|inf",
                       help="deadline as C block intervals per confirmation "
                            "(t_cut = C * nbc / lambda_h)")
    if rate:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--lambda-h", type=float, dest="lambda_h",
                           metavar="RATE", help="honest block rate in blocks/second")
        group.add_argument("--block-time", type=float, dest="block_time",
                           default=_DEFAULT_BLOCK_TIME, metavar="SECONDS",
                           help="mean honest block interval in seconds "
                                f"(default {_DEFAULT_BLOCK_TIME:g} when neither "
                                "rate flag is given)")


def _clock(args: argparse.Namespace) -> tuple[float | None, float]:
    """(--lambda-h as given or None, the block interval in seconds) of the
    rate flags: --block-time, or 1/--lambda-h, or 600 s. The flag given and
    the value derived from it must both be positive and finite."""
    lambda_h = args.lambda_h
    name, rate, other = (("block time", args.block_time, "lambda_h") if lambda_h is None
                         else ("lambda_h", lambda_h, "block time"))
    if not 0.0 < rate < math.inf:
        raise DoubleSpendError(f"{name} must be positive and finite, got {rate}")
    if not 1.0 / rate < math.inf:  # rate below about 5.6e-309; never 0
        raise DoubleSpendError(f"{name} = {rate} gives {other} = {1.0 / rate}; "
                               f"both must be positive and finite")
    return lambda_h, rate if lambda_h is None else 1.0 / rate


def _resolve_spec(args: argparse.Namespace,
                  block_time: float | None = None) -> AttackSpec:
    """The spec of the point flags on a clock of block_time seconds, by
    default the rate flags' (see _clock; --lambda-h is kept as given).
    Only a +inf cut flag, or none at all, means an unbounded attack; any
    other value, -inf and nan included, goes to AttackSpec to be
    checked."""
    lambda_h = None
    if block_time is None:
        lambda_h, block_time = _clock(args)
    if args.cut_mult is not None:
        t_cut = _deadline(args.cut_mult, args.nbc, block_time)
    else:
        t_cut = INFINITE if args.cut_time in (None, math.inf) else args.cut_time
    return AttackSpec(p_a=args.pa, n_bc=args.nbc, t_cut=t_cut,
                      lambda_h=1.0 / block_time if lambda_h is None else lambda_h)


def _spec_params(spec: AttackSpec, tol: float | None = None) -> dict[str, object]:
    params: dict[str, object] = {
        "p_a": spec.p_a,
        "n_bc": spec.n_bc,
        "t_cut_seconds": _cut_seconds(spec),
        "lambda_h": spec.lambda_h,
    }
    if tol is not None:
        params["tol"] = tol
    return params


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the rendered report

def _cmd_prob(args: argparse.Namespace) -> str:
    spec = _resolve_spec(args)
    result = {"p_as": attack_success_prob(spec, args.tol)}
    return render_record(_spec_params(spec, args.tol), result, args.format)


def _cmd_pdf(args: argparse.Namespace) -> str:
    spec = _resolve_spec(args)
    if args.t_max is not None:
        t_max = args.t_max
    elif not spec.infinite_cut:
        t_max = spec.t_cut
    else:
        t_max = _deadline(6.0, spec.n_bc, _clock(args)[1])
    if t_max <= 0:
        raise DoubleSpendError(f"--t-max must be positive, got {t_max}")
    if args.points < 1:
        raise DoubleSpendError(f"--points must be positive, got {args.points}")
    times = [t_max * k / args.points for k in range(1, args.points + 1)]
    rows = [
        {"t_seconds": t, "density": d, "success_prob": p}
        for t, d, p in sampling_grid(spec, times, args.tol)
    ]
    params = _spec_params(spec, args.tol)
    params["t_max"] = t_max
    params["points"] = args.points
    return render_rows(params, rows, ("t_seconds", "density", "success_prob"),
                       args.format)


def _cmd_expect_time(args: argparse.Namespace) -> str:
    spec = _resolve_spec(args)
    p_as, e_tas = _conditional_moments(spec, args.tol)
    result = {"e_tas_seconds": e_tas, "p_as": p_as}
    return render_record(_spec_params(spec, args.tol), result, args.format)


def _cmd_profit(args: argparse.Namespace) -> str:
    spec = _resolve_spec(args)
    model = EconomicModel(gamma=args.gamma, beta=args.beta, value=args.value)
    params = _spec_params(spec, args.tol)
    params.update(gamma=args.gamma, beta=args.beta, value=args.value,
                  mu=model.mu)
    result = {"e_p": expected_profit(model, spec, args.tol)}
    return render_record(params, result, args.format)


def _cmd_creq(args: argparse.Namespace) -> str:
    spec = _resolve_spec(args)
    model = EconomicModel(gamma=args.gamma, beta=args.beta)
    params = _spec_params(spec, args.tol)
    params.update(gamma=args.gamma, beta=args.beta, mu=model.mu)
    c_req = required_value(model, spec, args.tol)
    result = {"c_req": c_req, "assessment": _requirement_assessment(c_req)}
    return render_record(params, result, args.format)


def _cmd_table(args: argparse.Namespace) -> str:
    table = build_resource_table(args.nbc, args.pa, args.cut_mult, args.tol)
    params = {
        "c": args.cut_mult,
        "n_bc_list": ",".join(str(n) for n in args.nbc),
        "p_a_list": ",".join(repr(p) for p in args.pa),
        "tol": args.tol,
    }
    return render_table(table, args.format, params)


def _cmd_case_study(args: argparse.Namespace) -> str:
    cfg = load_network_config(args.config)
    spec = _resolve_spec(args, cfg.block_time_seconds)
    # a cut given in seconds is used as given; its c is only reported
    c = args.cut_mult if args.cut_time is None \
        else args.cut_time / (args.nbc * cfg.block_time_seconds)
    report = _case_report(cfg, spec, c, args.tol)
    params = {"config": str(args.config), "tol": args.tol}
    return render_record(params, report, args.format)


def _cmd_compare_premine(args: argparse.Namespace) -> str:
    result = premine_comparison(args.pa, args.nbc)
    params = {"p_a": args.pa, "n_bc": args.nbc}
    return render_record(params, result, args.format)


def _cmd_simulate(args: argparse.Namespace) -> str:
    spec = _resolve_spec(args)
    if (args.gamma is None) != (args.beta is None):
        raise DoubleSpendError(
            "--gamma and --beta must be given together for profit estimation"
        )
    if args.value is not None and args.gamma is None:
        raise DoubleSpendError("--value needs --gamma and --beta")
    if args.independent_clocks and args.gamma is not None:
        raise DoubleSpendError("--independent-clocks does not estimate profit")
    value = 0.0 if args.value is None else args.value
    # the trace goes to a sibling part file, moved onto --trace only when
    # the run succeeds, so a refused run leaves an existing file as it was
    part = None if args.trace is None else args.trace.with_name(args.trace.name + ".part")
    try:
        with (nullcontext() if part is None
              else open(part, "w", encoding="utf-8", newline="")) as trace_to:
            if args.gamma is not None:
                model = EconomicModel(gamma=args.gamma, beta=args.beta, value=value)
                summary = estimate_profit(model, spec, args.trials, args.seed,
                                          event_cap=args.event_cap, trace_to=trace_to)
            else:
                summary = estimate(spec, args.trials, args.seed,
                                   event_cap=args.event_cap,
                                   independent_clocks=args.independent_clocks,
                                   trace_to=trace_to)
        if part is not None:
            part.replace(args.trace)
    finally:
        if part is not None:
            part.unlink(missing_ok=True)
    params = _spec_params(spec)
    params.update(trials=args.trials, seed=args.seed)
    if args.event_cap is not None:
        params["event_cap"] = args.event_cap
    if args.independent_clocks:
        params["independent_clocks"] = True
    if args.gamma is not None:
        params.update(gamma=args.gamma, beta=args.beta, value=value)
    result: dict[str, object] = {
        "trials": summary.trials,
        "successes": summary.successes,
        "p_as_hat": summary.p_as_hat,
        "se_p_as": summary.se_p_as,
        "mean_tas": summary.mean_tas,
        "se_tas": summary.se_tas,
        "var_tas": summary.var_tas,
        "truncated_trials": summary.truncated_trials,
    }
    if summary.mean_profit is not None:
        result["mean_profit"] = summary.mean_profit
    return render_record(params, result, args.format)


def _cmd_market_gamma(args: argparse.Namespace) -> str:
    cfg = load_network_config(args.config)
    params: dict[str, object] = {
        "config": str(args.config),
        "network": cfg.name,
        "block_time_seconds": cfg.block_time_seconds,
    }
    if cfg.rental_price_per_hash is not None:
        params["rental_price_per_hash"] = cfg.rental_price_per_hash
    if cfg.network_hashrate is not None:
        params["network_hashrate"] = cfg.network_hashrate
    result = {"gamma": gamma_from_market(cfg)}
    return render_record(params, result, args.format)


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublespend",
        description="Success probability, timing, and economics of "
                    "double-spending attacks on proof-of-work blockchains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable[[argparse.Namespace], str],
                help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    _add_point_flags(command("prob", _cmd_prob, "attack success probability"))

    p = command("pdf", _cmd_pdf, "achieving-time density and success "
                                 "probability on a time grid")
    _add_point_flags(p, cut_required=False)
    p.add_argument("--t-max", type=float, default=None,
                   help="largest grid time in seconds (default: the cut-time "
                        "if finite, else 6*nbc block intervals)")
    p.add_argument("--points", type=int, default=50,
                   help="number of grid points (default 50)")

    _add_point_flags(command("expect-time", _cmd_expect_time,
                             "conditional mean success time"))
    _add_point_flags(command("profit", _cmd_profit, "expected attack profit"),
                     economics=True, value=True)
    _add_point_flags(command("creq", _cmd_creq,
                             "transaction value required for profitability"),
                     economics=True)

    p = command("table", _cmd_table, "scaled resource table over a "
                                     "(nbc, pa) grid")
    p.add_argument("--nbc", type=_list_of(int, "integers"), required=True,
                   help="comma-separated confirmation depths")
    p.add_argument("--pa", type=_list_of(float, "numbers"), required=True,
                   help="comma-separated attacker shares")
    p.add_argument("--cut-mult", "--c", type=float, required=True,
                   dest="cut_mult", metavar="C",
                   help="deadline as C block intervals per confirmation")
    p.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                   help=f"series truncation tolerance (default {_DEFAULT_TOL:g})")

    p = command("case-study", _cmd_case_study, "full attack economics for a "
                                               "configured network")
    p.add_argument("--config", type=Path, required=True,
                   help="network config file (key = value lines)")
    _add_point_flags(p, rate=False)

    p = command("compare-premine", _cmd_compare_premine,
                "attack success probability versus a pre-built secret lead")
    p.add_argument("--pa", type=float, required=True,
                   help="attacker share of total block-finding power")
    p.add_argument("--nbc", type=int, required=True,
                   help="confirmations required by the merchant")

    p = command("simulate", _cmd_simulate, "Monte Carlo estimate of success "
                                           "probability and timing")
    _add_point_flags(p, tol=False)
    p.add_argument("--trials", type=int, default=_DEFAULT_TRIALS,
                   help=f"number of trials (default {_DEFAULT_TRIALS})")
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED,
                   help=f"master seed (default {_DEFAULT_SEED})")
    p.add_argument("--event-cap", type=int, default=None, dest="event_cap",
                   help="per-trial arrival cap; required for an unbounded "
                        "cut with pa < 0.5")
    p.add_argument("--independent-clocks", action="store_true",
                   help="simulate two racing exponential clocks instead of "
                        "the merged process (self-check variant)")
    p.add_argument("--gamma", type=float, default=None,
                   help="with --beta: also estimate mean profit per attempt")
    p.add_argument("--beta", type=float, default=None,
                   help="with --gamma: also estimate mean profit per attempt")
    p.add_argument("--value", type=float, default=None, metavar="C",
                   help="double-spent transaction value (default 0)")
    p.add_argument("--trace", type=Path, default=None,
                   help="write one CSV row per trial to this file")

    p = command("market-gamma", _cmd_market_gamma,
                "per-block operating cost implied by hashrate rental figures")
    p.add_argument("--config", type=Path, required=True,
                   help="network config file (key = value lines)")

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text", help="output format (default text)")
        p.add_argument("--out", type=Path, default=None,
                       help="write output to this file instead of stdout")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text = args.handler(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            args.out.write_text(text, encoding="utf-8")
        return 0
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DoubleSpendError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
