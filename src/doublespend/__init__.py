"""Double-spending attacks on proof-of-work blockchains: success
probability, attack timing, operating cost, and profitability.

The model: an attacker holding a share p_a of the network's block-finding
power secretly mines a fork while the honest chain accumulates n_bc
confirmations, publishing the fork the moment it is longer than a confirmed
honest chain, and giving up at a chosen cut-time. Block arrivals on both
chains are Poisson. This package computes the success probability of that
race (bounded or unbounded), the distribution and mean of the time success
takes, the expected operating expenditure, and the transaction value above
which the attack turns profitable — plus a Monte Carlo estimator and an
exact small-instance enumerator that validate the closed forms.
"""
from .economics import (
    EconomicModel,
    INFINITE_REQUIREMENT,
    expected_opex,
    expected_profit,
    opex,
    repeated_attack_projection,
    required_value,
    reward,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CostGuardError,
    DomainError,
    DoubleSpendError,
    SingularityError,
    UndefinedExpectationError,
    UnsupportedAnalyticError,
)
from .reporting import (
    NetworkConfig,
    ResourceTable,
    TableCell,
    build_resource_table,
    case_study,
    format_full,
    format_sig,
    gamma_from_market,
    load_network_config,
    premine_comparison,
    render_json,
    render_record,
    render_rows,
    render_table,
    resolve_gamma,
    to_jsonable,
)
from .simulate import (
    SimulationSummary,
    TrialOutcome,
    enumerate_exact,
    estimate,
    estimate_profit,
    simulate_one,
)
from .timing import (
    attack_success_prob,
    dsa_time_density,
    expected_success_time,
    expected_success_time_inf,
    p_dsa_at_state,
    sampling_grid,
)
from .walk import (
    INFINITE,
    AttackSpec,
    ballot_number,
    p_dsa,
    premine_success_prob,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "attack_success_prob",
    "AttackSpec",
    "ballot_number",
    "build_resource_table",
    "case_study",
    "ConfigError",
    "ConvergenceError",
    "CostGuardError",
    "DomainError",
    "DoubleSpendError",
    "dsa_time_density",
    "EconomicModel",
    "enumerate_exact",
    "estimate",
    "estimate_profit",
    "expected_opex",
    "expected_profit",
    "expected_success_time",
    "expected_success_time_inf",
    "format_full",
    "format_sig",
    "gamma_from_market",
    "INFINITE",
    "INFINITE_REQUIREMENT",
    "load_network_config",
    "NetworkConfig",
    "opex",
    "p_dsa",
    "p_dsa_at_state",
    "premine_comparison",
    "premine_success_prob",
    "render_json",
    "render_record",
    "render_rows",
    "render_table",
    "repeated_attack_projection",
    "required_value",
    "resolve_gamma",
    "ResourceTable",
    "reward",
    "sampling_grid",
    "simulate_one",
    "SimulationSummary",
    "SingularityError",
    "TableCell",
    "to_jsonable",
    "TrialOutcome",
    "UndefinedExpectationError",
    "UnsupportedAnalyticError",
]
