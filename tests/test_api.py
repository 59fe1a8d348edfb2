"""The package root exports what users call, and nothing else."""

import importlib
from pathlib import Path

import doublespend
from doublespend import specfun

ROOT_API = {
    # model and probabilities
    "AttackSpec", "INFINITE", "p_dsa", "p_dsa_at_state",
    "premine_success_prob", "ballot_number", "attack_success_prob",
    # timing
    "expected_success_time", "expected_success_time_inf", "dsa_time_density",
    "sampling_grid",
    # economics
    "EconomicModel", "INFINITE_REQUIREMENT", "opex", "reward", "expected_opex",
    "expected_profit", "required_value", "repeated_attack_projection",
    # networks and reports
    "NetworkConfig", "load_network_config", "gamma_from_market",
    "resolve_gamma", "ResourceTable", "TableCell", "build_resource_table",
    "case_study", "premine_comparison",
    # rendering
    "format_sig", "format_full", "to_jsonable", "render_json",
    "render_record", "render_rows", "render_table",
    # Monte Carlo and exact enumeration
    "estimate", "estimate_profit", "simulate_one", "SimulationSummary",
    "TrialOutcome", "enumerate_exact",
    # errors
    "DoubleSpendError", "DomainError", "ConvergenceError", "SingularityError",
    "UnsupportedAnalyticError", "UndefinedExpectationError", "CostGuardError",
    "ConfigError",
}


def test_root_exports_exactly_the_user_api():
    names = [n for n in doublespend.__all__ if n != "__version__"]
    assert len(names) == len(set(names)) == 49
    assert set(names) == ROOT_API
    for name in doublespend.__all__:
        assert hasattr(doublespend, name), name


def test_kernels_live_in_specfun_only():
    for name in ("regularized_gamma_p", "erlang_pdf", "hypergeom_pfq",
                 "log_hypergeom_pfq", "HypergeomParams"):
        assert hasattr(specfun, name), name
        assert not hasattr(doublespend, name), name


def test_removed_names_are_gone():
    from doublespend import simulate, timing, walk

    removed = ("ballot_gen_fn", "ballot_gen_fn_deriv", "binom_gen_fn",
               "binom_gen_fn_deriv", "regularized_gamma_q", "erlang_cdf",
               "WalkPath", "DefectiveTimeDistribution",
               "dsa_time_distribution", "_ballot_coeff")
    for module in (doublespend, specfun, simulate, timing, walk):
        for name in removed:
            assert not hasattr(module, name), (module.__name__, name)


def test_traced_functions_exist():
    # perfbench/tracer.py wraps package functions by name, so a rename fails
    # here and not only in a traced benchmark run; the file is read, not
    # imported, and imports only the standard library
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer: dict = {"__name__": "tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer)
    for home, names in (*tracer["LAYERS"].values(), *tracer["COUNTED"].values()):
        module = importlib.import_module(f"doublespend.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"doublespend.{home}.{name}"
