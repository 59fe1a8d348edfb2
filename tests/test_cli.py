"""End-to-end command-line tests driven through run()."""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from doublespend import (AttackSpec, ConvergenceError, attack_success_prob,
                         estimate, expected_success_time, timing)
from doublespend.cli import run
from mass_oracles import walk_dp_cut

DEEPEST = str(timing._MAX_NBC + 1)

BCH_CONF = """\
name = bch
beta_per_block = 0.44
block_time_seconds = 600
gamma_override = 0.422
"""


@pytest.fixture
def bch_config(tmp_path):
    path = tmp_path / "bch.conf"
    path.write_text(BCH_CONF, encoding="utf-8")
    return str(path)


def _json_out(capsys):
    payload = json.loads(capsys.readouterr().out)
    return payload["params"], payload["result"]


class TestSmoke:
    def test_prob(self, capsys):
        assert run(["prob", "--pa", "0.35", "--nbc", "5",
                    "--cut-mult", "4", "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["p_as"] == pytest.approx(0.218, abs=0.001)

    def test_prob_unbounded_cut(self, capsys):
        assert run(["prob", "--pa", "0.35", "--nbc", "5",
                    "--cut-time", "inf"]) == 0
        assert "0.2287" in capsys.readouterr().out

    def test_pdf_row_count(self, capsys):
        assert run(["pdf", "--pa", "0.35", "--nbc", "2", "--cut-mult", "4",
                    "--points", "10", "--format", "csv"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "t_seconds,density,success_prob"
        assert len(lines) == 11

    def test_expect_time(self, capsys):
        assert run(["expect-time", "--pa", "0.35", "--nbc", "5",
                    "--cut-mult", "4", "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["e_tas_seconds"] == pytest.approx(5200.0, rel=1e-2)

    def test_profit(self, capsys):
        assert run(["profit", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
                    "--gamma", "0.422", "--beta", "0.44",
                    "--value", "16.213960143975513",
                    "--format", "json"]) == 0
        params, result = _json_out(capsys)
        assert params["mu"] == pytest.approx(0.44 / 0.422, rel=1e-12)
        assert result["e_p"] == pytest.approx(0.0, abs=1e-9)

    def test_creq(self, capsys):
        assert run(["creq", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
                    "--gamma", "0.422", "--beta", "0.44",
                    "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["c_req"] == pytest.approx(16.22, rel=1e-2)
        assert result["assessment"] == "profitable above required value"

    def test_creq_takes_no_value(self, capsys):
        # the required value does not depend on one; the flag was parsed
        # and never read
        assert run(["creq", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
                    "--gamma", "0.422", "--beta", "0.44", "--value", "7"]) == 2
        assert "unrecognized arguments: --value 7" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [
        ["creq", "--gamma", "0.422", "--beta", "0.44"], ["case-study"]])
    def test_unbounded_subhalf_at_depth(self, cmd, bch_config, capsys):
        # an unbounded attack with p_a < 1/2 may fail and mine forever, so
        # the requirement is infinite however small p_dsa is
        if cmd[0] == "case-study":
            cmd = cmd + ["--config", bch_config]
        assert run(cmd + ["--pa", "0.1", "--nbc", "100", "--cut-mult", "inf",
                          "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["c_req"] == "infinite"
        assert result["assessment"] == "never profitable"

    def test_table_csv_rows(self, capsys):
        assert run(["table", "--nbc", "1,3,5,7,9", "--pa", "0.35,0.4",
                    "--cut-mult", "4", "--format", "csv"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 11  # header plus ten cells

    def test_case_study(self, bch_config, capsys):
        assert run(["case-study", "--config", bch_config, "--pa", "0.35",
                    "--nbc", "5", "--cut-mult", "4", "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["network"] == "bch"
        assert result["c_req"] == pytest.approx(16.22, rel=1e-2)

    def test_case_study_cut_time_converts(self, bch_config, capsys):
        assert run(["case-study", "--config", bch_config, "--pa", "0.35",
                    "--nbc", "5", "--cut-time", "12000",
                    "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["c"] == pytest.approx(4.0, rel=1e-12)

    def test_case_study_cut_time_is_exact(self, bch_config, capsys):
        # the time given is the time used, not c * nbc * block time
        # rebuilt from c = time / (nbc * block time)
        assert run(["case-study", "--config", bch_config, "--pa", "0.35",
                    "--nbc", "6", "--cut-time", "7000.1",
                    "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["t_cut_seconds"] == 7000.1
        spec = AttackSpec(p_a=0.35, n_bc=6, t_cut=7000.1, lambda_h=1 / 600)
        assert result["p_as"] == attack_success_prob(spec)

    def test_compare_premine(self, capsys):
        assert run(["compare-premine", "--pa", "0.35", "--nbc", "5",
                    "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["p_dsa"] == pytest.approx(0.2287, abs=5e-4)
        assert result["ratio"] > 1.0

    @pytest.mark.parametrize("p_a, n_bc", [("0.05", "250"), ("0.05", "260"),
                                           ("0.01", "200")])
    def test_compare_premine_at_depth(self, p_a, n_bc, capsys):
        # p_premine is subnormal or 0 here; the ratio stays finite
        assert run(["compare-premine", "--pa", p_a, "--nbc", n_bc,
                    "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["p_premine"] < 2.2250738585072014e-308
        assert 1e100 < result["ratio"] < 1e200

    def test_simulate(self, capsys):
        assert run(["simulate", "--pa", "0.35", "--nbc", "2",
                    "--cut-mult", "4", "--trials", "300", "--seed", "9",
                    "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["trials"] == 300
        assert 0.0 < result["p_as_hat"] < 1.0

    def test_simulate_with_profit(self, capsys):
        assert run(["simulate", "--pa", "0.35", "--nbc", "2",
                    "--cut-mult", "4", "--trials", "200", "--seed", "9",
                    "--gamma", "0.422", "--beta", "0.44", "--value", "5",
                    "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert "mean_profit" in result

    def test_market_gamma(self, tmp_path, capsys):
        conf = tmp_path / "m.conf"
        conf.write_text(
            "name = bch\nbeta_per_block = 0.44\nblock_time_seconds = 600\n"
            f"rental_price_per_hash = {0.422 / 600 / 2.35e18!r}\n"
            "network_hashrate = 2.35e18\n", encoding="utf-8")
        assert run(["market-gamma", "--config", str(conf),
                    "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["gamma"] == pytest.approx(0.422, rel=1e-12)

    def test_market_gamma_of_override_only_config(self, bch_config, capsys):
        # with no market fields the command reports the override
        assert run(["market-gamma", "--config", bch_config,
                    "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["gamma"] == 0.422

    def test_case_study_of_market_only_config(self, tmp_path, capsys):
        # with no override the case study prices blocks from the market
        conf = tmp_path / "m.conf"
        conf.write_text(
            "name = bch\nbeta_per_block = 0.44\nblock_time_seconds = 600\n"
            "rental_price_per_hash = 2.99e-22\nnetwork_hashrate = 2.35e18\n",
            encoding="utf-8")
        assert run(["case-study", "--config", str(conf), "--pa", "0.35",
                    "--nbc", "5", "--cut-mult", "4", "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert result["gamma"] == 2.99e-22 * 2.35e18 * 600.0

    def test_case_study_csv_quotes_a_name_with_a_comma(self, tmp_path, capsys):
        # joined with a bare "," this printed a 16-field row under a
        # 15-field header
        name = 'Bitcoin Cash, "ABC"'
        conf = tmp_path / "q.conf"
        conf.write_text(BCH_CONF.replace("name = bch", f"name = {name}"),
                        encoding="utf-8")
        assert run(["case-study", "--config", str(conf), "--pa", "0.35",
                    "--nbc", "5", "--cut-mult", "4", "--format", "csv"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        header, row = csv.reader(lines)
        assert len(row) == len(header)
        assert row[header.index("network")] == name


class TestExitCodes:
    def test_missing_cut_flag(self, capsys):
        assert run(["prob", "--pa", "0.35", "--nbc", "5"]) == 2

    def test_simulate_takes_no_tolerance(self, capsys):
        # the estimator truncates no series, so it has no --tol to read
        assert run(["simulate", "--pa", "0.35", "--nbc", "5", "--cut-mult",
                    "4", "--trials", "10", "--tol", "1e-12"]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_conflicting_cut_flags(self, capsys):
        assert run(["prob", "--pa", "0.35", "--nbc", "5",
                    "--cut-time", "100", "--cut-mult", "4"]) == 2

    def test_conflicting_rate_flags(self, capsys):
        assert run(["prob", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
                    "--lambda-h", "0.001", "--block-time", "600"]) == 2

    def test_out_of_domain_share(self, capsys):
        assert run(["prob", "--pa", "1.5", "--nbc", "5",
                    "--cut-mult", "4"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["case-study", "--config", str(tmp_path / "nope.conf"),
                    "--pa", "0.35", "--nbc", "5", "--cut-mult", "4"]) == 2

    def test_gamma_without_beta(self, capsys):
        assert run(["simulate", "--pa", "0.35", "--nbc", "2",
                    "--cut-mult", "4", "--trials", "10",
                    "--gamma", "0.422"]) == 2
        assert "together" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--independent-clocks"]])
    def test_simulate_value_without_gamma(self, capsys, flags):
        # --value is read only for profit, which needs --gamma and --beta;
        # without them it used to be ignored
        assert run(["simulate", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
                    "--trials", "10", "--value", "7", *flags]) == 2
        assert "--value" in capsys.readouterr().err

    def test_market_gamma_nan_price(self, tmp_path, capsys):
        # a nan price used to print gamma nan and exit 0
        conf = tmp_path / "nan.conf"
        conf.write_text("name = bch\nbeta_per_block = 0.44\n"
                        "block_time_seconds = 600\nrental_price_per_hash = nan\n"
                        "network_hashrate = 2.35e18\n", encoding="utf-8")
        assert run(["market-gamma", "--config", str(conf)]) == 2
        assert "rental_price_per_hash" in capsys.readouterr().err

    def test_compare_premine_p_dsa_underflow(self, capsys):
        assert run(["compare-premine", "--pa", "0.05", "--nbc", "500"]) == 2
        assert "p_dsa underflows" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["table", "--nbc", "1,x", "--pa", "0.3", "--cut-mult", "4"],
        ["table", "--nbc", "1", "--pa", "0.3,y", "--cut-mult", "4"],
        ["prob", "--pa", "0.35", "--nbc", "5", "--cut-mult", "soon"],
        ["prob", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
         "--block-time", "0"],
        ["prob", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
         "--lambda-h", "0"],
        ["prob", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
         "--block-time", "inf"],
        ["pdf", "--pa", "0.35", "--nbc", "5", "--t-max", "-1"],
        ["pdf", "--pa", "0.35", "--nbc", "5", "--points", "0"],
        # estimate_profit runs the merged process only
        ["simulate", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
         "--trials", "10", "--independent-clocks", "--gamma", "0.422",
         "--beta", "0.44"],
    ], ids=" ".join)
    def test_malformed_inputs(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("rate", [
        ("--lambda-h", "0", "lambda_h must be positive and finite, got 0.0"),
        ("--lambda-h", "nan", "lambda_h must be positive and finite, got nan"),
        ("--block-time", "inf", "block time must be positive and finite, got inf"),
        # 1/1e-320 overflows; --lambda-h used to end in "use INFINITE ...,
        # not float('inf')", which named neither the flag nor the rate
        ("--lambda-h", "1e-320", "lambda_h = 1e-320 gives block time = inf; "
                                 "both must be positive and finite"),
        ("--block-time", "1e-320", "block time = 1e-320 gives lambda_h = inf; "
                                   "both must be positive and finite"),
    ], ids=lambda rate: f"{rate[0][2:]}={rate[1]}")
    @pytest.mark.parametrize("cmd", [
        ["prob"], ["pdf"], ["expect-time"],
        ["profit", "--gamma", "0.422", "--beta", "0.44"],
        ["creq", "--gamma", "0.422", "--beta", "0.44"],
        ["simulate", "--trials", "10"],
    ], ids=lambda cmd: cmd[0])
    def test_bad_rate_times_cut_mult(self, cmd, rate, capsys):
        # each used to end in a ZeroDivisionError traceback or a nan cut
        flag, value, error = rate
        assert run([*cmd, "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
                    flag, value]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_series_cap_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(timing, "_MIXTURE_CAP", 64)
        assert run(["prob", "--pa", "0.45", "--nbc", "5",
                    "--cut-mult", "1e4"]) == 3
        assert capsys.readouterr().err == (
            "error: Erlang-mixture series did not converge within 64 states\n")
        with pytest.raises(ConvergenceError) as exc:
            attack_success_prob(AttackSpec(0.45, 5, 1e4 * 5))
        assert 0.0 < exc.value.partial < 1.0

    def test_half_share_past_the_cap_refused_before_walking(self, monkeypatch,
                                                            capsys):
        # at p_a = 1/2 no checkpoint certifies once lambda_t * t_cut is near
        # the cap or past it (x = 6 c here): the pass is refused before it
        # draws a state, with the line a pass that walks to the cap prints
        monkeypatch.setattr(timing, "_MIXTURE_CAP", 64)
        drawn = []
        state_masses = timing._state_mass_iter

        def counting(spec):
            for p_i in state_masses(spec):
                drawn.append(p_i)
                yield p_i

        monkeypatch.setattr(timing, "_state_mass_iter", counting)
        point = ["--pa", "0.5", "--nbc", "3"]
        assert run(["expect-time", *point, "--cut-mult", "1e6"]) == 3
        refused = capsys.readouterr().err
        assert drawn == []
        # at x = 66 a checkpoint past the cap might certify: walks to the cap
        assert run(["expect-time", *point, "--cut-mult", "11"]) == 3
        assert capsys.readouterr().err == refused == (
            "error: Erlang-mixture series did not converge within 64 states\n")
        assert len(drawn) == 64
        with pytest.raises(ConvergenceError) as exc:
            expected_success_time(AttackSpec(0.5, 3, 1e6))
        assert exc.value.partial is None
        # with the 2M-state cap, x = 2e6 is refused as well: P(k, x) is
        # near 1/2 there, so no checkpoint before the cap certifies
        monkeypatch.setattr(timing, "_MIXTURE_CAP", 2_000_000)
        drawn.clear()
        assert run(["prob", "--pa", "0.5", "--nbc", "5", "--cut-time", "6e8"]) == 3
        assert capsys.readouterr().err == (
            "error: Erlang-mixture series did not converge within 2000000 states\n")
        assert drawn == []

    def test_half_share_just_inside_the_cap(self, monkeypatch):
        # x = 19,059 is the largest integer x whose pass certifies within
        # 20,000 states: not refused, it returns the values of the full walk
        monkeypatch.setattr(timing, "_MIXTURE_CAP", 20_000)
        spec = AttackSpec(0.5, 3, 19_059 / 2)
        assert attack_success_prob(spec) == 0.9907886561004163
        assert expected_success_time(spec) == 89.29481040711552
        with pytest.raises(ConvergenceError) as exc:
            attack_success_prob(AttackSpec(0.5, 3, 19_060 / 2))
        assert exc.value.partial is not None

    def test_simulate_unbounded_without_cap(self, capsys):
        assert run(["simulate", "--pa", "0.35", "--nbc", "1",
                    "--cut-time", "inf", "--trials", "10"]) == 2
        assert "event_cap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--pa", "0.35", "--nbc", "2", "--cut-mult", "4",
         "--trials", "10", "--gamma", "inf", "--beta", "0.44"],
        ["profit", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
         "--gamma", "0.422", "--beta", "0.44", "--value", "nan"],
    ], ids=lambda argv: argv[0])
    def test_nonfinite_economics(self, argv, capsys):
        assert run(argv) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["prob", "--pa", "0.35", "--nbc", DEEPEST, "--cut-mult", "4"],
        ["expect-time", "--pa", "0.35", "--nbc", DEEPEST, "--cut-mult", "4"],
        ["pdf", "--pa", "0.35", "--nbc", DEEPEST, "--points", "2"],
        ["table", "--nbc", DEEPEST, "--pa", "0.35", "--cut-mult", "4"],
    ], ids=lambda argv: argv[0] + " " + argv[-1])
    def test_confirmations_beyond_depth_limit(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: n_bc = {DEEPEST} exceeds {timing._MAX_NBC}, ")
        assert "in seconds" in err

    def test_confirmations_past_the_float_binomials(self, capsys):
        # n_bc 530 exited 2 while float binomials weighted the ballot lanes;
        # the walk DP shares no formula with the series
        point = ["--pa", "0.45", "--nbc", "530", "--cut-mult", "4",
                 "--lambda-h", "1", "--tol", "1e-13", "--format", "json"]
        spec = AttackSpec(0.45, 530, 4.0 * 530)
        p_as, arrivals = walk_dp_cut(0.45, 530, spec.lambda_t * spec.t_cut)
        assert run(["prob", *point]) == 0
        assert math.isclose(_json_out(capsys)[1]["p_as"], p_as, rel_tol=1e-12)
        assert run(["expect-time", *point]) == 0
        _, result = _json_out(capsys)
        assert math.isclose(result["p_as"], p_as, rel_tol=1e-12)
        assert math.isclose(result["e_tas_seconds"] * spec.lambda_t, arrivals,
                            rel_tol=1e-12)

    @pytest.mark.parametrize("command", ["prob", "expect-time"])
    def test_unbounded_beyond_float_limit(self, command, capsys):
        # the unbounded quantities are positive-term sums with no depth cap
        assert run([command, "--pa", "0.4", "--nbc", "1000", "--cut-mult", "inf",
                    "--format", "json"]) == 0
        _, result = _json_out(capsys)
        assert 0.0 < result["p_as"] < 1.0

    @pytest.mark.parametrize("command", ["prob", "expect-time", "pdf"])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tolerance(self, command, tol, capsys):
        assert run([command, "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
                    "--tol", tol]) == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["prob", "--pa", "0.35", "--nbc", "5", "--cut-time", "100",
         "--lambda-h", "inf"],
        ["prob", "--pa", "0.35", "--nbc", "5", "--cut-time", "1e308",
         "--lambda-h", "10"],
    ], ids=["infinite rate", "overflowing rate times cut"])
    def test_nonfinite_rate_times_cut(self, argv, capsys):
        # both used to exit 3: the incomplete gamma did not converge
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "lambda_h must be positive and finite" in err or "INFINITE" in err

    @pytest.mark.parametrize("flag", ["--cut-mult=-inf", "--cut-time=-inf"])
    @pytest.mark.parametrize("cmd", [
        ["prob"], ["pdf"], ["expect-time"],
        ["profit", "--gamma", "0.422", "--beta", "0.44"],
        ["creq", "--gamma", "0.422", "--beta", "0.44"],
        ["simulate", "--trials", "10", "--event-cap", "100"],
        ["case-study", "--config", "CONFIG"],
    ], ids=lambda cmd: cmd[0])
    def test_negative_infinite_cut(self, cmd, flag, bch_config, capsys):
        # -inf is a deadline before the start, not an unbounded attack
        cmd = [bch_config if arg == "CONFIG" else arg for arg in cmd]
        assert run(cmd + ["--pa", "0.35", "--nbc", "5", flag]) == 2
        err = capsys.readouterr().err
        assert ("t_cut must be a positive number of seconds" in err
                or "multiplier must be positive" in err)

    @pytest.mark.parametrize("t_max", ["nan", "inf"])
    def test_nonfinite_t_max(self, t_max, capsys):
        assert run(["pdf", "--pa", "0.35", "--nbc", "5", "--t-max", t_max]) == 2
        assert "finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [
    ["expect-time", "--pa", "0.35", "--nbc", "5"],
    ["case-study", "--pa", "0.35", "--nbc", "5"],
    ["table", "--nbc", "1,5", "--pa", "0.35,0.6"],
], ids=lambda cmd: cmd[0])
def test_large_cut_multiplier(cmd, bch_config, capsys):
    # E_TAS is certified against its exact first moment, so c 1e6 returns
    # at once; it used to walk about 2M states and exit 3
    if cmd[0] == "case-study":
        cmd = cmd + ["--config", bch_config]
    assert run(cmd + ["--cut-mult", "1e6", "--format", "json"]) == 0


@pytest.mark.parametrize("nbc", [1, 2, 4, 8, 9])
def test_pdf_default_t_max_is_six_block_intervals(nbc, capsys):
    # 6 * nbc / lambda_h gave 3599.9999999999995 s at n_bc 1 and the 600 s
    # block; the grid ends at 6 block intervals per confirmation
    assert run(["pdf", "--pa", "0.35", "--nbc", str(nbc), "--points", "1",
                "--format", "json"]) == 0
    params, rows = _json_out(capsys)
    assert params["t_max"] == 3600.0 * nbc
    assert rows[0]["t_seconds"] == 3600.0 * nbc


def test_one_deadline_for_creq_and_case_study(capsys):
    # c 2 at n_bc 3 is 6 block intervals; c * nbc / lambda_h used to give
    # creq 3599.9999999999995 s and a c_req off in its last digits
    point = ["--pa", "0.6", "--nbc", "3", "--cut-mult", "2", "--format", "json"]
    econ = ["--gamma", "0.422", "--beta", "0.44"]
    reports = []
    for rate in (["--block-time", "600"], ["--lambda-h", "0.0016666666666666668"]):
        assert run(["creq", *point, *econ, *rate]) == 0
        params, result = _json_out(capsys)
        reports.append((params["t_cut_seconds"], result["c_req"]))
    golden_conf = Path(__file__).with_name("golden") / "bch.conf"
    assert run(["case-study", "--config", str(golden_conf), *point]) == 0
    _, result = _json_out(capsys)
    reports.append((result["t_cut_seconds"], result["c_req"]))
    assert reports == [(3600.0, reports[0][1])] * 3


def test_repeat_invocations_byte_identical(capsys):
    argv = ["simulate", "--pa", "0.35", "--nbc", "2", "--cut-mult", "4",
            "--trials", "500", "--seed", "31", "--format", "csv"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run(["prob", "--pa", "0.35", "--nbc", "5", "--cut-mult", "4",
                "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["result"]["p_as"] == pytest.approx(0.218, abs=0.001)


def test_simulate_trace_file(tmp_path, capsys):
    trace = tmp_path / "trials.csv"
    assert run(["simulate", "--pa", "0.35", "--nbc", "2", "--cut-mult", "4",
                "--trials", "25", "--seed", "3", "--trace", str(trace)]) == 0
    lines = trace.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "trial,success,t_dsa,blocks_a,blocks_h"
    assert len(lines) == 26
    expected = io.StringIO(newline="")
    estimate(AttackSpec(p_a=0.35, n_bc=2, t_cut=4800.0, lambda_h=1 / 600), 25, 3,
             trace_to=expected)
    assert trace.read_bytes() == expected.getvalue().encode("utf-8")
    assert [path.name for path in tmp_path.iterdir()] == ["trials.csv"]


@pytest.mark.parametrize("refused", [
    ["--cut-mult", "4", "--trials", "0"],
    ["--cut-mult", "inf"],  # an unbounded cut at pa < 0.5 needs --event-cap
])
def test_refused_simulate_keeps_trace_file(tmp_path, capsys, refused):
    # the trace is written to a part file and moved over --trace only on
    # success; it used to be emptied before the inputs were checked
    trace = tmp_path / "t.csv"
    trace.write_text("keep\n", encoding="utf-8")
    assert run(["simulate", "--pa", "0.35", "--nbc", "5", *refused,
                "--trace", str(trace)]) == 2
    assert trace.read_bytes() == b"keep\n"
    assert [path.name for path in tmp_path.iterdir()] == ["t.csv"]
