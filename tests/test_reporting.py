"""Config loading, resource-table, case-study, and renderer tests."""

import json
import math
from fractions import Fraction

import pytest

from doublespend import (
    INFINITE,
    AttackSpec,
    ConfigError,
    DomainError,
    EconomicModel,
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
    required_value,
    resolve_gamma,
    to_jsonable,
)
from race_oracles import exact_p_dsa, rel_error

GOOD_CONF = """\
# hashrate rental market snapshot
name = bch
beta_per_block = 0.44
block_time_seconds = 600
rental_price_per_hash = {price}
network_hashrate = 2.35e18
"""


def _write(tmp_path, text):
    path = tmp_path / "net.conf"
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigLoading:
    def test_market_gamma_anchor(self, tmp_path):
        price = 0.422 / 600 / 2.35e18
        cfg = load_network_config(_write(tmp_path, GOOD_CONF.format(price=price)))
        assert cfg.name == "bch"
        assert cfg.lambda_h == pytest.approx(1 / 600, rel=1e-15)
        assert gamma_from_market(cfg) == pytest.approx(0.422, rel=1e-12)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "\n# leading comment\n\nname = x\nbeta_per_block = 1\n" \
               "block_time_seconds = 600\ngamma_override = 2.0\n"
        cfg = load_network_config(_write(tmp_path, text))
        assert resolve_gamma(cfg) == 2.0

    @pytest.mark.parametrize("line,fragment", [
        ("bogus_key = 1", "unknown key"),
        ("name = again", "duplicate key"),
        ("beta_per_block", "expected key = value"),
        ("gamma_override = fast", "must be a number"),
    ])
    def test_malformed_lines(self, tmp_path, line, fragment):
        text = GOOD_CONF.format(price=1e-21) + line + "\n"
        with pytest.raises(ConfigError, match=fragment):
            load_network_config(_write(tmp_path, text))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key"):
            load_network_config(_write(tmp_path, "name = x\nbeta_per_block = 1\n"))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_network_config(tmp_path / "absent.conf")

    def test_underivable_cost(self, tmp_path):
        # market pair incomplete and no override
        text = "name = x\nbeta_per_block = 1\nblock_time_seconds = 600\n" \
               "network_hashrate = 1e18\n"
        with pytest.raises(ConfigError, match="not derivable"):
            load_network_config(_write(tmp_path, text))


class TestNetworkConfig:
    def test_field_validation(self):
        with pytest.raises(ConfigError):
            NetworkConfig(name="", beta_per_block=1.0, block_time_seconds=600,
                          gamma_override=1.0)
        with pytest.raises(ConfigError):
            NetworkConfig(name="x", beta_per_block=-1.0,
                          block_time_seconds=600, gamma_override=1.0)
        with pytest.raises(ConfigError):
            NetworkConfig(name="x", beta_per_block=1.0,
                          block_time_seconds=math.inf, gamma_override=1.0)
        with pytest.raises(ConfigError):
            NetworkConfig(name="x", beta_per_block=1.0,
                          block_time_seconds=600, gamma_override=-0.5)

    @pytest.mark.parametrize("field, value", [
        ("beta_per_block", math.nan), ("block_time_seconds", math.nan),
        ("block_time_seconds", True), ("rental_price_per_hash", math.nan),
        ("network_hashrate", math.nan), ("network_hashrate", True),
        ("gamma_override", math.nan), ("gamma_override", True),
    ])
    def test_rejects_nan_and_bool(self, field, value):
        # nan passed the sign and isinf checks, and bool is an int
        fields = dict(name="x", beta_per_block=0.44, block_time_seconds=600.0,
                      rental_price_per_hash=1e-21, network_hashrate=1e18,
                      gamma_override=0.422)
        fields[field] = value
        with pytest.raises(ConfigError, match=field):
            NetworkConfig(**fields)

    def test_override_takes_precedence(self):
        cfg = NetworkConfig(name="x", beta_per_block=1.0,
                            block_time_seconds=600,
                            rental_price_per_hash=1e-21,
                            network_hashrate=1e18, gamma_override=7.0)
        assert resolve_gamma(cfg) == 7.0
        assert gamma_from_market(cfg) == pytest.approx(0.6, rel=1e-12)

    def test_zero_market_price_warns(self):
        cfg = NetworkConfig(name="x", beta_per_block=1.0,
                            block_time_seconds=600,
                            rental_price_per_hash=0.0, network_hashrate=1e18)
        with pytest.warns(UserWarning, match="zero"):
            assert gamma_from_market(cfg) == 0.0


class TestResourceTable:
    def test_spot_anchors(self):
        # frozen 4-significant-digit reference grid values
        table = build_resource_table([1, 5], [0.35, 0.4], c=4.0)
        cell = table[(5, 0.35)]
        assert cell.p_as == pytest.approx(0.218, abs=0.001)
        assert cell.e_tas_scaled == pytest.approx(8.681, abs=0.005)
        assert cell.e_x_scaled == pytest.approx(9.440, abs=0.005)
        assert cell.c_req_mu_coeff == pytest.approx(4.675, abs=0.01)
        assert cell.c_req_const == pytest.approx(38.62, abs=0.01)
        other = table[(1, 0.4)]
        assert other.p_as == pytest.approx(0.411, abs=0.001)
        assert other.c_req_const == pytest.approx(3.819, abs=0.01)

    def test_row_major_order_and_lookup(self):
        table = build_resource_table([1, 2], [0.2, 0.3], c=2.0)
        keys = [(cell.n_bc, cell.p_a) for cell in table.cells]
        assert keys == [(1, 0.2), (1, 0.3), (2, 0.2), (2, 0.3)]
        with pytest.raises(KeyError):
            table[(9, 0.2)]

    def test_cell_internal_consistency(self):
        # expected cost ties the affine requirement coefficients together:
        # e_x = p_as * (mu_coeff + const)
        table = build_resource_table([1, 3, 5], [0.2, 0.35, 0.45], c=3.0)
        for cell in table.cells:
            assert cell.e_x_scaled == pytest.approx(
                cell.p_as * (cell.c_req_mu_coeff + cell.c_req_const),
                rel=1e-12)

    def test_affine_evaluation(self):
        cell = TableCell(n_bc=1, p_a=0.3, p_as=0.5, e_tas_scaled=2.0,
                         e_x_scaled=1.0, c_req_mu_coeff=3.0, c_req_const=4.0)
        assert cell.c_req(mu=1.0) == 4.0
        assert cell.c_req(mu=0.0) == 7.0
        assert cell.c_req(mu=2.0, gamma=10.0) == 10.0 * (-3.0 + 4.0)

    def test_scaled_cell_matches_real_units(self):
        # the dimensionless cell times gamma must equal the requirement
        # computed directly in seconds-and-currency units
        gamma, beta, lambda_h, c = 0.422, 0.44, 1 / 600, 4.0
        table = build_resource_table([5], [0.35], c=c)
        cell = table[(5, 0.35)]
        spec = AttackSpec(p_a=0.35, n_bc=5, t_cut=c * 5 / lambda_h,
                          lambda_h=lambda_h)
        model = EconomicModel(gamma=gamma, beta=beta)
        direct = required_value(model, spec)
        assert cell.c_req(mu=beta / gamma, gamma=gamma) == pytest.approx(
            direct, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            build_resource_table([], [0.3], c=4.0)
        with pytest.raises(DomainError):
            build_resource_table([1], [0.3], c=math.inf)


CFG = NetworkConfig(name="bch", beta_per_block=0.44, block_time_seconds=600,
                    gamma_override=0.422)


class TestCaseStudy:
    def test_bounded_anchors(self):
        out = case_study(CFG, p_a=0.35, n_bc=5, c=4.0)
        assert out["network"] == "bch"
        assert out["t_cut_seconds"] == 12000.0
        assert out["mu"] == pytest.approx(0.44 / 0.422, rel=1e-15)
        assert out["p_as"] == pytest.approx(0.218, abs=0.001)
        assert out["e_tas_seconds"] == pytest.approx(5200.0, rel=1e-2)
        assert out["e_x"] == pytest.approx(3.98, rel=1e-2)
        assert out["c_req"] == pytest.approx(16.22, rel=1e-2)
        assert out["runtime_per_attempt"] == pytest.approx(10500.0, abs=60.0)
        assert out["assessment"] == "profitable above required value"

    # case_study takes the INFINITE marker for an unbounded cut as well
    @pytest.mark.parametrize("c", [math.inf, INFINITE])
    def test_unbounded_majority_always_profitable(self, c):
        out = case_study(CFG, p_a=0.6, n_bc=1, c=c)
        assert out["t_cut_seconds"] == math.inf
        assert out["p_as"] == 1.0
        assert out["c_req"] < 0.0
        assert out["assessment"] == "always profitable"

    @pytest.mark.parametrize("c", [math.inf, INFINITE])
    def test_unbounded_minority_never_profitable(self, c):
        out = case_study(CFG, p_a=0.3, n_bc=1, c=c)
        assert out["c_req"] == math.inf
        assert out["runtime_per_attempt"] == math.inf
        assert out["assessment"] == "never profitable"

    def test_bad_multiplier(self):
        with pytest.raises(DomainError):
            case_study(CFG, p_a=0.35, n_bc=5, c=-1.0)


def test_premine_comparison_anchors():
    out = premine_comparison(0.35, 5)
    assert out["p_dsa"] == pytest.approx(0.2287, abs=5e-4)
    assert out["p_premine"] == pytest.approx(0.0244, abs=5e-4)
    assert out["ratio"] == pytest.approx(out["p_dsa"] / out["p_premine"],
                                         rel=1e-15)
    assert out["ratio"] > 1.0


@pytest.mark.parametrize("p_a, n_bc", [
    (0.05, 100),   # p_premine normal: the plain quotient
    (0.05, 250),   # p_premine subnormal, 1.077e-321
    (0.05, 260),   # p_premine underflows to 0
    (0.01, 200),
    (0.1, 350),
])
def test_premine_ratio_at_depth(p_a, n_bc):
    out = premine_comparison(p_a, n_bc)
    p = Fraction(p_a)
    exact = exact_p_dsa(p_a, n_bc) / (p / (1 - p)) ** (n_bc + 1)
    assert rel_error(out["ratio"], exact) <= 1e-12


@pytest.mark.parametrize("p_a, n_bc, why", [
    (0.05, 500, "p_dsa underflows"),
    (0.4, 2000, "exceeds the float range"),
])
def test_premine_ratio_beyond_floats(p_a, n_bc, why):
    with pytest.raises(DomainError, match=why):
        premine_comparison(p_a, n_bc)


class TestFormatting:
    def test_format_sig(self):
        assert format_sig(0.123456) == "0.1235"
        assert format_sig(math.inf) == "infinite"
        assert format_sig(-math.inf) == "-infinite"
        assert format_sig(math.nan) == "nan"
        assert format_sig(7) == "7"
        assert format_sig(True) == "True"
        assert format_sig("x") == "x"

    def test_format_full_round_trips(self):
        for x in (math.pi, 1 / 3, 0.1 + 0.2, 5208.765054127495):
            assert float(format_full(x)) == x
        assert format_full(math.inf) == "infinite"

    def test_to_jsonable(self):
        cell = TableCell(n_bc=1, p_a=0.3, p_as=0.5, e_tas_scaled=2.0,
                         e_x_scaled=1.0, c_req_mu_coeff=3.0, c_req_const=4.0)
        out = to_jsonable({"cell": cell, "cut": math.inf, "grid": (1, 2)})
        assert out["cell"]["n_bc"] == 1
        assert out["cut"] == "infinite"
        assert out["grid"] == [1, 2]

    def test_unbounded_cut_renders_as_word(self):
        # the marker used to render as '_CutTime.INFINITE'
        assert to_jsonable(AttackSpec(0.35, 5, INFINITE))["t_cut"] == "infinite"
        assert format_sig(INFINITE) == format_full(INFINITE) == "infinite"
        assert repr(INFINITE) == "INFINITE"


class TestRenderers:
    PARAMS = {"p_a": 0.35, "n_bc": 5}
    RESULT = {"p_as": 0.2180433270241222, "c_req": math.inf}

    def test_record_text(self):
        text = render_record(self.PARAMS, self.RESULT, "text")
        assert "# p_a = 0.35" in text
        assert "0.218" in text
        assert "infinite" in text

    def test_record_csv_round_trip(self):
        text = render_record(self.PARAMS, self.RESULT, "csv")
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        header, values = lines
        assert header == "p_as,c_req"
        p_as, c_req = values.split(",")
        assert float(p_as) == self.RESULT["p_as"]
        assert c_req == "infinite"

    def test_record_json_round_trip(self):
        payload = json.loads(render_record(self.PARAMS, self.RESULT, "json"))
        assert payload["params"]["p_a"] == 0.35
        assert payload["result"]["p_as"] == self.RESULT["p_as"]
        assert payload["result"]["c_req"] == "infinite"

    def test_unknown_format_rejected(self):
        with pytest.raises(DomainError):
            render_record(self.PARAMS, self.RESULT, "yaml")
        with pytest.raises(DomainError):
            render_rows(self.PARAMS, [], ["a"], "yaml")
        with pytest.raises(DomainError):
            render_table(build_resource_table([1], [0.3], c=2.0), "yaml")

    def test_rows_csv(self):
        rows = [{"t": 1.0, "f": 0.5}, {"t": 2.0, "f": math.nan}]
        text = render_rows({"n": 1}, rows, ["t", "f"], "csv")
        lines = text.splitlines()
        assert lines[0] == "# n = 1"
        assert lines[1] == "t,f"
        assert lines[3].endswith("nan")

    def test_byte_determinism(self):
        table = build_resource_table([1, 2], [0.3, 0.4], c=4.0)
        for fmt in ("text", "csv", "json"):
            assert render_table(table, fmt) == render_table(table, fmt)

    def test_table_formats(self):
        table = build_resource_table([1, 2], [0.3, 0.4], c=4.0)
        text = render_table(table, "text")
        assert "*(1-mu)+" in text
        csv_text = render_table(table, "csv")
        data_lines = [l for l in csv_text.splitlines() if not l.startswith("#")]
        assert len(data_lines) == 1 + 4  # header plus one row per cell
        payload = json.loads(render_table(table, "json"))
        assert payload["params"]["c"] == 4.0
        assert len(payload["result"]["cells"]) == 4
