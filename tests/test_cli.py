import copy
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from treedp import cli, cones, dp, market
from treedp.tree import tree_from_records

from conftest import (
    arbitrage_model,
    binomial_prices,
    binomial_tree,
    duplicated_asset_model,
    get_bench,
    sshaped_t2_model,
    sshaped_t3_model,
)


@pytest.fixture
def superlinear_file(tmp_path):
    p = tmp_path / "superlinear.json"
    p.write_text(json.dumps(market.market_to_dict(sshaped_t2_model())))
    return str(p)


@pytest.fixture
def arbitrage_file(tmp_path):
    p = tmp_path / "arbitrage.json"
    p.write_text(json.dumps(market.market_to_dict(arbitrage_model())))
    return str(p)


def toy_model_dict() -> dict:
    # one-period no-arbitrage model that solves in well under a second
    return {
        "assets": 1,
        "initial_cash": 1.0,
        "cost": {"kind": "power", "coeff": 0.1, "exponent": 2.0},
        "utility": {"kind": "sshaped", "gamma": 2.0, "kappa": 1.0, "beta": 1.0},
        "tree": [
            {"id": "r", "time": 0, "parent": None, "prob": 1.0, "data": {"Z": [1.0]}},
            {"id": "u", "time": 1, "parent": "r", "prob": 0.5, "data": {"Z": [2.0]}},
            {"id": "d", "time": 1, "parent": "r", "prob": 0.5, "data": {"Z": [0.5]}},
        ],
    }


def _drop(key: str, record: int | None = None):
    """A mutation that deletes ``key`` from a market file or from one of its records."""
    def mutate(d: dict) -> None:
        del (d if record is None else d["tree"][record])[key]

    return mutate


@pytest.fixture
def toy_file(tmp_path):
    p = tmp_path / "toy.json"
    p.write_text(json.dumps(toy_model_dict()))
    return str(p)


class TestCheck:
    def test_superlinear_exit_0(self, superlinear_file, tmp_path, capsys):
        code = cli.main(["check", superlinear_file, "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads((tmp_path / "o" / "check_report.json").read_text())
        assert report["horizon_positivity"]["verdict"] == "holds"

    def test_arbitrage_exit_2_with_witness(self, arbitrage_file, tmp_path, capsys):
        code = cli.main(["check", arbitrage_file, "--out", str(tmp_path / "o")])
        assert code == 2
        report = json.loads((tmp_path / "o" / "check_report.json").read_text())
        assert report["horizon_positivity"]["verdict"] == "fails"
        assert report["horizon_positivity"]["witness"]
        witness_csv = (tmp_path / "o" / "witness.csv").read_text().splitlines()
        assert witness_csv[0].startswith("node")
        assert any(line.startswith("r,") for line in witness_csv[1:])

    def test_terminal_form(self, superlinear_file, tmp_path, capsys):
        code = cli.main([
            "check", superlinear_file, "--form", "terminal",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0

    @pytest.mark.parametrize("form", ["cash", "terminal"])
    def test_buying_that_needs_borrowing_is_no_arbitrage(self, form, tmp_path, capsys):
        # the price can only rise, but with no cash and no borrowing the
        # investor cannot buy: the check holds and the optimum is not to trade
        model = market.MarketModel(
            tree=binomial_tree(1), n_risky=1, prices={"r": [1.0], "u": [2.0], "d": [1.5]},
            cost=market.Frictionless(), utility=market.SShapedUtility(2.0, 1.0, 1.0),
            initial_cash=0.0, cash_lower=0.0,
        )
        path = tmp_path / "limited.json"
        path.write_text(json.dumps(market.market_to_dict(model)))
        out = tmp_path / "o"
        args = [str(path), "--form", form, "--radius", "1", "--points", "33", "--out", str(out)]
        assert cli.main(["check", *args]) == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["horizon_positivity"]["verdict"] == "holds"
        assert cli.main(["solve", *args]) == 0
        assert json.loads((out / "solve_report.json").read_text())["value"] == 0.0

    def test_out_dir_from_env(self, superlinear_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TREEDP_OUT", str(tmp_path / "env_out"))
        code = cli.main(["check", superlinear_file])
        assert code == 0
        assert (tmp_path / "env_out" / "check_report.json").exists()

    @pytest.mark.parametrize("command", ["check", "solve", "oracle"])
    @pytest.mark.parametrize("how", ["flag", "env"])
    @pytest.mark.parametrize("where", ["a_file", "under_a_file"])
    def test_out_dir_that_cannot_be_made_exit_1(
        self, command, how, where, toy_file, tmp_path, capsys, monkeypatch
    ):
        # refused before the check, the solve or brute force runs
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        out = blocker if where == "a_file" else blocker / "sub"

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output directory was made")

        monkeypatch.setattr(cones, "check_horizon_positivity", no_work)
        monkeypatch.setattr(dp, "brute_force", no_work)
        argv = [command, toy_file] + (["--grids=-1:1:3"] if command == "oracle" else [])
        if how == "flag":
            argv += ["--out", str(out)]
        else:
            monkeypatch.setenv("TREEDP_OUT", str(out))
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == cli.EXIT_MALFORMED
        assert capsys.readouterr().err.startswith("error: cannot create output directory")

    def test_malformed_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        with pytest.raises(SystemExit) as err:
            cli.main(["check", str(p)])
        assert err.value.code == 1

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["cost"].update(per_node={"zz": [0.5, 3.0]}),
         "cost parameters at unknown node 'zz'"),
        (lambda d: d["tree"][0]["data"].update(utility=d["utility"]),
         "utility override at non-leaf node 'r'"),
    ], ids=["cost_per_node", "utility_override"])
    def test_model_off_the_tree_exit_1(self, mutate, message, tmp_path, capsys):
        model = toy_model_dict()
        mutate(model)
        with pytest.raises(market.InvalidModel, match=message):
            market.market_from_dict(model)
        p = tmp_path / "off_tree.json"
        p.write_text(json.dumps(model))
        with pytest.raises(SystemExit) as err:
            cli.main(["check", str(p), "--out", str(tmp_path / "o")])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and message in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("mutate", [
        lambda d: d["tree"][1]["data"].update(Z=[float("nan")]),
        lambda d: d["tree"][0]["data"].update(claim=float("inf")),
        lambda d: d["tree"][2]["data"].update(endowment=float("nan")),
        lambda d: d.update(initial_cash=float("nan")),
        lambda d: d.update(cash_lower=float("-inf")),
    ], ids=["price", "claim", "endowment", "initial_cash", "cash_lower"])
    def test_non_finite_data_exit_1(self, command, mutate, tmp_path, capsys):
        model = toy_model_dict()
        mutate(model)
        p = tmp_path / "nonfinite.json"
        p.write_text(json.dumps(model))  # writes NaN / Infinity literals
        with pytest.raises(SystemExit) as err:
            cli.main([command, str(p), "--out", str(tmp_path / "o")])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and "not finite" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["cost"].pop("coeff"), "'coeff'"),
        (lambda d: d["utility"].update(gamma=1.0), "gamma"),
        (lambda d: d["utility"].update(kappa=float("inf")), "kappa must be finite"),
        (lambda d: d["tree"][1]["data"].update(Z=["abc"]), "'Z'"),
        (lambda d: d.update(utility={"kind": "sampled", "values": [0.0, 1.0]}), "'grid'"),
        (lambda d: d.update(constraints={"0": {"lower": [1.0], "upper": [-1.0]}}), "lower <= upper"),
        (lambda d: d.update(constraints={"0": {"lower": [-1.0]}}), "'upper'"),
        # a float array would read null as NaN
        (lambda d: d.update(constraints={"0": {"lower": [None], "upper": [1.0]}}),
         "constraints at stage '0'"),
        (lambda d: d["cost"].update(per_node={"r": ["x", 2.0]}), "per_node"),
        (lambda d: d["tree"][1]["data"].update(utility="abc"), "utility at node 'u'"),
        # the toy tree has T = 1: stage 0 is the only one that decides
        (lambda d: d.update(constraints={"-1": {"lower": [-1.0], "upper": [1.0]}}),
         "constraint bounds at stage -1: not a stage 0..0"),
        (lambda d: d.update(constraints={"1": {"lower": [-1.0], "upper": [1.0]}}),
         "constraint bounds at stage 1: not a stage 0..0"),
        (lambda d: d.update(trading_stages=[0, 1]), "trading stage 1 is not a stage 0..0"),
        # float() reads a JSON boolean as 0 or 1: a number field rejects it
        (lambda d: d["tree"][1]["data"].update(Z=[True]),
         "node 'u': 'Z' is not a list of numbers: [True]"),
        (lambda d: d["tree"][0]["data"].update(claim=True), "node 'r': 'claim' is not a number"),
        (lambda d: d["cost"].update(coeff=True), "cost: 'coeff' is not a number: True"),
        # a key its kind does not have is not dropped
        (lambda d: d.update(cost={"kind": "frictionless", "per_node": {"r": [0.1, 2.0]}}),
         "cost: unknown key 'per_node' of a 'frictionless' cost"),
        (lambda d: d["utility"].update(gama=2.0), "utility: unknown key 'gama' of a 'sshaped'"),
        (lambda d: d["tree"][1]["data"].update(utility={
            "kind": "sshaped", "gamma": 2.0, "kappa": 1.0, "beta": 1.0, "betta": 1.0}),
         "utility at node 'u': unknown key 'betta'"),
        (lambda d: d.update(constraints={"0": {"lower": "1", "upper": [1.0]}}),
         "constraints at stage '0': 'lower' is not a list of numbers: '1'"),
        (lambda d: d.update(constraints={"0": [-1.0, 1.0]}),
         "constraints at stage '0': [-1.0, 1.0] is not an object"),
        (lambda d: d.update(constraints={"x": {"lower": [-1.0], "upper": [1.0]}}),
         "constraints at stage 'x': the stage is not an integer"),
    ], ids=["missing_coeff", "gamma_1", "kappa_inf", "string_price", "sampled_no_grid",
            "box_lower_above_upper",
            "box_no_upper", "box_null_lower", "per_node_string", "leaf_utility_string",
            "box_stage_negative", "box_stage_horizon", "trading_stage_horizon",
            "bool_price", "bool_claim", "bool_coeff", "frictionless_per_node",
            "misspelt_utility_key", "misspelt_override_key", "box_lower_string",
            "box_not_object", "box_stage_not_integer"])
    def test_malformed_model_exit_1(self, command, mutate, field, tmp_path, capsys):
        model = toy_model_dict()
        mutate(model)
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(model))
        with pytest.raises(SystemExit) as err:
            cli.main([command, str(p), "--out", str(tmp_path / "o")])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and field in stderr
        assert "Traceback" not in stderr

    # one case per JSON type rule of a market file and of its tree records;
    # a mutation that returns a document replaces the file's
    @pytest.mark.parametrize("mutate, field", [
        (lambda d: [], "market file at <root>: [] is not an object"),
        (_drop("assets"), "'assets' is missing"),
        (_drop("cost"), "'cost' is missing"),
        (_drop("utility"), "'utility' is missing"),
        (_drop("tree"), "'tree' is missing"),
        (lambda d: d.update(extra=1), "unknown key 'extra'"),
        (lambda d: d.update(assets=0), "'assets' is not an integer >= 1"),
        (lambda d: d.update(assets=True), "'assets' is not an integer >= 1"),
        (lambda d: d.update(assets=1.5), "'assets' is not an integer >= 1"),
        (lambda d: d.update(assets="1"), "'assets' is not an integer >= 1"),
        (lambda d: d.update(initial_cash="1"), "'initial_cash' is not a number"),
        (lambda d: d.update(initial_cash=True), "'initial_cash' is not a number"),
        (lambda d: d.update(initial_cash=None), "'initial_cash' is not a number"),
        (lambda d: d.update(trading_stages=[-1]), "'trading_stages' is not an array"),
        (lambda d: d.update(trading_stages=["0"]), "'trading_stages' is not an array"),
        (lambda d: d.update(trading_stages={}), "'trading_stages' is not an array"),
        (lambda d: d.update(constraints=[]), "'constraints' is not an object"),
        (lambda d: d.update(tree={}), "'tree' is not an array"),
        (lambda d: d["tree"].__setitem__(1, "u"), "tree record at 1: 'u' is not an object"),
        (_drop("id", record=1), "tree record at 1: 'id' is missing"),
        (_drop("time", record=1), "tree record at 1: 'time' is missing"),
        (_drop("parent", record=1), "tree record at 1: 'parent' is missing"),
        (_drop("prob", record=1), "tree record at 1: 'prob' is missing"),
        (lambda d: d["tree"][1].update(extra=1), "tree record at 1: unknown key 'extra'"),
        (lambda d: d["tree"][1].update(id=1), "tree record at 1: 'id' is not a string"),
        (lambda d: d["tree"][1].update(time=-1), "tree record at 1: 'time' is not an integer"),
        (lambda d: d["tree"][1].update(time=True), "tree record at 1: 'time' is not an integer"),
        (lambda d: d["tree"][1].update(time=0.5), "tree record at 1: 'time' is not an integer"),
        (lambda d: d["tree"][1].update(parent=1), "tree record at 1: 'parent' is not a string"),
        (lambda d: d["tree"][1].update(prob="0.5"), "tree record at 1: 'prob' is not a number"),
        (lambda d: d["tree"][1].update(prob=True), "tree record at 1: 'prob' is not a number"),
        (lambda d: d["tree"][1].update(data=[]), "tree record at 1: 'data' is not an object"),
    ], ids=["top_array", "no_assets", "no_cost", "no_utility", "no_tree", "unknown_key",
            "assets_0", "assets_true", "assets_1.5", "assets_string",
            "cash_string", "cash_true", "cash_null",
            "stages_negative", "stages_string", "stages_object", "constraints_array",
            "tree_object", "record_string", "record_no_id", "record_no_time",
            "record_no_parent", "record_no_prob", "record_unknown_key", "id_number",
            "time_negative", "time_true", "time_half", "parent_number",
            "prob_string", "prob_true", "data_array"])
    def test_json_type_violation_exit_1(self, mutate, field, tmp_path, capsys):
        model = toy_model_dict()
        replaced = mutate(model)
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(model if replaced is None else replaced))
        with pytest.raises(SystemExit) as err:
            cli.main(["check", str(p), "--out", str(tmp_path / "o")])
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("error:") and field in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("mutate", [
        lambda d: d["tree"][0].update(time=0.0),
        lambda d: d["tree"][0].update(prob=1),
    ], ids=["time_0.0", "prob_int"])
    def test_json_type_edge_values_load(self, mutate, tmp_path):
        model = toy_model_dict()
        mutate(model)
        p = tmp_path / "edge.json"
        p.write_text(json.dumps(model))
        expected = market.market_to_dict(market.market_from_dict(toy_model_dict()))
        assert market.market_to_dict(market.load_market(str(p))) == expected

    def test_record_without_data_loads(self):
        records = [{"id": "r", "time": 0, "parent": None, "prob": 1.0}]
        assert tree_from_records(records).root.data == {}


class TestSolve:
    def test_toy_solve(self, toy_file, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main([
            "solve", toy_file, "--out", str(out),
            "--radius", "1.0", "--points", "65",
        ])
        assert code == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["gap"] <= 1e-3 * (1 + abs(report["value"]))
        assert report["verify"]["optimal"]
        assert (out / "policy.csv").exists()
        assert (out / "value_tables.csv").exists()

    def test_unchecked_arbitrage_blocks(self, arbitrage_file, tmp_path, capsys):
        code = cli.main(["solve", arbitrage_file, "--out", str(tmp_path / "o")])
        assert code == 2

    def test_forced_arbitrage_exit_4(self, arbitrage_file, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main(["solve", arbitrage_file, "--force", "--out", str(out)])
        assert code == 4
        report = json.loads((out / "solve_report.json").read_text())
        assert report["error"] == "SearchBoxExhausted"
        assert "root" in report["message"] or "r" in report["message"]

    def test_bad_config_exit_1(self, toy_file, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["solve", toy_file, "--grid", "4"])
        assert err.value.code == 1

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("flag", ["--eps", "--eps-gap"])
    def test_zero_tolerance_flag_exit_1(self, command, flag, toy_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([command, toy_file, flag, "0", "--out", str(tmp_path / "o")])
        assert err.value.code == cli.EXIT_MALFORMED
        assert capsys.readouterr().err.startswith("error: bad solver configuration")
        assert not (tmp_path / "o").exists()

    def test_coarse_eps_stops_the_refinement_early(self, toy_file, tmp_path, capsys):
        sweeps = {}
        for eps in ([], ["--eps", "0.1"]):
            out = tmp_path / f"o{len(eps)}"
            args = ["solve", toy_file, "--radius", "1", "--points", "17", "--out", str(out)]
            assert cli.main(args + eps) == 0
            report = json.loads((out / "solve_report.json").read_text())
            sweeps[bool(eps)] = report["diagnostics"]["nodes"]["r"]["sweeps"]
        assert sweeps[True] < sweeps[False]

    @pytest.mark.parametrize("form", ["cash", "terminal"])
    def test_undecided_check_exit_3(self, form, tmp_path, capsys):
        # a closed stage leaves no path objectives, so the check is undecided
        # and the solve does not run without --force
        tree = binomial_tree(2)
        model = market.MarketModel(
            tree=tree, n_risky=1, prices=binomial_prices(tree, 1.0, 1.2, 0.85),
            cost=market.Frictionless(), utility=market.SShapedUtility(2.0, 1.0, 1.0),
            initial_cash=1.0, trading_stages=frozenset({0}),
        )
        path = tmp_path / "closed.json"
        path.write_text(json.dumps(market.market_to_dict(model)))
        out = tmp_path / "o"
        args = [str(path), "--form", form, "--points", "9", "--out", str(out)]
        assert cli.main(["check", *args]) == cli.EXIT_UNDECIDED
        report = json.loads((out / "check_report.json").read_text())
        assert report["horizon_positivity"]["verdict"] == "undecided"
        assert report["exit_code"] == cli.EXIT_UNDECIDED
        assert cli.main(["solve", *args]) == cli.EXIT_UNDECIDED
        report = json.loads((out / "solve_report.json").read_text())
        assert report["exit_code"] == cli.EXIT_UNDECIDED and "--force" in report["note"]
        assert "value" not in report

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_collapsed_state_grid_exit_4(self, command, tmp_path, capsys):
        # x0 +- span rounds to x0 = 1e308: every cash breakpoint is equal
        model = market.market_to_dict(sshaped_t3_model())
        model["initial_cash"] = 1e308
        p = tmp_path / "huge_cash.json"
        p.write_text(json.dumps(model))
        out = tmp_path / "o"
        extra = ["--grids=-1:1:3"] if command == "oracle" else []
        code = cli.main([command, str(p), "--out", str(out), *extra])
        assert code == 4
        stdout = capsys.readouterr().out
        assert "NaN" not in stdout
        report = json.loads((out / f"{command}_report.json").read_text())
        assert report["error"] == "NumericFailure"
        assert "strictly increasing" in report["message"]


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["check", "MODEL", "--pionts", "9"],
        ["check", "MODEL", "--points", "abc"],
        [],
    ], ids=["misspelt_flag", "bad_int", "no_command"])
    def test_usage_error_exit_1(self, argv, toy_file, capsys):
        # exit 2 would read as a failed condition
        with pytest.raises(SystemExit) as err:
            cli.main([toy_file if a == "MODEL" else a for a in argv])
        assert err.value.code == cli.EXIT_MALFORMED
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("flags", [
        ["--points", "-3"], ["--points", "0"], ["--points", "1"],
        ["--radius", "0"], ["--radius", "-1"], ["--radius", "nan"], ["--radius", "inf"],
        ["--bmax", "nan"], ["--bmax", "inf"], ["--bmax", "0.5"],
    ])
    def test_malformed_grid_and_search_flags_exit_1(
        self, command, flags, arbitrage_file, tmp_path, capsys
    ):
        # a forced solve of the arbitrage model would otherwise end in a
        # traceback or exit 4, and its check in exit 2
        argv = [command, arbitrage_file, *flags, "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as err:
            cli.main(argv + (["--force"] if command == "solve" else []))
        assert err.value.code == cli.EXIT_MALFORMED
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o").exists()


class TestHugeNumbers:
    @pytest.mark.parametrize("where, value, check_code, solve_code, oracle_code, grids", [
        (("tree", 1, "data", "Z"), [1e308], 0, 4, 4, "-1:1:3"),
        # the leaf liquidation of a huge price at a huge trade is inf - inf
        (("tree", 1, "data", "Z"), [1e308], 0, 4, 4, "-1e300:1e300:3"),
        (("tree", 1, "data", "Z"), [-1e308], 0, 4, 4, "-1:1:3"),
        (("cost", "coeff"), 1e300, 0, 0, 0, "-1:1:3"),
        # the leaf wealth sum of a huge cost overflows
        (("cost", "coeff"), 1e308, 0, 4, 4, "-1:1:3"),
        (("cost", "exponent"), 1e300, 0, 4, 4, "-1:1:3"),
        (("utility", "beta"), 1e308, 0, 0, 2, "-1:1:3"),
    ])
    def test_fail_closed_without_warnings(
        self, where, value, check_code, solve_code, oracle_code, grids, tmp_path, capsys
    ):
        spec = toy_model_dict()
        node = spec
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        self._check_and_solve(spec, (check_code, solve_code, oracle_code), grids,
                              tmp_path, capsys)

    @pytest.mark.parametrize("exponent, status", [(2.0, "undecided"), (3.0, "holds")])
    def test_huge_prices_at_every_node(self, exponent, status, tmp_path, capsys):
        # the ratio Z/(coeff*exponent) overflows at every node; at exponent
        # 3 its square root, 1.83e154, is still a float, so the radius is
        # stated, while at exponent 2 the radius 5e308 itself is not a float
        spec = toy_model_dict()
        spec["cost"]["exponent"] = exponent
        for node in spec["tree"]:
            node["data"]["Z"] = [1e308]
        self._check_and_solve(spec, (0, 4, 4), "-1e300:1e300:3", tmp_path, capsys)
        report = json.loads((tmp_path / "o" / "check_report.json").read_text())
        disposal = report["validation"]["conditions"]["free_disposal"]
        assert disposal["status"] == status
        if status == "holds":
            radius = float(disposal["note"].split("<= ")[1].split(",")[0])
            assert radius == pytest.approx(math.sqrt(1e308) / math.sqrt(0.3), rel=1e-12)
        else:
            assert "not finite" in disposal["note"]

    @staticmethod
    def _check_and_solve(spec, codes, grids, tmp_path, capsys):
        """check, solve and oracle (on ``grids``) exit with ``codes`` and warn nowhere."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(spec))
        solve_args = ["--points", "5", "--radius", "1"]
        for argv, want in zip((["check"], ["solve", *solve_args],
                               ["oracle", *solve_args, f"--grids={grids}"]), codes):
            # every warning is recorded, so none would reach the command line's stderr
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main([argv[0], str(path), *argv[1:], "--out", str(tmp_path / "o")])
            capsys.readouterr()
            assert code == want, argv
            assert [f"{w.filename}:{w.lineno}: {w.message}" for w in caught] == [], argv


def _no_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


class TestStandardJson:
    """Reports spell an infinite value "inf"; JSON has no Infinity or NaN."""

    def test_infeasible_model(self, tmp_path, capsys):
        # a claim the zero budget cannot pay: every value is +inf
        tree = binomial_tree(1)
        model = market.MarketModel(
            tree=tree, n_risky=1, prices={"r": [1.0], "u": [2.0], "d": [0.5]},
            cost=market.PowerIlliquidity(0.1, 2.0),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
            claims={"r": 1.0}, initial_cash=0.0, cash_lower=0.0,
            constraints={0: (np.array([0.0]), np.array([0.0]))},
        )
        path = tmp_path / "unpayable.json"
        path.write_text(json.dumps(market.market_to_dict(model)))
        out = tmp_path / "o"
        args = [str(path), "--form", "terminal", "--radius", "0.5", "--points", "17",
                "--out", str(out)]
        capsys.readouterr()
        for command, extra in (("solve", []), ("oracle", ["--grids=-1:1:3"])):
            assert cli.main([command, *args, *extra]) == 0
            stdout = capsys.readouterr().out
            report = json.loads((out / f"{command}_report.json").read_text(),
                                parse_constant=_no_constant)
            assert json.loads(stdout, parse_constant=_no_constant)
            if command == "solve":
                assert report["value"] == report["forward_value"] == "inf"
            else:
                # two equal infinities: no gap, and the oracle agrees
                assert report["solve_value"] == report["brute_force_value"] == "inf"
                assert report["gap"] == 0.0 and report["pass"]


class TestOracle:
    def test_toy_oracle_pass(self, toy_file, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main([
            "oracle", toy_file, "--grids=-1:1:201", "--out", str(out),
            "--radius", "1.0", "--points", "65",
        ])
        assert code == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["pass"]
        assert report["gap"] <= report["tolerance"]

    def test_infinite_brute_force_fails_a_finite_solve(self, tmp_path, capsys):
        # no grid point lies in the holdings box, so brute force finds nothing
        # finite while the solve does: an infinite value scales no tolerance
        spec = toy_model_dict()
        spec["constraints"] = {"0": {"lower": [0.2], "upper": [0.4]}}
        path = tmp_path / "boxed.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        code = cli.main(["oracle", str(path), "--grids=-1:1:2", "--radius", "1",
                         "--points", "17", "--out", str(out)])
        assert code == 2
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["brute_force_value"] == report["gap"] == "inf"
        assert isinstance(report["solve_value"], float)
        assert report["tolerance"] == 1e-3
        assert report["pass"] is False and report["exit_code"] == 2

    def test_budget_exceeded_exit_5(self, superlinear_file, tmp_path, capsys):
        code = cli.main([
            "oracle", superlinear_file, "--grids=-1:1:500",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 5

    def test_bad_grid_spec_exit_1(self, toy_file, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["oracle", toy_file, "--grids", "nope"])
        assert err.value.code == 1

    @pytest.mark.parametrize("flag", [
        "--grids=-inf:1:3", "--grids=-1:inf:3", "--grids=nan:1:3", "--grids=1:-1:3",
        "--grids=-1:1:1", "--grids=-1e308:1e308:3", "--tol=nan", "--tol=-1", "--tol=inf",
        "--tol=-0.0001",
    ])
    def test_bad_oracle_flag_exit_1(self, flag, toy_file, tmp_path, capsys):
        argv = ["oracle", toy_file, flag, "--out", str(tmp_path / "o")]
        if not flag.startswith("--grids"):
            argv.append("--grids=-1:1:3")
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == cli.EXIT_MALFORMED
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o").exists()

    def test_brute_force_numeric_failure_exit_4(self, toy_file, tmp_path, capsys, monkeypatch):
        # reported as the solve reports one: an error record, not a traceback
        def nan_objective(problem, grids):
            raise dp.NumericFailure("node 'u': objective value is not a number")

        monkeypatch.setattr(dp, "brute_force", nan_objective)
        out = tmp_path / "o"
        code = cli.main(["oracle", toy_file, "--grids=-1:1:3", "--out", str(out)])
        assert code == cli.EXIT_SOLVER
        report = json.loads((out / "oracle_report.json").read_text())
        assert report == {"error": "NumericFailure", "exit_code": cli.EXIT_SOLVER,
                          "message": "node 'u': objective value is not a number"}

    @pytest.mark.parametrize("count", [10**7 + 1, 10**15])
    def test_grid_count_beyond_the_guard_exit_5_before_any_grid(
        self, count, toy_file, tmp_path, capsys, monkeypatch
    ):
        linspace = np.linspace

        def small_linspace(lo, hi, n, *args, **kwargs):
            assert n < 10**6, "a decision axis was built"
            return linspace(lo, hi, n, *args, **kwargs)

        def no_mesh(*args, **kwargs):
            raise AssertionError("a decision grid was built")

        monkeypatch.setattr(np, "linspace", small_linspace)
        monkeypatch.setattr(dp, "_decision_mesh", no_mesh)
        out = tmp_path / "o"
        code = cli.main(["oracle", toy_file, f"--grids=-1:1:{count}", "--out", str(out)])
        assert code == cli.EXIT_BUDGET
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["error"] == "BudgetExceeded"
        assert report["message"] == f"{count}+ combinations exceed the enumeration guard 10000000"


class TestDeterminism:
    def test_reports_byte_identical_across_threads(self, toy_file, tmp_path, capsys):
        blobs = {}
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}"
            code = cli.main([
                "solve", toy_file, "--out", str(out),
                "--radius", "1.0", "--points", "65", "--threads", str(threads),
            ])
            assert code == 0
            blobs[threads] = (
                (out / "solve_report.json").read_bytes(),
                (out / "policy.csv").read_bytes(),
                (out / "value_tables.csv").read_bytes(),
            )
        assert blobs[1] == blobs[2] == blobs[8]


# ---------------------------------------------------------------------------
# seeded fuzz over mutated market files
# ---------------------------------------------------------------------------

_WEIRD_VALUES = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e300, 1e-320,
                 0.0, -1.0, "x", None, [], {}, True, [1.0, "a"]]


def _leaf_paths(obj, path=()):
    """Paths to every dict entry and list item of a JSON document."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        yield path + (key,)
        yield from _leaf_paths(val, path + (key,))


def _mutate(spec: dict, rng: np.random.Generator) -> dict:
    """Drop a key, retype or replace a value, or break a probability."""
    spec = copy.deepcopy(spec)
    if rng.random() < 0.2:
        node = spec["tree"][int(rng.integers(len(spec["tree"])))]
        node["prob"] = [0.0, -0.5, 1.5, float("nan"), 0.49, 1e-300][int(rng.integers(6))]
        return spec
    paths = list(_leaf_paths(spec))
    path = paths[int(rng.integers(len(paths)))]
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.3:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(_WEIRD_VALUES[int(rng.integers(len(_WEIRD_VALUES)))])
    return spec


def _fuzz_bases() -> list[dict]:
    return [toy_model_dict()] + [
        market.market_to_dict(m) for m in (
            sshaped_t2_model(), sshaped_t3_model(), duplicated_asset_model(),
            arbitrage_model(), get_bench("trinomial_t1").model,
        )
    ]


def _numbers_and_ids(spec: dict) -> tuple[list, list]:
    """Paths to every number (not a boolean) of a market file, and the node
    ids it names: record ids and parents, and per-node cost parameter keys."""
    numbers = [p for p in _leaf_paths(spec) if _at(spec, p).__class__ in (int, float)]
    ids = [("tree", i, key) for i, r in enumerate(spec["tree"]) for key in ("id", "parent")
           if r[key] is not None]
    ids += [("cost", "per_node", k) for k in spec["cost"].get("per_node", {})]
    return numbers, ids


def _at(spec, path):
    for key in path:
        spec = spec[key]
    return spec


def _run(argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


class TestFuzz:
    def test_booleans_and_node_ids(self, tmp_path, capsys):
        """A boolean in place of any number is malformed input; a node id
        renamed to an unknown or an existing one, as a record id, a parent
        or a per-node cost key, still fails closed."""
        rng = np.random.default_rng(20261020)
        bases = _fuzz_bases()
        bases[0]["cost"]["per_node"] = {"u": [0.2, 3.0]}
        path = tmp_path / "mutated.json"
        renamed = 0
        for i in range(120):
            spec = copy.deepcopy(bases[i % len(bases)])
            numbers, ids = _numbers_and_ids(spec)
            if i % 2 == 0:
                where = numbers[int(rng.integers(len(numbers)))]
                _at(spec, where[:-1])[where[-1]] = bool(rng.integers(2))
            else:
                where = ids[int(rng.integers(len(ids)))]
                other = [r["id"] for r in spec["tree"]] + ["zz"]
                new = other[int(rng.integers(len(other)))]
                parent = _at(spec, where[:-1])
                if where[1] == "per_node":
                    parent[new] = parent.pop(where[-1])
                else:
                    parent[where[-1]] = new
                renamed += new != where[-1]
            path.write_text(json.dumps(spec))
            code, out, err = _run(["check", str(path), "--out", str(tmp_path / "o")], capsys)
            assert "Traceback" not in err and code in range(6), (where, spec)
            if i % 2 == 0:
                assert code == 1 and err.startswith("error:"), (where, err)
        assert renamed > 40

    @pytest.mark.parametrize("bad", [True, "x"])
    def test_long_values_are_quoted_short(self, bad, tmp_path, capsys):
        """A malformed entry in a long array or mapping of a market file
        ends as one short error line: the message shortens what it quotes."""
        bases = _fuzz_bases()
        sampled = next(b for b in bases if b["utility"]["kind"] == "sampled")
        power = next(b for b in bases if b["cost"]["kind"] == "power")
        assert len(sampled["utility"]["grid"]) == 16_001
        many = {f"n{i}": [0.1, 2.0] for i in range(5000)}
        path = tmp_path / "m.json"
        for base, mutate in (
            (sampled, lambda d: d["utility"]["grid"].__setitem__(8000, bad)),
            (sampled, lambda d: d["tree"][0]["data"].update(utility=["x"] * 5000 + [bad])),
            (sampled, lambda d: d["utility"].update(kind="k" * 5000)),
            (power, lambda d: d["cost"].update(per_node={**many, "u": [bad, 2.0]})),
            (bases[0], lambda d: d.update(cost={"kind": "frictionless", **many})),
            (bases[0], lambda d: d.update(constraints={
                "0": {"lower": [-1.0] * 5000 + [bad], "upper": [1.0]}})),
        ):
            spec = copy.deepcopy(base)
            mutate(spec)
            path.write_text(json.dumps(spec))
            code, _, err = _run(["check", str(path), "--out", str(tmp_path / "o")], capsys)
            assert code == 1 and err.startswith("error:") and len(err) < 1000, err[:200]

    def test_long_constraint_values_are_quoted_short(self, tmp_path, capsys):
        """A 100,000-character string among a stage's bounds, or as its
        stage key, ends as one short error line."""
        path = tmp_path / "m.json"
        long = "x" * 100_000
        for constraints in ({"0": {"lower": [-1.0, long], "upper": [1.0, 1.0]}},
                            {long: {"lower": [-1.0], "upper": [1.0]}},
                            {"0": {"lower": [-1.0], "upper": long}}):
            spec = toy_model_dict()
            spec["constraints"] = constraints
            path.write_text(json.dumps(spec))
            code, _, err = _run(["check", str(path), "--out", str(tmp_path / "o")], capsys)
            assert code == 1 and err.startswith("error: constraints at stage")
            assert len(err) < 1000, err[:200]

    def test_mutated_market_files_fail_closed(self, tmp_path, capsys):
        rng = np.random.default_rng(20261018)
        bases = _fuzz_bases()
        path = tmp_path / "mutated.json"
        for i in range(150):
            spec = _mutate(bases[i % len(bases)], rng)
            path.write_text(json.dumps(spec))  # NaN and Infinity as JSON literals
            for argv in (["check"], ["solve", "--points", "5", "--radius", "1"]):
                argv = [argv[0], str(path), *argv[1:], "--out", str(tmp_path / "o")]
                # every warning is recorded, so none would reach the command line's stderr
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code = cli.main(argv)
                    except SystemExit as e:
                        code = e.code
                out, err = capsys.readouterr()
                assert code in range(6), (argv, spec)
                assert [f"{w.filename}:{w.lineno}: {w.message}" for w in caught] == [], (argv, spec)
                assert "Traceback" not in err, (argv, spec)
                assert "NaN" not in out, (argv, spec)


class TestRepeatedCalls:
    def test_in_process_calls_match_separate_processes(self, toy_file, tmp_path, capsys):
        """One process that runs a good command, a malformed flag, then the
        good command again prints and exits as three fresh processes do."""
        out = str(tmp_path / "o")
        runs = [["check", toy_file, "--out", out],
                ["check", toy_file, "--points", "many", "--out", out],
                ["check", toy_file, "--out", out]]
        here = [_run(argv, capsys) for argv in runs]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")])}
        apart = []
        for argv in runs:
            proc = subprocess.run([sys.executable, "-m", "treedp.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            apart.append((proc.returncode, proc.stdout, proc.stderr))
        assert [code for code, _, _ in here] == [0, 1, 0]
        assert here == apart
