import copy
import json
import warnings

import numpy as np
import pytest

from treedp import cli, market

from conftest import (
    arbitrage_model,
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

    def test_malformed_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        with pytest.raises(SystemExit) as err:
            cli.main(["check", str(p)])
        assert err.value.code == 1

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
    ], ids=["missing_coeff", "gamma_1", "kappa_inf", "string_price", "sampled_no_grid",
            "box_lower_above_upper",
            "box_no_upper", "box_null_lower", "per_node_string", "leaf_utility_string"])
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


class TestHugeNumbers:
    @pytest.mark.parametrize("where, value, check_code, solve_code", [
        (("tree", 1, "data", "Z"), [1e308], 0, 4),
        (("tree", 1, "data", "Z"), [-1e308], 0, 4),
        (("cost", "coeff"), 1e300, 0, 0),
        (("cost", "coeff"), 1e308, 0, 4),
        (("cost", "exponent"), 1e300, 0, 4),
        (("utility", "beta"), 1e308, 0, 0),
    ])
    def test_fail_closed_without_warnings(
        self, where, value, check_code, solve_code, tmp_path, capsys
    ):
        spec = toy_model_dict()
        node = spec
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        self._check_and_solve(spec, check_code, solve_code, tmp_path, capsys)

    @pytest.mark.parametrize("exponent", [2.0, 3.0])
    def test_huge_prices_at_every_node(self, exponent, tmp_path, capsys):
        # every node's monotone radius overflows, so free disposal is sampled
        # within a finite radius, where the total costs overflow in turn
        spec = toy_model_dict()
        spec["cost"]["exponent"] = exponent
        for node in spec["tree"]:
            node["data"]["Z"] = [1e308]
        self._check_and_solve(spec, 0, 4, tmp_path, capsys)
        report = json.loads((tmp_path / "o" / "check_report.json").read_text())
        disposal = report["validation"]["conditions"]["free_disposal"]
        assert disposal["status"] == "undecided"
        assert "not finite" in disposal["note"]

    @staticmethod
    def _check_and_solve(spec, check_code, solve_code, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(spec))
        for argv, want in ((["check"], check_code),
                           (["solve", "--points", "5", "--radius", "1"], solve_code)):
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


class TestFuzz:
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
