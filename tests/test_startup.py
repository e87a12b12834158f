"""Heavy modules are loaded only by the paths that need them.

Each case runs in a fresh interpreter, so that modules other tests loaded
do not leak in.  scipy is loaded only for an LP, and an arbitrage-free
binomial market needs none: ``import treedp``, a ``solve`` on the
analytic route of the check, the ``check`` and ``solve`` of a
frictionless binomial market and the test fixtures (the duplicated-asset
binomial's ``null_space`` and ``project_problem`` included) leave scipy
out of ``sys.modules``, since every binomial node's cone is decided by
its risk-neutral measure.  A ``check`` that finds an arbitrage loads it
for its witness LP.  No path loads ``multiprocessing`` or
``concurrent.futures``: a search split over worker processes needs only
``os``, ``pickle`` and ``signal``.  None loads ``jsonschema`` either: the
loaders check each JSON field themselves.
"""

import json
import os
import subprocess
import sys

import pytest

import treedp
from treedp import market

from conftest import arbitrage_model, binomial_prices, binomial_tree, sshaped_t2_model

SRC = os.path.dirname(os.path.dirname(os.path.abspath(treedp.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))


#: modules that no path of the package needs
NEVER_LOADED = ["multiprocessing", "concurrent.futures", "jsonschema"]


def loaded(code: str, names: list[str]) -> list[str]:
    """Which of ``names`` ``code`` leaves in ``sys.modules`` of a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, TESTS, env.get("PYTHONPATH")]))
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps([m for m in {names!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loads_scipy(code: str) -> bool:
    """Whether ``code`` leaves scipy in ``sys.modules`` of a fresh interpreter."""
    return loaded(code, ["scipy"]) == ["scipy"]


def cli_code(argv: list[str]) -> str:
    return f"from treedp import cli\nassert cli.main({argv!r}) == 0"


def test_import_leaves_scipy_out():
    assert not loads_scipy("import treedp, treedp.cli, treedp.cones")


def test_import_leaves_process_pools_out():
    assert loaded("import treedp, treedp.cli", NEVER_LOADED) == []


@pytest.fixture
def market_file(tmp_path):
    def write(model) -> str:
        path = tmp_path / "market.json"
        path.write_text(json.dumps(market.market_to_dict(model)))
        return str(path)

    return write


def test_solve_on_the_analytic_route_leaves_scipy_out(market_file, tmp_path):
    # power illiquidity: the check is analytic, so no LP runs
    path = market_file(sshaped_t2_model())
    argv = ["solve", path, "--radius", "0.5", "--points", "9", "--out", str(tmp_path / "o")]
    assert not loads_scipy(cli_code(argv))


def test_split_solve_leaves_process_pools_out(market_file, tmp_path):
    # a threshold of one state splits every search of two or more states
    path = market_file(sshaped_t2_model())
    argv = ["solve", path, "--radius", "0.5", "--points", "9", "--threads", "2",
            "--out", str(tmp_path / "o")]
    code = f"from treedp import dp\ndp._MIN_SPLIT_STATES = 1\n{cli_code(argv)}"
    assert loaded(code, NEVER_LOADED) == []


def test_frictionless_check_loads_scipy(market_file, tmp_path):
    path = market_file(arbitrage_model())
    code = (f"from treedp import cli\n"
            f"assert cli.main(['check', {path!r}, '--out', {str(tmp_path / 'o')!r}]) == 2")
    assert loads_scipy(code)


def test_fixtures_leave_scipy_out():
    # projected_dup runs null_space and project_problem on the
    # duplicated-asset binomial
    code = ("import conftest\n"
            "for name in conftest.BENCH_BUILDERS:\n"
            "    conftest.get_bench(name)")
    assert not loads_scipy(code)


def frictionless_binomial():
    tree = binomial_tree(3)
    return market.MarketModel(
        tree=tree, n_risky=1, prices=binomial_prices(tree, 1.0, 1.25, 0.8),
        cost=market.Frictionless(), utility=market.SShapedUtility(2.0, 1.0, 1.0),
        initial_cash=1.0,
    )


@pytest.mark.parametrize("command", ["check", "solve"])
def test_frictionless_binomial_leaves_scipy_out(command, market_file, tmp_path):
    path = market_file(frictionless_binomial())
    argv = [command, path, "--radius", "0.5", "--points", "9", "--out", str(tmp_path / "o")]
    assert not loads_scipy(cli_code(argv))
