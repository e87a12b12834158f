"""Seeded inputs for the three benchmark workloads.

The seed perturbs price moves and branch probabilities of the deep and
check models within narrow ranges; tree shapes, state grids, decision
grids and solver settings are fixed, so every seed asks the solver for the
same amount of structural work.  The six fixtures are ``tests/conftest.py``
(``BENCH_BUILDERS``) exactly, whatever the seed: criterion 01's tolerance
is set on them, and on perturbed copies the gridded solve's distance to
brute force is of the order of that tolerance (see ``fixtures``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import treedp as td
from treedp import cones, dp, market
from treedp.efun import AffinePrecompose, PowerCost

#: half-widths of the seeded perturbations
MOVE_JITTER = 0.01   # relative change of an up/down factor or a price
PROB_JITTER = 0.02   # absolute change of a branch probability


class Jitter:
    """Draws the seeded perturbations; seed 0 draws none."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed) if seed else None

    def scale(self, x: float) -> float:
        if self.rng is None:
            return x
        return float(x * (1.0 + self.rng.uniform(-MOVE_JITTER, MOVE_JITTER)))

    def prob(self, p: float) -> float:
        if self.rng is None:
            return p
        return float(p + self.rng.uniform(-PROB_JITTER, PROB_JITTER))


# ---------------------------------------------------------------------------
# trees and markets
# ---------------------------------------------------------------------------


def binomial_tree(T: int, p_up: float = 0.5) -> td.ScenarioTree:
    """Recombining-free binomial tree; node ids spell the path ("ud", ...)."""
    nodes = [td.Node("r", 0, None, 1.0)]
    frontier = ["r"]
    for t in range(1, T + 1):
        nxt = []
        for nid in frontier:
            for tag, prob in (("u", p_up), ("d", 1.0 - p_up)):
                cid = (nid + tag) if nid != "r" else tag
                nodes.append(td.Node(cid, t, nid, prob))
                nxt.append(cid)
        frontier = nxt
    return td.ScenarioTree(nodes)


def binomial_prices(tree: td.ScenarioTree, z0, up: float, down: float) -> dict:
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    prices = {}
    for node in tree.nodes:
        z = z0.copy()
        if node.id != "r":
            for c in node.id:
                z = z * (up if c == "u" else down)
        prices[node.id] = z
    return prices


def exp_utility(lo: float = -8.0, hi: float = 8.0, step: float = 1e-3) -> market.SampledUtility:
    """u(w) = 1 - exp(-w): concave, bounded above, infinite loss slope."""
    w = np.arange(round(lo / step), round(hi / step) + 1) * step
    return market.SampledUtility(w, 1.0 - np.exp(-w), slope_left=np.inf, slope_right=0.0)


def sshaped_binomial(T: int, jit: Jitter, *, frictionless: bool, n_risky: int = 1) -> market.MarketModel:
    """Binomial market with the S-shaped investor, z0 = 1, up 1.2, down 0.85.

    With ``n_risky`` > 1 every asset has the same prices: the duplicated
    assets leave a linear space of null directions at each decision node.
    """
    tree = binomial_tree(T, jit.prob(0.5))
    prices = binomial_prices(tree, [1.0] * n_risky, jit.scale(1.2), jit.scale(0.85))
    return market.MarketModel(
        tree=tree, n_risky=n_risky, prices=prices,
        cost=market.Frictionless() if frictionless else market.PowerIlliquidity(0.1, 2.0),
        utility=market.SShapedUtility(2.0, 1.0, 1.0),
        initial_cash=1.0,
    )


def model_hash(parts: list) -> str:
    """sha256 over the canonical JSON of the generated models, in order."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# the six oracle fixtures
# ---------------------------------------------------------------------------


@dataclass
class Fixture:
    name: str
    problem: dp.Problem
    bf_grids: dict[str, np.ndarray]
    #: brute force runs on the original problem when the solved one is projected
    oracle_problem: dp.Problem | None
    #: canonical description of the generated input, for the model hash
    spec: dict

    def oracle_target(self) -> dp.Problem:
        return self.oracle_problem or self.problem


def axis_grid(lo: float, hi: float, n: int, dim: int = 1) -> np.ndarray:
    ax = np.linspace(lo, hi, n)
    mesh = np.meshgrid(*([ax] * dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


def _quad_t0() -> Fixture:
    tree = td.ScenarioTree([td.Node("r", 0, None)])
    shift = -3.0
    f = AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0]], [shift])
    problem = dp.history_problem(tree, [1], {"r": f}, lower_bound=0.0)
    return Fixture("quad_t0", problem, {"r": axis_grid(0.0, 4.0, 201)}, None,
                   {"quad_shift": shift})


def _frictionless_t1() -> Fixture:
    tree = binomial_tree(1)
    prices = binomial_prices(tree, 1.0, 2.0, 0.5)
    model = market.MarketModel(
        tree=tree, n_risky=1, prices=prices, cost=market.Frictionless(),
        utility=exp_utility(), initial_cash=1.0,
    )
    problem = market.build_problem_cash(model, radius=2.0, points=33)
    return Fixture("frictionless_t1", problem, {"r": axis_grid(-2.0, 2.0, 401)}, None,
                   market.market_to_dict(model))


def _sshaped_t2() -> Fixture:
    tree = binomial_tree(2)
    prices = binomial_prices(tree, 1.0, 1.3, 0.75)
    model = market.MarketModel(
        tree=tree, n_risky=1, prices=prices,
        cost=market.PowerIlliquidity(0.1, 2.0),
        utility=market.SShapedUtility(2.0, 1.0, 1.0),
        initial_cash=1.0,
    )
    problem = market.build_problem_cash(model, radius=1.0, points=193)
    grids = {nid: axis_grid(-0.4, 0.6, 101) for nid in ("r", "u", "d")}
    return Fixture("sshaped_t2", problem, grids, None, market.market_to_dict(model))


def _trinomial_t1() -> Fixture:
    pa, pb = 0.25, 0.35
    tree = td.ScenarioTree([
        td.Node("r", 0, None, 1.0),
        td.Node("a", 1, "r", pa),
        td.Node("b", 1, "r", pb),
        td.Node("c", 1, "r", 1.0 - pa - pb),
    ])
    prices = {"r": np.array([1.0]), "a": np.array([1.5]),
              "b": np.array([1.0]), "c": np.array([0.6])}
    model = market.MarketModel(
        tree=tree, n_risky=1, prices=prices,
        cost=market.PowerIlliquidity(0.2, 1.5),
        utility=market.SShapedUtility(3.0, 1.0, 0.8),
        claims={"a": 0.1, "b": 0.0, "c": -0.05},
        endowment={"a": 0.0, "b": 0.2, "c": 0.0},
        initial_cash=0.5,
        constraints={0: (np.array([-1.0]), np.array([1.0]))},
    )
    problem = market.build_problem_cash(model, radius=1.2, points=65)
    return Fixture("trinomial_t1", problem, {"r": axis_grid(-1.0, 1.0, 401)}, None,
                   market.market_to_dict(model))


def _projected_dup() -> Fixture:
    tree = binomial_tree(1)
    prices = binomial_prices(tree, [1.0, 1.0], 2.0, 0.5)
    model = market.MarketModel(
        tree=tree, n_risky=2, prices=prices, cost=market.Frictionless(),
        utility=exp_utility(), initial_cash=1.0,
    )
    original = market.build_problem_cash(model, radius=2.0, points=33)
    projected = cones.project_problem(original, cones.null_space(original))
    return Fixture("projected_dup", projected, {"r": axis_grid(-1.2, 1.2, 41, dim=2)},
                   original, market.market_to_dict(model))


def _sshaped_t3() -> Fixture:
    tree = binomial_tree(3)
    prices = binomial_prices(tree, 1.0, 1.25, 0.8)
    model = market.MarketModel(
        tree=tree, n_risky=1, prices=prices,
        cost=market.PowerIlliquidity(0.05, 2.0),
        utility=market.SShapedUtility(2.0, 1.0, 1.0),
        claims={nid: 0.05 for nid in ("uu", "ud", "du", "dd")},
        initial_cash=1.0,
        trading_stages=frozenset({0, 1}),
    )
    problem = market.build_problem_cash(model, radius=0.8, points=129)
    grids = {nid: axis_grid(-0.5, 0.7, 101) for nid in ("r", "u", "d")}
    return Fixture("sshaped_t3", problem, grids, None, market.market_to_dict(model))


FIXTURE_BUILDERS: dict[str, Callable[[], Fixture]] = {
    "quad_t0": _quad_t0,
    "frictionless_t1": _frictionless_t1,
    "sshaped_t2": _sshaped_t2,
    "trinomial_t1": _trinomial_t1,
    "projected_dup": _projected_dup,
    "sshaped_t3": _sshaped_t3,
}


def fixtures() -> list[Fixture]:
    """The six fixtures, unperturbed.

    Criterion 01 holds the solve to ``max(1e-3, 1e-3·|bf|)`` of brute
    force on these inputs.  Perturbed by the seed (±1 % moves, ±0.02
    probabilities, or a quarter of that), sshaped_t3's forward value misses
    brute force by 4e-5 to 1.03e-3 across seeds while its exact forward
    value stays within 4e-6: the interpolation error of its 129-point grid
    is of the order of the tolerance, which the solver does not promise
    to beat on other inputs.
    """
    return [build() for build in FIXTURE_BUILDERS.values()]


# ---------------------------------------------------------------------------
# the other two workloads' models
# ---------------------------------------------------------------------------


DEEP_T = 9


def deep_binomial_model(seed: int) -> market.MarketModel:
    """S-shaped investor with power illiquidity costs, binomial T=9."""
    return sshaped_binomial(DEEP_T, Jitter(seed), frictionless=False)


CHECK_T = 8
DUP_T = 7


def check_models(seed: int) -> dict[str, market.MarketModel]:
    """Frictionless binomial T=8 (one asset, arbitrage-free) and the
    duplicated-asset binomial T=7 (two identical assets)."""
    return {
        "single": sshaped_binomial(CHECK_T, Jitter(seed and seed * 16), frictionless=True),
        "duplicated": sshaped_binomial(DUP_T, Jitter(seed and seed * 16 + 1),
                                       frictionless=True, n_risky=2),
    }
