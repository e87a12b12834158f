"""Shared fixtures: small trees and the six solver benchmark models.

Each benchmark entry carries everything the oracle comparison needs:
a problem builder, brute-force decision grids, and solver settings tuned
so the state grids cover the optimum with adequate resolution.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import treedp as td
from treedp import dp, market
from treedp.efun import AffinePrecompose, PowerCost


def binomial_tree(T: int, p_up: float = 0.5) -> td.ScenarioTree:
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


def binomial_prices(tree: td.ScenarioTree, z0: float, up: float, down: float) -> dict:
    prices = {}
    for node in tree.nodes:
        if node.id == "r":
            prices[node.id] = np.array([z0])
            continue
        z = z0
        for c in node.id:
            z *= up if c == "u" else down
        prices[node.id] = np.array([z])
    return prices


def ragged_tree(rng: np.random.Generator, T: int) -> td.ScenarioTree:
    """Tree with 1 to 3 children per interior node, drawn independently, its
    nodes in shuffled input order (so positions do not follow the paths)."""
    nodes = [td.Node("r", 0, None, 1.0)]
    frontier = ["r"]
    for t in range(1, T + 1):
        nxt = []
        for nid in frontier:
            k = int(rng.integers(1, 4))
            p = rng.integers(1, 5, k) / 1.0
            for i, q in enumerate(p / p.sum()):
                nodes.append(td.Node(f"{nid}.{i}", t, nid, float(q)))
                nxt.append(f"{nid}.{i}")
        frontier = nxt
    return td.ScenarioTree([nodes[i] for i in rng.permutation(len(nodes))])


def expr_bytes(f) -> tuple:
    """An expression as nested tuples of its class names, term order and
    the bytes of every array and float it holds (-0.0 and 0.0 differ)."""
    if isinstance(f, td.ExtFun):
        return (type(f).__name__,) + tuple(
            (fl.name, expr_bytes(getattr(f, fl.name))) for fl in dataclasses.fields(f))
    if isinstance(f, np.ndarray):
        return (f.dtype.str, f.shape, f.tobytes())
    if isinstance(f, (tuple, list)):
        return tuple(expr_bytes(v) for v in f)
    if isinstance(f, float):
        return float(f).hex()
    return (type(f).__name__, f)


def exp_utility(lo: float = -8.0, hi: float = 8.0, step: float = 1e-3) -> market.SampledUtility:
    """u(w) = 1 - exp(-w): concave, bounded above, infinite loss slope."""
    w = np.arange(round(lo / step), round(hi / step) + 1) * step
    return market.SampledUtility(w, 1.0 - np.exp(-w), slope_left=np.inf, slope_right=0.0)


@dataclass
class Bench:
    name: str
    problem: dp.Problem
    bf_grids: dict[str, np.ndarray]
    cfg: dp.SolveConfig
    #: brute force runs on this problem when it differs from the solved one
    #: (the projected fixture solves the restricted problem, the oracle the original)
    oracle_problem: dp.Problem | None = None
    nonconvex: bool = False
    model: market.MarketModel | None = None
    draw_radius: float = 1.0

    def oracle_target(self) -> dp.Problem:
        return self.oracle_problem or self.problem


def axis_grid(lo: float, hi: float, n: int, dim: int = 1) -> np.ndarray:
    ax = np.linspace(lo, hi, n)
    mesh = np.meshgrid(*([ax] * dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


# ---------------------------------------------------------------------------
# the six oracle benchmarks
# ---------------------------------------------------------------------------


def bench_quad_t0() -> Bench:
    """Deterministic one-shot quadratic, the sanity anchor."""
    tree = td.ScenarioTree([td.Node("r", 0, None)])
    f = AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0]], [-3.0])
    problem = dp.history_problem(tree, [1], {"r": f}, lower_bound=0.0)
    return Bench(
        name="quad_t0",
        problem=problem,
        bf_grids={"r": axis_grid(0.0, 4.0, 201)},
        cfg=dp.SolveConfig(),
    )


def bench_frictionless_t1() -> Bench:
    """One-period arbitrage-free frictionless market, concave utility."""
    tree = binomial_tree(1)
    prices = binomial_prices(tree, 1.0, 2.0, 0.5)
    model = market.MarketModel(
        tree=tree, n_risky=1, prices=prices, cost=market.Frictionless(),
        utility=exp_utility(), initial_cash=1.0,
    )
    problem = market.build_problem_cash(model, radius=2.0, points=33)
    return Bench(
        name="frictionless_t1",
        problem=problem,
        bf_grids={"r": axis_grid(-2.0, 2.0, 401)},
        cfg=dp.SolveConfig(),
        model=model,
        draw_radius=1.5,
    )


def sshaped_t2_model() -> market.MarketModel:
    tree = binomial_tree(2)
    prices = binomial_prices(tree, 1.0, 1.3, 0.75)
    return market.MarketModel(
        tree=tree, n_risky=1, prices=prices,
        cost=market.PowerIlliquidity(0.1, 2.0),
        utility=market.SShapedUtility(2.0, 1.0, 1.0),
        initial_cash=1.0,
    )


def bench_sshaped_t2() -> Bench:
    """Two-period superlinear-cost market with the S-shaped investor."""
    model = sshaped_t2_model()
    problem = market.build_problem_cash(model, radius=1.0, points=193)
    grids = {nid: axis_grid(-0.4, 0.6, 101) for nid in ("r", "u", "d")}
    return Bench(
        name="sshaped_t2",
        problem=problem,
        bf_grids=grids,
        cfg=dp.SolveConfig(),
        nonconvex=True,
        model=model,
        draw_radius=0.8,
    )


def bench_trinomial_t1() -> Bench:
    """One-period trinomial with claims, holdings box, superlinear costs."""
    tree = td.ScenarioTree([
        td.Node("r", 0, None, 1.0),
        td.Node("a", 1, "r", 0.25),
        td.Node("b", 1, "r", 0.35),
        td.Node("c", 1, "r", 0.40),
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
    return Bench(
        name="trinomial_t1",
        problem=problem,
        bf_grids={"r": axis_grid(-1.0, 1.0, 401)},
        cfg=dp.SolveConfig(),
        model=model,
        draw_radius=0.9,
    )


def duplicated_asset_model() -> market.MarketModel:
    tree = binomial_tree(1)
    prices = {
        "r": np.array([1.0, 1.0]),
        "u": np.array([2.0, 2.0]),
        "d": np.array([0.5, 0.5]),
    }
    return market.MarketModel(
        tree=tree, n_risky=2, prices=prices, cost=market.Frictionless(),
        utility=exp_utility(), initial_cash=1.0,
    )


def twin_market(tree=None, n_risky: int = 1, **extra) -> market.MarketModel:
    """Binomial T=3 market (or on ``tree``) whose subtrees under u and d are
    twins: the first move leaves the prices at 1, every later move scales
    them by 1.25 or 0.8; ``n_risky`` assets all have these prices."""
    tree = tree or binomial_tree(3)
    prices = {
        n.id: [math.prod(1.25 if c == "u" else 0.8 for c in n.id[1:])] * n_risky
        for n in tree.nodes
    }
    base = dict(cost=market.PowerIlliquidity(0.1, 2.0), utility=market.SShapedUtility(2.0, 1.0, 1.0))
    return market.MarketModel(tree=tree, n_risky=n_risky, prices=prices, initial_cash=1.0,
                              **{**base, **extra})


def stacked_route(problem: dp.Problem) -> dp.Problem:
    """``problem`` without the builder's node rows: its check and null space
    take the stacked route, the oracle of the node route."""
    meta = {k: v for k, v in problem.meta.items() if k != "node_rows"}
    return dataclasses.replace(problem, meta=meta)


def solve_bytes(problem: dp.Problem, cfg: dp.SolveConfig = dp.DEFAULT_CONFIG) -> tuple:
    """Everything ``backward_solve`` returns, as bytes and plain values."""
    return result_bytes(dp.backward_solve(problem, cfg=cfg))


def result_bytes(res: dp.SolveResult) -> tuple:
    """Everything a solve result holds, as bytes and plain values."""
    return (
        float(res.value).hex(), float(res.forward_value).hex(),
        {k: x.tobytes() for k, x in res.strategy.values.items()},
        {k: t.values.tobytes() for k, t in res.pre_tables.items()},
        {k: t.values.tobytes() for k, t in res.post_tables.items()},
        {k: a.tobytes() for k, (_, a) in res.policy.items()},
        res.diagnostics,
    )


def bench_projected_dup() -> Bench:
    """Two identical assets: solve the null-direction-restricted problem,
    brute-force the original."""
    from treedp import cones

    model = duplicated_asset_model()
    original = market.build_problem_cash(model, radius=2.0, points=33)
    directions = cones.null_space(original)
    projected = cones.project_problem(original, directions)
    return Bench(
        name="projected_dup",
        problem=projected,
        bf_grids={"r": axis_grid(-1.2, 1.2, 41, dim=2)},
        cfg=dp.SolveConfig(),
        oracle_problem=original,
        model=model,
    )


def sshaped_t3_model() -> market.MarketModel:
    tree = binomial_tree(3)
    prices = binomial_prices(tree, 1.0, 1.25, 0.8)
    claims = {nid: 0.05 for nid in ("uu", "ud", "du", "dd")}
    return market.MarketModel(
        tree=tree, n_risky=1, prices=prices,
        cost=market.PowerIlliquidity(0.05, 2.0),
        utility=market.SShapedUtility(2.0, 1.0, 1.0),
        claims=claims,
        initial_cash=1.0,
        trading_stages=frozenset({0, 1}),
    )


def bench_sshaped_t3() -> Bench:
    """Three-period tree; trading at the first two stages, then a hold
    period (market closed) before liquidation at the horizon."""
    model = sshaped_t3_model()
    problem = market.build_problem_cash(model, radius=0.8, points=129)
    grids = {nid: axis_grid(-0.5, 0.7, 101) for nid in ("r", "u", "d")}
    return Bench(
        name="sshaped_t3",
        problem=problem,
        bf_grids=grids,
        cfg=dp.SolveConfig(),
        nonconvex=True,
        model=model,
        draw_radius=0.6,
    )


BENCH_BUILDERS: dict[str, Callable[[], Bench]] = {
    "quad_t0": bench_quad_t0,
    "frictionless_t1": bench_frictionless_t1,
    "sshaped_t2": bench_sshaped_t2,
    "trinomial_t1": bench_trinomial_t1,
    "projected_dup": bench_projected_dup,
    "sshaped_t3": bench_sshaped_t3,
}

_BENCH_CACHE: dict[str, Bench] = {}


def get_bench(name: str) -> Bench:
    if name not in _BENCH_CACHE:
        _BENCH_CACHE[name] = BENCH_BUILDERS[name]()
    return _BENCH_CACHE[name]


_SOLVE_CACHE: dict[str, dp.SolveResult] = {}


def get_solved(name: str) -> tuple[Bench, dp.SolveResult]:
    bench = get_bench(name)
    if name not in _SOLVE_CACHE:
        _SOLVE_CACHE[name] = dp.backward_solve(bench.problem, cfg=bench.cfg)
    return bench, _SOLVE_CACHE[name]


def exact_forward(
    problem: dp.Problem, res: dp.SolveResult, cfg: dp.SolveConfig = dp.DEFAULT_CONFIG
) -> tuple[float, td.AdaptedSequence]:
    """The exact price and strategy of a solve's policy: the forward pass
    against the nested recursion.  The tables must price that policy within
    ``cfg.eps_gap * (1 + |value|)``, the bound ``backward_solve`` puts on the
    greedy price."""
    value, strategy = dp.forward_pass(problem, res.pre_tables, res.post_tables,
                                      res.policy, cfg, mode="exact")
    if math.isfinite(res.value):
        assert value <= res.value + cfg.eps_gap * (1.0 + abs(res.value)), (value, res.value)
    return value, strategy


# ---------------------------------------------------------------------------
# the arbitrage fixture (used to demonstrate the failure mode)
# ---------------------------------------------------------------------------


def arbitrage_model() -> market.MarketModel:
    tree = binomial_tree(1)
    prices = {"r": np.array([1.0]), "u": np.array([2.0]), "d": np.array([3.0])}
    return market.MarketModel(
        tree=tree, n_risky=1, prices=prices, cost=market.Frictionless(),
        utility=market.SShapedUtility(2.0, 1.0, 1.0), initial_cash=0.0,
    )


def random_frictionless_model(rng: np.random.Generator) -> market.MarketModel:
    """Random one-period frictionless market with eighth-rational prices.

    Degenerate draws (price-change vectors that do not span the asset
    space) are rejected: on them a zero-profit direction exists and the
    growth condition fails even without arbitrage, so the classical
    equivalence being tested would not apply.
    """
    while True:
        n_assets = int(rng.integers(1, 3))
        n_branch = int(rng.integers(2, 4))
        z0 = rng.integers(4, 17, size=n_assets) / 8.0
        zs = rng.integers(1, 25, size=(n_branch, n_assets)) / 8.0
        moves = zs - z0
        if np.linalg.matrix_rank(moves) < n_assets:
            continue
        probs = rng.integers(1, 5, size=n_branch).astype(float)
        probs /= probs.sum()
        nodes = [td.Node("r", 0, None, 1.0)]
        prices = {"r": z0.astype(float)}
        for i in range(n_branch):
            nid = f"s{i}"
            nodes.append(td.Node(nid, 1, "r", float(probs[i])))
            prices[nid] = zs[i].astype(float)
        tree = td.ScenarioTree(nodes)
        return market.MarketModel(
            tree=tree, n_risky=n_assets, prices=prices,
            cost=market.Frictionless(),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
            initial_cash=1.0,
        )


def random_frictionless_tree(rng, T, n_branch, n_assets, duplicated, balanced, utility,
                            floats=False):
    """Random T-period frictionless market with eighth-rational price moves
    (with ``floats``, moves drawn uniformly from [-0.5, 0.5)).

    In balanced draws every node's child moves sum to zero, so the uniform
    measure is a martingale measure and there is no arbitrage; unbalanced
    draws usually have one.  Duplicated draws copy the first asset's
    prices into every other asset.
    """
    nodes = [td.Node("r", 0, None, 1.0)]
    prices = {"r": np.full(n_assets, 4.0)}
    frontier = ["r"]
    for t in range(1, T + 1):
        nxt = []
        for pid in frontier:
            if floats:
                moves = rng.uniform(-0.5, 0.5, size=(n_branch, n_assets))
            else:
                moves = rng.integers(-4, 5, size=(n_branch, n_assets)) / 8.0
            q = rng.integers(1, 5, size=n_branch).astype(float)
            q /= q.sum()
            if balanced:
                moves[-1] = -moves[:-1].sum(axis=0)
            if duplicated:
                moves[:, 1:] = moves[:, :1]
            for i in range(n_branch):
                cid = f"{pid}{i}" if pid != "r" else str(i)
                nodes.append(td.Node(cid, t, pid, float(q[i])))
                prices[cid] = prices[pid] + moves[i]
                nxt.append(cid)
        frontier = nxt
    return market.MarketModel(
        tree=td.ScenarioTree(nodes), n_risky=n_assets, prices=prices,
        cost=market.Frictionless(), utility=utility, initial_cash=1.0,
    )


def random_bounds(rng, n_assets, T):
    """Holdings boxes on some stages: each side free, at 0 or at +-1."""
    out = {}
    for t in range(T):
        if rng.random() < 0.5:
            lo = rng.choice([-math.inf, -1.0, 0.0], size=n_assets)
            up = rng.choice([math.inf, 1.0], size=n_assets)
            out[t] = (lo, up)
    return out or None
