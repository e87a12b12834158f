import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treedp as td
from treedp import dp
from treedp.efun import Affine, AffinePrecompose, IndicatorBox, PowerCost, Sampled1D, Sum

from conftest import (
    arbitrage_model,
    axis_grid,
    binomial_tree,
    get_bench,
    get_solved,
)
from treedp import market

INF = math.inf


def quad_problem():
    tree = td.ScenarioTree([td.Node("r", 0, None)])
    f = AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0]], [-3.0])
    return dp.history_problem(tree, [1], {"r": f}, lower_bound=0.0)


class TestMinimizeSection:
    def test_quadratic(self):
        f = AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0]], [-3.0])
        val, arg = dp.minimize_section(f, [])
        assert val == pytest.approx(0.0, abs=1e-6)
        assert arg[0] == pytest.approx(3.0, abs=1e-6)

    def test_linear_over_box(self):
        f = Sum((IndicatorBox([0.0], [1.0]), Affine([1.0], 0.0)))
        val, arg = dp.minimize_section(f, [])
        assert val == pytest.approx(0.0, abs=1e-9)
        assert arg[0] == pytest.approx(0.0, abs=1e-9)

    def test_two_well_derived(self):
        # dense-grid oracle first, then the section minimizer
        xs = np.arange(-50000, 50001) / 10000.0
        ys = np.minimum((xs + 1.0) ** 2, (xs - 1.0) ** 2 + 0.5)
        j = int(np.argmin(ys))
        assert ys[j] == pytest.approx(0.0, abs=1e-8)
        assert xs[j] == pytest.approx(-1.0, abs=1e-4)
        f = Sampled1D(
            np.arange(-5000, 5001) / 1000.0,
            np.minimum((np.arange(-5000, 5001) / 1000.0 + 1) ** 2,
                       (np.arange(-5000, 5001) / 1000.0 - 1) ** 2 + 0.5),
            slope_left=-INF, slope_right=INF,
        )
        val, arg = dp.minimize_section(f, [])
        assert val == pytest.approx(0.0, abs=1e-6)
        assert arg[0] == pytest.approx(-1.0, abs=1e-3)

    def test_uniformly_infeasible(self):
        f = Sum((IndicatorBox([0.0], [1.0]), IndicatorBox([2.0], [3.0])))
        val, arg = dp.minimize_section(f, [])
        assert val == INF
        assert arg.size == 0

    def test_with_state_block(self):
        # f(s, x) = (x - s)^2 at s = 1.25
        f = AffinePrecompose(PowerCost(1.0, 2.0, 1), [[-1.0, 1.0]])
        val, arg = dp.minimize_section(f, [1.25])
        assert val == pytest.approx(0.0, abs=1e-9)
        assert arg[0] == pytest.approx(1.25, abs=1e-6)

    def test_flat_direction_exhausts(self):
        f = Affine([0.0], 1.0)  # constant: no boundary dominance ever
        with pytest.raises(dp.SearchBoxExhausted):
            dp.minimize_section(f, [])

    def test_nan_objective_fails_closed(self):
        # np.argmin would take the NaN for the minimum
        def objective(I, X):
            return np.where(X[:, 0] > 0.5, np.nan, (X[:, 0] - 0.2) ** 2)

        with pytest.raises(dp.NumericFailure, match="not a number"):
            dp.minimize_batch(objective, 1, 2)

    def test_horizon_precheck(self):
        f = AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0]], [-3.0])
        from treedp.efun import Homog1D
        with pytest.raises(td.HorizonConditionViolated):
            dp.minimize_section(f, [], decision_horizon=Homog1D(0.0, 1.0))

    def test_ties_break_to_lexicographic_smallest(self):
        # symmetric double well on the decision grid: both +-1 are minima
        f = Sampled1D(
            np.linspace(-2.0, 2.0, 5), [4.0, 0.0, 1.0, 0.0, 4.0],
            slope_left=-INF, slope_right=INF,
        )
        cfg = dp.SolveConfig(grid_points=5, eps_ref=1.0)  # grid only, B=1..2
        val, arg = dp.minimize_section(f, [], cfg=cfg)
        assert arg[0] == -1.0


class TestInterpolation:
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_linear_in_the_values(self, n_axes, n_tables, seed):
        # interior continuations interpolate the post table sum_i p_i V_i in
        # place of sum_i p_i * interp(V_i); both must agree, +inf included
        rng = np.random.default_rng(seed)
        axes = [
            np.cumsum(rng.uniform(0.1, 2.0, int(rng.integers(1, 5)))) - 2.0
            for _ in range(n_axes)
        ]
        shape = tuple(len(a) for a in axes)
        tables = [rng.uniform(-10.0, 10.0, shape) for _ in range(n_tables)]
        for V in tables:
            V[rng.random(shape) < 0.2] = INF
        p = rng.uniform(0.05, 1.0, n_tables)
        p /= p.sum()
        # queries inside, outside and exactly on grid lines
        Q = np.stack([rng.uniform(a[0] - 1.0, a[-1] + 1.0, 32) for a in axes], axis=1)
        for d, a in enumerate(axes):
            snap = rng.random(32) < 0.3
            Q[snap, d] = rng.choice(a, int(snap.sum()))
        post = sum(pi * V for pi, V in zip(p, tables))
        lhs = dp.interp_multilinear(axes, post, Q)
        rhs = sum(pi * dp.interp_multilinear(axes, V, Q) for pi, V in zip(p, tables))
        assert (np.isinf(lhs) == np.isinf(rhs)).all()
        finite = np.isfinite(lhs)
        np.testing.assert_allclose(lhs[finite], rhs[finite], rtol=1e-12, atol=1e-12 * 10.0)

    def test_stacked_tables_read_per_row(self):
        # the stage-batched solver stacks a stage's tables; row i reads table which[i]
        rng = np.random.default_rng(3)
        axes = [np.array([0.0, 1.0, 3.0]), np.array([5.0]), np.array([-1.0, 2.0])]
        tables = rng.uniform(-5.0, 5.0, (4, 3, 1, 2))
        tables[1, 2, 0, 0] = INF
        Q = np.stack([rng.uniform(-0.5, 3.5, 40), np.full(40, 5.0), rng.uniform(-1.5, 2.5, 40)],
                     axis=1)
        which = rng.integers(0, 4, 40)
        got = dp.interp_multilinear(axes, tables, Q, which=which)
        want = [dp.interp_multilinear(axes, tables[k], Q[i : i + 1])[0]
                for i, k in enumerate(which)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_nan_query_is_never_finite(self):
        axes = [np.array([0.0, 1.0, 2.0])]
        out = dp.interp_multilinear(axes, np.array([1.0, 2.0, 3.0]), np.array([[np.nan], [0.5]]))
        assert np.isnan(out[0])
        assert out[1] == 1.5
        # two axes: NaN in one coordinate, the other inside the grid
        out = dp.interp_multilinear(
            axes * 2, np.ones((3, 3)), np.array([[np.nan, 1.0], [1.0, np.nan]])
        )
        assert np.isnan(out).all()

    def test_inf_corner_of_weight_zero_is_silent(self):
        # the query sits on the finite corner; the +inf neighbour has weight 0
        axes = [np.array([0.0, 1.0, 2.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = dp.interp_multilinear(axes, np.array([1.0, INF, 3.0]),
                                        np.array([[0.0], [2.0], [0.5]]))
        assert out.tolist() == [1.0, 3.0, INF]


class TestBackwardSolve:
    def test_t0_quadratic(self):
        res = dp.backward_solve(quad_problem(), grids={})
        assert res.value == pytest.approx(0.0, abs=1e-6)
        assert res.strategy.at("r")[0] == pytest.approx(3.0, abs=1e-6)
        assert res.forward_value == pytest.approx(0.0, abs=1e-6)

    def test_t1_frictionless_vs_brute_force(self):
        bench, res = get_solved("frictionless_t1")
        bf, _ = dp.brute_force(bench.problem, bench.bf_grids)
        assert res.forward_value == pytest.approx(bf, abs=1e-4)

    def test_t2_sshaped_vs_brute_force(self):
        bench, res = get_solved("sshaped_t2")
        bf, _ = dp.brute_force(bench.problem, bench.bf_grids)
        assert res.forward_value == pytest.approx(bf, abs=1e-3)

    def test_gap_guard(self):
        # deterministic chain whose continuation has a bump between the
        # coarse grid nodes: the interpolated table is optimistic there and
        # the exact forward pass must disappoint by ~0.4
        tree = td.ScenarioTree([
            td.Node("r", 0, None),
            td.Node("m", 1, "r", 1.0),
            td.Node("l", 2, "m", 1.0),
        ])
        bump = Sampled1D(
            [-2.0, -1.0, 0.0, 1.0, 2.0], [0.5, 1.0, 0.4, 1.0, 0.45],
            slope_left=-INF, slope_right=INF,
        )
        sm = dp.StateMap(
            (1, 1, 1), np.zeros(0),
            lambda K, S, X: X if tree.times[K[0]] == 0 else S,
        )
        pull = AffinePrecompose(PowerCost(0.05, 2.0, 1), [[1.0]], [-0.7])
        problem = dp.Problem(
            tree=tree, decision_dims=(1, 0, 0), state_map=sm,
            leaf_objective={"l": bump}, stage_funs={"r": pull}, lower_bound=0.0,
        )
        grids = {0: (np.array([-2.0, 0.0, 2.0]),), 1: (np.array([-2.0, 0.0, 2.0]),)}
        with pytest.raises(dp.GridTooCoarse):
            dp.backward_solve(problem, grids=grids)
        res = dp.backward_solve(problem, grids=grids, check_gap=False)
        assert res.forward_value > res.value + 0.1
        fine = {t: (np.linspace(-2, 2, 801),) for t in (0, 1)}
        good = dp.backward_solve(problem, grids=fine)
        assert good.gap <= dp.DEFAULT_CONFIG.eps_gap * (1 + abs(good.value))

    def test_infeasible_problem_reports_inf(self):
        tree = td.ScenarioTree([td.Node("r", 0, None)])
        f = Sum((IndicatorBox([0.0], [1.0]), IndicatorBox([2.0], [3.0])))
        problem = dp.history_problem(tree, [1], {"r": f}, lower_bound=0.0)
        res = dp.backward_solve(problem, grids={})
        assert res.value == INF and res.forward_value == INF


class TestVerifyOptimality:
    def test_extracted_policy_verifies(self):
        bench, res = get_solved("frictionless_t1")
        rep = dp.verify_optimality(bench.problem, res, res.strategy)
        assert rep.optimal
        assert rep.max_gap() <= 1e-6

    def test_zero_strategy_chain(self):
        bench, res = get_solved("frictionless_t1")
        zero = td.AdaptedSequence({"r": np.zeros(1)})
        rep = dp.verify_optimality(bench.problem, res, zero)
        assert not rep.optimal
        # (ie): every chain element dominates the optimal value
        assert all(v >= res.value - 1e-6 for v in rep.chain)
        # chain nonincreasing toward t = 0
        assert rep.chain[0] <= rep.chain[-1] + 1e-9

    def test_random_feasible_strategies_dominate(self):
        bench, res = get_solved("frictionless_t1")
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = td.AdaptedSequence({"r": rng.uniform(-1.5, 1.5, 1)})
            chain = dp.expectation_chain(bench.problem, x, result=res)
            assert all(v >= res.value - 1e-6 for v in chain)

    def test_exact_mode_on_polished_policy(self):
        bench = get_bench("sshaped_t2")
        res = dp.backward_solve(bench.problem, cfg=bench.cfg, forward="exact")
        rep = dp.verify_optimality(bench.problem, res, res.strategy, method="exact")
        assert rep.optimal
        diffs = [abs(rep.chain[t + 1] - rep.chain[t]) for t in range(len(rep.chain) - 1)]
        assert max(diffs) <= 1e-6

    def test_perturbation_breaks_equality(self):
        bench = get_bench("sshaped_t2")
        res = dp.backward_solve(bench.problem, cfg=bench.cfg, forward="exact")
        bumped = dict(res.strategy.values)
        bumped["u"] = bumped["u"] + 0.1
        rep = dp.verify_optimality(
            bench.problem, res, td.AdaptedSequence(bumped), method="exact"
        )
        assert not rep.optimal
        assert rep.max_gap() > 1e-6


class TestBruteForce:
    def test_t0(self):
        problem = quad_problem()
        val, strat = dp.brute_force(problem, {"r": axis_grid(0.0, 4.0, 5)})
        assert val == 0.0
        assert strat.at("r")[0] == 3.0

    def test_hand_computed_two_point(self):
        # capped-linear utility of terminal wealth (linear on the relevant
        # range), grid {0, 1}: best = max expected capped wealth
        tree = binomial_tree(1)
        prices = {"r": np.array([1.0]), "u": np.array([2.0]), "d": np.array([0.5])}
        model = market.MarketModel(
            tree=tree, n_risky=1, prices=prices, cost=market.Frictionless(),
            utility=market.SampledUtility(
                np.array([-100.0, 0.0, 100.0]), np.array([-100.0, 0.0, 0.0]),
                slope_left=1.0, slope_right=0.0,
            ),
            initial_cash=0.0,
        )
        problem = market.build_problem_cash(model)
        val, strat = dp.brute_force(problem, {"r": np.array([[0.0], [1.0]])})
        # wealth: buy 1 -> {1, -0.5} -> u: {0, -0.5}, E = -0.25 -> objective 0.25
        # stay flat -> 0.  best is flat.
        assert val == pytest.approx(0.0)
        assert strat.at("r")[0] == 0.0

    def test_budget_guard(self):
        bench = get_bench("sshaped_t2")
        big = {nid: axis_grid(-1.0, 1.0, 500) for nid in ("r", "u", "d")}
        with pytest.raises(dp.BudgetExceeded):
            dp.brute_force(bench.problem, big)

    def test_arbitrage_values_decrease_on_nested_grids(self):
        problem = market.build_problem_cash(arbitrage_model())
        vals = []
        for B in (1.0, 2.0, 4.0, 8.0):
            v, _ = dp.brute_force(problem, {"r": axis_grid(-B, B, 41)})
            vals.append(v)
        assert all(b < a - 1e-6 for a, b in zip(vals, vals[1:]))


class TestSolveInvariants:
    def test_monotone_refinement_in_decision_grid(self):
        bench = get_bench("frictionless_t1")
        v33 = dp.backward_solve(bench.problem, cfg=dp.SolveConfig(grid_points=33)).value
        v65 = dp.backward_solve(bench.problem, cfg=dp.SolveConfig(grid_points=65)).value
        assert v65 <= v33 + 1e-6

    def test_tables_respect_lower_bound(self):
        bench, res = get_solved("sshaped_t2")
        for nid, table in res.pre_tables.items():
            bound = bench.problem.expected_lower_bound(nid)
            finite = table.values[np.isfinite(table.values)]
            assert (finite >= bound - 1e-6).all()

    def test_forward_value_is_true_strategy_value(self):
        bench, res = get_solved("sshaped_t2")
        assert dp.evaluate_strategy(bench.problem, res.strategy) == pytest.approx(
            res.forward_value, abs=1e-12
        )

    def test_threads_bit_identical(self):
        bench = get_bench("frictionless_t1")
        results = {}
        for threads in (1, 2, 8):
            cfg = dp.SolveConfig(threads=threads)
            res = dp.backward_solve(bench.problem, cfg=cfg)
            results[threads] = (
                res.value,
                res.forward_value,
                {k: v.tobytes() for k, v in res.strategy.values.items()},
                {k: t.values.tobytes() for k, t in res.pre_tables.items()},
            )
        assert results[1] == results[2] == results[8]


class TestExports:
    def test_csv_and_json(self, tmp_path):
        _, res = get_solved("frictionless_t1")
        dp.export_tables_csv(res, str(tmp_path / "tables.csv"))
        dp.export_policy_csv(res, str(tmp_path / "policy.csv"))
        tables = (tmp_path / "tables.csv").read_text().splitlines()
        assert tables[0].startswith("node,kind")
        assert len(tables) > 10
        report = dp.report_json(res)
        assert '"value"' in report
        assert dp.report_json(res) == report  # deterministic


# ---------------------------------------------------------------------------
# slow oracle: the node-by-node solver that the stage-batched one replaced
# ---------------------------------------------------------------------------
#
# Every search below covers one node, as the solver did before it batched
# whole stages.  Each row of a batched search is independent of the others,
# so the fast path must reproduce these results bit for bit.


def _ref_objective(problem, node, cont):
    def f(S, X):
        K = np.full(S.shape[0], problem.tree.index(node.id))
        return problem.stage_values(K, S, X) + cont(problem.state_map.transition(K, S, X))

    return f


def _ref_minimize(f, states, dim, cfg, label):
    n = states.shape[0]
    if dim == 0:
        return f(states, np.zeros((n, 0))), np.zeros((n, 0)), {
            "expansions": 0, "sweeps": 0, "max_box": 0.0}
    vals, xs, diag = dp.minimize_batch(lambda I, X: f(states[I], X), dim, n, cfg, label=label)
    return vals, xs, {k: diag[k] for k in ("expansions", "sweeps", "max_box")}


def _ref_exact_continuation(problem, node, cfg):
    tree = problem.tree
    if tree.is_leaf(node.id):
        return problem.leaf_objective[node.id].value_many

    def cont(states):
        out = np.zeros(states.shape[0])
        for child in tree.children(node.id):  # one search per child
            out += child.prob * _ref_exact_min(problem, child, states, cfg)[0]
        return out

    return cont


def _ref_exact_min(problem, node, states, cfg):
    f = _ref_objective(problem, node, _ref_exact_continuation(problem, node, cfg))
    return _ref_minimize(f, states, problem.decision_dim(node.id), cfg, node.id)


def _ref_table_continuation(problem, node, post):
    tree = problem.tree
    if not tree.is_leaf(node.id) and not all(
        tree.is_leaf(c.id) and problem.decision_dim(c.id) == 0 for c in tree.children(node.id)
    ):
        return post[node.id]
    return _ref_exact_continuation(problem, node, dp.DEFAULT_CONFIG)


def _ref_backward(problem, cfg):
    tree, grids = problem.tree, problem.meta.get("grids", {})
    T = tree.horizon
    pre, post, policy, diags = {}, {}, {}, {}
    for t in range(T, -1, -1):
        if t == 0:
            axes = tuple(np.array([v]) for v in problem.state_map.initial)
        else:
            axes = tuple(np.asarray(a, dtype=float) for a in grids[t - 1])
        shape = tuple(len(a) for a in axes)
        mesh = (np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
                if axes else np.zeros((1, 0)))
        for node in tree.nodes_at(t):
            ndim = problem.decision_dim(node.id)
            if t < T:
                out_axes = tuple(np.asarray(a, dtype=float) for a in grids[t])
                u = np.zeros(tuple(len(a) for a in out_axes))
                for child in tree.children(node.id):
                    u = u + child.prob * pre[child.id].values
                post[node.id] = dp.ValueTable(node.id, out_axes, u, "post")
            f = _ref_objective(problem, node, _ref_table_continuation(problem, node, post))
            vals, args, diags[node.id] = _ref_minimize(f, mesh, ndim, cfg, node.id)
            pre[node.id] = dp.ValueTable(node.id, axes, vals.reshape(shape), "pre")
            policy[node.id] = args.reshape(shape + (ndim,))
    return pre, post, policy, diags


def _ref_walk(problem, choose):
    tree = problem.tree

    def visit(node, S, acc):
        K = np.full(S.shape[0], tree.index(node.id))
        X = choose(node, S)
        acc = acc + problem.stage_values(K, S, X)
        nxt = problem.state_map.transition(K, S, X)
        if tree.is_leaf(node.id):
            return acc + problem.leaf_objective[node.id].value_many(nxt)
        out = np.zeros(S.shape[0])
        for child in tree.children(node.id):
            out += child.prob * visit(child, nxt, acc)
        return out

    S0 = problem.state_map.initial[None, :]
    return float(visit(tree.root, S0, np.zeros(1))[0])


def _ref_forward(problem, post, cfg, mode):
    decisions = {}

    def choose(node, S):
        ndim = problem.decision_dim(node.id)
        if ndim == 0:
            return np.zeros((S.shape[0], 0))
        if mode == "exact":
            _, X, _ = _ref_exact_min(problem, node, S, cfg.exact_refine())
        else:
            f = _ref_objective(problem, node, _ref_table_continuation(problem, node, post))
            _, X, _ = _ref_minimize(f, S, ndim, cfg, node.id)
        X = np.where(np.isnan(X).any(axis=1, keepdims=True), 0.0, X)
        decisions[node.id] = X[0]
        return X

    return _ref_walk(problem, choose), decisions


def _ref_verify(problem, post, strategy, cfg, method):
    """(chain, node gaps) of verify_optimality, node by node."""
    tree = problem.tree
    points = {}

    def choose(node, S):
        ndim = problem.decision_dim(node.id)
        x = strategy.at(node.id) if ndim > 0 else np.zeros(0)
        X = np.repeat(x[None, :], S.shape[0], axis=0)
        if method == "exact":
            cont = _ref_exact_continuation(problem, node, cfg.exact_refine())
        else:
            cont = _ref_table_continuation(problem, node, post)
        f = _ref_objective(problem, node, cont)
        points[node.id] = (f, S, X, float(f(S, X)[0]))
        return X

    _ref_walk(problem, choose)
    past = {tree.root.id: 0.0}
    chain = []
    for t in range(tree.horizon + 1):
        total = 0.0
        for node in tree.nodes_at(t):
            _, S, X, here = points[node.id]
            total += tree.probability(node.id) * (past[node.id] + here)
            K = np.full(1, tree.index(node.id))
            stage = float(problem.stage_values(K, S, X)[0])
            for child in tree.children(node.id):
                past[child.id] = past[node.id] + stage
        chain.append(float(total))
    search_cfg = cfg.exact_refine() if method == "exact" else cfg
    gaps = {}
    for node in tree.nodes:
        f, S, X, here = points[node.id]
        best = float(_ref_minimize(f, S, X.shape[1], search_cfg, node.id)[0][0])
        gaps[node.id] = 0.0 if math.isinf(here) and math.isinf(best) else here - best
    return chain, gaps


def _random_tree(rng, T):
    """Tree with 2 or 3 children per interior node, drawn independently."""
    nodes = [td.Node("r", 0, None, 1.0)]
    frontier = ["r"]
    for t in range(1, T + 1):
        nxt = []
        for nid in frontier:
            k = int(rng.integers(2, 4))
            p = rng.uniform(0.2, 1.0, k)
            p /= p.sum()
            for i in range(k):
                cid = f"{nid}{i}"
                nodes.append(td.Node(cid, t, nid, float(p[i])))
                nxt.append(cid)
        frontier = nxt
    return td.ScenarioTree(nodes)


def _random_market(seed, T, n_risky, frictionless=False, **extra):
    """Each node's children move prices down, then up (one draw per asset,
    or one shared draw for duplicated frictionless assets)."""
    rng = np.random.default_rng(seed)
    tree = _random_tree(rng, T)
    z0 = rng.uniform(0.8, 1.2, n_risky)
    prices = {"r": z0}
    for node in tree.nodes[1:]:
        kids = [c.id for c in tree.children(node.parent)]
        lo, hi = (0.75, 0.95) if kids.index(node.id) == 0 else (1.05, 1.3)
        move = rng.uniform(lo, hi, 1 if frictionless else n_risky)
        prices[node.id] = prices[node.parent] * move
    leaves = [n.id for n in tree.leaves]
    return market.MarketModel(
        tree=tree, n_risky=n_risky, prices=prices,
        cost=(market.Frictionless() if frictionless else market.PowerIlliquidity(
            0.1, 2.0, per_node={tree.nodes[1].id: (0.2, 1.5)})),
        utility=market.SShapedUtility(2.0, 1.0, 1.0),
        utility_overrides={leaves[0]: market.SShapedUtility(3.0, 1.0, 0.8)},
        claims={tree.nodes[-1].id: 0.05},
        endowment={leaves[1]: 0.1},
        initial_cash=1.0,
        **extra,
    )


def _oracle_case(name):
    """(problem, cfg) of a fixture or of a seeded random tree."""
    if name in ("quad_t0", "frictionless_t1", "sshaped_t2", "trinomial_t1",
                "projected_dup", "sshaped_t3"):
        bench = get_bench(name)
        return bench.problem, bench.cfg
    if name == "cash_1asset":
        return market.build_problem_cash(_random_market(11, 2, 1), radius=0.8, points=9), \
            dp.SolveConfig()
    if name == "cash_1asset_t3":
        return market.build_problem_cash(_random_market(12, 3, 1), radius=0.8, points=7), \
            dp.SolveConfig(grid_points=17)
    if name == "cash_2asset_box":
        model = _random_market(13, 2, 2, constraints={0: (np.array([-0.5, -0.5]),
                                                          np.array([0.5, 0.5]))})
        return market.build_problem_cash(model, radius=0.6, points=5), dp.SolveConfig(grid_points=9)
    if name == "cash_hold_first":
        # the root holds, so the exact recursion's first search batches the children
        model = _random_market(16, 2, 1, trading_stages=frozenset({1}))
        return market.build_problem_cash(model, radius=0.8, points=9), dp.SolveConfig()
    if name.startswith("terminal_cash_lower"):
        T = 1 if name.endswith("t1") else 2
        model = _random_market(14, T, 1, cash_lower=-0.5)
        return market.build_problem_terminal(model, radius=0.6, points=5), \
            dp.SolveConfig(grid_points=9)
    if name == "projected":
        original = market.build_problem_cash(
            _random_market(15, 2, 2, frictionless=True), radius=0.8, points=5)
        from treedp import cones
        return cones.project_problem(original, cones.null_space(original)), \
            dp.SolveConfig(grid_points=9)
    raise KeyError(name)


ORACLE_CASES = ["quad_t0", "frictionless_t1", "sshaped_t2", "trinomial_t1", "projected_dup",
                "sshaped_t3", "cash_1asset", "cash_1asset_t3", "cash_hold_first",
                "cash_2asset_box", "terminal_cash_lower", "projected"]
#: the nested recursion is too slow for the other cases in a unit test
EXACT_CASES = ["quad_t0", "frictionless_t1", "trinomial_t1", "projected_dup",
               "cash_hold_first", "terminal_cash_lower_t1"]
_REF_CACHE: dict = {}


def _reference(name):
    """The node-by-node backward pass, greedy forward pass and table verification."""
    if name not in _REF_CACHE:
        problem, cfg = _oracle_case(name)
        pre, post, policy, diags = _ref_backward(problem, cfg)
        fwd, decisions = _ref_forward(problem, post, cfg, "greedy")
        verify = _ref_verify(problem, post, td.AdaptedSequence(decisions), cfg, "tables")
        _REF_CACHE[name] = (problem, cfg, pre, post, policy, diags, fwd, decisions, verify)
    return _REF_CACHE[name]


def _same_arrays(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a)


class TestStageBatchedMatchesPerNode:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_backward_greedy_and_table_verification(self, name, threads):
        problem, cfg, pre, post, policy, diags, fwd, decisions, verify = _reference(name)
        res = dp.backward_solve(problem, cfg=replace(cfg, threads=threads), check_gap=False)
        assert _same_arrays({k: t.values for k, t in res.pre_tables.items()},
                            {k: t.values for k, t in pre.items()})
        assert _same_arrays({k: t.values for k, t in res.post_tables.items()},
                            {k: t.values for k, t in post.items()})
        assert _same_arrays({k: a for k, (_, a) in res.policy.entries.items()}, policy)
        assert res.diagnostics["nodes"] == diags
        assert res.value == pre[problem.tree.root.id].values.reshape(-1)[0]
        assert res.forward_value == fwd
        assert _same_arrays(dict(res.strategy.values), decisions)
        rep = dp.verify_optimality(problem, res, res.strategy, cfg=cfg)
        assert (rep.chain, rep.node_gaps) == verify

    @pytest.mark.parametrize("name", EXACT_CASES)
    def test_exact_forward_verification_and_cost_to_go(self, name):
        problem, cfg, _, post = _reference(name)[:4]
        fwd, strategy = dp.forward_pass(problem, {}, post, None, cfg, mode="exact")
        ref_fwd, ref_decisions = _ref_forward(problem, post, cfg, "exact")
        assert fwd == ref_fwd
        assert _same_arrays(dict(strategy.values), ref_decisions)
        rep = dp.verify_optimality(problem, None, strategy, cfg=cfg, method="exact")
        assert (rep.chain, rep.node_gaps) == _ref_verify(problem, post, strategy, cfg, "exact")
        # the per-child recursion once more, from the first child of the root
        tree = problem.tree
        root = np.array([tree.index(tree.root.id)])
        S0 = problem.state_map.initial[None, :]
        if tree.horizon == 0:
            node, states = tree.root, S0
        else:
            x0 = np.zeros((1, problem.decision_dims[0]))
            if problem.decision_dims[0]:
                x0[0] = strategy.at(tree.root.id)
            node = tree.children(tree.root.id)[0]
            states = problem.state_map.transition(root, S0, x0)
        ref = _ref_exact_min(problem, node, states, cfg.exact_refine())[0][0]
        assert dp.exact_cost_to_go(problem, node.id, states[0], cfg) == ref
