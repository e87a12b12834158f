import csv
import itertools
import json
import math
import os
import signal
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treedp as td
from treedp import dp
from treedp.efun import (
    Affine, AffinePrecompose, IndicatorBox, PartialMin, PowerCost, Sampled1D, Sum,
)

from conftest import (
    BENCH_BUILDERS,
    arbitrage_model,
    axis_grid,
    binomial_tree,
    get_bench,
    get_solved,
    sshaped_t2_model,
)
from treedp import market

INF = math.inf


def quad_problem():
    tree = td.ScenarioTree([td.Node("r", 0, None)])
    f = AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0]], [-3.0])
    return dp.history_problem(tree, [1], {"r": f}, lower_bound=0.0)


def minimize_section(f, state, cfg=dp.DEFAULT_CONFIG):
    """Minimize ``f(state, .)`` over the trailing decision block with the
    solver's search; (+inf, empty) when no finite value exists."""
    state = np.atleast_1d(np.asarray(state, dtype=float))
    vals, xs, _ = dp._minimize_at(
        lambda K, S, X: f.value_many(np.hstack([S, X])),
        np.zeros(1, dtype=np.int64), state[None, :], f.dim - state.shape[0], cfg,
    )
    val = float(vals[0])
    return val, (xs[0] if math.isfinite(val) else np.zeros(0))


class TestMinimizeSection:
    def test_quadratic(self):
        f = AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0]], [-3.0])
        val, arg = minimize_section(f, [])
        assert val == pytest.approx(0.0, abs=1e-6)
        assert arg[0] == pytest.approx(3.0, abs=1e-6)

    def test_linear_over_box(self):
        f = Sum((IndicatorBox([0.0], [1.0]), Affine([1.0], 0.0)))
        val, arg = minimize_section(f, [])
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
        val, arg = minimize_section(f, [])
        assert val == pytest.approx(0.0, abs=1e-6)
        assert arg[0] == pytest.approx(-1.0, abs=1e-3)

    def test_uniformly_infeasible(self):
        f = Sum((IndicatorBox([0.0], [1.0]), IndicatorBox([2.0], [3.0])))
        val, arg = minimize_section(f, [])
        assert val == INF
        assert arg.size == 0

    def test_with_state_block(self):
        # f(s, x) = (x - s)^2 at s = 1.25
        f = AffinePrecompose(PowerCost(1.0, 2.0, 1), [[-1.0, 1.0]])
        val, arg = minimize_section(f, [1.25])
        assert val == pytest.approx(0.0, abs=1e-9)
        assert arg[0] == pytest.approx(1.25, abs=1e-6)

    def test_flat_direction_exhausts(self):
        f = Affine([0.0], 1.0)  # constant: no boundary dominance ever
        with pytest.raises(dp.SearchBoxExhausted):
            minimize_section(f, [])

    def test_nan_objective_fails_closed(self):
        # np.argmin would take the NaN for the minimum
        def objective(I, X):
            return np.where(X[:, 0] > 0.5, np.nan, (X[:, 0] - 0.2) ** 2)

        with pytest.raises(dp.NumericFailure, match="not a number"):
            dp.minimize_batch(objective, 1, 2)

    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_zero_states_give_empty_results(self, dim):
        def objective(I, X):
            raise AssertionError("no states, no evaluation")

        no_rows = (np.zeros(0, dtype=np.intp), np.zeros((0, 1)))
        results = [dp.minimize_batch(objective, dim, 0),
                   dp._minimize_at(lambda K, S, X: objective(K, X), *no_rows, dim)]
        for vals, xs, diag in results:
            assert vals.shape == (0,) and xs.shape == (0, dim)
            assert (diag["expansions"], diag["sweeps"], diag["max_box"]) == (0, 0, 0.0)
            assert all(v.shape == (0,) for v in diag["per_state"].values())
        if dim:  # a partial minimum searches its dim >= 1 minimized coordinates
            inner = AffinePrecompose(PowerCost(1.0, 2.0, dim + 1), np.eye(dim + 1))
            assert PartialMin(inner, 1).value_many(np.zeros((0, 1))).shape == (0,)

    def test_ties_break_to_lexicographic_smallest(self):
        # symmetric double well on the decision grid: both +-1 are minima
        f = Sampled1D(
            np.linspace(-2.0, 2.0, 5), [4.0, 0.0, 1.0, 0.0, 4.0],
            slope_left=-INF, slope_right=INF,
        )
        cfg = dp.SolveConfig(grid_points=5, eps_ref=1.0)  # grid only, B=1..2
        val, arg = minimize_section(f, [], cfg=cfg)
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

    @pytest.mark.parametrize("where", ["stage", "leaf"])
    def test_nan_value_fails_closed_in_every_walk(self, where):
        # np.argmin stops at a NaN and `nan < best` is False, so brute force
        # would skip every chunk holding one and report (inf, {})
        class NanLeaf(Affine):
            def value_many(self, X):
                return np.full(len(X), np.nan)

        tree = binomial_tree(1)
        leaves = {leaf.id: AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0]], [-0.5 - i])
                  for i, leaf in enumerate(tree.leaves)}
        stage_funs = None
        if where == "stage":
            stage_funs = {"r": lambda K, S, X: np.full(len(K), np.nan)}
        else:
            leaves["d"] = NanLeaf([1.0])
        problem = dp.history_problem(tree, [0, 1], leaves, lower_bound=0.0,
                                     stage_funs=stage_funs)
        node = "'r'" if where == "stage" else "'d'"
        strategy = td.AdaptedSequence({leaf.id: np.array([0.5]) for leaf in tree.leaves})
        with pytest.raises(dp.NumericFailure, match=node):
            dp.evaluate_strategy(problem, strategy)
        with pytest.raises(dp.NumericFailure, match=node):
            dp.brute_force(problem, {leaf.id: axis_grid(-1.0, 1.0, 5) for leaf in tree.leaves})
        with pytest.raises(dp.NumericFailure, match=node):
            dp.forward_pass(problem, {}, {}, None, mode="exact")


def reference_brute_force(problem, grids):
    """Brute force by its definition: the exact value of each joint choice
    (``evaluate_strategy``), in lexicographic grid order, first minimum kept."""
    nodes = [n.id for n in problem.decision_nodes()]
    best, arg = INF, {}
    for combo in itertools.product(*(grids[n] for n in nodes)):
        choice = dict(zip(nodes, combo))
        v = dp.evaluate_strategy(problem, td.AdaptedSequence(choice))
        if v < best:
            best, arg = v, choice
    return best, arg


def walk_brute_force(problem, grids, rows=4096):
    """The same enumeration with one depth-first walk per chunk of joint
    choices, each node evaluated on all rows of the chunk."""
    tree = problem.tree
    nodes = [n.id for n in problem.decision_nodes()]
    mats = [grids[n] for n in nodes]
    combos = np.indices([len(g) for g in mats]).reshape(len(mats), -1)

    def visit(node, S, acc, dec):
        K = np.full(S.shape[0], tree.index(node.id))
        X = dec.get(node.id, np.zeros((len(S), 0)))
        acc = acc + problem.stage_values(K, S, X)
        nxt = problem.state_map.transition(K, S, X)
        if tree.is_leaf(node.id):
            return acc + problem.leaf_values(K, nxt)
        out = np.zeros(S.shape[0])
        for child in tree.children(node.id):
            out += child.prob * visit(child, nxt, acc, dec)
        return out

    best, arg = INF, {}
    for a in range(0, combos.shape[1], rows):
        C = combos[:, a : a + rows]
        dec = {n: g[c] for n, g, c in zip(nodes, mats, C)}
        S0 = np.repeat(problem.state_map.initial[None, :], C.shape[1], axis=0)
        vals = visit(tree.root, S0, np.zeros(C.shape[1]), dec)
        j = int(np.argmin(vals))
        if vals[j] < best:
            best, arg = float(vals[j]), {n: d[j] for n, d in dec.items()}
    return best, arg


def assert_bitwise(got, want):
    (v, strategy), (w, choice) = got, want
    assert np.float64(v).tobytes() == np.float64(w).tobytes(), (v, w)
    assert sorted(strategy.values) == sorted(choice)
    for k, x in choice.items():
        assert strategy.at(k).tobytes() == np.asarray(x, dtype=float).tobytes(), k


def wavy_stage(K, S, X):
    # nonconvex in the decision, and reads the entering history
    return np.cos(3.0 * X.sum(axis=1)) + 0.25 * S.sum(axis=1)


def uneven_tree():
    """r has 2 children, a has 3 and b has 2: non-uniform branching."""
    return td.ScenarioTree([
        td.Node("r", 0, None, 1.0),
        td.Node("a", 1, "r", 0.4), td.Node("b", 1, "r", 0.6),
        td.Node("aa", 2, "a", 0.2), td.Node("ab", 2, "a", 0.3), td.Node("ac", 2, "a", 0.5),
        td.Node("ba", 2, "b", 0.7), td.Node("bb", 2, "b", 0.3),
    ])


def history_case(tree, dims, boxes=None, seed=0, stage=wavy_stage):
    """A history problem with ``stage`` costs and shifted quadratic leaves;
    ``boxes`` maps a node to the holdings box its stage cost adds."""
    rng = np.random.default_rng(seed)
    width = int(np.sum(dims))
    leaves = {
        leaf.id: AffinePrecompose(
            PowerCost(1.0, 2.0, 1), [rng.uniform(-1.0, 1.0, width)], [rng.uniform(-0.5, 0.5)])
        for leaf in tree.leaves
    }
    stage_funs = {}
    for n in tree.nodes:
        box = (boxes or {}).get(n.id)
        if box is None:
            stage_funs[n.id] = stage
        else:
            ind = IndicatorBox(*box)

            def boxed(K, S, X, ind=ind):
                return stage(K, S, X) + ind.value_many(X)

            stage_funs[n.id] = boxed
    return dp.history_problem(tree, dims, leaves, lower_bound=-10.0, stage_funs=stage_funs)


def node_grids(problem, lo=-1.0, hi=1.0, n=4, more=()):
    """``n`` points per axis per decision node; ``more`` nodes get ``n + 1``."""
    return {
        node.id: axis_grid(lo, hi, n + (node.id in more), dim=problem.decision_dim(node.id))
        for node in problem.decision_nodes()
    }


class TestBruteForceReference:
    """``brute_force`` equals the exhaustive definition bit for bit."""

    def test_uneven_branching(self):
        problem = history_case(uneven_tree(), [1, 1, 0])
        grids = node_grids(problem, n=3, more=("a", "r"))
        assert_bitwise(dp.brute_force(problem, grids), reference_brute_force(problem, grids))

    def test_closed_interior_stage_and_deciding_leaves(self):
        problem = history_case(uneven_tree(), [1, 0, 1], seed=1)
        grids = node_grids(problem, n=2, more=("r", "ab"))
        assert_bitwise(dp.brute_force(problem, grids), reference_brute_force(problem, grids))

    def test_deciding_leaves_only(self):
        problem = history_case(binomial_tree(1), [0, 1], seed=2)
        grids = node_grids(problem, n=7, more=("u",))
        assert_bitwise(dp.brute_force(problem, grids), reference_brute_force(problem, grids))

    def test_two_dimensional_decisions(self):
        problem = history_case(binomial_tree(1), [2, 1], seed=3)
        grids = node_grids(problem, n=4, more=("d",))
        assert_bitwise(dp.brute_force(problem, grids), reference_brute_force(problem, grids))

    def test_infinite_boxes(self):
        boxes = {"r": ([-0.5], [0.75]), "a": ([-2.0], [0.0]), "bb": ([0.0], [2.0])}
        problem = history_case(uneven_tree(), [1, 1, 1], boxes=boxes, seed=4)
        grids = node_grids(problem, n=2, more=("r", "a", "b"))
        got = dp.brute_force(problem, grids)
        assert math.isfinite(got[0])
        assert_bitwise(got, reference_brute_force(problem, grids))

    def test_all_infeasible_grid(self):
        problem = history_case(binomial_tree(1), [1, 1], boxes={"r": ([-0.5], [0.75])})
        grids = node_grids(problem, n=3)
        grids["r"] = axis_grid(1.0, 2.0, 3)
        got = dp.brute_force(problem, grids)
        assert got == (INF, td.AdaptedSequence({}))
        assert_bitwise(got, reference_brute_force(problem, grids))

    def test_no_decision_node(self):
        model = replace(sshaped_t2_model(), trading_stages=frozenset())
        problem = market.build_problem_cash(model, radius=1.0, points=17)
        assert problem.decision_nodes() == []
        assert_bitwise(dp.brute_force(problem, {}), reference_brute_force(problem, {}))

    @pytest.mark.parametrize("name", sorted(BENCH_BUILDERS))
    def test_fixture_on_thinned_grids(self, name):
        bench = get_bench(name)
        grids = {k: g[:: max(1, len(g) // 6)] for k, g in bench.bf_grids.items()}
        problem = bench.oracle_target()
        assert_bitwise(dp.brute_force(problem, grids), reference_brute_force(problem, grids))

    @pytest.mark.parametrize("name", sorted(BENCH_BUILDERS))
    def test_fixture_on_its_grids(self, name):
        bench = get_bench(name)
        problem = bench.oracle_target()
        assert_bitwise(
            dp.brute_force(problem, bench.bf_grids), walk_brute_force(problem, bench.bf_grids))

    @pytest.mark.parametrize("block", [1, 3, 7, 30, 60, 2**16])
    def test_blocks_and_a_tie_across_them(self, block, monkeypatch):
        # the root's cost (x^2 - 1)^2 ties at x = -1 and x = 1, and nothing
        # downstream reads x: the first of the two must win in every blocking
        tree = binomial_tree(1)
        leaves = {leaf.id: AffinePrecompose(PowerCost(1.0, 2.0, 1), [[0.0, 1.0]], [-0.3 - i])
                  for i, leaf in enumerate(tree.leaves)}
        stage_funs = {"r": lambda K, S, X: (X[:, 0] ** 2 - 1.0) ** 2}
        problem = dp.history_problem(tree, [1, 1], leaves, lower_bound=0.0,
                                     stage_funs=stage_funs)
        grids = {"r": axis_grid(-1.5, 1.5, 7), "u": axis_grid(-1.0, 1.0, 5),
                 "d": axis_grid(-1.0, 1.0, 5)}
        monkeypatch.setattr(dp, "_BF_BLOCK", block)
        got = dp.brute_force(problem, grids)
        assert got[1].at("r")[0] == -1.0
        assert_bitwise(got, reference_brute_force(problem, grids))

    @pytest.mark.parametrize("block", [1, 2, 5, 11])
    def test_small_blocks_split_leading_axes(self, block, monkeypatch):
        problem = history_case(uneven_tree(), [1, 1, 0], seed=5)
        grids = node_grids(problem, n=3, more=("a",))
        monkeypatch.setattr(dp, "_BF_BLOCK", block)
        assert_bitwise(dp.brute_force(problem, grids), reference_brute_force(problem, grids))

    def test_each_node_once_per_path_choice(self):
        rows: dict[str, int] = {}

        def counting(K, S, X):
            node = problem._ids[int(K[0])]
            rows[node] = rows.get(node, 0) + len(K)
            return wavy_stage(K, S, X)

        tree = uneven_tree()
        problem = history_case(tree, [1, 1, 0], stage=counting)
        grids = {"r": axis_grid(-1, 1, 3), "a": axis_grid(-1, 1, 4), "b": axis_grid(-1, 1, 5)}
        with pytest.raises(dp.BudgetExceeded):
            dp.brute_force(problem, grids, guard=59)
        assert rows == {}
        dp.brute_force(problem, grids)
        path = {"r": 3, "a": 12, "b": 15}
        assert rows == {n.id: path[n.id if n.time < 2 else n.parent] for n in tree.nodes}

    @pytest.mark.parametrize("grid", ["missing", "empty"])
    def test_malformed_grid_names_the_node(self, grid):
        def untouchable(K, S, X):
            raise AssertionError("evaluated before the grids were checked")

        problem = history_case(binomial_tree(1), [1, 1], stage=untouchable)
        grids = {"r": axis_grid(-1, 1, 3), "u": axis_grid(-1, 1, 3), "d": axis_grid(-1, 1, 3)}
        if grid == "missing":
            del grids["u"]
        else:
            grids["u"] = np.zeros((0, 1))
        with pytest.raises(ValueError, match="'u'"):
            dp.brute_force(problem, grids)


STRATEGY_ENTRIES = {
    "evaluate_strategy": lambda problem, s: dp.evaluate_strategy(problem, s),
    "expectation_chain": lambda problem, s: dp.expectation_chain(problem, s, method="exact"),
    "verify_optimality": lambda problem, s: dp.verify_optimality(problem, None, s, method="exact"),
}


class TestStagewisePass:
    """``evaluate_strategy`` and the chain follow a strategy one stage per call."""

    @staticmethod
    def assert_one_choice_brute_force(problem, strategy):
        one = {n.id: [strategy.at(n.id)] for n in problem.decision_nodes()}
        got = dp.evaluate_strategy(problem, strategy)
        assert np.float64(got).tobytes() == np.float64(dp.brute_force(problem, one)[0]).tobytes()

    @pytest.mark.parametrize("name", sorted(BENCH_BUILDERS))
    def test_fixture_equals_brute_force_of_one_choice(self, name):
        bench = get_bench(name)
        problem = bench.oracle_target()
        rng = np.random.default_rng(7)
        r = bench.draw_radius
        strategy = td.AdaptedSequence({
            n.id: rng.uniform(-r, r, problem.decision_dim(n.id)) for n in problem.decision_nodes()
        })
        self.assert_one_choice_brute_force(problem, strategy)

    @pytest.mark.parametrize("dims", [[1, 1, 1], [1, 0, 1], [0, 1, 0]])
    def test_uneven_branching_equals_brute_force_of_one_choice(self, dims):
        # r has 2 children and a has 3: the partial third child slot
        problem = history_case(uneven_tree(), dims, seed=sum(dims))
        rng = np.random.default_rng(8)
        strategy = td.AdaptedSequence(
            {n.id: rng.uniform(-1.0, 1.0, 1) for n in problem.decision_nodes()})
        self.assert_one_choice_brute_force(problem, strategy)

    def test_one_call_per_stage(self, monkeypatch):
        T = 9
        calls = {"stage_values": 0, "transition": 0}
        problem = history_case(binomial_tree(T), [1] * (T + 1))
        history = problem.state_map.transition

        def transition(K, S, X):
            calls["transition"] += 1
            return history(K, S, X)

        problem = replace(problem, state_map=replace(problem.state_map, transition=transition))
        stage_values = dp.Problem.stage_values

        def counted(self, K, S, X):
            calls["stage_values"] += 1
            return stage_values(self, K, S, X)

        monkeypatch.setattr(dp.Problem, "stage_values", counted)
        rng = np.random.default_rng(9)
        strategy = td.AdaptedSequence(
            {n.id: rng.uniform(-1.0, 1.0, 1) for n in problem.tree.nodes})
        value = dp.evaluate_strategy(problem, strategy)
        assert calls == {"stage_values": T + 1, "transition": T + 1}
        assert value == _ref_walk(problem, lambda node, S: strategy.at(node.id)[None, :])

    @pytest.mark.parametrize("entry", sorted(STRATEGY_ENTRIES))
    @pytest.mark.parametrize("strategy, message", [
        ({"u": [0.5]}, "strategy at 'd' has no decision, want 1"),
        ({"u": [0.5], "d": [0.5, 0.5]}, r"strategy at 'd' has dimension \(2,\), want 1"),
    ])
    def test_bad_decision_names_the_node(self, entry, strategy, message):
        tree = binomial_tree(1)
        leaves = {leaf.id: AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0]], [-0.5 - i])
                  for i, leaf in enumerate(tree.leaves)}
        problem = dp.history_problem(tree, [0, 1], leaves, lower_bound=0.0)
        with pytest.raises(ValueError, match=message):
            STRATEGY_ENTRIES[entry](problem, td.AdaptedSequence(strategy))


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


# ---------------------------------------------------------------------------
# exports: the exporters as they were, one csv.writer row per grid state
# ---------------------------------------------------------------------------


def _ref_coordinate_rows(axes: tuple[np.ndarray, ...], width: int) -> list[list[str]]:
    """Formatted grid coordinates in C order, padded to ``width`` columns."""
    pad = [""] * (width - len(axes))
    formatted = [list(map(repr, np.asarray(a, dtype=float).tolist())) for a in axes]
    return [list(c) + pad for c in itertools.product(*formatted)]


def _ref_export_tables_csv(result: dp.SolveResult, path: str) -> None:
    """Plot-ready dump: node, table kind, grid coordinates, value."""
    tabs = list(result.pre_tables.values()) + list(result.post_tables.values())
    width = max((len(t.axes) for t in tabs), default=0)
    coords: dict[int, list[list[str]]] = {}  # stages share their axes objects
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "kind"] + [f"s{i}" for i in range(width)] + ["value"])
        for t in tabs:
            if not t.axes:
                w.writerow([t.node, t.kind] + [""] * width + [repr(float(t.values.reshape(-1)[0]))])
                continue
            if id(t.axes) not in coords:
                coords[id(t.axes)] = _ref_coordinate_rows(t.axes, width)
            values = map(repr, t.values.ravel().tolist())
            w.writerows([t.node, t.kind, *c, v] for c, v in zip(coords[id(t.axes)], values))


def _ref_export_policy_csv(result: dp.SolveResult, path: str) -> None:
    entries = result.policy.entries
    swidth = max((len(axes) for axes, _ in entries.values()), default=0)
    dwidth = max((arr.shape[-1] for _, arr in entries.values()), default=0)
    coords: dict[int, list[list[str]]] = {}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["node"]
            + [f"s{i}" for i in range(swidth)]
            + [f"x{i}" for i in range(dwidth)]
        )
        for node, (axes, arr) in entries.items():
            ndim = arr.shape[-1]
            pad = [""] * (dwidth - ndim)
            rows = arr.reshape(math.prod(arr.shape[:-1]), ndim).tolist()
            decisions = [list(map(repr, row)) + pad for row in rows]
            if not axes:
                w.writerows([node] + [""] * swidth + dec for dec in decisions)
                continue
            if id(axes) not in coords:
                coords[id(axes)] = _ref_coordinate_rows(axes, swidth)
            w.writerows([node, *c, *dec] for c, dec in zip(coords[id(axes)], decisions))


#: ids the csv module must quote (and the empty id), and floats of every repr form
ODD_IDS = ["a,b", 'say "hi"', "two\nlines", ""]
ODD_FLOATS = np.array([
    -0.0, 0.0, INF, -INF, np.nan, *np.array([0x7FF8000000000001], np.int64).view(float),
    5e-324, 2.5e-310, 1e16, 1e-5, 0.1, -1.5, 1 / 3,
])


def _odd_result(state_axes: int, ndims: list[int]) -> dp.SolveResult:
    """A hand-made result over ``ODD_IDS``: tables and decisions cycle
    through ``ODD_FLOATS`` on ``state_axes`` shared axes (plus one table
    with no axes); node i decides ``ndims[i]`` coordinates."""
    axes = tuple(ODD_FLOATS[i : i + 3].copy() for i in range(state_axes))
    shape = tuple(len(a) for a in axes)
    size = math.prod(shape)

    def pick(k, n):
        return np.resize(np.roll(ODD_FLOATS, k), n)

    pre, post, policy = {}, {}, {}
    for i, (nid, ndim) in enumerate(zip(ODD_IDS, ndims)):
        pre[nid] = dp.ValueTable(nid, axes, pick(i, size).reshape(shape), "pre")
        post[nid] = dp.ValueTable(nid, (), pick(i + 5, 1).reshape(()), "post")
        policy[nid] = (axes, pick(2 * i, size * ndim).reshape(shape + (ndim,)))
    return dp.SolveResult(INF, INF, dp.Policy(policy), td.AdaptedSequence({}), pre, post, {})


class TestExports:
    """The exporters write the bytes of their csv.writer-per-row references."""

    @staticmethod
    def _assert_reference_bytes(res, tmp_path):
        for export, ref in ((dp.export_tables_csv, _ref_export_tables_csv),
                            (dp.export_policy_csv, _ref_export_policy_csv)):
            export(res, str(tmp_path / "got.csv"))
            ref(res, str(tmp_path / "want.csv"))
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("name", list(BENCH_BUILDERS))
    def test_fixtures(self, name, tmp_path):
        _, res = get_solved(name)
        if name == "quad_t0":
            assert res.pre_tables["r"].axes == ()
        self._assert_reference_bytes(res, tmp_path)

    def test_terminal_form(self, tmp_path):
        problem, cfg = _oracle_case("terminal_cash_lower_t1")
        assert problem.decision_dims == (2, 0)
        self._assert_reference_bytes(dp.backward_solve(problem, cfg=cfg), tmp_path)

    @pytest.mark.parametrize("state_axes, ndims", [
        (2, [1, 2, 0, 3]),
        (1, [0, 1, 0, 1]),
        (0, [2, 0, 1, 0]),
        (0, [0, 0, 0, 0]),  # the policy's rows are the node id alone
    ])
    def test_odd_ids_and_floats(self, state_axes, ndims, tmp_path):
        self._assert_reference_bytes(_odd_result(state_axes, ndims), tmp_path)
        text = (tmp_path / "got.csv").read_bytes().decode()
        assert '"two\nlines"' in text and '"say ""hi"""' in text

    def test_report_json_is_standard(self):
        def no_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        tree = td.ScenarioTree([td.Node("r", 0, None)])
        f = Sum((IndicatorBox([0.0], [1.0]), IndicatorBox([2.0], [3.0])))
        res = dp.backward_solve(dp.history_problem(tree, [1], {"r": f}, lower_bound=0.0),
                                grids={})
        report = json.loads(dp.report_json(res), parse_constant=no_constant)
        assert report["value"] == report["forward_value"] == "inf"
        assert float(report["value"]) == INF
        assert json.loads(dp.json_text([-INF]), parse_constant=no_constant) == ["-inf"]
        with pytest.raises(ValueError):
            dp.json_text({"gap": [1.0, math.nan]})

    def test_finite_report_keeps_json_dumps_bytes(self):
        _, res = get_solved("frictionless_t1")
        payload = res.report_dict()
        assert dp.report_json(res) == json.dumps(payload, sort_keys=True, indent=2)
        assert dp.report_json(res) == dp.report_json(res)  # deterministic


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


def _ref_minimize_batch(objective, dim, n_states, cfg=dp.DEFAULT_CONFIG, label="", groups=None):
    """The search that evaluates every point: the whole mesh at each box,
    and one objective call per sign in each refinement sweep."""
    best_val = np.full(n_states, INF)
    best_x = np.full((n_states, dim), np.nan)
    step0 = np.full(n_states, np.nan)
    active = np.ones(n_states, dtype=bool)
    per_state = {
        "expansions": np.zeros(n_states, dtype=np.int64),
        "sweeps": np.zeros(n_states, dtype=np.int64),
        "max_box": np.zeros(n_states),
    }
    diag: dict = {"expansions": 0, "sweeps": 0, "max_box": 0.0, "per_state": per_state}
    B = cfg.box_init
    k = cfg.grid_points ** dim
    max_rows = dp._MAX_ROWS

    def eval_grid(states_idx, mesh, boundary):
        def run(piece):
            chunk = states_idx[piece]
            I = np.repeat(chunk, k)
            X = np.tile(mesh, (len(chunk), 1))
            vals = np.asarray(objective(I, X), dtype=float).reshape(len(chunk), k)
            j = np.argmin(vals, axis=1)
            best = vals[np.arange(len(chunk)), j]
            dp._reject_nan(best, chunk, label, groups)
            return j, best, vals[:, boundary].min(axis=1)

        size = max(1, max_rows // k)
        parts = [run(slice(a, a + size)) for a in range(0, len(states_idx), size)]
        return (np.concatenate(a) for a in zip(*parts))

    def eval_points(I, X):
        def run(piece):
            vals = np.asarray(objective(I[piece], X[piece]), dtype=float)
            dp._reject_nan(vals, I[piece], label, groups)
            return vals

        return np.concatenate([run(slice(a, a + max_rows)) for a in range(0, len(I), max_rows)])

    while True:
        mesh = axis_grid(-B, B, cfg.grid_points, dim)
        spacing = 2.0 * B / (cfg.grid_points - 1)
        boundary = (np.abs(mesh) >= B * (1 - 1e-12)).any(axis=1)
        idx = np.flatnonzero(active)
        j, gridbest, bmin = eval_grid(idx, mesh, boundary)
        better = gridbest < best_val[idx]
        upd = idx[better]
        best_val[upd] = gridbest[better]
        best_x[upd] = mesh[j[better]]
        step0[upd] = spacing
        done = np.isfinite(best_val[idx]) & (bmin > best_val[idx] + cfg.margin)
        active[idx[done]] = False
        per_state["max_box"][idx] = B
        diag["max_box"] = B
        if not active.any():
            break
        B *= 2.0
        diag["expansions"] += 1
        per_state["expansions"][active] += 1
        if B > cfg.box_max:
            stuck = active & np.isfinite(best_val)
            if stuck.any():
                first = int(np.argmax(stuck))
                if groups is not None:
                    stuck &= groups == groups[first]
                raise dp.SearchBoxExhausted(
                    dp._state_name(label, groups, first), int(stuck.sum()), cfg.box_max
                )
            active[:] = False
            break

    refine = np.flatnonzero(np.isfinite(best_val))
    if refine.size:
        x = best_x[refine].copy()
        fx = best_val[refine].copy()
        step = step0[refine].copy()
        live = step >= cfg.eps_ref
        while live.any():
            improved = np.zeros(len(refine), dtype=bool)
            for d in range(dim):
                for sgn in (1.0, -1.0):
                    rows = np.flatnonzero(live)
                    cand = x[rows].copy()
                    cand[:, d] += sgn * step[rows]
                    vals = eval_points(refine[rows], cand)
                    acc = vals < fx[rows]
                    hit = rows[acc]
                    x[hit, d] = cand[acc, d]
                    fx[hit] = vals[acc]
                    improved[hit] = True
            per_state["sweeps"][refine[live]] += 1
            step[live & ~improved] *= 0.5
            live = step >= cfg.eps_ref
            diag["sweeps"] += 1
        best_x[refine] = x
        best_val[refine] = fx
    return best_val, best_x, diag


def _ref_minimize(f, states, dim, cfg, label):
    n = states.shape[0]
    if dim == 0:
        return f(states, np.zeros((n, 0))), np.zeros((n, 0)), {
            "expansions": 0, "sweeps": 0, "max_box": 0.0}
    vals, xs, diag = _ref_minimize_batch(lambda I, X: f(states[I], X), dim, n, cfg, label=label)
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
#: (seed, T, n_risky, extras) of the random markets above
RANDOM_MARKETS = [
    (11, 2, 1, {}),
    (12, 3, 1, {}),
    (13, 2, 2, {"constraints": {0: (np.array([-0.5, -0.5]), np.array([0.5, 0.5]))}}),
    (14, 2, 1, {"cash_lower": -0.5}),
    (15, 2, 2, {"frictionless": True}),
    (16, 2, 1, {"trading_stages": frozenset({1})}),
]


class TestMarketForms:
    @pytest.mark.parametrize("seed, T, n_risky, extra", RANDOM_MARKETS,
                             ids=[str(case[0]) for case in RANDOM_MARKETS])
    def test_terminal_form_is_cash_form_plus_expenditure(self, seed, T, n_risky, extra):
        # spending nothing, the terminal form computes the cash form's value
        # bit for bit: one transition, one leaf objective, one set of limits
        model = _random_market(seed, T, n_risky, **extra)
        cash = market.build_problem_cash(model, radius=0.8, points=5)
        term = market.build_problem_terminal(model, radius=0.8, points=5)
        assert term.decision_dims == tuple(d + 1 if d else 0 for d in cash.decision_dims)
        rng = np.random.default_rng(seed)
        draws = [{n.id: rng.uniform(-0.5, 0.5, n_risky) for n in cash.decision_nodes()}
                 for _ in range(5)]
        # a large position breaks the holdings box and the borrowing limit
        draws.append({n.id: np.full(n_risky, 2.0) for n in cash.decision_nodes()})
        for holdings in draws:
            v_cash = dp.evaluate_strategy(cash, td.AdaptedSequence(holdings))
            v_term = dp.evaluate_strategy(term, td.AdaptedSequence(
                {nid: np.concatenate([[0.0], x]) for nid, x in holdings.items()}))
            assert v_term == v_cash


class TestLowerBoundPass:
    def test_matches_node_by_node_sum(self):
        # each node sums its children's bounds in tree order, as a loop would
        rng = np.random.default_rng(5)
        tree = _random_tree(rng, 3)
        bounds = {leaf.id: float(rng.uniform(-2.0, 0.0)) for leaf in tree.leaves}
        problem = dp.history_problem(
            tree, [0] * (tree.horizon + 1),
            {leaf.id: Affine(np.zeros(0), 0.0) for leaf in tree.leaves}, bounds)
        ref = dict(bounds)
        for t in range(tree.horizon - 1, -1, -1):
            for node in tree.nodes_at(t):
                acc = 0.0
                for child in tree.children(node.id):
                    acc += child.prob * ref[child.id]
                ref[node.id] = acc
        assert {n.id: problem.expected_lower_bound(n.id) for n in tree.nodes} == ref


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


@pytest.fixture
def no_orphans():
    """The test leaves no child process behind, reaped or not."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch, no_orphans):
    """The pids that ``os.fork`` returns to the calling process during the test."""
    pids: list[int] = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def split_everywhere(monkeypatch, forks):
    """Every search of two or more states at ``threads > 1`` splits over
    worker processes, on two usable CPUs at least."""
    monkeypatch.setattr(dp, "_MIN_SPLIT_STATES", 1)
    if len(os.sched_getaffinity(0)) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return forks


class TestStageBatchedMatchesPerNode:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_backward_greedy_and_table_verification(self, name, threads, request):
        problem, cfg, pre, post, policy, diags, fwd, decisions, verify = _reference(name)
        forks = request.getfixturevalue("split_everywhere") if threads > 1 else None
        res = dp.backward_solve(problem, cfg=replace(cfg, threads=threads), check_gap=False)
        if forks is not None:  # stage 0 searches only the initial state
            assert bool(forks) == any(problem.decision_dims[1:])
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
        K = np.array([tree.index(node.id)])
        assert dp._exact_min(problem, K, states[:1], cfg.exact_refine())[0][0] == ref


def _fan_problem(stage_funs) -> dp.Problem:
    """r -> a, b, c -> one leaf each.  A middle node's entering state is r's
    decision, and its objective is its stage function alone."""
    mids = ["a", "b", "c"]
    tree = td.ScenarioTree(
        [td.Node("r", 0, None)]
        + [td.Node(k, 1, "r", 1 / 3) for k in mids]
        + [td.Node(k + "l", 2, k, 1.0) for k in mids])
    sm = dp.StateMap((1, 1, 1), np.zeros(0),
                     lambda K, S, X: X if tree.times[K[0]] == 0 else S)
    return dp.Problem(tree=tree, decision_dims=(1, 1, 0), state_map=sm,
                      leaf_objective={k + "l": Affine([0.0], 0.0) for k in mids},
                      stage_funs=stage_funs, lower_bound=0.0)


#: 41 entering states per middle node: at two parts the stage-1 search of
#: 123 rows splits at row 61, among b's rows
FAN_GRIDS = {t: (np.linspace(-2.0, 2.0, 41),) for t in (0, 1)}


def _bowl(K, S, X):
    return (X[:, 0] - S[:, 0]) ** 2


def _fan_outcome(stage_funs, threads):
    """The solve's values and decisions as bytes, or the error it raises."""
    cfg = dp.SolveConfig(threads=threads)
    try:
        res = dp.backward_solve(_fan_problem(stage_funs), FAN_GRIDS, cfg, check_gap=False)
    except (dp.NumericFailure, dp.SearchBoxExhausted) as e:
        return type(e).__name__, str(e)
    return tuple((k, t.values.tobytes(), res.policy.entries[k][1].tobytes())
                 for k, t in res.pre_tables.items())


class TestSplitSearch:
    """A search split over worker processes (``threads > 1``) returns and
    raises what the same search at one thread does, and no worker outlives it."""

    @pytest.mark.parametrize("case", ["stuck_in_both_parts", "nan_in_both_parts"])
    def test_errors_as_at_one_thread(self, case, split_everywhere):
        if case == "stuck_in_both_parts":
            # b's rows straddle the cut: the first part alone counts 20 of 41
            funs = {"a": _bowl, "b": lambda K, S, X: np.zeros(len(K)), "c": _bowl}
        else:
            # the first part meets its NaN at box 4, the second at box 1; the
            # search of all rows raises at box 1, naming c
            funs = {"a": lambda K, S, X: np.where(np.abs(X[:, 0]) > 3, np.nan, 0.0),
                    "b": _bowl,
                    "c": lambda K, S, X: np.where(X[:, 0] > 0.5, np.nan, 0.0)}
        want = _fan_outcome(funs, 1)
        assert not split_everywhere
        assert want[0] in ("SearchBoxExhausted", "NumericFailure")
        assert _fan_outcome(funs, 2) == want
        assert split_everywhere

    def test_dead_worker_is_searched_again_here(self, split_everywhere):
        parent = os.getpid()

        def killed_in_worker(K, S, X):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return _bowl(K, S, X)

        funs = {"a": _bowl, "b": _bowl, "c": _bowl}
        want = _fan_outcome(funs, 1)
        assert _fan_outcome({**funs, "c": killed_in_worker}, 2) == want
        assert split_everywhere

    def test_interrupt_kills_and_reaps_the_workers(self, split_everywhere):
        parent = os.getpid()

        def interrupted_here(K, S, X):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return _bowl(K, S, X)

        calls = []

        def slow_worker(K, S, X):
            if not calls:  # a worker still searching when the caller stops
                calls.append(time.sleep(60))
            return _bowl(K, S, X)

        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            _fan_outcome({"a": interrupted_here, "b": _bowl, "c": slow_worker}, 2)
        assert time.perf_counter() - t0 < 30
        assert split_everywhere

    def test_workers_capped_by_usable_cpus(self, monkeypatch, forks):
        # 64 states split into at most 64 parts, whatever the cap does; the
        # later states need larger boxes, so the parts' batch counters differ
        monkeypatch.setattr(dp, "_MIN_SPLIT_STATES", 1)
        cpus = len(os.sched_getaffinity(0))
        S = np.linspace(0.0, 40.0, 64)[:, None]
        K = np.zeros(64, dtype=np.int64)
        want = None
        for threads in (1, 2, 8, 10**6):
            forks.clear()
            out = dp._minimize_at(_bowl, K, S, 1, dp.SolveConfig(threads=threads))
            assert len(forks) == min(threads, cpus) - 1 <= cpus - 1
            got = (out[0].tobytes(), out[1].tobytes(),
                   {k: v.tobytes() for k, v in out[2]["per_state"].items()},
                   [out[2][k] for k in ("expansions", "sweeps", "max_box")])
            want = want or got
            assert got == want

    def test_no_split_while_other_threads_run(self, split_everywhere):
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            outcome = _fan_outcome({"a": _bowl, "b": _bowl, "c": _bowl}, 2)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert not split_everywhere
        assert outcome == _fan_outcome({"a": _bowl, "b": _bowl, "c": _bowl}, 1)


def _search_outcome(search, objective, dim, n, cfg, groups):
    """Everything a search returns as bytes, or the error it raises."""
    try:
        label = "s" if groups is None else ["a", "b", "c"]
        vals, xs, diag = search(objective, dim, n, cfg, label=label, groups=groups)
    except (dp.NumericFailure, dp.SearchBoxExhausted) as e:
        return type(e).__name__, str(e)
    per_state = {k: v.tobytes() for k, v in diag["per_state"].items()}
    return (vals.tobytes(), xs.tobytes(), diag["expansions"], diag["sweeps"], diag["max_box"],
            per_state)


def _counted(objective):
    rows: list[int] = []

    def f(I, X):
        rows.append(len(I))
        return objective(I, X)

    return f, rows


class TestSearchMatchesReference:
    """``minimize_batch`` skips points whose value cannot change the result;
    the reference search evaluates every one of them."""

    @given(
        dim=st.integers(1, 2),
        grid_points=st.sampled_from([5, 21, 33]),
        box_init=st.sampled_from([1.0, 0.3]),
        eps_ref=st.sampled_from([1e-6, 1e-4, 0.05]),
        n=st.one_of(st.integers(1, 5), st.integers(33, 40)),
        kinds=st.lists(
            st.sampled_from(["bowl", "plateau", "ripple", "wall", "inf", "ramp", "nan"]),
            min_size=1, max_size=3, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_result_as_evaluating_every_point(self, dim, grid_points, box_init, eps_ref,
                                                   n, kinds, seed):
        rng = np.random.default_rng(seed)
        # per state: a quadratic bowl whose minimum needs 0 to 5 doublings,
        # quantized to plateaus (ties), rippled (local maxima, where both
        # polls improve), cut by a +inf wall, +inf everywhere, a ramp with
        # no minimum, or a NaN patch near the minimum
        kind = rng.choice(kinds, size=n)
        center = rng.choice([0.0, 0.5, 2.0, 5.0, 10.0], size=(n, 1)) * rng.uniform(
            -1, 1, size=(n, dim)) * box_init
        scale = rng.choice([0.25, 1.0, 4.0], size=n)
        wall = center[:, 0] + rng.uniform(-0.2, 0.5, size=n)
        patch = center + rng.uniform(-0.05, 0.05, size=(n, dim))
        radius = rng.choice([1e-3, 1e-2, 0.2], size=n)
        freq = rng.uniform(5.0, 60.0, size=n) / box_init

        def objective(I, X):
            k = kind[I]
            v = scale[I] * ((X - center[I]) ** 2).sum(axis=1)
            v = np.where(k == "plateau", np.floor(v * 2.0) / 2.0, v)
            v = np.where(k == "ripple", v + np.cos(freq[I, None] * X).sum(axis=1), v)
            v = np.where(k == "ramp", X[:, 0], v)
            v = np.where((k == "inf") | ((k == "wall") & (X[:, 0] > wall[I])), INF, v)
            near = np.abs(X - patch[I]).max(axis=1) < radius[I]
            return np.where((k == "nan") & near, np.nan, v)

        cfg = dp.SolveConfig(grid_points=grid_points, box_init=box_init, eps_ref=eps_ref,
                             box_max=2.0**5)
        groups = np.arange(n) % 3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dp, "_MAX_ROWS", 64)  # many calls per search phase
            want = _search_outcome(_ref_minimize_batch, objective, dim, n, cfg, groups)
            assert _search_outcome(dp.minimize_batch, objective, dim, n, cfg, groups) == want

    def test_rounded_back_step_is_polled(self):
        # box_init=0.3: (x + s) - s rounds away from x on some accepted + steps,
        # and the sequential poll evaluates the rounded point
        cfg = dp.SolveConfig(grid_points=5, box_init=0.3)
        def bowl(I, X):
            return (X[:, 0] - 0.25) ** 2

        objective, rows = _counted(bowl)
        want = _search_outcome(_ref_minimize_batch, bowl, 1, 1, cfg, None)
        assert _search_outcome(dp.minimize_batch, objective, 1, 1, cfg, None) == want
        grid_calls, sweeps = want[2] + 1, want[3]
        assert len(rows) > grid_calls + sweeps  # a follow-up call in some sweep

    def test_nan_where_the_sequential_poll_never_looks_is_not_read(self):
        # beside an accepted x + s, the joint poll has also evaluated x - s,
        # which the sequential poll never evaluates
        cfg = dp.SolveConfig(grid_points=5)

        def bowl(I, X):
            return (X[:, 0] - 0.3) ** 2

        def points(search, objective):
            seen: set[float] = set()

            def f(I, X):
                seen.update(X[:, 0].tolist())
                return objective(I, X)

            return _search_outcome(search, f, 1, 1, cfg, None), seen

        want, ref_seen = points(_ref_minimize_batch, bowl)
        got, seen = points(dp.minimize_batch, bowl)
        assert got == want and seen - ref_seen
        p = min(seen - ref_seen)

        def patched(I, X):
            return np.where(X[:, 0] == p, np.nan, bowl(I, X))

        assert _search_outcome(dp.minimize_batch, patched, 1, 1, cfg, None) == want

    @pytest.mark.parametrize("dim, ring", [(1, 33 - 17), (2, 33**2 - 17**2)])
    def test_a_doubled_box_evaluates_only_its_ring(self, dim, ring):
        # box_init=1: the box-2B axis (step B/8) holds the box-B axis's 17
        # points at -B, -B + B/8, ..., B; centers need 0 to 4 doublings
        center = np.array([0.0, 0.5, 1.5, 6.0, 12.0])
        cfg = dp.SolveConfig(grid_points=33, box_init=1.0, eps_ref=1e3)  # grid only

        def bowl(I, X):
            return 4.0 * ((X - center[I, None]) ** 2).sum(axis=1)

        objective, rows = _counted(bowl)
        _, _, diag = dp.minimize_batch(objective, dim, len(center), cfg)
        E = diag["per_state"]["expansions"]
        assert E.tolist() == [0, 1, 2, 3, 4]
        assert sum(rows) == (33**dim + ring * E).sum()
        objective, rows = _counted(bowl)
        _ref_minimize_batch(objective, dim, len(center), cfg)
        assert sum(rows) == (33**dim * (E + 1)).sum()

    @pytest.mark.parametrize("dim, n", [(1, 5), (2, 3)])
    def test_a_sweep_makes_one_call_per_coordinate(self, dim, n):
        center = np.array([0.0, 1.5, 12.0, 0.5, 6.0])[:n]
        cfg = dp.SolveConfig(grid_points=33, box_init=1.0)  # one grid call per box
        objective, rows = _counted(lambda I, X: 4.0 * ((X - center[I, None]) ** 2).sum(axis=1))
        _, _, diag = dp.minimize_batch(objective, dim, n, cfg)
        assert diag["sweeps"] > 0
        assert len(rows) == diag["expansions"] + 1 + dim * diag["sweeps"]
        objective, ref_rows = _counted(lambda I, X: 4.0 * ((X - center[I, None]) ** 2).sum(axis=1))
        _ref_minimize_batch(objective, dim, n, cfg)
        assert len(ref_rows) == diag["expansions"] + 1 + 2 * dim * diag["sweeps"]


def _report(rep):
    return rep.chain, rep.node_gaps, rep.optimal, rep.method


class _SearchCounter:
    """Counts ``dp._minimize_at`` calls: ``total`` counts all of them,
    ``outer`` the searches (a decision to choose) that run inside no other
    call, such as the stage searches of ``verify_optimality``."""

    def __init__(self, monkeypatch):
        self.total = self.outer = self._depth = 0
        orig = dp._minimize_at

        def counted(f, K, states, dim, *args, **kwargs):
            self.total += 1
            self.outer += self._depth == 0 and dim > 0
            self._depth += 1
            try:
                return orig(f, K, states, dim, *args, **kwargs)
            finally:
                self._depth -= 1

        monkeypatch.setattr(dp, "_minimize_at", counted)

    def stage_searches(self, problem, strategy, cfg=dp.DEFAULT_CONFIG):
        """(searches of exact verification beyond those of its chain, report)."""
        before = self.outer
        dp.expectation_chain(problem, strategy, cfg=cfg, method="exact")
        chain = self.outer - before
        before = self.outer
        rep = dp.verify_optimality(problem, None, strategy, cfg=cfg, method="exact")
        return self.outer - before - chain, _report(rep)


class TestExactVerificationReusesForwardMinima:
    # the six fixtures and the random trees fast enough for the nested recursion
    @pytest.mark.parametrize(
        "name", ORACLE_CASES[:6] + ["cash_hold_first", "terminal_cash_lower_t1"])
    def test_report_equals_the_report_of_a_plain_copy(self, name):
        problem, cfg = _oracle_case(name)
        _, strategy = dp.forward_pass(problem, {}, {}, None, cfg, mode="exact")
        rep = dp.verify_optimality(problem, None, strategy, cfg=cfg, method="exact")
        copy = td.AdaptedSequence(dict(strategy.values))
        ref = dp.verify_optimality(problem, None, copy, cfg=cfg, method="exact")
        assert _report(rep) == _report(ref)
        assert rep.optimal

    @pytest.mark.parametrize(
        "name", ["frictionless_t1", "cash_hold_first", "terminal_cash_lower_t1"])
    def test_stage_searches_run_only_without_a_matching_record(self, name, monkeypatch):
        problem, cfg = _oracle_case(name)
        stages = sum(d > 0 for d in problem.decision_dims)
        count = _SearchCounter(monkeypatch)

        def stage_searches(strategy, c=cfg):
            return count.stage_searches(problem, strategy, c)

        _, strategy = dp.forward_pass(problem, {}, {}, None, cfg, mode="exact")
        first = count.total
        _, again = dp.forward_pass(problem, {}, {}, None, cfg, mode="exact")
        assert count.total == 2 * first > 0  # the first pass left nothing behind

        n, rep = stage_searches(strategy)
        assert n == 0
        copy = td.AdaptedSequence(dict(strategy.values))
        bumped = td.AdaptedSequence({k: v + 0.1 for k, v in strategy.values.items()})
        assert stage_searches(copy) == (stages, rep)
        assert stage_searches(bumped)[0] == stages
        assert stage_searches(strategy + bumped.scaled(0.0))[0] == stages
        # exact_refine() pins eps_ref and threads, so the nested search is the same
        assert stage_searches(strategy, replace(cfg, eps_ref=1e-3, threads=2)) == (0, rep)
        assert stage_searches(strategy, replace(cfg, margin=2.0))[0] == stages
        assert stage_searches(again) == (0, rep)
        # the same data in another problem object is searched
        assert count.stage_searches(replace(problem), strategy, cfg) == (stages, rep)

    @pytest.mark.parametrize("method", ["exact", "tables"])
    def test_decision_free_stages_read_the_chain(self, method, monkeypatch):
        problem, cfg, _, post = _reference("cash_hold_first")[:4]
        assert problem.decision_dims[0] == 0  # the root holds
        res = dp.backward_solve(problem, cfg=cfg, check_gap=False)
        _, strategy = dp.forward_pass(problem, {}, {}, None, cfg, mode="exact")
        dims, depth = [], [0]
        orig = dp._minimize_at

        def counted(f, K, states, dim, *args, **kwargs):
            if depth[0] == 0:
                dims.append(dim)
            depth[0] += 1
            try:
                return orig(f, K, states, dim, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(dp, "_minimize_at", counted)
        dp.expectation_chain(problem, strategy, res, cfg, method)
        chain = dims.count(0)
        dims.clear()
        rep = dp.verify_optimality(problem, res, strategy, cfg, method)
        assert dims.count(0) == chain  # no evaluation beyond the chain's own
        assert (rep.chain, rep.node_gaps) == _ref_verify(problem, post, strategy, cfg, method)

    def test_nan_at_a_decision_free_stage_fails_closed(self):
        tree = binomial_tree(1)
        leaves = {leaf.id: AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0]], [-0.5 - i])
                  for i, leaf in enumerate(tree.leaves)}
        problem = dp.history_problem(tree, [0, 1], leaves, lower_bound=0.0,
                                     stage_funs={"r": lambda K, S, X: np.full(len(K), np.nan)})
        strategy = td.AdaptedSequence({leaf.id: np.array([0.5]) for leaf in tree.leaves})
        with pytest.raises(dp.NumericFailure, match="node 'r'"):
            dp.verify_optimality(problem, None, strategy, method="exact")

    def test_in_place_edit_searches_the_later_stages(self, monkeypatch):
        tree = binomial_tree(2)
        leaves = {
            leaf.id: AffinePrecompose(PowerCost(1.0, 2.0, 2), np.eye(2),
                                      -np.array([0.5 + i, 1.0 - 2 * i]))
            for i, leaf in enumerate(tree.leaves)
        }
        problem = dp.history_problem(tree, [1, 1, 0], leaves, lower_bound=0.0)
        _, strategy = dp.forward_pass(problem, {}, {}, None, mode="exact")
        strategy.values["r"] = strategy.values["r"] + 0.5
        count = _SearchCounter(monkeypatch)
        # stage 0 is entered at the initial state as before; stage 1 is not
        n, rep = count.stage_searches(problem, strategy)
        assert n == 1
        assert rep == count.stage_searches(problem, td.AdaptedSequence(dict(strategy.values)))[1]
        assert not rep[2]
