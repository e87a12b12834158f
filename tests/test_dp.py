import math
import warnings

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
            lambda node, S, X: X if node.time == 0 else S,
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
