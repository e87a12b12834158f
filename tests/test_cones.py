import csv
import dataclasses
import math

import numpy as np
import pytest

import treedp as td
from treedp import _polyhedral, cones, dp, efun, market
from treedp._polyhedral import kernel_basis
from treedp.efun import Affine, AffinePrecompose, PowerCost, Sum

from conftest import (
    arbitrage_model,
    binomial_prices,
    binomial_tree,
    duplicated_asset_model,
    exact_forward,
    exp_utility,
    expr_bytes,
    get_bench,
    random_bounds,
    random_frictionless_model,
    random_frictionless_tree,
    ragged_tree,
    solve_bytes,
    sshaped_t2_model,
    stacked_route,
    twin_market,
)

INF = math.inf


def as_prices(model):
    return {n.id: model.Z(n.id) for n in model.tree.nodes}


def history_sum_problem():
    """One period, two root decisions, leaf objective s**2 - s of their sum s."""
    f = AffinePrecompose(Sum((PowerCost(1, 2, 1), Affine([-1]))), [[1, 1]])
    return dp.history_problem(binomial_tree(1), [2, 0], {"u": f, "d": f}, lower_bound=-1.0)


class TestCheckHorizonPositivity:
    def test_superlinear_market_holds_analytically(self):
        problem = market.build_problem_cash(sshaped_t2_model())
        rep = cones.check_horizon_positivity(problem)
        assert rep.verdict == "holds"
        assert any("analytic" in m for m in rep.method)

    def test_sure_win_fails_with_witness(self):
        model = arbitrage_model()
        problem = market.build_problem_cash(model)
        rep = cones.check_horizon_positivity(problem)
        assert rep.verdict == "fails"
        witness = td.AdaptedSequence({k: np.asarray(v, float) for k, v in rep.witness.items()})
        assert sum(np.abs(v).sum() for v in witness.values.values()) > 0
        # the witness is the buy-one-share direction, and the arbitrage
        # reference finds the same one
        lp = cones.no_arbitrage_lp(model.tree, as_prices(model))
        assert lp is not None
        assert np.allclose(witness.at("r"), lp["r"])

    def test_no_arbitrage_market_holds(self):
        bench = get_bench("frictionless_t1")
        rep = cones.check_horizon_positivity(bench.problem)
        assert rep.verdict == "holds"
        assert any("cone propagation" in m for m in rep.method)
        # a trivial kernel, and the node's risk-neutral measure certifies the
        # cone a subspace without an LP: so it is {0}
        assert rep.details["cone"] == {"rows": 2, "dim": 1, "kernel_dim": 0, "lp_calls": 0}

    def test_incomplete_node_runs_the_block_lp(self):
        # four children and two assets: the left kernel of the node's rows is
        # two-dimensional, so no unique measure decides it and the block LP does
        moves = {"a": [1.0, 0.0], "b": [-1.0, 0.0], "c": [0.0, 1.0], "d": [0.0, -0.5]}
        tree = td.ScenarioTree([td.Node("r", 0, None, 1.0)]
                               + [td.Node(c, 1, "r", 0.25) for c in moves])
        prices = {"r": np.array([4.0, 4.0])} | {c: 4.0 + np.array(m) for c, m in moves.items()}
        model = market.MarketModel(
            tree=tree, n_risky=2, prices=prices, cost=market.Frictionless(),
            utility=market.SShapedUtility(2.0, 1.0, 1.0), initial_cash=1.0,
        )
        rep = cones.check_horizon_positivity(market.build_problem_cash(model))
        assert rep.verdict == "holds" and rep.details["route"] == "node"
        assert rep.details["cone"] == {"rows": 4, "dim": 2, "kernel_dim": 0, "lp_calls": 1}

    def test_duplicated_assets_fail_with_exact_kernel_witness(self):
        # the swap of two identical assets is a two-sided zero-profit
        # direction; the exponential utility's horizon is +inf on any loss,
        # so only a witness with exactly zero profit re-verifies
        problem = market.build_problem_cash(duplicated_asset_model())
        rep = cones.check_horizon_positivity(problem)
        assert rep.verdict == "fails"
        assert sorted(rep.witness["r"]) == [-0.5, 0.5]
        assert rep.details["cone"] == {"rows": 2, "dim": 2, "kernel_dim": 1, "lp_calls": 1}
        assert not any("sampling" in m for m in rep.method)

    def test_exact_vertex_witness_reverifies_before_its_scaling(self):
        # two identical assets over two periods: on the stacked rows the swap
        # vertex is +-1 in all six coordinates, exact, but its L1 scaling
        # (sixths) leaves a 1e-17 profit that the exponential utility's
        # horizon rejects
        moves = {"r": 4.0, "0": 4.375, "1": 3.75, "00": 4.625, "01": 3.875,
                 "10": 4.0, "11": 3.625}
        probs = {"0": 2 / 3, "1": 1 / 3, "00": 1 / 3, "01": 2 / 3, "10": 0.5, "11": 0.5}
        tree = td.ScenarioTree(
            [td.Node("r", 0, None, 1.0)]
            + [td.Node(n, len(n), n[:-1] or "r", probs[n]) for n in ("0", "1", "00", "01", "10", "11")])
        model = market.MarketModel(
            tree=tree, n_risky=2, prices={n: [z, z] for n, z in moves.items()},
            cost=market.Frictionless(), utility=exp_utility(), initial_cash=1.0,
        )
        problem = market.build_problem_cash(model)
        rep = cones.check_horizon_positivity(stacked_route(problem))
        assert rep.verdict == "fails"
        assert "witness re-verified on the LP vertex (max |y| = 1)" in rep.method
        assert not any("sampling" in m for m in rep.method)
        y = np.concatenate(list(rep.witness.values()))
        assert np.abs(y).sum() == pytest.approx(1.0, abs=1e-15)
        assert sorted(set(np.abs(y))) == [1 / 6]
        # a swap in every node: each node's two entries cancel
        assert all(v[0] == -v[1] for v in rep.witness.values())
        # the node route swaps at the last node only, whose halves are exact
        node = cones.check_horizon_positivity(problem)
        assert node.verdict == "fails" and node.details["witness_node"] == "1"
        assert node.witness == {"r": [0.0, 0.0], "0": [0.0, 0.0], "1": [-0.5, 0.5]}
        assert node.method == ["cone propagation: one-period rows per decision node"]
        assert node.details["witness_horizon_values"] == {"10": 0.0, "11": 0.0}

    def test_witness_reverifies_nodewise(self):
        model = arbitrage_model()
        problem = market.build_problem_cash(model)
        rep = cones.check_horizon_positivity(problem)
        objs = problem.meta["path_objectives"]
        witness = td.AdaptedSequence({k: np.asarray(v, float) for k, v in rep.witness.items()})
        for leaf in model.tree.leaves:
            H = td.horizon(objs[leaf.id])
            path_vec = np.concatenate(
                [witness.at(nid) for nid in model.tree.path(leaf.id)
                 if problem.decision_dim(nid) > 0]
            )
            assert H.value(path_vec) <= 1e-9

    def test_undecided_without_symbolic_objectives(self):
        # frictional costs have no symbolic path objectives and no analytic
        # shortcut when the disutility growth condition fails
        tree = binomial_tree(1)
        prices = {"r": np.array([1.0]), "u": np.array([2.0]), "d": np.array([0.5])}
        flat = market.SampledUtility(
            np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0, 0.5]),
            slope_left=0.0, slope_right=0.0,
        )
        model = market.MarketModel(
            tree=tree, n_risky=1, prices=prices,
            cost=market.PowerIlliquidity(0.1, 2.0), utility=flat,
        )
        problem = market.build_problem_cash(model)
        rep = cones.check_horizon_positivity(problem)
        assert rep.verdict == "undecided"

    def test_degenerate_zero_profit_direction_detected(self):
        # constant prices: buying and holding never changes wealth, so a
        # whole line of directions has nonpositive horizon
        tree = binomial_tree(1)
        prices = {k: np.array([1.0]) for k in ("r", "u", "d")}
        model = market.MarketModel(
            tree=tree, n_risky=1, prices=prices, cost=market.Frictionless(),
            utility=exp_utility(), initial_cash=1.0,
        )
        problem = market.build_problem_cash(model)
        rep = cones.check_horizon_positivity(problem)
        assert rep.verdict == "fails"
        # and the classical reference sees no arbitrage: the zero-profit
        # line is why the solver needs the projection route instead
        assert cones.no_arbitrage_lp(tree, prices) is None


def _ref_export_witness_csv(self: cones.CheckReport, path: str) -> None:
    """The witness exporter as it was, one csv.writer row per node."""
    witness = self.witness or {}
    width = max((len(v) for v in witness.values()), default=0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node"] + [f"x{i}" for i in range(width)])
        for nid, vec in witness.items():
            w.writerow([nid] + [repr(float(v)) for v in vec]
                       + [""] * (width - len(vec)))


class TestWitnessExport:
    @staticmethod
    def _assert_reference_bytes(rep, tmp_path):
        rep.export_witness_csv(str(tmp_path / "got.csv"))
        _ref_export_witness_csv(rep, str(tmp_path / "want.csv"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_duplicated_asset_binomial(self, tmp_path):
        # two identical assets on a T=7 binomial tree: a witness at every decision node
        tree = binomial_tree(7)
        prices = {k: np.repeat(v, 2) for k, v in binomial_prices(tree, 1.0, 1.2, 0.85).items()}
        model = market.MarketModel(
            tree=tree, n_risky=2, prices=prices, cost=market.Frictionless(),
            utility=market.SShapedUtility(2.0, 1.0, 1.0), initial_cash=1.0,
        )
        rep = cones.check_horizon_positivity(market.build_problem_cash(model))
        assert rep.verdict == "fails" and len(rep.witness) == 2**7 - 1
        self._assert_reference_bytes(rep, tmp_path)

    def test_odd_ids_and_floats(self, tmp_path):
        witness = {
            "a,b": [-0.0, 0.0, 5e-324],
            'say "hi"': [1e16, 1e-5],
            "two\nlines": [],
            "": [INF, -INF, math.nan],
        }
        self._assert_reference_bytes(cones.CheckReport("fails", witness, []), tmp_path)
        self._assert_reference_bytes(cones.CheckReport("fails", {"": []}, []), tmp_path)
        self._assert_reference_bytes(cones.CheckReport("holds", None, []), tmp_path)


class TestNoArbitrageLP:
    def test_sure_win(self):
        tree = binomial_tree(1)
        prices = {"r": np.array([1.0]), "u": np.array([2.0]), "d": np.array([3.0])}
        strat = cones.no_arbitrage_lp(tree, prices)
        assert strat is not None
        assert strat["r"][0] > 0  # buy
        wealth = cones.terminal_wealth(tree, prices, strat)
        assert min(wealth.values()) >= -1e-9
        assert max(wealth.values()) > 1e-9

    def test_no_arbitrage(self):
        tree = binomial_tree(1)
        prices = {"r": np.array([1.0]), "u": np.array([2.0]), "d": np.array([0.5])}
        assert cones.no_arbitrage_lp(tree, prices) is None

    def test_constant_prices_zero_pnl(self):
        tree = binomial_tree(1)
        prices = {k: np.array([2.0]) for k in ("r", "u", "d")}
        assert cones.no_arbitrage_lp(tree, prices) is None

    def test_two_period_arbitrage_in_subtree(self):
        tree = binomial_tree(2)
        prices = {
            "r": np.array([1.0]), "u": np.array([1.5]), "d": np.array([0.8]),
            "uu": np.array([2.0]), "ud": np.array([1.2]),
            "du": np.array([0.9]), "dd": np.array([0.85]),  # d-subtree: sure win
        }
        strat = cones.no_arbitrage_lp(tree, prices)
        assert strat is not None
        wealth = cones.terminal_wealth(tree, prices, strat)
        assert min(wealth.values()) >= -1e-9 and max(wealth.values()) > 1e-9


class TestNullSpace:
    def test_duplicated_assets_span(self):
        problem = market.build_problem_cash(duplicated_asset_model())
        ds = cones.null_space(problem)
        assert ds.kind == "exact"
        basis = ds.per_node["r"]
        assert basis.shape == (2, 1)
        v = basis[:, 0] / np.abs(basis[:, 0]).max()
        assert np.allclose(sorted(v), [-1.0, 1.0])

    def test_superlinear_trivial(self):
        problem = market.build_problem_cash(sshaped_t2_model())
        ds = cones.null_space(problem)
        assert ds.kind == "exact"
        assert ds.is_trivial()

    def test_arbitrage_is_not_a_subspace(self):
        problem = market.build_problem_cash(arbitrage_model())
        with pytest.raises(cones.NotASubspace) as err:
            cones.null_space(problem)
        assert err.value.ray is not None

    def test_constant_price_full_direction(self):
        # zero-cost constant-price asset: every holding level is indifferent
        tree = binomial_tree(1)
        prices = {k: np.array([1.0]) for k in ("r", "u", "d")}
        model = market.MarketModel(
            tree=tree, n_risky=1, prices=prices, cost=market.Frictionless(),
            utility=exp_utility(), initial_cash=1.0,
        )
        problem = market.build_problem_cash(model)
        ds = cones.null_space(problem)
        assert ds.per_node["r"].shape == (1, 1)


class TestNullSpaceMultiStage:
    def test_t2_duplicated_assets_per_stage(self):
        # duplicated assets over two periods: the swap direction is a null
        # direction at every decision node, extendable with zero past
        tree = binomial_tree(2)
        single = binomial_prices(tree, 1.0, 1.4, 0.7)
        prices = {k: np.concatenate([v, v]) for k, v in single.items()}
        model = market.MarketModel(
            tree=tree, n_risky=2, prices=prices, cost=market.Frictionless(),
            utility=exp_utility(), initial_cash=1.0,
        )
        problem = market.build_problem_cash(model, radius=1.0, points=33)
        ds = cones.null_space(problem)
        assert ds.kind == "exact"
        for nid in ("r", "u", "d"):
            basis = ds.per_node[nid]
            assert basis.shape == (2, 1)
            v = basis[:, 0] / np.abs(basis[:, 0]).max()
            assert np.allclose(sorted(v), [-1.0, 1.0], atol=1e-9)
        projected = cones.project_problem(problem, ds)
        assert cones.check_horizon_positivity(projected).verdict == "holds"
        # exact-polished forwards remove the (coarse) grid error on both
        # sides; merging the identical assets gives a one-asset oracle
        cfg = dp.SolveConfig(eps_gap=0.1)
        res = dp.backward_solve(projected, cfg=cfg)
        value = exact_forward(projected, res, cfg)[0]
        one_asset = market.MarketModel(
            tree=tree, n_risky=1,
            prices={k: v[:1] for k, v in prices.items()},
            cost=market.Frictionless(), utility=exp_utility(), initial_cash=1.0,
        )
        problem1 = market.build_problem_cash(one_asset, radius=1.5, points=129)
        res1 = dp.backward_solve(problem1)
        value1 = exact_forward(problem1, res1)[0]
        assert value == pytest.approx(value1, abs=1e-5)


class TestProjectProblem:
    def test_projection_matches_original_oracle(self):
        bench = get_bench("projected_dup")
        res = dp.backward_solve(bench.problem, cfg=bench.cfg)
        bf, _ = dp.brute_force(bench.oracle_target(), bench.bf_grids)
        assert res.forward_value == pytest.approx(bf, abs=1e-3)

    def test_trivial_null_space_returns_problem_unchanged(self):
        problem = market.build_problem_cash(sshaped_t2_model())
        ds = cones.null_space(problem)
        assert cones.project_problem(problem, ds) is problem

    def test_projected_problem_passes_the_check(self):
        bench = get_bench("projected_dup")
        rep = cones.check_horizon_positivity(bench.problem)
        assert rep.verdict == "holds"

    def test_constant_price_direction_pinned(self):
        tree = binomial_tree(1)
        prices = {k: np.array([1.0]) for k in ("r", "u", "d")}
        model = market.MarketModel(
            tree=tree, n_risky=1, prices=prices, cost=market.Frictionless(),
            utility=exp_utility(), initial_cash=1.0,
        )
        problem = market.build_problem_cash(model)
        ds = cones.null_space(problem)
        projected = cones.project_problem(problem, ds)
        assert projected.decision_dim("r") == 0
        res = dp.backward_solve(projected, cfg=dp.SolveConfig())
        # value = -u(initial cash): any strategy has zero profit and loss
        assert res.value == pytest.approx(-exp_utility().value(1.0), abs=1e-9)

    def test_refuses_inexact(self):
        ds = cones.DirectionSet({}, "undecided")
        problem = market.build_problem_cash(sshaped_t2_model())
        with pytest.raises(cones.InexactNullSpace):
            cones.project_problem(problem, ds)

    def test_history_problem_projects_and_solves(self):
        # both leaves value s**2 - s of s = x0 + x1, the root's two decisions:
        # x0 - x1 is a null direction, and the minimum is -1/4 at s = 1/2
        problem = history_sum_problem()
        projected = cones.project_problem(problem, cones.null_space(problem))
        assert projected.decision_dims == (1, 0)
        assert projected.state_map.dims == problem.state_map.dims
        assert cones.check_horizon_positivity(projected).verdict == "holds"
        axis = np.linspace(-1.0, 1.0, 41)
        res = dp.backward_solve(projected, grids={0: (axis, axis)})
        assert res.value == pytest.approx(-0.25, abs=1e-6)
        assert res.forward_value == pytest.approx(-0.25, abs=1e-6)
        assert dp.evaluate_strategy(projected, res.strategy) == res.forward_value
        bf, _ = dp.brute_force(projected, {"r": np.linspace(-2.0, 2.0, 401)})
        assert bf == pytest.approx(res.forward_value, abs=1e-3)

    def test_projected_borrowing_limit_matches_unprojected_brute_force(self):
        # two identical assets bought from cash 1 with the floor at 0.8: the
        # limit (a callable reading the post-trade cash) caps the position at
        # 0.2 and binds, while the swap (1, -1) stays a null direction
        model = dataclasses.replace(duplicated_asset_model(), cash_lower=0.8)
        problem = market.build_problem_cash(model, radius=2.0, points=33)
        ds = cones.null_space(problem)
        assert ds.kind == "exact" and ds.per_node["r"].shape == (2, 1)
        swap = ds.per_node["r"][:, 0]
        assert abs(swap[0] + swap[1]) < 1e-12 and abs(swap[0]) > 0.5
        projected = cones.project_problem(problem, ds)
        assert projected.decision_dims == (1, 0)
        assert callable(projected.stage_funs["r"])
        assert not isinstance(projected.stage_funs["r"], efun.ExtFun)
        res = dp.backward_solve(projected, cfg=dp.SolveConfig(eps_ref=1e-12))
        # on this grid the unprojected minimum lies on the floor, at holdings
        # summing to 0.2 (first in grid order: -0.3 and 0.5)
        axis = np.linspace(-0.5, 0.5, 21)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        bf, choice = dp.brute_force(problem, {"r": grid})
        assert choice.at("r").sum() == pytest.approx(0.2, abs=1e-15)
        assert res.value == pytest.approx(bf, abs=1e-9)
        assert res.forward_value == pytest.approx(bf, abs=1e-9)
        free = dataclasses.replace(model, cash_lower=None)
        free_problem = market.build_problem_cash(free, radius=2.0, points=33)
        free_res = dp.backward_solve(
            cones.project_problem(free_problem, cones.null_space(free_problem)))
        assert res.value > free_res.value + 1e-3

    def test_projection_drops_the_local_keys(self):
        # the projected stage functions read each node's null-space basis
        # through K, so the builder's local keys do not carry over
        model = twin_market(binomial_tree(2), n_risky=2, cost=market.Frictionless(),
                            utility=exp_utility())
        problem = market.build_problem_cash(model, radius=1.0, points=9)
        tree = problem.tree
        assert problem._representatives[tree.index("d")] == tree.stage_index[tree.index("u")]
        directions = cones.null_space(problem)
        assert directions.per_node["u"].shape == directions.per_node["d"].shape == (2, 1)
        projected = cones.project_problem(problem, directions)
        assert projected.local_keys is None

        stripped = dataclasses.replace(problem, local_keys=None)
        assert solve_bytes(projected) == solve_bytes(
            cones.project_problem(stripped, cones.null_space(stripped)))

    def test_null_direction_indifference(self):
        problem = market.build_problem_cash(duplicated_asset_model())
        ds = cones.null_space(problem)
        basis = ds.per_node["r"]
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 2)
            shift = basis @ rng.uniform(-1.0, 1.0, 1)
            a = dp.evaluate_strategy(problem, td.AdaptedSequence({"r": x}))
            b = dp.evaluate_strategy(problem, td.AdaptedSequence({"r": x + shift}))
            assert b == pytest.approx(a, rel=1e-9, abs=1e-9)


class TestFrictionlessEquivalence:
    def test_terminal_form_verdicts_match_cash_form(self):
        # the full-portfolio build carries its own symbolic path objectives
        # (expenditure blocks); both forms must reach the same verdict
        for model, expected in (
            (get_bench("frictionless_t1").model, "holds"),
            (arbitrage_model(), "fails"),
        ):
            cash = cones.check_horizon_positivity(market.build_problem_cash(model))
            term = cones.check_horizon_positivity(
                market.build_problem_terminal(model, radius=0.5, points=9)
            )
            assert cash.verdict == expected
            assert term.verdict == expected

    def test_verdicts_match_lp_on_random_trees(self):
        rng = np.random.default_rng(1234)
        mismatches = 0
        for _ in range(20):  # the acceptance suite runs the full 50
            model = random_frictionless_model(rng)
            problem = market.build_problem_cash(model)
            rep = cones.check_horizon_positivity(problem)
            arb = cones.no_arbitrage_lp(model.tree, as_prices(model))
            ok = (rep.verdict == "holds") == (arb is None)
            mismatches += 0 if ok else 1
        assert mismatches == 0


def moves_span(model) -> bool:
    tree = model.tree
    for node in tree.nodes:
        kids = tree.children(node.id)
        if kids:
            moves = np.array([model.Z(c.id) - model.Z(node.id) for c in kids])
            if np.linalg.matrix_rank(moves) < model.n_risky:
                return False
    return True


def _ref_layout(problem):
    """Column range of each decision node in the stacked adapted vector."""
    offsets, total = {}, 0
    for node in problem.decision_nodes():
        d = problem.decision_dim(node.id)
        offsets[node.id] = (total, total + d)
        total += d
    return offsets, total


def _ref_leaf_selector(problem, leaf_id, offsets, total):
    """Dense (path decisions x total) 0/1 matrix picking a leaf's path decisions."""
    rows = []
    for nid in problem.tree.path(leaf_id):
        d = problem.decision_dim(nid)
        if d == 0:
            continue
        a, b = offsets[nid]
        sel = np.zeros((d, total))
        sel[:, a:b] = np.eye(d)
        rows.append(sel)
    return np.vstack(rows) if rows else np.zeros((0, total))


def _ref_stacked_rows(problem, horizons):
    """Each leaf's zero-sublevel rows times its dense selector, stacked."""
    offsets, total = _ref_layout(problem)
    stacked = []
    for leaf in problem.tree.leaves:
        rows = efun.sublevel_zero_cone(horizons[leaf.id])
        stacked.append(rows @ _ref_leaf_selector(problem, leaf.id, offsets, total))
    return np.vstack(stacked) if stacked else np.zeros((0, total))


def _ref_witness_values(problem, horizons, y):
    """Each leaf's horizon at its path decisions, picked by the dense selector."""
    offsets, total = _ref_layout(problem)
    return {
        leaf.id: horizons[leaf.id].value(_ref_leaf_selector(problem, leaf.id, offsets, total) @ y)
        for leaf in problem.tree.leaves
    }


def assert_leaf_placement_matches_reference(problem, ys):
    """Path columns place the leaf rows and read the path decisions bit for
    bit as the dense selectors do (signed zeros included)."""
    _, total, leaf_cols = cones._adapted_layout(problem)
    horizons, _, _ = cones._leaf_horizons(problem.meta["path_objectives"])
    got = cones._stacked_rows(horizons, leaf_cols, total)
    want = _ref_stacked_rows(problem, horizons)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
    for y in ys:
        _, vals = cones._witness_ok(horizons, leaf_cols, y)
        assert repr(vals) == repr(_ref_witness_values(problem, horizons, y))


def unit_directions(total, rng, n_random=4):
    """The sampling search's first directions: +-unit vectors and random ones."""
    dirs = np.vstack([np.eye(total), -np.eye(total), rng.standard_normal((n_random, total))])
    return dirs / np.abs(dirs).sum(axis=1, keepdims=True)


def null_space_reference(problem) -> dict[str, np.ndarray]:
    """Per-node null directions, one SVD of the full stacked system per node."""
    offsets, total = _ref_layout(problem)
    horizons, _, _ = cones._leaf_horizons(problem.meta["path_objectives"])
    rows = _ref_stacked_rows(problem, horizons)
    nodes = list(offsets)
    tree = problem.tree
    per_node = {}
    for nid in nodes:
        t = tree.node(nid).time
        a, b = offsets[nid]
        past_rows = []
        for mid in nodes:
            if tree.node(mid).time < t:
                pa, pb = offsets[mid]
                sel = np.zeros((pb - pa, total))
                sel[:, pa:pb] = np.eye(pb - pa)
                past_rows.append(sel)
        stacked = np.vstack([rows] + past_rows) if past_rows else rows
        block = kernel_basis(stacked)[a:b, :]
        if block.size == 0 or not block.any():
            per_node[nid] = np.zeros((b - a, 0))
            continue
        u, s, _ = np.linalg.svd(block)
        keep = s > 1e-10 * max(1.0, s[0])
        per_node[nid] = u[:, : int(keep.sum())]
    return per_node


class TestMultiPeriodRandomTrees:
    def test_check_and_null_space_on_random_trees(self):
        rng = np.random.default_rng(2027)
        utilities = (market.SShapedUtility(2.0, 1.0, 1.0), exp_utility())
        seen = {"holds": 0, "fails": 0, "null": 0, "one_sided": 0}
        for k in range(24):
            n_assets = int(rng.integers(1, 3))
            model = random_frictionless_tree(
                rng, T=int(rng.integers(2, 4)), n_branch=int(rng.integers(2, 4)),
                n_assets=n_assets, duplicated=n_assets == 2 and k % 3 == 0,
                balanced=k % 2 == 0, utility=utilities[k % 2],
            )
            # the stacked route, bit for bit against the dense references
            problem = stacked_route(market.build_problem_cash(model, radius=1.0, points=5))
            rep = cones.check_horizon_positivity(problem)
            ys = unit_directions(_ref_layout(problem)[1], np.random.default_rng(k))
            if rep.witness is not None:
                ys = np.vstack([ys, np.concatenate(list(rep.witness.values()))])
            assert_leaf_placement_matches_reference(problem, ys)
            # the LP vertex, rounded to rationals where the LP left one-ulp
            # noise, decides every draw without sampling
            assert not any("sampling" in m for m in rep.method), rep.method
            if moves_span(model):
                arb = cones.no_arbitrage_lp(model.tree, as_prices(model))
                assert rep.verdict == ("holds" if arb is None else "fails")
                seen[rep.verdict] += 1
            try:
                ds = cones.null_space(problem)
            except cones.NotASubspace:
                # a one-sided direction: the check cannot hold
                assert rep.verdict != "holds"
                seen["one_sided"] += 1
                continue
            ref = null_space_reference(problem)
            assert ds.per_node.keys() == ref.keys()
            assert all(np.array_equal(ds.per_node[n], ref[n]) for n in ref)
            seen["null"] += not ds.is_trivial()
        assert min(seen.values()) > 0, seen

    def test_float_priced_arbitrage_fails_on_both_routes(self):
        # float price moves leave LP vertices that no small denominator makes
        # exact; then the sphere sampler finds the witness, so without it
        # these arbitrages would read "undecided"
        rng = np.random.default_rng(2031)
        utilities = (market.SShapedUtility(2.0, 1.0, 1.0), exp_utility())
        arbitrages = sampled = 0
        for k in range(8):
            n_assets = int(rng.integers(1, 3))
            model = random_frictionless_tree(
                rng, T=int(rng.integers(2, 4)), n_branch=int(rng.integers(2, 4)),
                n_assets=n_assets, duplicated=n_assets == 2 and k % 3 == 0,
                balanced=k % 2 == 0, utility=utilities[k % 2], floats=True,
            )
            arb = cones.no_arbitrage_lp(model.tree, as_prices(model))
            arbitrages += arb is not None
            for build in (market.build_problem_cash, market.build_problem_terminal):
                problem = build(model, radius=1.0, points=5)
                for p in (problem, stacked_route(problem)):
                    rep = cones.check_horizon_positivity(p)
                    if arb is not None or moves_span(model):
                        assert rep.verdict == ("holds" if arb is None else "fails"), rep
                    sampled += "sphere sampling over adapted directions" in rep.method
        assert arbitrages > 0 and sampled > 0, (arbitrages, sampled)


def limited_model(rng) -> market.MarketModel:
    """Random T=2 frictionless binomial market with a borrowing limit.

    A node's children move the price up and down (no arbitrage), both up
    (an arbitrage that needs borrowing) or both down (a short sale, which
    the limit does not stop).  No initial cash: a cushion above the loss
    region would make large gambles pay, beyond any small search radius.
    """
    tree = binomial_tree(2)
    prices = {"r": np.array([1.0])}
    for node in tree.nodes:
        a = rng.uniform(0.05, 0.25)
        moves = (1 + a, 1 + a / 4) if rng.random() < 0.4 else (1 + a, 1 - a)
        if rng.random() < 0.15:
            moves = (1 - a / 4, 1 - a)
        for child, f in zip(tree.children(node.id), moves):
            prices[child.id] = prices[node.id] * f
    return market.MarketModel(
        tree=tree, n_risky=1, prices=prices, cost=market.Frictionless(),
        utility=market.SShapedUtility(2.0, 1.0, 2.0),
        initial_cash=0.0, cash_lower=-float(rng.choice([0.0, 0.25])),
    )


class TestBorrowingLimit:
    def test_limit_that_only_a_short_sale_meets(self):
        # a root claim the empty account cannot pay: the zero strategy
        # breaks the limit, a short sale pays it, and the value is finite
        tree = binomial_tree(2)
        prices = {n.id: [1.0 + 0.1 * (n.id.count("u") - n.id.count("d"))] for n in tree.nodes}
        model = market.MarketModel(
            tree=tree, n_risky=1, prices=prices, cost=market.Frictionless(),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
            initial_cash=0.0, cash_lower=0.0, claims={"r": 0.1},
        )
        cash = cones.check_horizon_positivity(market.build_problem_cash(model))
        assert cash.verdict == "holds" and cash.details["exact_horizons"]
        # the expenditure boxes hide the shared domain point from the
        # calculus; the lower bounds still prove the condition
        term = cones.check_horizon_positivity(market.build_problem_terminal(model))
        assert term.verdict == "holds" and not term.details["exact_horizons"]
        assert "cone propagation: the lower bounds are positive off 0" in term.method
        res = dp.backward_solve(market.build_problem_cash(model, radius=1.0, points=33),
                                cfg=dp.SolveConfig(eps_gap=INF))
        assert math.isfinite(res.forward_value)

    def test_verdicts_against_backward_solve(self):
        # the independent oracle: a bounded value does not move when the
        # search radius doubles, and a failing witness is feasible and
        # keeps lowering the objective as it is scaled up
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(10):
            model = limited_model(rng)
            reps = [cones.check_horizon_positivity(build(model, radius=1.0, points=5))
                    for build in (market.build_problem_cash, market.build_problem_terminal)]
            verdict = reps[0].verdict
            assert reps[1].verdict == verdict
            seen.add(verdict)
            if verdict == "holds":
                cfg = dp.SolveConfig(eps_gap=INF)
                v1, v2 = (
                    dp.backward_solve(market.build_problem_cash(model, radius=r, points=p),
                                      cfg=cfg).forward_value
                    for r, p in ((1.0, 33), (2.0, 65))
                )
                assert abs(v2 - v1) <= 1e-4
                continue
            assert verdict == "fails"
            problem = market.build_problem_cash(model, radius=1.0, points=5)
            values = [
                dp.evaluate_strategy(problem, td.AdaptedSequence(
                    {n: s * np.asarray(v) for n, v in reps[0].witness.items()}))
                for s in (1.0, 2.0, 4.0, 8.0)
            ]
            assert np.isfinite(values).all() and np.all(np.diff(values) < 0), values
        assert seen == {"holds", "fails"}


class TestLeafPlacement:
    def test_history_problem(self):
        problem = history_sum_problem()
        assert_leaf_placement_matches_reference(
            problem, unit_directions(2, np.random.default_rng(0)))

    def test_signed_zeros(self):
        # a -0.0 in the leaf rows and in the +-unit directions: the dense
        # selector products carry 0.0 there, and so must the path columns
        tree = binomial_tree(2)
        leaf = Affine(np.array([-0.0, -1.0]))
        problem = dp.history_problem(
            tree, [1, 1, 0], {n.id: leaf for n in tree.leaves}, lower_bound=0.0)
        assert_leaf_placement_matches_reference(
            problem, unit_directions(3, np.random.default_rng(0)))


def history_paths_by_leaf(problem, stage_terms):
    """A history problem's path objectives derived one leaf at a time along
    ``tree.path`` from the stage terms it was built with (None if one is a
    callable): the oracle of the ones ``history_problem`` attaches."""
    tree = problem.tree
    cum = list(problem.state_map.dims)
    out = {}
    for leaf in tree.leaves:
        terms = [problem.leaf_objective[leaf.id]]
        for nid in tree.path(leaf.id):
            sf = stage_terms.get(nid)
            if sf is None:
                continue
            if not isinstance(sf, td.ExtFun):
                return None
            k = cum[tree.node(nid).time]
            terms.append(AffinePrecompose(sf, np.hstack([np.eye(k), np.zeros((k, cum[-1] - k))])))
        out[leaf.id] = terms[0] if len(terms) == 1 else Sum(tuple(terms))
    return out


def random_history_problem(rng, callable_stage=False):
    """History problem on a shuffled ragged tree (T 1-3), 0-2 decisions per
    stage (at least one at the root), random ExtFun leaf objectives and
    ExtFun stage terms at some nodes (one of them a callable if
    ``callable_stage``); returns the problem and its stage terms."""
    T = int(rng.integers(1, 4))
    tree = ragged_tree(rng, T)
    dims = [int(rng.integers(1, 3))] + [int(rng.integers(0, 3)) for _ in range(T - 1)] + [0]
    cum = np.cumsum(dims)
    leaves = {n.id: AffinePrecompose(td.SShapedDisutility(2.0, 1.0, 1.0), rng.normal(size=(1, cum[-1])))
              for n in tree.leaves}
    stage = {}
    for node in tree.nodes:
        k = int(cum[node.time])
        kind = rng.integers(0, 4)
        if node.time < T and kind:
            stage[node.id] = (
                td.IndicatorBox(rng.choice([-INF, 0.0], k), rng.choice([INF, 0.0], k)),
                PowerCost(1.0, 2.0, k),
                Affine(rng.normal(size=k)),
            )[kind - 1]
    if callable_stage:
        stage[tree.nodes_at(0)[0].id] = lambda K, S, X, post: np.zeros(len(K))
    return dp.history_problem(tree, dims, leaves, lower_bound=-10.0, stage_funs=stage), stage


def leaves_below_by_walk(tree, p):
    """Leaf ids below position ``p`` in position order, level by level."""
    level = [p]
    start, kids = tree.child_start, tree.child_pos
    while tree.times[level[0]] < tree.horizon:
        level = [c for q in level for c in kids[start[q] : start[q + 1]].tolist()]
    return [tree.nodes[q].id for q in sorted(level)]


class TestPathLayout:
    """The history builder's path objectives, the adapted layout and the
    leaves below a node, read off the tree's ancestor table, against
    their per-leaf walks along ``tree.path``."""

    def test_history_objectives_match_the_per_leaf_walk(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            problem, stage = random_history_problem(rng)
            got = problem.meta["path_objectives"]
            want = history_paths_by_leaf(problem, stage)
            assert list(got) == list(want)
            for leaf, f in got.items():
                assert expr_bytes(f) == expr_bytes(want[leaf]), leaf

    def test_callable_stage_function_leaves_the_check_undecided(self):
        problem, _ = random_history_problem(np.random.default_rng(1), callable_stage=True)
        assert "path_objectives" not in problem.meta
        rep = cones.check_horizon_positivity(problem)
        assert rep.verdict == "undecided"
        assert rep.method == ["no symbolic path objectives available for horizon analysis"]
        assert cones.null_space(problem).kind == "undecided"

    def test_layout_and_leaves_below_match_the_path_walks(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            problem, _ = random_history_problem(rng)
            tree = problem.tree
            offsets, total, leaf_cols = cones._adapted_layout(problem)
            assert (offsets, total) == _ref_layout(problem)
            assert list(leaf_cols) == [leaf.id for leaf in tree.leaves]
            for leaf in tree.leaves:
                want = [c for nid in tree.path(leaf.id) if nid in offsets
                        for c in range(*offsets[nid])]
                assert leaf_cols[leaf.id].dtype == np.int64
                assert leaf_cols[leaf.id].tolist() == want
            for p in range(len(tree)):
                assert cones._leaves_below(tree, p) == leaves_below_by_walk(tree, p)


class TestConditionalHorizonInequality:
    def test_child_sum_of_horizons_below_horizon_of_sum(self):
        # per-node disutilities with node-dependent parameters: the
        # probability-weighted sum of child horizons never exceeds the
        # horizon of the probability-weighted sum
        rng = np.random.default_rng(32)
        tree = binomial_tree(2)
        funs = {
            n.id: td.SShapedDisutility(
                2.0 + rng.uniform(0, 2), 0.5 + rng.uniform(0, 1), 0.5 + rng.uniform(0, 1)
            )
            for n in tree.nodes
        }
        for t in (0, 1):
            for node in tree.nodes_at(t):
                kids = tree.children(node.id)
                mixture = Sum(
                    tuple(funs[c.id] for c in kids),
                    tuple(c.prob for c in kids),
                )
                H_mix = td.horizon(mixture)
                H_kids = {c.id: td.horizon(funs[c.id]) for c in kids}
                for _ in range(50):
                    w = rng.standard_normal(1)
                    lhs = sum(c.prob * H_kids[c.id].value(w) for c in kids)
                    rhs = H_mix.value(w)
                    assert lhs <= rhs + 1e-9


def _projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.T


def _null_or_ray(problem):
    try:
        return cones.null_space(problem)
    except cones.NotASubspace as err:
        return err


def assert_routes_agree(problem):
    """The node route against the stacked route on one problem: equal
    verdicts, a node witness that re-verifies on every leaf's horizon,
    NotASubspace on both or neither, and null spaces whose projectors
    agree within 1e-12.  Returns (node report, node null space or error)."""
    assert "node_rows" in problem.meta
    oracle = stacked_route(problem)
    node, stacked = (cones.check_horizon_positivity(p) for p in (problem, oracle))
    assert node.verdict == stacked.verdict, (node, stacked)
    assert node.details["route"] == "node" and "route" not in stacked.details
    if node.witness is not None:
        assert sum(np.any(v) for v in node.witness.values()) == 1
        horizons = {leaf: td.horizon(f) for leaf, f in problem.meta["path_objectives"].items()}
        y = np.concatenate(list(node.witness.values()))
        assert max(_ref_witness_values(problem, horizons, y).values()) <= cones.WITNESS_TOL
    ds, ref = _null_or_ray(problem), _null_or_ray(oracle)
    assert type(ds) is type(ref)
    if isinstance(ds, cones.NotASubspace):
        assert sum(np.any(v) for v in ds.ray.values()) == 1
    else:
        assert ds.per_node.keys() == ref.per_node.keys()
        for nid, basis in ds.per_node.items():
            assert basis.shape == ref.per_node[nid].shape
            gap = np.abs(_projector(basis) - _projector(ref.per_node[nid])).max(initial=0.0)
            assert gap <= 1e-12
    return node, ds


class TestNodeRoute:
    """The node route decides on each node's one-period rows; the stacked
    route over the whole adapted vector is its oracle."""

    def test_agrees_with_the_stacked_route_on_random_trees(self):
        rng = np.random.default_rng(2029)
        utilities = (market.SShapedUtility(2.0, 1.0, 1.0), exp_utility())
        seen = {"holds": 0, "fails": 0, "null": 0, "one_sided": 0, "bounded": 0, "terminal": 0}
        for k in range(40):
            n_assets = int(rng.integers(1, 3))
            T = int(rng.integers(1, 4))
            model = random_frictionless_tree(
                rng, T=T, n_branch=int(rng.integers(2, 4)), n_assets=n_assets,
                duplicated=n_assets == 2 and k % 3 == 0, balanced=k % 2 == 0,
                utility=utilities[k % 2],
            )
            if k % 4 == 3:
                model = dataclasses.replace(model, constraints=random_bounds(rng, n_assets, T))
                seen["bounded"] += model.constraints is not None
            build = market.build_problem_terminal if k % 5 == 4 else market.build_problem_cash
            seen["terminal"] += build is market.build_problem_terminal
            rep, ds = assert_routes_agree(build(model, radius=1.0, points=5))
            seen[rep.verdict] += 1
            if isinstance(ds, cones.NotASubspace):
                seen["one_sided"] += 1
            else:
                seen["null"] += not ds.is_trivial()
        for k in range(20):
            assert_routes_agree(market.build_problem_cash(random_frictionless_model(rng)))
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("case", ["constant_price", "arbitrage", "duplicated", "sure_loss"])
    def test_special_markets(self, case):
        tree = binomial_tree(2)
        prices = binomial_prices(tree, 1.0, 1.4, 0.7)
        if case == "constant_price":
            # zero profit along the whole holdings line: a kernel at every node
            prices = {n.id: np.array([1.0]) for n in tree.nodes}
        elif case == "duplicated":
            prices = {k: np.repeat(v, 2) for k, v in prices.items()}
        elif case == "arbitrage":
            # both moves out of d go up: buying there wins
            prices["du"], prices["dd"] = prices["d"] * 1.5, prices["d"] * 1.2
        else:
            # both moves out of u go down: shorting there wins
            prices["uu"], prices["ud"] = prices["u"] * 0.5, prices["u"] * 0.6
        model = market.MarketModel(
            tree=tree, n_risky=len(prices["r"]), prices=prices, cost=market.Frictionless(),
            utility=exp_utility(), initial_cash=1.0,
        )
        for build in (market.build_problem_cash, market.build_problem_terminal):
            rep, ds = assert_routes_agree(build(model, radius=1.0, points=5))
            assert rep.verdict == "fails"
            assert isinstance(ds, cones.NotASubspace) == (case in ("arbitrage", "sure_loss"))

    def test_projected_problems_check_and_solve_as_stacked_ones(self):
        tree = binomial_tree(2)
        prices = {k: np.repeat(v, 2) for k, v in binomial_prices(tree, 1.0, 1.4, 0.7).items()}
        two = market.MarketModel(tree=tree, n_risky=2, prices=prices, cost=market.Frictionless(),
                                 utility=exp_utility(), initial_cash=1.0)
        for problem in (market.build_problem_cash(duplicated_asset_model(), radius=2.0, points=33),
                        market.build_problem_cash(two, radius=1.0, points=9)):
            node = cones.project_problem(problem, cones.null_space(problem))
            stacked = cones.project_problem(problem, cones.null_space(stacked_route(problem)))
            rep, ds = assert_routes_agree(node)
            assert rep.verdict == "holds" and ds.is_trivial()
            assert cones.check_horizon_positivity(stacked).verdict == "holds"
            a, b = dp.backward_solve(node), dp.backward_solve(stacked)
            assert a.value == pytest.approx(b.value, abs=1e-9)
            assert a.forward_value == pytest.approx(b.forward_value, abs=1e-9)

    def test_twin_nodes_get_bit_identical_bases(self):
        # the subtrees under u and d are twins; the first move leaves the
        # prices at 1, so the root's rows are zero and every root trade is null
        model = twin_market(binomial_tree(2), n_risky=2, cost=market.Frictionless())
        ds = cones.null_space(market.build_problem_cash(model, radius=1.0, points=9))
        assert ds.per_node["u"].shape == (2, 1)
        assert ds.per_node["u"].tobytes() == ds.per_node["d"].tobytes()
        assert ds.per_node["r"].tobytes() == np.eye(2).tobytes()

    def test_route_follows_the_builder(self):
        model = duplicated_asset_model()
        assert "node_rows" in market.build_problem_cash(model).meta
        tilted = market.SampledUtility(np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0, 0.5]),
                                       slope_left=1.0, slope_right=-0.5)
        for other in (
            dataclasses.replace(model, cash_lower=0.8),
            dataclasses.replace(twin_market(binomial_tree(2), cost=market.Frictionless()),
                                trading_stages=frozenset({0})),
            # gains hurt at a linear rate too: each leaf's zero sublevel is {0}
            dataclasses.replace(model, utility=tilted),
        ):
            problem = market.build_problem_cash(other, radius=1.0, points=5)
            assert "node_rows" not in problem.meta
            rep = cones.check_horizon_positivity(problem)
            assert "route" not in rep.details
            assert not any("per decision node" in m for m in rep.method)
        rep = cones.check_horizon_positivity(history_sum_problem())
        assert rep.method == ["cone propagation: polyhedral zero-sublevel rows per leaf"]

    @pytest.mark.parametrize("T, n_risky, verdict", [(12, 1, "holds"), (8, 2, "fails")])
    def test_no_linear_algebra_wider_than_a_node(self, T, n_risky, verdict, monkeypatch):
        tree = binomial_tree(T)
        prices = {k: np.repeat(v, n_risky) for k, v in binomial_prices(tree, 1.0, 1.2, 0.85).items()}
        model = market.MarketModel(
            tree=tree, n_risky=n_risky, prices=prices, cost=market.Frictionless(),
            utility=market.SShapedUtility(2.0, 1.0, 1.0), initial_cash=1.0,
        )
        problem = market.build_problem_cash(model, radius=1.0, points=5)
        widths = []

        def wrap(fn):
            def counted(a, *args, **kwargs):
                widths.append(np.shape(a)[-1])
                return fn(a, *args, **kwargs)
            return counted

        monkeypatch.setattr(np.linalg, "svd", wrap(np.linalg.svd))
        monkeypatch.setattr(_polyhedral, "kernel_basis", wrap(_polyhedral.kernel_basis))
        monkeypatch.setattr(cones, "kernel_basis", wrap(cones.kernel_basis))
        rep = cones.check_horizon_positivity(problem)
        assert rep.verdict == verdict and rep.details["route"] == "node"
        assert rep.details["nodes"] == 2**T - 1
        ds = cones.null_space(problem)
        assert ds.meta["method"] == "kernel of node rows"
        assert sum(b.shape[1] for b in ds.per_node.values()) == (2**T - 1) * (n_risky - 1)
        assert widths and max(widths) <= n_risky

    def test_projection_places_the_bases_as_block_diag(self):
        from scipy.linalg import block_diag

        # the terminal form's expenditure box gives every stage a stage
        # function, which the projection hands the decision Q y
        tree = binomial_tree(2)
        prices = {k: np.repeat(v, 2) for k, v in binomial_prices(tree, 1.0, 1.4, 0.7).items()}
        model = market.MarketModel(tree=tree, n_risky=2, prices=prices, cost=market.Frictionless(),
                                   utility=exp_utility(), initial_cash=1.0)
        problem = market.build_problem_terminal(model, radius=1.0, points=5)
        ds = cones.null_space(problem)
        projected = cones.project_problem(problem, ds)
        Q = {nid: _polyhedral.kernel_basis(b.T) for nid, b in ds.per_node.items()}
        paths = projected.meta["path_objectives"]
        for leaf in tree.leaves:
            want = block_diag(*(Q[nid] for nid in tree.path(leaf.id)[:-1]))
            assert paths[leaf.id].matrix.tobytes() == want.tobytes()
        rng = np.random.default_rng(0)
        for nid, Qn in Q.items():
            K = np.full(64, tree.index(nid))
            S, Y = rng.normal(size=(64, 3)), rng.normal(size=(64, Qn.shape[1]))
            X = Y @ Qn.T
            post = problem.state_map.transition(K, S, X)
            want = problem.stage_funs[nid](K, S, X, post)
            assert projected.stage_funs[nid](K, S, Y, post).tobytes() == want.tobytes()
            assert 0.0 in want and INF in want
