import csv
import math

import numpy as np
import pytest

import treedp as td
from treedp import cones, dp, market
from treedp._polyhedral import kernel_basis
from treedp.efun import Sum

from conftest import (
    arbitrage_model,
    binomial_prices,
    binomial_tree,
    duplicated_asset_model,
    exp_utility,
    get_bench,
    random_frictionless_model,
    sshaped_t2_model,
)

INF = math.inf


def as_prices(model):
    return {n.id: model.Z(n.id) for n in model.tree.nodes}


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
        witness = rep.witness_sequence()
        assert witness is not None and witness.norm() > 0
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
        # a trivial kernel and one LP: the cone is a subspace, so it is {0}
        assert rep.details["cone"] == {"rows": 2, "dim": 1, "kernel_dim": 0, "lp_calls": 1}

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

    def test_witness_reverifies_nodewise(self):
        model = arbitrage_model()
        problem = market.build_problem_cash(model)
        rep = cones.check_horizon_positivity(problem)
        objs = cones.path_objectives(problem)
        witness = rep.witness_sequence()
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

    def test_model_wrapper_rejects_frictions(self):
        with pytest.raises(cones.ModelNotFrictionless):
            cones.no_arbitrage_for_model(
                market.MarketModel(
                    tree=binomial_tree(1), n_risky=1,
                    prices={"r": [1.0], "u": [2.0], "d": [0.5]},
                    cost=market.PowerIlliquidity(0.1, 2.0),
                    utility=market.SShapedUtility(2.0, 1.0, 1.0),
                )
            )


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
        res = dp.backward_solve(projected, cfg=dp.SolveConfig(eps_gap=0.1),
                                forward="exact")
        one_asset = market.MarketModel(
            tree=tree, n_risky=1,
            prices={k: v[:1] for k, v in prices.items()},
            cost=market.Frictionless(), utility=exp_utility(), initial_cash=1.0,
        )
        res1 = dp.backward_solve(
            market.build_problem_cash(one_asset, radius=1.5, points=129),
            forward="exact",
        )
        assert res.forward_value == pytest.approx(res1.forward_value, abs=1e-5)


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

    def test_null_direction_indifference(self):
        problem = market.build_problem_cash(duplicated_asset_model())
        ds = cones.null_space(problem)
        basis = ds.per_node["r"]
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = td.AdaptedSequence({"r": rng.uniform(-0.5, 0.5, 2)})
            shift = td.AdaptedSequence({"r": basis @ rng.uniform(-1.0, 1.0, 1)})
            a = dp.evaluate_strategy(problem, x)
            b = dp.evaluate_strategy(problem, x + shift)
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


def random_frictionless_tree(rng, T, n_branch, n_assets, duplicated, balanced, utility):
    """Random T-period frictionless market with eighth-rational price moves.

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


def moves_span(model) -> bool:
    tree = model.tree
    for node in tree.nodes:
        kids = tree.children(node.id)
        if kids:
            moves = np.array([model.Z(c.id) - model.Z(node.id) for c in kids])
            if np.linalg.matrix_rank(moves) < model.n_risky:
                return False
    return True


def null_space_reference(problem) -> dict[str, np.ndarray]:
    """Per-node null directions, one SVD of the full stacked system per node."""
    nodes, offsets, total = cones._adapted_layout(problem)
    horizons, _, _ = cones._leaf_horizons(cones.path_objectives(problem))
    rows = cones._stacked_rows(problem, horizons, offsets, total)
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
            problem = market.build_problem_cash(model, radius=1.0, points=5)
            rep = cones.check_horizon_positivity(problem)
            if moves_span(model):
                arb = cones.no_arbitrage_lp(model.tree, as_prices(model))
                assert (rep.verdict == "holds") == (arb is None)
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
