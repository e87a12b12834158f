import dataclasses
import json
import math

import numpy as np
import pytest

import treedp as td
from treedp import cones, dp, market

from conftest import (
    binomial_prices,
    binomial_tree,
    exp_utility,
    expr_bytes,
    ragged_tree,
    sshaped_t2_model,
)

INF = math.inf


class TestValidate:
    def test_superlinear_sshaped_all_hold(self):
        rep = market.validate(sshaped_t2_model())
        for name in ("cost_growth", "cost_growth_strict",
                     "utility_loss_decay", "disutility_growth",
                     "disutility_orthant", "free_disposal"):
            assert rep.holds(name), name
        assert rep.holds("cost_growth_strict") and rep.holds("disutility_growth")

    def test_frictionless_strict_fails_and_directs_to_reference(self):
        tree = binomial_tree(1)
        model = market.MarketModel(
            tree=tree, n_risky=1,
            prices={"r": [1.0], "u": [2.0], "d": [0.5]},
            cost=market.Frictionless(),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
        )
        rep = market.validate(model)
        assert rep.status("cost_growth") == "equality"
        assert rep.status("cost_growth_strict") == "fails"
        assert "no-arbitrage" in rep.conditions["cost_growth_strict"]["note"]
        assert not (rep.holds("cost_growth_strict") and rep.holds("disutility_growth"))
        assert rep.required_ok()

    def test_flat_utility_fails_loss_decay(self):
        flat = market.SampledUtility(
            np.array([-1.0, 0.0, 1.0]), np.array([0.99, 1.0, 1.0]),
            slope_left=0.0, slope_right=0.0,
        )
        tree = binomial_tree(1)
        model = market.MarketModel(
            tree=tree, n_risky=1,
            prices={"r": [1.0], "u": [2.0], "d": [0.5]},
            cost=market.PowerIlliquidity(0.1, 2.0), utility=flat,
        )
        rep = market.validate(model)
        assert rep.status("utility_loss_decay") == "fails"
        assert rep.status("disutility_growth") == "fails"
        assert not rep.required_ok()

    def test_inada_for_infinite_loss_slope(self):
        tree = binomial_tree(1)
        model = market.MarketModel(
            tree=tree, n_risky=1,
            prices={"r": [1.0], "u": [2.0], "d": [0.5]},
            cost=market.Frictionless(), utility=exp_utility(),
        )
        rep = market.validate(model)
        assert rep.holds("inada")
        sshaped = market.validate(sshaped_t2_model())
        assert sshaped.status("inada") == "fails"
        assert "growth condition" in sshaped.conditions["inada"]["note"]

    def test_validator_soundness_vs_cones(self):
        # whenever the strict cost growth is certified analytically, the
        # horizon positivity check must agree
        for model in (sshaped_t2_model(),):
            rep = market.validate(model)
            assert rep.holds("cost_growth_strict")
            chk = cones.check_horizon_positivity(market.build_problem_cash(model))
            assert chk.verdict == "holds"


class TestUtilityAtoms:
    def test_sshaped_reflection(self):
        u = market.SShapedUtility(2.0, 1.0, 1.5)
        V = u.disutility()
        for w in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert V.value([-w]) == pytest.approx(-u.value(w), rel=1e-12)
        assert u.value(1e9) <= u.sup() + 1e-12

    def test_sampled_reflection_and_bounds(self):
        u = exp_utility()
        V = u.disutility()
        for w in (-3.0, 0.0, 2.0):
            assert V.value([-w]) == pytest.approx(-u.value(w), rel=1e-9, abs=1e-12)
        with pytest.raises(market.InvalidModel, match="bounded above"):
            market.SampledUtility(
                np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                slope_left=1.0, slope_right=1.0,
            )

    def test_disutility_bounded_below(self):
        for u in (market.SShapedUtility(2.0, 1.3, 0.7), exp_utility()):
            V = u.disutility()
            xs = np.linspace(-60, 60, 301)[:, None]
            assert (V.value_many(xs) >= -u.sup() - 1e-9).all()


class TestBuilders:
    @pytest.mark.parametrize("radius, points", [
        (1.0, 1), (1.0, 0), (1.0, -3), (0.0, 9), (-1.0, 9), (math.nan, 9), (INF, 9),
    ])
    def test_rejects_bad_grid_arguments(self, radius, points):
        for build in (market.build_problem_cash, market.build_problem_terminal):
            with pytest.raises(ValueError, match="points must be >= 2|radius must be finite"):
                build(sshaped_t2_model(), radius=radius, points=points)

    def test_zero_strategy_feasible_terminal(self):
        model = sshaped_t2_model()
        problem = market.build_problem_terminal(model, radius=0.5, points=33)
        zero = td.AdaptedSequence({
            nid: np.zeros(2) for nid in ("r", "u", "d")
        })
        val = dp.evaluate_strategy(problem, zero)
        # all-zero trading leaves exactly the initial capital: V_T(-X0)
        assert val == pytest.approx(
            model.utility.disutility().value([-model.initial_cash])
        )

    def test_unpayable_claim_is_infeasible(self):
        tree = binomial_tree(1)
        model = market.MarketModel(
            tree=tree, n_risky=1,
            prices={"r": [1.0], "u": [2.0], "d": [0.5]},
            cost=market.PowerIlliquidity(0.1, 2.0),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
            claims={"r": 1.0},
            initial_cash=0.0,
            constraints={0: (np.array([0.0]), np.array([0.0]))},
            cash_lower=0.0,
        )
        problem = market.build_problem_terminal(model, radius=0.5, points=17)
        res = dp.backward_solve(problem, cfg=dp.SolveConfig(eps_gap=INF))
        assert res.value == INF  # budget impossible at the root

    def test_cash_and_terminal_agree_t1(self):
        tree = binomial_tree(1)
        model = market.MarketModel(
            tree=tree, n_risky=1,
            prices={"r": [1.0], "u": [2.0], "d": [0.5]},
            cost=market.PowerIlliquidity(0.1, 2.0),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
            initial_cash=1.0,
        )
        cash = dp.backward_solve(market.build_problem_cash(model, radius=1.0, points=65))
        term = dp.backward_solve(
            market.build_problem_terminal(model, radius=1.0, points=65),
            cfg=dp.SolveConfig(eps_gap=0.01),
        )
        assert term.forward_value == pytest.approx(cash.forward_value, abs=1e-3)

    def test_frictionless_zero_value_under_no_arbitrage(self):
        # loss-only utility (u(w) = min(w, 0)): without arbitrage every
        # nonzero trade has a losing branch, so the optimal value is
        # exactly zero; enumeration and the arbitrage reference agree
        from treedp import cones

        tree = binomial_tree(1)
        loss_only = market.SampledUtility(
            np.array([-100.0, 0.0, 100.0]), np.array([-100.0, 0.0, 0.0]),
            slope_left=1.0, slope_right=0.0,
        )
        model = market.MarketModel(
            tree=tree, n_risky=1,
            prices={"r": [1.0], "u": [2.0], "d": [0.5]},
            cost=market.Frictionless(), utility=loss_only,
            initial_cash=0.0,
        )
        assert cones.no_arbitrage_lp(
            tree, {n.id: model.Z(n.id) for n in tree.nodes}
        ) is None
        problem = market.build_problem_cash(model, radius=1.0, points=33)
        res = dp.backward_solve(problem)
        assert res.forward_value == pytest.approx(0.0, abs=1e-9)
        bf, _ = dp.brute_force(problem, {"r": np.linspace(-1, 1, 201)[:, None]})
        assert bf == pytest.approx(0.0, abs=1e-12)

    def test_constant_price_zero_pnl_value_exact(self):
        tree = binomial_tree(1)
        prices = {k: np.array([1.0]) for k in ("r", "u", "d")}
        model = market.MarketModel(
            tree=tree, n_risky=1, prices=prices, cost=market.Frictionless(),
            utility=exp_utility(), initial_cash=1.0,
        )
        problem = market.build_problem_cash(model)
        for z in (-0.5, 0.0, 0.8):
            val = dp.evaluate_strategy(problem, td.AdaptedSequence({"r": np.array([z])}))
            assert val == pytest.approx(-exp_utility().value(1.0), abs=1e-12)

    @staticmethod
    def _forward_values(model, radius, points):
        """Forward values of the cash and terminal forms, with criterion 08's tolerance."""
        cash = dp.backward_solve(market.build_problem_cash(model, radius=radius, points=points))
        term = dp.backward_solve(
            market.build_problem_terminal(model, radius=radius, points=points),
            cfg=dp.SolveConfig(eps_gap=0.01),
        )
        return cash.forward_value, term.forward_value, 1e-3 * (1.0 + abs(cash.forward_value))

    def test_both_forms_honour_the_borrowing_limit(self):
        tree = binomial_tree(1)
        base = dict(
            tree=tree, n_risky=1, prices={"r": [1.0], "u": [1.3], "d": [0.8]},
            cost=market.PowerIlliquidity(0.1, 2.0),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
            initial_cash=0.2,
        )
        limited = market.MarketModel(**base, cash_lower=0.0)
        cash, term, tol = self._forward_values(limited, radius=1.0, points=65)
        assert abs(term - cash) <= tol
        free_cash, free_term, _ = self._forward_values(
            market.MarketModel(**base), radius=1.0, points=65)
        # the limit binds: no borrowing means a smaller position, a worse value
        assert cash > free_cash + tol
        assert term > free_term + tol

    def test_nonbinding_limit_costs_nothing(self, monkeypatch):
        # the limit reads the post-trade cash of the one transition per row, so
        # a floor no state reaches adds no transition or cost row and moves no bit
        rows = {"transition": 0, "cost": 0}
        cost_many = market.PowerIlliquidity.cost_many

        def counted_cost(self, params, D):
            rows["cost"] += len(D)
            return cost_many(self, params, D)

        monkeypatch.setattr(market.PowerIlliquidity, "cost_many", counted_cost)
        outcomes = []
        for lower in (None, -100.0):
            model = dataclasses.replace(sshaped_t2_model(), cash_lower=lower)
            problem = market.build_problem_cash(model, radius=1.0, points=65)
            transition = problem.state_map.transition

            def counted(K, S, X, transition=transition):
                rows["transition"] += len(K)
                return transition(K, S, X)

            object.__setattr__(problem.state_map, "transition", counted)
            rows.update(transition=0, cost=0)
            res = dp.backward_solve(problem)
            strategy = {k: x.tobytes() for k, x in res.strategy.values.items()}
            outcomes.append((dict(rows), float(res.value).hex(),
                             float(res.forward_value).hex(), strategy))
        assert outcomes[0] == outcomes[1]
        # leaves with bit-identical data share their rows in backward_solve
        # (354 of them are speculative polls of the small searches, which
        # the sequential poll would not evaluate)
        assert outcomes[0][0] == {"transition": 2_924_470, "cost": 2_924_470}

    def test_both_forms_hold_at_closed_stages(self):
        # the price moves only in the first period, whose market is closed;
        # trading later gains nothing, so the value is that of the cash held
        tree = binomial_tree(2)
        prices = {n.id: [1.0 if n.id == "r" else 1.5 if n.id[0] == "u" else 0.9]
                  for n in tree.nodes}
        model = market.MarketModel(
            tree=tree, n_risky=1, prices=prices,
            cost=market.PowerIlliquidity(0.1, 2.0),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
            initial_cash=0.5, trading_stages=frozenset({1}),
        )
        cash, term, _ = self._forward_values(model, radius=1.0, points=9)
        assert -model.utility.value(0.5) == pytest.approx(-0.2, abs=1e-15)
        assert cash == term == -model.utility.value(0.5)

    def test_trading_stage_gating(self):
        model = sshaped_t2_model()
        gated = market.MarketModel(
            tree=model.tree, n_risky=1, prices=model.prices, cost=model.cost,
            utility=model.utility, initial_cash=1.0,
            trading_stages=frozenset({0}),
        )
        problem = market.build_problem_cash(gated)
        assert problem.decision_dim("r") == 1
        assert problem.decision_dim("u") == 0


class TestDegenerateHorizon:
    @pytest.mark.parametrize("cost", [market.Frictionless(), market.PowerIlliquidity(0.1, 2.0)],
                             ids=["frictionless", "power"])
    def test_t0_forms_agree(self, cost):
        tree = td.ScenarioTree([td.Node("r", 0, None)])
        model = market.MarketModel(
            tree=tree, n_risky=1, prices={"r": [1.0]},
            cost=cost,
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
            initial_cash=1.0, endowment={"r": 0.25}, claims={"r": 0.05},
        )
        problems = [market.build_problem_cash(model), market.build_problem_terminal(model)]
        cash, term = (dp.backward_solve(p) for p in problems)
        expected = -model.utility.value(1.0 + 0.25 - 0.05)
        assert cash.value == pytest.approx(expected, abs=1e-12)
        assert term.value == cash.value
        verdicts = [cones.check_horizon_positivity(p).verdict for p in problems]
        assert verdicts == ["holds", "holds"]


def path_objectives_by_leaf(model, lead):
    """The path objectives built one leaf at a time along ``tree.path``:
    the oracle of the builder's stage-at-a-time construction."""
    tree = model.tree
    J, T = model.n_risky, tree.horizon
    d = lead + J
    boxes = [market._decision_box(model, t, lead) for t in range(T)]
    out = {}
    for leaf in tree.leaves:
        path = tree.path(leaf.id)
        row = np.zeros(T * d)
        cash = np.zeros((T, T * d))
        for t in range(T):
            row[t * d : t * d + lead] = 1.0
            cash[t] = row
            cash[t, t * d + lead : (t + 1) * d] = -model.Z(path[t])
            row[t * d + lead : (t + 1) * d] = model.Z(path[t + 1]) - model.Z(path[t])
        const = (
            model.initial_cash
            - sum(model.claim(nid) for nid in path)
            + model.endow(leaf.id)
        )
        terms = [td.AffinePrecompose(model.utility_at(leaf.id).disutility(), -row[None, :], [-const])]
        for t, box in enumerate(boxes):
            if box is not None:
                sel = np.zeros((d, T * d))
                sel[:, t * d : (t + 1) * d] = np.eye(d)
                terms.append(td.AffinePrecompose(box, sel))
        if model.cash_lower is not None:
            const_cash = [model.initial_cash - sum(model.claim(nid) for nid in path[: t + 1])
                          for t in range(T)]
            lower = model.cash_lower - np.array(const_cash)
            terms.append(td.AffinePrecompose(td.IndicatorBox(lower, np.full(T, INF)), cash))
        out[leaf.id] = terms[0] if len(terms) == 1 else td.Sum(tuple(terms))
    return out


def ragged_frictionless_model(rng):
    """Random frictionless market on a ragged tree (T 1-3, 1-2 assets) with
    holdings boxes, interior and leaf claims, endowments, utility
    overrides and, in some draws, a borrowing limit; claims (some -0.0)
    and prices are generic floats, so a change in summation order shows
    in the bits."""
    T, J = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    tree = ragged_tree(rng, T)
    leaves = [n.id for n in tree.leaves]
    boxes = {t: (rng.choice([-INF, -1.0, 0.0], J), rng.choice([INF, 0.5, 1.0], J))
             for t in range(T) if rng.random() < 0.7} if rng.random() < 0.5 else {}
    sampled = market.SampledUtility(np.array([-1.0, 0.0, 1.0]), np.array([-1.5, 0.0, 0.5]),
                                    slope_left=2.0, slope_right=0.0)
    return market.MarketModel(
        tree=tree, n_risky=J, cost=market.Frictionless(),
        prices={n.id: rng.uniform(0.5, 2.0, J) for n in tree.nodes},
        utility=market.SShapedUtility(2.0, 1.0, 1.0),
        utility_overrides={l: sampled for l in leaves if rng.random() < 0.3},
        claims={n.id: -0.0 if rng.random() < 0.2 else float(rng.uniform(-0.2, 0.2))
                for n in tree.nodes if rng.random() < 0.5},
        endowment={l: float(rng.uniform(0.0, 0.3)) for l in leaves if rng.random() < 0.5},
        initial_cash=float(rng.uniform(0.0, 1.5)),
        constraints=boxes or None,
        cash_lower=None if rng.random() < 0.5 else float(rng.uniform(-1.0, 0.0)),
    )


class TestPathObjectives:
    def test_bit_identical_to_the_per_leaf_walk(self):
        rng = np.random.default_rng(20)
        seen = set()
        for _ in range(40):
            model = ragged_frictionless_model(rng)
            seen.add((model.n_risky, model.cash_lower is None, model.constraints is None))
            for lead, build in enumerate((market.build_problem_cash, market.build_problem_terminal)):
                got = build(model, radius=1.0, points=3).meta["path_objectives"]
                want = path_objectives_by_leaf(model, lead)
                assert list(got) == list(want)
                for leaf, f in got.items():
                    assert expr_bytes(f) == expr_bytes(want[leaf]), leaf
        assert len(seen) == 8  # every combination of assets, limit and boxes

    def test_one_box_term_per_stage(self):
        tree = binomial_tree(2)
        model = market.MarketModel(
            tree=tree, n_risky=1, prices={n.id: [1.0 + 0.1 * len(n.id)] for n in tree.nodes},
            cost=market.Frictionless(), utility=market.SShapedUtility(2.0, 1.0, 1.0))
        paths = market.build_problem_terminal(model).meta["path_objectives"]
        boxes = [f.terms[1:] for f in paths.values()]
        assert len(boxes[0]) == 2
        assert all(a is b for terms in boxes for a, b in zip(terms, boxes[0]))

    def test_none_with_a_closed_stage_or_frictions(self):
        model = ragged_frictionless_model(np.random.default_rng(3))
        for other in (dataclasses.replace(model, trading_stages=frozenset()),
                      dataclasses.replace(model, cost=market.PowerIlliquidity(0.1, 2.0))):
            meta = market.build_problem_cash(other, radius=1.0, points=3).meta
            assert "path_objectives" not in meta and "node_rows" not in meta


def liquidated(model, leaf_id, phi):
    """Terminal wealth of the position ``phi`` and no cash at a leaf: the
    stage-T liquidation of the market problem's transition, which closes
    the position at the leaf's prices net of the closing trade's cost."""
    problem = market.build_problem_cash(model)
    K = np.array([model.tree.index(leaf_id)])
    S = np.concatenate([[0.0], phi])[None, :]
    return float(problem.state_map.transition(K, S, np.zeros((1, 0)))[0, 0])


class TestLiquidationValue:
    def test_zero_position(self):
        model = sshaped_t2_model()
        assert liquidated(model, "uu", [0.0]) == 0.0

    def test_frictionless(self):
        tree = binomial_tree(1)
        model = market.MarketModel(
            tree=tree, n_risky=1,
            prices={"r": [1.0], "u": [3.0], "d": [0.5]},
            cost=market.Frictionless(),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
        )
        assert liquidated(model, "u", [2.0]) == 6.0

    def test_with_frictions_derived(self):
        tree = binomial_tree(1)
        model = market.MarketModel(
            tree=tree, n_risky=1,
            prices={"r": [2.0], "u": [1.0], "d": [0.5]},
            cost=market.PowerIlliquidity(1.0, 2.0),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
        )
        # closing one unit: proceeds 1, closing trade -1 costs |−1|^2 = 1
        assert model.cost.cost_many(model.cost.params_at("u"), np.array([[-1.0]]))[0] == 1.0
        assert liquidated(model, "u", [1.0]) == 0.0


class TestModelProperties:
    def test_endowment_monotonicity(self):
        base = sshaped_t2_model()
        values = []
        for shift in (-0.1, 0.0, 0.1):
            model = market.MarketModel(
                tree=base.tree, n_risky=1, prices=base.prices, cost=base.cost,
                utility=base.utility, initial_cash=1.0,
                endowment={nid: shift for nid in ("uu", "ud", "du", "dd")},
            )
            problem = market.build_problem_cash(model, radius=1.0, points=65)
            values.append(dp.backward_solve(problem).forward_value)
        # richer endowment -> weakly better utility -> lower minimized value
        assert values[0] >= values[1] - 1e-9 >= values[2] - 2e-9

    def test_total_cost_monotone_in_sampled_region(self):
        rep = market.validate(sshaped_t2_model())
        assert rep.holds("free_disposal")
        tree = binomial_tree(1)
        model = market.MarketModel(
            tree=tree, n_risky=1,
            prices={"r": [1.0], "u": [-0.5], "d": [0.5]},
            cost=market.Frictionless(),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
        )
        assert market.validate(model).status("free_disposal") == "fails"

    def test_free_disposal_radius_in_closed_form(self):
        # per-node power costs: each node's radius is
        # (min_i Z_i/(coeff*exponent))**(1/(exponent-1)), and the note states the least
        tree = binomial_tree(2)
        prices = binomial_prices(tree, 1.0, 1.3, 0.8)
        model = market.MarketModel(
            tree=tree, n_risky=2,
            prices={nid: [z[0], 1.5 * z[0]] for nid, z in prices.items()},
            cost=market.PowerIlliquidity(
                0.1, 2.0, per_node={"u": (0.5, 3.0), "dd": (0.05, 1.5), "ud": (2.0, 2.5)}),
            utility=market.SShapedUtility(2.0, 1.0, 1.0),
        )
        radii = {}
        for node in tree.nodes:
            lam, p = model.cost.params_at(node.id)
            radii[node.id] = (float(min(model.Z(node.id))) / (lam * p)) ** (1.0 / (p - 1.0))
        disposal = market.validate(model).conditions["free_disposal"]
        assert disposal["status"] == "holds"
        assert disposal["note"].startswith("closed form")
        radius = float(disposal["note"].split("|d_i| <= ")[1].split(",")[0])
        assert radius == min(radii.values())
        # exact: at the node and asset that set it, the total cost has its
        # local minimum at d_i = -radius, so it is nondecreasing up to there
        # and decreasing beyond it
        nid = min(radii, key=radii.get)
        trades = np.array([[s * radius, 0.0] for s in (-1.01, -1.0, -0.99)])
        cost = trades @ model.Z(nid) + model.cost.cost_many(model.cost.params_at(nid), trades)
        assert cost[1] < cost[0] and cost[1] < cost[2]


class TestUsedUtilities:
    """Validation and the lower bound read the utilities the leaves use: a
    global utility that every leaf overrides is not one of them."""

    FLAT = market.SampledUtility(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 4.0, 5.0]),
                                 slope_left=0.0, slope_right=0.0)  # loss slope 0, sup 5

    def model(self, overrides):
        tree = binomial_tree(1)
        return market.MarketModel(
            tree=tree, n_risky=1, prices=binomial_prices(tree, 1.0, 1.2, 0.85),
            cost=market.Frictionless(), utility=self.FLAT, utility_overrides=overrides)

    def test_a_global_utility_every_leaf_overrides_is_not_used(self, tmp_path):
        from treedp import cli

        u, d = market.SShapedUtility(2.0, 1.0, 1.0), market.SShapedUtility(3.0, 2.0, 0.5)
        model = self.model({"u": u, "d": d})
        assert model.leaf_utilities == {"u": u, "d": d}
        report = market.validate(model)
        assert report.required_ok() and report.holds("disutility_orthant")
        assert model.lower_bound() == -2.0
        assert market.build_problem_cash(model).lower_bound == -2.0
        path = tmp_path / "m.json"
        path.write_text(json.dumps(market.market_to_dict(model)))
        assert cli.main(["check", str(path), "--out", str(tmp_path / "o")]) == 0
        # a leaf left to the global utility uses it again
        partial = self.model({"u": u})
        assert partial.leaf_utilities == {"<global>": self.FLAT, "u": u}
        report = market.validate(partial)
        assert report.status("utility_loss_decay") == "fails"
        assert "['<global>']" in report.conditions["utility_loss_decay"]["note"]
        assert partial.lower_bound() == -5.0


class TestNodeDependentParameters:
    def test_int_and_float_spellings_share_groups_and_bits(self):
        tree = binomial_tree(2)
        per_node = {"u": (0.1, 2.0), "d": (0.5, 3.0), "uu": (0.5, 3.0), "dd": (0.2, 1.5)}
        floats = market.MarketModel(
            tree=tree, n_risky=1, prices=binomial_prices(tree, 1.0, 1.3, 0.75),
            cost=market.PowerIlliquidity(0.1, 2.0, per_node=per_node),
            utility=market.SShapedUtility(2.0, 1.0, 1.0), initial_cash=1.0)
        ints = dataclasses.replace(floats, cost=market.PowerIlliquidity(
            0.1, 2, per_node={**per_node, "u": (0.1, 2), "d": (0.5, 3)}))
        groups, params = ints.cost_groups
        assert groups.tolist() == floats.cost_groups[0].tolist() == [0, 0, 1, 1, 0, 0, 2]
        assert params == floats.cost_groups[1] == [(0.1, 2.0), (0.5, 3.0), (0.2, 1.5)]
        for build in (market.build_problem_cash, market.build_problem_terminal):
            problems = [build(m, radius=1.0, points=9) for m in (floats, ints)]
            assert problems[0].local_keys == problems[1].local_keys
            solved = []
            for problem in problems:
                res = dp.backward_solve(problem)
                solved.append((dp.json_text(res.report_dict()),
                               [t.values.tobytes() for t in res.pre_tables.values()],
                               [t.values.tobytes() for t in res.post_tables.values()]))
            assert solved[0] == solved[1]

    def test_per_node_cost_parameters(self):
        tree = binomial_tree(1)
        cost = market.PowerIlliquidity(0.1, 2.0, per_node={"u": (0.5, 3.0)})
        assert cost.params_at("r") == (0.1, 2.0)
        assert cost.params_at("u") == (0.5, 3.0)
        d = np.array([[2.0]])
        assert cost.cost_many(cost.params_at("r"), d)[0] == pytest.approx(0.4)
        assert cost.cost_many(cost.params_at("u"), d)[0] == pytest.approx(4.0)
        model = market.MarketModel(
            tree=tree, n_risky=1,
            prices={"r": [1.0], "u": [2.0], "d": [0.5]},
            cost=cost, utility=market.SShapedUtility(2.0, 1.0, 1.0),
            initial_cash=1.0,
        )
        problem = market.build_problem_cash(model, radius=1.0, points=65)
        res = dp.backward_solve(problem)
        bf, _ = dp.brute_force(problem, {"r": np.linspace(-1, 1, 201)[:, None]})
        assert res.forward_value == pytest.approx(bf, abs=1e-4)

    def test_per_leaf_utility_overrides(self):
        # mild base loss slope: the investor jumps to a large position;
        # a steeper loss slope in the down scenario shrinks it sharply
        tree = binomial_tree(1)
        base = market.SShapedUtility(2.0, 1.0, 0.3)
        pessimist = market.SShapedUtility(2.0, 1.0, 3.0)
        prices = {"r": [1.0], "u": [3.0], "d": [0.8]}

        def solve(overrides):
            model = market.MarketModel(
                tree=tree, n_risky=1, prices=prices,
                cost=market.PowerIlliquidity(0.05, 2.0), utility=base,
                utility_overrides=overrides, initial_cash=0.0,
            )
            problem = market.build_problem_cash(model, radius=2.0, points=65)
            res = dp.backward_solve(problem)
            bf, _ = dp.brute_force(problem, {"r": np.linspace(-2, 2, 401)[:, None]})
            assert res.forward_value == pytest.approx(bf, abs=1e-4)
            return res

        res_plain = solve({})
        res_pess = solve({"d": pessimist})
        assert res_plain.strategy.at("r")[0] > 1.0
        assert res_pess.strategy.at("r")[0] < 0.7
        assert res_pess.forward_value > res_plain.forward_value


class TestJsonLoader:
    def model_dict(self):
        return {
            "assets": 1,
            "initial_cash": 1.0,
            "cost": {"kind": "power", "coeff": 0.1, "exponent": 2.0},
            "utility": {"kind": "sshaped", "gamma": 2.0, "kappa": 1.0, "beta": 1.0},
            "tree": [
                {"id": "r", "time": 0, "parent": None, "prob": 1.0,
                 "data": {"Z": [1.0]}},
                {"id": "u", "time": 1, "parent": "r", "prob": 0.5,
                 "data": {"Z": [2.0], "claim": 0.1, "endowment": 0.2}},
                {"id": "d", "time": 1, "parent": "r", "prob": 0.5,
                 "data": {"Z": [0.5]}},
            ],
        }

    def test_round_trip(self, tmp_path):
        d = self.model_dict()
        p = tmp_path / "m.json"
        p.write_text(json.dumps(d))
        model = market.load_market(str(p))
        assert model.n_risky == 1
        assert model.claim("u") == 0.1
        assert model.endow("u") == 0.2
        back = market.market_to_dict(model)
        p2 = tmp_path / "m2.json"
        p2.write_text(json.dumps(back))
        model2 = market.load_market(str(p2))
        assert model2.Z("d")[0] == 0.5

    def test_round_trip_per_node_cost_sampled_utility_and_overrides(self):
        tree = binomial_tree(1)
        model = market.MarketModel(
            tree=tree, n_risky=1, prices={"r": [1.0], "u": [2.0], "d": [0.5]},
            cost=market.PowerIlliquidity(0.1, 2.0, per_node={"u": (0.5, 3.0)}),
            utility=exp_utility(-2.0, 2.0, 0.5),
            utility_overrides={
                "u": market.SShapedUtility(3.0, 2.0, 0.5),
                "d": market.SampledUtility([-1.0, 1.0], [-2.0, 0.5], 4.0, -0.5),
            },
        )
        d = market.market_to_dict(model)
        back = market.market_from_dict(json.loads(json.dumps(d)))
        assert market.market_to_dict(back) == d
        assert back.cost.per_node == {"u": (0.5, 3.0)}
        assert back.utility.slope_left == INF
        assert back.utility_at("d").values.tolist() == [-2.0, 0.5]
        assert d["cost"] == {"kind": "power", "coeff": 0.1, "exponent": 2.0,
                             "per_node": {"u": [0.5, 3.0]}}
        assert d["tree"][1]["data"]["utility"] == {
            "kind": "sshaped", "gamma": 3.0, "kappa": 2.0, "beta": 0.5}

    def test_rejects_missing_prices(self, tmp_path):
        d = self.model_dict()
        del d["tree"][1]["data"]["Z"]
        p = tmp_path / "m.json"
        p.write_text(json.dumps(d))
        with pytest.raises(market.InvalidModel, match="prices"):
            market.load_market(str(p))

    def test_rejects_bad_schema(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"assets": 0, "cost": {}, "utility": {}, "tree": []}))
        with pytest.raises(market.InvalidModel):
            market.load_market(str(p))

    def test_rejects_malformed_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{")
        with pytest.raises(market.InvalidModel, match="line"):
            market.load_market(str(p))

    def test_rejects_endowment_off_leaf(self, tmp_path):
        d = self.model_dict()
        d["tree"][0]["data"]["endowment"] = 1.0
        p = tmp_path / "m.json"
        p.write_text(json.dumps(d))
        with pytest.raises(market.InvalidModel, match="non-leaf"):
            market.load_market(str(p))

    def test_rejects_endowment_at_unknown_node(self):
        with pytest.raises(market.InvalidModel, match="endowment at unknown node 'zz'"):
            dataclasses.replace(sshaped_t2_model(), endowment={"zz": 1.0})

    @pytest.mark.parametrize("nid, where", [("zz", "unknown"), ("u", "non-leaf")])
    def test_rejects_utility_override_off_the_leaves(self, nid, where):
        u = market.SShapedUtility(2.0, 1.0, 3.0)
        with pytest.raises(market.InvalidModel, match=f"utility override at {where} node {nid!r}"):
            dataclasses.replace(sshaped_t2_model(), utility_overrides={"uu": u, nid: u})

    def test_rejects_cost_parameters_at_unknown_node(self):
        cost = market.PowerIlliquidity(0.1, 2.0, per_node={"u": (0.5, 3.0), "zz": (0.5, 3.0)})
        with pytest.raises(market.InvalidModel, match="cost parameters at unknown node 'zz'"):
            dataclasses.replace(sshaped_t2_model(), cost=cost)

    @pytest.mark.parametrize("t", [-1, 2, 9])
    def test_rejects_stages_that_do_not_exist(self, t):
        # T = 2: the stages that decide are 0 and 1
        model = sshaped_t2_model()
        box = (np.array([-1.0]), np.array([1.0]))
        with pytest.raises(market.InvalidModel, match=f"constraint bounds at stage {t}: not a stage 0..1"):
            dataclasses.replace(model, constraints={0: box, t: box})
        with pytest.raises(market.InvalidModel, match=f"trading stage {t} is not a stage 0..1"):
            dataclasses.replace(model, trading_stages=frozenset({0, 1, t}))

    def test_utility_override_and_trading_stages_round_trip(self, tmp_path):
        d = self.model_dict()
        d["tree"][2]["data"]["utility"] = {
            "kind": "sshaped", "gamma": 3.0, "kappa": 2.0, "beta": 0.5,
        }
        d["trading_stages"] = [0]
        p = tmp_path / "m.json"
        p.write_text(json.dumps(d))
        model = market.load_market(str(p))
        assert model.utility_at("d").beta == 0.5
        assert model.utility_at("u").beta == 1.0
        assert model.trading_stages == frozenset({0})
        back = market.market_to_dict(model)
        assert back["trading_stages"] == [0]
        assert back["tree"][2]["data"]["utility"]["gamma"] == 3.0
        with pytest.raises(market.InvalidModel, match="non-leaf"):
            bad = self.model_dict()
            bad["tree"][0]["data"]["utility"] = {"kind": "sshaped", "gamma": 2, "kappa": 1, "beta": 1}
            p2 = tmp_path / "bad.json"
            p2.write_text(json.dumps(bad))
            market.load_market(str(p2))

    def test_constraints_parsed(self, tmp_path):
        d = self.model_dict()
        d["constraints"] = {"0": {"lower": [-1], "upper": ["inf"]}}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(d))
        model = market.load_market(str(p))
        lo, up = model.holdings_bounds(0)
        assert lo[0] == -1.0 and up[0] == INF


def _rules_base() -> market.MarketModel:
    tree = binomial_tree(2)
    return market.MarketModel(
        tree=tree, n_risky=1, prices=binomial_prices(tree, 1.0, 1.2, 0.85),
        cost=market.PowerIlliquidity(0.1, 2.0), utility=market.SShapedUtility(2.0, 1.0, 1.0))


_BOX = (np.array([-1.0]), np.array([1.0]))
_U = market.SShapedUtility(3.0, 1.0, 2.0)


# (field, key, bad): "uu" is a leaf, "u" an interior node, "zz" no node; the
# stages that decide are 0 and 1
_KEYED = [
    ("claims", "uu", False), ("claims", "u", False), ("claims", "zz", True),
    ("endowment", "uu", False), ("endowment", "u", True), ("endowment", "zz", True),
    ("utility_overrides", "uu", False), ("utility_overrides", "u", True),
    ("utility_overrides", "zz", True),
    ("per_node", "u", False), ("per_node", "zz", True),
    ("prices", "zz", True),
    ("constraints", 0, False), ("constraints", 1, False), ("constraints", 2, True),
    ("constraints", -1, True),
    ("trading_stages", 0, False), ("trading_stages", 2, True), ("trading_stages", -1, True),
]


def _keyed_api(model: market.MarketModel, field: str, key):
    values = {"claims": 0.1, "endowment": 0.2, "utility_overrides": _U}
    if field in values:
        return dataclasses.replace(model, **{field: {key: values[field]}})
    if field == "per_node":
        return dataclasses.replace(model, cost=market.PowerIlliquidity(0.1, 2.0, {key: (0.5, 3.0)}))
    if field == "prices":
        return dataclasses.replace(model, prices={**model.prices, key: [1.0]})
    if field == "constraints":
        return dataclasses.replace(model, constraints={key: _BOX})
    return dataclasses.replace(model, trading_stages=frozenset({key}))


def _keyed_json(spec: dict, field: str, key) -> dict | None:
    """The same field in a market file, or None where a file cannot name it
    (node data can only sit at a node of the tree)."""
    data = {r["id"]: r["data"] for r in spec["tree"]}
    if field in ("claims", "endowment", "utility_overrides", "prices"):
        if key not in data or field == "prices":
            return None
        name = {"claims": "claim", "endowment": "endowment", "utility_overrides": "utility"}[field]
        data[key][name] = 0.1 if field == "claims" else (
            0.2 if field == "endowment" else market._kind_to_dict(_U, market.UTILITIES))
    elif field == "per_node":
        spec["cost"]["per_node"] = {key: [0.5, 3.0]}
    elif field == "constraints":
        spec["constraints"] = {str(key): {"lower": [-1.0], "upper": [1.0]}}
    else:
        spec["trading_stages"] = [key]
    return spec


def _int_parameters(model: market.MarketModel) -> market.MarketModel:
    """``model`` with its scalar parameters built from ints."""
    cost = model.cost
    if not cost.is_frictionless():
        cost = market.PowerIlliquidity(1, 2, per_node={k: (2, 3) for k in cost.per_node or {}})
    u = market.SShapedUtility(2, 1, 1)
    return dataclasses.replace(
        model, initial_cash=1, cash_lower=-5 if model.cash_lower is not None else None,
        cost=cost, utility=u, utility_overrides={k: u for k in model.utility_overrides})


class TestOneSetOfRules:
    @pytest.mark.parametrize("field, key, bad", _KEYED,
                             ids=[f"{f}-{k}" for f, k, _ in _KEYED])
    def test_api_and_check_reject_the_same_keys(self, field, key, bad, tmp_path, capsys):
        """``MarketModel`` raises InvalidModel exactly when ``treedp check``
        on the same fields as JSON prints ``error:`` and exits 1."""
        from treedp import cli

        base = _rules_base()
        try:
            _keyed_api(base, field, key)
            api_rejects = False
        except market.InvalidModel:
            api_rejects = True
        assert api_rejects == bad
        spec = _keyed_json(market.market_to_dict(base), field, key)
        if spec is None:
            return
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        try:
            code = cli.main(["check", str(path), "--out", str(tmp_path / "o")])
        except SystemExit as e:
            code = e.code
        err = capsys.readouterr().err
        assert (code == 1 and err.startswith("error:")) == api_rejects, (code, err)

    @pytest.mark.parametrize("field, obj, key", [
        ("cost", market.Frictionless(), "per_node"),
        ("cost", market.PowerIlliquidity(0.1, 2.0), "coef"),
        ("utility", _U, "gama"),
        ("utility", market.SampledUtility([0.0, 1.0], [0.0, 1.0], 1.0, 0.0), "slope"),
        ("override", _U, "betta"),
    ], ids=["frictionless-per_node", "power-coef", "sshaped-gama", "sampled-slope",
            "override-betta"])
    def test_api_and_check_reject_keys_a_kind_does_not_have(self, field, obj, key, tmp_path,
                                                            capsys):
        """A cost or utility has no field its class lacks: the API cannot
        take one, and ``treedp check`` names it instead of dropping it."""
        from treedp import cli

        with pytest.raises(TypeError, match=key):
            dataclasses.replace(obj, **{key: 1.0})
        table = market.COSTS if field == "cost" else market.UTILITIES
        entry = {**market._kind_to_dict(obj, table), key: 1.0}
        spec = market.market_to_dict(_rules_base())
        if field == "override":
            next(r for r in spec["tree"] if r["id"] == "uu")["data"]["utility"] = entry
        else:
            spec[field] = entry
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        try:
            code = cli.main(["check", str(path), "--out", str(tmp_path / "o")])
        except SystemExit as e:
            code = e.code
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and f"unknown key {key!r}" in err, err
        del entry[key]  # without the key, the same file checks
        path.write_text(json.dumps(spec))
        assert cli.main(["check", str(path), "--out", str(tmp_path / "o")]) in (0, 2)
        capsys.readouterr()

    def test_round_trip_of_models_the_api_accepts(self):
        from test_ingestion import power_model

        rng = np.random.default_rng(21)
        for i in range(60):
            model = ragged_frictionless_model(rng) if i % 2 else power_model(rng)
            T = model.tree.horizon
            if rng.random() < 0.3:
                model = dataclasses.replace(model, trading_stages=frozenset(
                    t for t in range(T) if rng.random() < 0.5))
            if i % 3 == 0:
                model = _int_parameters(model)
            spec = market.market_to_dict(model)
            back = market.market_to_dict(market.market_from_dict(json.loads(json.dumps(spec))))
            # as text, from the first trip on: every number the model holds is
            # written as a float, and a claim of -0.0 keeps its sign
            assert json.dumps(back) == json.dumps(spec)

    def test_rejects_prices_at_unknown_node(self):
        model = sshaped_t2_model()
        with pytest.raises(market.InvalidModel, match="prices at unknown node 'zz'"):
            dataclasses.replace(model, prices={**model.prices, "zz": np.array([1.0])})
