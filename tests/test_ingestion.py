"""Byte-compared references for reading a market model in array passes.

The tree, the market model and the problem builders read their inputs
as columns.  Each test here keeps the node-by-node loop the columns
replaced (the straightforward body, one node at a time) and compares its
output with the column pass: the same arrays and dictionaries bit for
bit, the same objects where they are shared, and the same first offender
with the same message text where the input is malformed.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import reprlib

import numpy as np
import pytest

import treedp as td
from treedp import cones, dp, market
from treedp.tree import PROB_TOL, TREE_RECORD, TreeFormatError, json_object_problem

from conftest import (
    binomial_tree,
    duplicated_asset_model,
    expr_bytes,
    ragged_tree,
    random_frictionless_model,
    sshaped_t2_model,
    sshaped_t3_model,
)
from test_market import ragged_frictionless_model

INF = math.inf


# ---------------------------------------------------------------------------
# the tree
# ---------------------------------------------------------------------------


def validate_by_node(tree) -> list[str]:
    """The structural checks one node at a time, over ``Node`` records."""
    out: list[str] = []
    nodes = {n.id: n for n in tree.nodes}
    kids: dict[str, list] = {n.id: [] for n in tree.nodes}
    for n in tree.nodes:
        if n.parent is not None and n.parent in kids:
            kids[n.parent].append(n)
    T = max((n.time for n in tree.nodes), default=0)
    roots = [n for n in tree.nodes if n.parent is None]
    if len(roots) != 1:
        out.append(f"tree: expected exactly one root, found {len(roots)}")
    for n in roots:
        if n.time != 0:
            out.append(f"node {n.id}: root must be at stage 0, is at {n.time}")
        if abs(n.prob - 1.0) > PROB_TOL:
            out.append(f"node {n.id}: root conditional probability must be 1")
    for n in tree.nodes:
        if n.parent is not None:
            if n.parent not in nodes:
                out.append(f"node {n.id}: unknown parent {n.parent!r}")
                continue
            p = nodes[n.parent]
            if n.time != p.time + 1:
                out.append(f"node {n.id}: stage {n.time} is not parent stage {p.time} + 1")
            if not 0.0 < n.prob <= 1.0:
                out.append(f"node {n.id}: conditional probability {n.prob} not in (0, 1]")
        if n.time < T and not kids[n.id]:
            out.append(f"node {n.id}: interior node at stage {n.time} has no children")
        if kids[n.id]:
            s = sum(c.prob for c in kids[n.id])
            if abs(s - 1.0) > PROB_TOL:
                out.append(f"node {n.id}: child probabilities sum to {s!r}, not 1")
    if not out:
        total = 0
        for leaf in (n for n in tree.nodes if n.time == T):
            node, p = leaf, leaf.prob if leaf.parent is not None else 1.0
            while node.parent is not None:
                node = nodes[node.parent]
                if node.parent is not None:
                    p *= node.prob
            total += p
        if abs(total - 1.0) > 1e-9:
            out.append(f"tree: leaf probabilities sum to {total!r}, not 1")
    return out


def arrays_by_node(tree) -> dict:
    """The array layout built from the ``Node`` records one at a time."""
    nodes = tree.nodes
    index = {n.id: i for i, n in enumerate(nodes)}
    stages: dict[int, list[int]] = {}
    for i, n in enumerate(nodes):
        stages.setdefault(n.time, []).append(i)
    stage_index = np.zeros(len(nodes), dtype=np.int64)
    for p in stages.values():
        stage_index[p] = np.arange(len(p))
    kids = [[c for c in nodes if c.parent == n.id] for n in nodes]
    flat = [c for k in kids for c in k]
    prob = []
    for n in nodes:
        node, p = n, n.prob if n.parent is not None else 1.0
        while node.parent is not None:
            node = nodes[index[node.parent]]
            if node.parent is not None:
                p *= node.prob
        prob.append(p)
    return {
        "times": np.array([n.time for n in nodes], dtype=np.int64),
        "stage_pos": {t: np.array(p, dtype=np.int64) for t, p in stages.items()},
        "stage_index": stage_index,
        "parent_pos": np.array([index.get(n.parent, -1) if n.parent is not None else -1
                                for n in nodes], dtype=np.int64),
        "child_start": np.cumsum([0] + [len(k) for k in kids], dtype=np.int64),
        "child_pos": np.array([index[c.id] for c in flat], dtype=np.int64),
        "child_prob": np.array([c.prob for c in flat], dtype=float),
        "probabilities": np.array(prob),
    }


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def broken_tree(rng) -> td.ScenarioTree:
    """A ragged tree with a few of its invariants broken."""
    nodes = list(ragged_tree(rng, int(rng.integers(0, 4))).nodes)
    for extra in range(int(rng.integers(0, 4))):
        i = int(rng.integers(len(nodes)))
        n = nodes[i]
        kind = int(rng.integers(7))
        if kind == 0:
            nodes[i] = dataclasses.replace(n, parent="ghost")
        elif kind == 1:
            nodes[i] = dataclasses.replace(n, parent=None)
        elif kind == 2:
            nodes[i] = dataclasses.replace(n, time=n.time + int(rng.choice([1, 2, 10**20])))
        elif kind == 3:
            nodes[i] = dataclasses.replace(n, prob=float(rng.choice([0.0, -0.5, 1.5, np.nan])))
        elif kind == 4:
            nodes[i] = dataclasses.replace(n, prob=n.prob * (1 + 1e-12 * rng.integers(1, 4)))
        elif kind == 5:
            del nodes[i]
            if not nodes:
                nodes = [td.Node("r", 0, None)]
        else:
            nodes.append(td.Node(f"x{extra}", n.time + 1, n.id, 1.0))
    return td.ScenarioTree(nodes)


class TestTree:
    def test_violations_match_the_node_loop(self):
        rng = np.random.default_rng(1)
        kinds = set()
        for _ in range(400):
            tree = broken_tree(rng)
            want = validate_by_node(tree)
            assert td.validate(tree) == want
            kinds.update(v.split(": ", 1)[1].split(" ")[0] for v in want)
        assert len(kinds) >= 7  # every kind of violation came up

    def test_near_tolerance_sums_keep_their_bits(self):
        # child sums a few ulps from the tolerance, and a leaf mass off by
        # more than 1e-9 that only the left-to-right product shows
        for eps in (0.5e-12, 0.99e-12, 1.01e-12, 2e-12):
            tree = td.ScenarioTree([td.Node("r", 0, None), td.Node("a", 1, "r", 0.3),
                                    td.Node("b", 1, "r", 0.7 + eps)])
            assert td.validate(tree) == validate_by_node(tree)
        tree = td.ScenarioTree([td.Node("r", 0, None), td.Node("a", 1, "r", 1.0 - 5e-13),
                                td.Node("aa", 2, "a", 1.0 - 5e-13), td.Node("ab", 2, "a", 5e-13)])
        assert td.validate(tree) == validate_by_node(tree)

    def test_arrays_match_the_node_loop(self):
        rng = np.random.default_rng(2)
        for T in (0, 1, 2, 3, 4):
            for _ in range(10):
                tree = ragged_tree(rng, T)
                want = arrays_by_node(tree)
                for key in ("times", "stage_index", "parent_pos", "child_start", "child_pos",
                            "child_prob", "probabilities"):
                    assert same(getattr(tree, key), want[key]), key
                assert set(want["stage_pos"]) == set(range(T + 1))
                for t, P in want["stage_pos"].items():
                    assert same(tree.positions_at(t), P)
                    assert tree.ids_at(t) == tuple(tree.nodes[p].id for p in P)
                assert [tree.probability(n.id) for n in tree.nodes] == \
                    want["probabilities"].tolist()

    def test_columns_build_the_same_nodes(self):
        tree = ragged_tree(np.random.default_rng(3), 3)
        nodes = tree.nodes
        again = td.ScenarioTree.from_columns(
            [n.id for n in nodes], [n.time for n in nodes], [n.parent for n in nodes],
            [n.prob for n in nodes], [n.data for n in nodes])
        assert again.node(nodes[4].id) == nodes[4]  # one record, before the others
        assert again.nodes == nodes
        assert again.children(nodes[0].id) == tree.children(nodes[0].id)


def records_by_record(records) -> td.ScenarioTree:
    """The loader's record checks one record at a time, then the tree."""
    if not isinstance(records, list):
        raise TreeFormatError(f"tree record at <root>: {reprlib.repr(records)} is not an array")
    for i, r in enumerate(records):
        problem = json_object_problem(r, *TREE_RECORD)
        if problem is not None:
            raise TreeFormatError(f"tree record at {i}: {problem}")
    nodes = [td.Node(r["id"], int(r["time"]), r["parent"], float(r["prob"]), r.get("data", {}))
             for r in records]
    try:
        tree = td.ScenarioTree(nodes)
    except ValueError as e:
        raise TreeFormatError(str(e)) from None
    violations = validate_by_node(tree)
    if violations:
        raise TreeFormatError("invalid tree: " + "; ".join(violations), violations=violations)
    return tree


_ODD_VALUES = [None, True, False, 0, 0.0, -1, 1.5, 2**70, "x", "0", [], {}, float("nan")]


def outcome(fn, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except (TreeFormatError, market.InvalidModel, ValueError) as e:
        return type(e).__name__, str(e)


class TestRecords:
    def test_first_offender_matches_the_record_loop(self):
        rng = np.random.default_rng(4)
        base = td.tree.tree_to_records(ragged_tree(rng, 2))
        for _ in range(600):
            records = copy.deepcopy(base)
            for _ in range(int(rng.integers(1, 3))):
                r = records[int(rng.integers(len(records)))]
                key = str(rng.choice(["id", "time", "parent", "prob", "data", "extra"]))
                if not isinstance(r, dict):
                    continue
                if rng.random() < 0.2:
                    r.pop(key, None)
                elif rng.random() < 0.1:
                    records[records.index(r)] = _ODD_VALUES[int(rng.integers(len(_ODD_VALUES)))]
                else:
                    r[key] = copy.deepcopy(_ODD_VALUES[int(rng.integers(len(_ODD_VALUES)))])
            want = outcome(records_by_record, records)
            got = outcome(td.tree.tree_from_records, records)
            assert got[0] == want[0], (records, got, want)
            if want[0] == "ok":
                assert got[1].nodes == want[1].nodes
            else:
                assert got[1] == want[1]


# ---------------------------------------------------------------------------
# the market model
# ---------------------------------------------------------------------------


def model_error_by_node(tree, n_risky, prices, claims=(), endowment=(), overrides=(),
                        per_node=()) -> str | None:
    """The model's node-keyed checks one entry at a time: the first message."""
    claims, endowment = dict(claims), dict(endowment)
    for node in tree.nodes:
        if node.id not in prices:
            return f"no prices at node {node.id!r}"
        z = np.atleast_1d(np.asarray(prices[node.id], dtype=float))
        if z.shape != (n_risky,):
            return f"prices at {node.id!r} have shape {z.shape}, want ({n_risky},)"
        if not np.isfinite(z).all():
            return f"prices at {node.id!r} are not finite: {z.tolist()}"
    for nid in prices:  # rejected since prices became one array
        if nid not in tree:
            return f"prices at unknown node {nid!r}"
    for nid, v in claims.items():
        if nid not in tree:
            return f"claim at unknown node {nid!r}"
        if not math.isfinite(v):
            return f"claim at {nid!r} is not finite: {v}"
    for nid, v in endowment.items():
        if nid not in tree:
            return f"endowment at unknown node {nid!r}"
        if not tree.is_leaf(nid):
            return f"endowment at non-leaf node {nid!r}"
        if not math.isfinite(v):
            return f"endowment at {nid!r} is not finite: {v}"
    for nid in overrides:
        if nid not in tree:
            return f"utility override at unknown node {nid!r}"
        if not tree.is_leaf(nid):
            return f"utility override at non-leaf node {nid!r}"
    for nid in per_node:
        if nid not in tree:
            return f"cost parameters at unknown node {nid!r}"
    return None


class TestModelChecks:
    def test_first_offender_matches_the_node_loop(self):
        rng = np.random.default_rng(5)
        tree = ragged_tree(rng, 3)
        ids = [n.id for n in tree.nodes]
        leaves = [n.id for n in tree.leaves]
        inner = [i for i in ids if i not in leaves]
        odd_rows = [[1.0, 2.0], [[1.0]], [], [INF], [np.nan], 1.5, ["inf"], np.array([2.0])]
        for _ in range(500):
            prices = {i: [float(v)] for i, v in zip(ids, rng.uniform(0.5, 2.0, len(ids)))}
            fields = {"claims": {}, "endowment": {}, "overrides": {}, "per_node": {}}
            for _ in range(int(rng.integers(0, 4))):
                kind = int(rng.integers(7))
                nid = str(rng.choice(ids + ["zz"]))
                if kind == 0:
                    prices.pop(str(rng.choice(ids)), None)
                elif kind == 1:
                    prices[nid] = odd_rows[int(rng.integers(len(odd_rows)))]
                elif kind == 2:
                    fields["claims"][nid] = float(rng.choice([0.5, INF, np.nan]))
                elif kind == 3:
                    fields["endowment"][str(rng.choice(leaves + inner + ["zz"]))] = \
                        float(rng.choice([0.5, -INF]))
                elif kind == 4:
                    fields["overrides"][str(rng.choice(leaves + inner + ["zz"]))] = \
                        market.SShapedUtility(2.0, 1.0, 1.0)
                else:
                    fields["per_node"][nid] = (0.5, 3.0)
            want = model_error_by_node(tree, 1, prices, **{k: v.items() if k in (
                "claims", "endowment") else v for k, v in fields.items()})
            cost = (market.PowerIlliquidity(0.1, 2.0, per_node=fields["per_node"])
                    if fields["per_node"] else market.Frictionless())
            got = outcome(lambda: market.MarketModel(
                tree=tree, n_risky=1, prices=prices, cost=cost,
                utility=market.SShapedUtility(2.0, 1.0, 1.0), claims=fields["claims"],
                endowment=fields["endowment"], utility_overrides=fields["overrides"]))
            assert got == (("ok", got[1]) if want is None else ("InvalidModel", want)), fields

    def test_prices_become_one_read_only_array(self):
        model = sshaped_t2_model()
        Z = model.price_array
        assert Z.shape == (len(model.tree), 1) and not Z.flags.writeable
        for i, n in enumerate(model.tree.nodes):
            assert model.Z(n.id) is model.prices[n.id]
            assert same(model.prices[n.id], Z[i])
        assert list(model.prices) == [n.id for n in model.tree.nodes]


def read_by_node(d):
    """The loader's node loop: each node's fields read and checked in turn
    (booleans excepted, which the loader now rejects)."""
    tree = td.tree.tree_from_records(d["tree"])
    prices, claims, endowment, overrides = {}, {}, {}, {}
    for node in tree.nodes:
        data = node.data
        if "Z" not in data:
            raise market.InvalidModel(f"node {node.id!r} carries no prices (data.Z)")
        where = f"node {node.id!r}"
        prices[node.id] = market._number(data, "Z", where, array=True)
        if "claim" in data:
            claims[node.id] = market._number(data, "claim", where)
        if "endowment" in data:
            endowment[node.id] = market._number(data, "endowment", where)
        if "utility" in data:
            overrides[node.id] = market._kind_from_dict(
                data["utility"], market.UTILITIES, "utility", f"utility at {where}")
    return market.MarketModel(
        tree=tree, n_risky=int(d["assets"]), prices=prices,
        cost=market._kind_from_dict(d["cost"], market.COSTS, "cost", "cost"),
        utility=market._kind_from_dict(d["utility"], market.UTILITIES, "utility", "utility"),
        claims=claims, endowment=endowment, initial_cash=float(d.get("initial_cash", 0.0)),
        utility_overrides=overrides,
    )


class TestLoader:
    def test_node_fields_match_the_node_loop(self):
        rng = np.random.default_rng(6)
        model = ragged_frictionless_model(np.random.default_rng(8))
        base = market.market_to_dict(dataclasses.replace(model, constraints=None,
                                                         cash_lower=None))
        values = [None, "x", "inf", "-inf", "1e-3", [], [1.0, 2.0], [[1.0]], [1.0], 2.5, -0.0,
                  [float("nan")], ["inf"], {"kind": "sshaped"}, {"kind": "nope"}]
        seen = set()
        for _ in range(400):
            d = copy.deepcopy(base)
            for _ in range(int(rng.integers(1, 4))):
                data = d["tree"][int(rng.integers(len(d["tree"])))]["data"]
                key = str(rng.choice(["Z", "claim", "endowment", "utility"]))
                if rng.random() < 0.25:
                    data.pop(key, None)
                else:
                    data[key] = copy.deepcopy(values[int(rng.integers(len(values)))])
            want = outcome(read_by_node, d)
            got = outcome(market.market_from_dict, d)
            seen.add(want[0])
            assert got[0] == want[0], (got, want)
            if want[0] == "ok":
                assert market.market_to_dict(got[1]) == market.market_to_dict(want[1])
            else:
                assert got[1] == want[1]
        assert seen == {"ok", "InvalidModel"}


# ---------------------------------------------------------------------------
# the problem builders
# ---------------------------------------------------------------------------


def position_data_by_node(model):
    """Claims, endowments, cost groups, grids inputs and local keys one node at a time."""
    tree = model.tree
    nodes = tree.nodes
    claim = np.array([model.claim(n.id) for n in nodes])
    endow = np.array([model.endow(n.id) for n in nodes])
    reps: dict = {}
    group_of = [reps.setdefault(tuple(model.cost.params_at(n.id)), n) for n in nodes]
    params = np.array([model.cost.params_at(n.id) for n in nodes], dtype=float)
    Z = np.array([model.Z(n.id) for n in nodes]).reshape(len(nodes), model.n_risky)
    local = np.column_stack([Z, claim, endow, params.reshape(len(nodes), -1)])
    return {
        "claim": claim, "endow": endow, "Z": Z,
        "groups": [list(reps.values()).index(r) for r in group_of],
        "params": [tuple(model.cost.params_at(n.id)) for n in reps.values()],
        "local_keys": {n.id: row.tobytes() for n, row in zip(nodes, local)},
    }


def default_grids_by_node(model, radius, points, cash_points):
    tree = model.tree
    J, T = model.n_risky, tree.horizon
    max_z = max((float(np.abs(model.Z(n.id)).max()) for n in tree.nodes), default=1.0)
    max_claim = max((abs(model.claim(n.id)) for n in tree.nodes), default=0.0)
    trade = np.full((1, J), 2.0 * radius)
    max_cost = max((float(model.cost.cost_many(model.cost.params_at(n.id), trade)[0])
                    for n in tree.nodes), default=0.0)
    span = T * (2.0 * radius * J * max_z + max_cost + max_claim) + 0.5
    x0 = model.initial_cash
    cash_ax = market._axis(x0 - span, x0 + span, cash_points)
    phi_ax = market._axis(-radius, radius, points)
    return {t: (cash_ax,) + (phi_ax,) * J for t in range(T)}


def free_disposal_by_node(model) -> dict:
    neg = [n.id for n in model.tree.nodes if (model.Z(n.id) < 0).any()]
    if neg:
        return {"status": "fails",
                "note": f"negative marginal prices at {neg[:4]}: disposal can earn money"}
    if model.cost.is_frictionless():
        return {"status": "holds",
                "note": "linear cost with nonnegative prices is monotone everywhere"}
    radius = INF
    for node in model.tree.nodes:
        lam, p = model.cost.params_at(node.id)
        z = model.Z(node.id)
        zmin = np.minimum.reduce(z)
        with np.errstate(over="ignore"):
            ratio = zmin / (lam * p)
            r = ratio ** (1.0 / (p - 1.0))
            if ratio == INF:
                r = np.exp((np.log(zmin) - np.log(lam * p)) / (p - 1.0))
        radius = min(radius, float(r))
    if not math.isfinite(radius):
        return {"status": "undecided",
                "note": "the monotone radius (Z_i/(coeff*exponent))**(1/(exponent-1)) "
                        "overflows at every node (not finite): no region to state"}
    return {"status": "holds",
            "note": f"closed form: nondecreasing in each d_i where d_i >= 0 or |d_i| <= "
                    f"{radius!r}, the least (Z_i/(coeff*exponent))**(1/(exponent-1)) "
                    f"over nodes and assets"}


def power_model(rng):
    """A ragged power-cost model with per-node parameters, some shared."""
    model = ragged_frictionless_model(rng)
    ids = [n.id for n in model.tree.nodes]
    pool = [(0.5, 3.0), (0.2, 1.5), (0.1, 2.0), (0.1, 2)]
    per_node = {i: pool[int(rng.integers(len(pool)))] for i in ids if rng.random() < 0.4}
    # prices in [0.25, 1] times the scale: at 1e308 the ratio Z/(coeff*exponent)
    # overflows at some nodes and the radius is taken in log space
    scale = float(rng.choice([1.0, 1e300, 1e308]))
    prices = {i: model.Z(i) / 2.0 * scale for i in ids}
    return dataclasses.replace(model, prices=prices, cost=market.PowerIlliquidity(
        0.1, 2.0, per_node=per_node or None))


def builder_models():
    rng = np.random.default_rng(9)
    yield from (sshaped_t2_model(), sshaped_t3_model(), duplicated_asset_model())
    for _ in range(12):
        yield ragged_frictionless_model(rng)
        yield random_frictionless_model(rng)
        yield power_model(rng)


class TestBuilders:
    def test_inputs_match_the_node_loop(self):
        for model in builder_models():
            want = position_data_by_node(model)
            for key, got in (("claim", model.claim_array), ("endow", model.endowment_array),
                             ("Z", model.price_array)):
                assert same(got, want[key]), key
            groups, params = model.cost_groups
            assert groups.tolist() == want["groups"] and params == want["params"]
            for lead, build in enumerate((market.build_problem_cash,
                                          market.build_problem_terminal)):
                problem = build(model, radius=1.5, points=5)
                assert problem.local_keys == want["local_keys"]
                grids = default_grids_by_node(model, 1.5, 5, 9 if lead else 5)
                got = problem.meta["grids"]
                assert list(got) == list(grids)
                assert all(same(a, b) for t in grids for a, b in zip(got[t], grids[t]))
                report = problem.meta["validation"]
                assert report.conditions["free_disposal"] == free_disposal_by_node(model)

    def test_row_groups_match_the_object_loop(self):
        rng = np.random.default_rng(10)
        tree = ragged_tree(rng, 3)
        pool = [None, "a", 1.5, -0.0, object()]
        for _ in range(20):
            objs = [pool[int(rng.integers(len(pool)))] if rng.random() < 0.7 else pool[1]
                    for _ in tree.nodes]
            groups = dp.RowGroups(objs, tree.times)
            first: dict[int, int] = {}
            for obj in objs:
                first.setdefault(id(obj), len(first))
            assert [id(o) for o in groups.objs] == list(first)
            assert groups.gid.tolist() == [first[id(o)] for o in objs]
            for t in range(tree.horizon + 1):
                g = groups.gid[tree.times == t]
                assert groups.stage_gid[t] == (g[0] if (g == g[0]).all() else -1)

    def test_path_objectives_are_built_on_first_read(self):
        model = sshaped_t3_model()
        model = dataclasses.replace(model, cost=market.Frictionless(), trading_stages=None)
        problem = market.build_problem_cash(model)
        paths = problem.meta["path_objectives"]
        assert not paths._made  # nothing built yet
        leaf = model.tree.leaves[3].id
        assert paths[leaf] is paths[leaf] and len(paths._made) == 1
        assert len(paths) == len(model.tree.leaves) and leaf in paths

    def test_projection_composes_on_first_read(self):
        problem = market.build_problem_cash(duplicated_asset_model())
        directions = cones.null_space(problem)
        projected = cones.project_problem(problem, directions)
        paths = projected.meta["path_objectives"]
        assert not paths._made and not problem.meta["path_objectives"]._made
        want = projected_paths_eagerly(problem, directions)
        assert list(paths) == list(want)
        for leaf, f in want.items():
            assert expr_bytes(paths[leaf]) == expr_bytes(f)


def projected_paths_eagerly(problem, directions) -> dict:
    """Every leaf's projected path objective at once, from per-node bases
    stacked node by node."""
    tree = problem.tree
    nodes = problem.decision_nodes()
    null: dict[tuple, list[str]] = {}
    for node in nodes:
        basis = directions.per_node.get(node.id)
        if basis is not None and basis.size:
            null.setdefault((node.time, basis.shape), []).append(node.id)
    complement = {}
    for ids in null.values():
        complement.update(zip(ids, cones.kernel_bases(
            np.stack([directions.per_node[i].T for i in ids]))))
    qmap = {n.id: complement.get(n.id, np.eye(problem.decision_dim(n.id))) for n in nodes}
    stages = sorted({n.time for n in nodes})
    bases = {t: np.stack([qmap[n.id] for n in tree.nodes_at(t)]) for t in stages}
    blocks = np.zeros((len(tree.leaves), sum(Q.shape[1] for Q in bases.values()),
                       sum(Q.shape[2] for Q in bases.values())))
    r = c = 0
    for t in stages:
        _, d, k = bases[t].shape
        blocks[:, r : r + d, c : c + k] = bases[t][tree.stage_index[tree.ancestors[:, t]]]
        r, c = r + d, c + k
    paths = problem.meta["path_objectives"]
    return {leaf.id: td.AffinePrecompose(paths[leaf.id], B) for leaf, B in zip(tree.leaves, blocks)}
