import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treedp as td
from treedp.tree import PROB_TOL

from conftest import binomial_tree


def tiny_tree():
    return td.ScenarioTree([
        td.Node("r", 0, None, 1.0),
        td.Node("u", 1, "r", 0.5),
        td.Node("d", 1, "r", 0.5),
    ])


class TestValidate:
    def test_bad_probability_sum(self):
        tree = td.ScenarioTree([
            td.Node("r", 0, None, 1.0),
            td.Node("c", 1, "r", 1.2),
        ])
        violations = td.validate(tree)
        assert any("sum" in v for v in violations)

    def test_single_root_is_valid(self):
        tree = td.ScenarioTree([td.Node("r", 0, None, 1.0)])
        assert td.validate(tree) == []
        assert tree.horizon == 0

    def test_binomial_two_period_valid(self):
        assert td.validate(binomial_tree(2)) == []

    def test_two_roots(self):
        tree = td.ScenarioTree([td.Node("a", 0, None), td.Node("b", 0, None)])
        assert any("one root" in v for v in td.validate(tree))

    def test_bad_stage(self):
        tree = td.ScenarioTree([
            td.Node("r", 0, None),
            td.Node("x", 2, "r", 1.0),
        ])
        violations = td.validate(tree)
        assert any("stage" in v for v in violations)

    def test_unknown_parent(self):
        tree = td.ScenarioTree([
            td.Node("r", 0, None),
            td.Node("x", 1, "ghost", 1.0),
        ])
        assert any("unknown parent" in v for v in td.validate(tree))

    def test_childless_interior(self):
        tree = td.ScenarioTree([
            td.Node("r", 0, None),
            td.Node("a", 1, "r", 0.5),
            td.Node("b", 1, "r", 0.5),
            td.Node("aa", 2, "a", 1.0),
        ])
        assert any("no children" in v for v in td.validate(tree))

    def test_duplicate_ids_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate"):
            td.ScenarioTree([td.Node("r", 0, None), td.Node("r", 0, None)])


class TestConditionalExpectation:
    def test_mean(self):
        tree = tiny_tree()
        out = tree.conditional_expectation(0, {"u": 1.0, "d": 3.0})
        assert out == {"r": 2.0}

    def test_inf_propagates(self):
        tree = td.ScenarioTree([
            td.Node("r", 0, None, 1.0),
            td.Node("u", 1, "r", 0.9),
            td.Node("d", 1, "r", 0.1),
        ])
        out = tree.conditional_expectation(0, {"u": 5.0, "d": math.inf})
        assert out["r"] == math.inf

    def test_constant(self):
        tree = td.ScenarioTree([
            td.Node("r", 0, None, 1.0),
            td.Node("a", 1, "r", 0.2),
            td.Node("b", 1, "r", 0.3),
            td.Node("c", 1, "r", 0.5),
        ])
        out = tree.conditional_expectation(0, {"a": 2.0, "b": 2.0, "c": 2.0})
        assert out["r"] == pytest.approx(2.0, abs=1e-15)

    def test_stage_out_of_range(self):
        tree = tiny_tree()
        with pytest.raises(ValueError, match="out of range"):
            tree.conditional_expectation(1, {})


class TestPath:
    def test_degenerate(self):
        tree = td.ScenarioTree([td.Node("r", 0, None)])
        assert tree.path("r") == ["r"]

    def test_binomial(self):
        tree = binomial_tree(2)
        assert tree.path("uu") == ["r", "u", "uu"]

    def test_trinomial(self):
        tree = td.ScenarioTree([
            td.Node("r", 0, None),
            td.Node("l", 1, "r", 0.3),
            td.Node("m", 1, "r", 0.3),
            td.Node("h", 1, "r", 0.4),
        ])
        assert tree.path("m") == ["r", "m"]

    def test_non_leaf_rejected(self):
        tree = binomial_tree(2)
        with pytest.raises(ValueError, match="not a leaf"):
            tree.path("u")
        with pytest.raises(KeyError):
            tree.path("nope")


@st.composite
def random_trees(draw):
    """Small random trees with rational-ish probabilities."""
    T = draw(st.integers(min_value=1, max_value=3))
    rng_nodes = [td.Node("r", 0, None, 1.0)]
    frontier = ["r"]
    for t in range(1, T + 1):
        nxt = []
        for nid in frontier:
            k = draw(st.integers(min_value=1, max_value=3))
            weights = [draw(st.integers(min_value=1, max_value=5)) for _ in range(k)]
            tot = sum(weights)
            for i, w in enumerate(weights):
                cid = f"{nid}.{i}"
                rng_nodes.append(td.Node(cid, t, nid, w / tot))
                nxt.append(cid)
        frontier = nxt
    return td.ScenarioTree(rng_nodes)


class TestProperties:
    @given(random_trees(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_tower_property(self, tree, seed):
        assert td.validate(tree) == []
        rng = np.random.default_rng(seed)
        leaf_vals = {n.id: float(v) for n, v in zip(tree.leaves, rng.uniform(-5, 5, len(tree.leaves)))}
        nested = leaf_vals
        for t in range(tree.horizon - 1, -1, -1):
            nested = tree.conditional_expectation(t, nested)
        nested = nested[tree.root.id]
        direct = sum(tree.probability(n.id) * leaf_vals[n.id] for n in tree.leaves)
        assert nested == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_linearity(self):
        tree = binomial_tree(2)
        rng = np.random.default_rng(3)
        v = {n.id: float(x) for n, x in zip(tree.nodes_at(2), rng.uniform(-1, 1, 4))}
        w = {n.id: float(x) for n, x in zip(tree.nodes_at(2), rng.uniform(-1, 1, 4))}
        a, b = 2.5, -0.75
        combo = {k: a * v[k] + b * w[k] for k in v}
        lhs = tree.conditional_expectation(1, combo)
        ev = tree.conditional_expectation(1, v)
        ew = tree.conditional_expectation(1, w)
        for nid in lhs:
            assert lhs[nid] == pytest.approx(a * ev[nid] + b * ew[nid], rel=1e-12)

    def test_monotone(self):
        tree = binomial_tree(2)
        rng = np.random.default_rng(4)
        v = {n.id: float(x) for n, x in zip(tree.nodes_at(2), rng.uniform(-1, 1, 4))}
        w = {k: v[k] + float(x) for k, x in zip(v, rng.uniform(0, 1, 4))}
        ev = tree.conditional_expectation(1, v)
        ew = tree.conditional_expectation(1, w)
        assert all(ev[nid] <= ew[nid] + 1e-15 for nid in ev)

    def test_leaf_probabilities_sum_to_one(self):
        tree = binomial_tree(3)
        total = sum(tree.probability(n.id) for n in tree.leaves)
        assert total == pytest.approx(1.0, abs=PROB_TOL * 10)


class TestAdaptedSequence:
    def test_algebra(self):
        x = td.AdaptedSequence({"r": np.array([1.0, 2.0])})
        y = td.AdaptedSequence({"r": np.array([0.5, -1.0])})
        z = x + y.scaled(2.0)
        assert np.allclose(z.at("r"), [2.0, 0.0])
        assert x.norm() == pytest.approx(3.0)

    def test_mismatched_nodes(self):
        x = td.AdaptedSequence({"r": np.array([1.0])})
        y = td.AdaptedSequence({"q": np.array([1.0])})
        with pytest.raises(ValueError):
            x + y


class TestJson:
    def test_round_trip(self, tmp_path):
        tree = binomial_tree(2)
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(td.tree.tree_to_records(tree)))
        loaded = td.load_tree(str(path))
        assert loaded.horizon == 2
        assert [n.id for n in loaded.nodes] == [n.id for n in tree.nodes]

    def test_loader_rejects_invalid(self, tmp_path):
        records = [
            {"id": "r", "time": 0, "parent": None, "prob": 1.0},
            {"id": "c", "time": 1, "parent": "r", "prob": 0.7},
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(records))
        with pytest.raises(td.TreeFormatError) as err:
            td.load_tree(str(path))
        assert err.value.violations

    def test_loader_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(td.TreeFormatError, match="line"):
            td.load_tree(str(path))

    def test_loader_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps([{"id": "r", "time": "zero", "parent": None, "prob": 1}]))
        with pytest.raises(td.TreeFormatError):
            td.load_tree(str(path))
