"""Existence-condition verification.

The backward recursion is only guaranteed to have minimizers when the
objective's horizon function is positive along every nonzero adapted
direction.  This module decides that condition:

* analytically for market models with superlinear total costs;
* by polyhedral cone propagation through the tree for problems whose
  per-leaf objectives have exact symbolic horizons (each leaf contributes
  the halfspace rows R of its horizon's zero sublevel set, restricted to
  the decisions on its path; the adapted cone {R y <= 0} is {0} iff
  ker R = {0} and the cone is a subspace, one SVD and one bounded LP);
* by sphere sampling otherwise, in which case only a found witness is
  conclusive and the verdict is otherwise "undecided".

When the condition fails because null directions form a linear space, the
problem can be restricted to the orthogonal complement of those
directions per stage without changing the optimal value; ``null_space``
computes the per-node subspaces exactly for linear/polyhedral structure
(one kernel per stage) and ``project_problem`` applies the restriction.
A classical frictionless no-arbitrage search is included as an
independent reference check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.optimize import linprog

from . import efun
from ._polyhedral import (
    cone_certificate,
    cone_is_subspace,
    kernel_basis,
    orthonormal_complement,
)
from .dp import Problem, StateMap, write_csv_rows
from .efun import AffinePrecompose, ExtFun, Sum
from .tree import AdaptedSequence, ScenarioTree

INF = math.inf
WITNESS_TOL = 1e-9


class NotASubspace(RuntimeError):
    """The null directions form a cone but not a linear space.

    Existence is then not guaranteed by the linear-space route; the
    offending one-sided direction is attached.
    """

    def __init__(self, message: str, ray: Mapping[str, np.ndarray] | None = None):
        super().__init__(message)
        self.ray = ray


class InexactNullSpace(RuntimeError):
    """Refusing to project with a null space that is not certified exact."""


class ModelNotFrictionless(ValueError):
    """The classical no-arbitrage check applies only when costs vanish."""


@dataclass
class CheckReport:
    """Outcome of the horizon positivity check.

    A ``fails`` verdict always carries a nonzero adapted witness that has
    been re-verified against the symbolic horizon functions leaf by leaf.
    """

    verdict: str  # "holds" | "fails" | "undecided"
    witness: dict[str, list[float]] | None
    method: list[str]
    details: dict = field(default_factory=dict)

    def witness_sequence(self) -> AdaptedSequence | None:
        if self.witness is None:
            return None
        return AdaptedSequence({k: np.asarray(v, float) for k, v in self.witness.items()})

    def report_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": self.witness,
            "method": self.method,
            "details": self.details,
        }

    def export_witness_csv(self, path: str) -> None:
        """Write the witness direction as per-node rows (node, x0, x1, ...),
        in the byte format of the solver's CSV exports."""
        witness = self.witness or {}
        width = max((len(v) for v in witness.values()), default=0)
        cache: dict[int, str] = {}
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["node"] + [f"x{i}" for i in range(width)])
            for nid, vec in witness.items():
                write_csv_rows(fh, [nid], [""], np.asarray(vec, dtype=float), width, cache)


@dataclass
class DirectionSet:
    """Per-node direction subspaces (columns of each basis matrix)."""

    per_node: dict[str, np.ndarray]
    kind: str  # "exact" | "undecided"
    meta: dict = field(default_factory=dict)

    def is_trivial(self) -> bool:
        return all(b.shape[1] == 0 for b in self.per_node.values())


# ---------------------------------------------------------------------------
# adapted-coordinate plumbing
# ---------------------------------------------------------------------------


def _adapted_layout(problem: Problem) -> tuple[list[str], dict[str, tuple[int, int]], int]:
    nodes = [n.id for n in problem.decision_nodes()]
    offsets: dict[str, tuple[int, int]] = {}
    total = 0
    for nid in nodes:
        d = problem.decision_dim(nid)
        offsets[nid] = (total, total + d)
        total += d
    return nodes, offsets, total


def _leaf_selector(
    problem: Problem, leaf_id: str, offsets: Mapping[str, tuple[int, int]], total: int
) -> np.ndarray:
    rows: list[np.ndarray] = []
    for nid in problem.tree.path(leaf_id):
        d = problem.decision_dim(nid)
        if d == 0:
            continue
        a, b = offsets[nid]
        sel = np.zeros((d, total))
        sel[:, a:b] = np.eye(d)
        rows.append(sel)
    return np.vstack(rows) if rows else np.zeros((0, total))


def path_objectives(problem: Problem) -> dict[str, ExtFun] | None:
    """Per-leaf objective as an expression over the leaf's path decisions.

    Available when the builder supplied them (meta["path_objectives"]) or
    when the problem runs in history mode with symbolic stage functions;
    None otherwise (no symbolic horizon analysis possible).
    """
    explicit = problem.meta.get("path_objectives")
    if explicit is not None:
        return dict(explicit)
    if not problem.state_map.is_history:
        return None
    tree = problem.tree
    n = int(problem.state_map.dims[-1])
    cum = list(problem.state_map.dims)
    out: dict[str, ExtFun] = {}
    for leaf in tree.leaves:
        terms: list[ExtFun] = [problem.leaf_objective[leaf.id]]
        for nid in tree.path(leaf.id):
            sf = (problem.stage_funs or {}).get(nid)
            if sf is None:
                continue
            if not isinstance(sf, ExtFun):
                return None
            t = tree.node(nid).time
            k = cum[t]
            sel = np.hstack([np.eye(k), np.zeros((k, n - k))])
            terms.append(AffinePrecompose(sf, sel))
        out[leaf.id] = terms[0] if len(terms) == 1 else Sum(tuple(terms))
    return out


def _leaf_horizons(
    objs: Mapping[str, ExtFun]
) -> tuple[dict[str, ExtFun], bool, list[str]]:
    horizons: dict[str, ExtFun] = {}
    notes: list[str] = []
    exact = True
    for leaf, f in objs.items():
        H, ex, why = efun.horizon_with_flags(f)
        horizons[leaf] = H
        if not ex:
            exact = False
            notes.extend(f"{leaf}: {w}" for w in why)
    return horizons, exact, notes


def _stacked_rows(
    problem: Problem,
    horizons: Mapping[str, ExtFun],
    offsets: Mapping[str, tuple[int, int]],
    total: int,
) -> np.ndarray | None:
    stacked: list[np.ndarray] = []
    for leaf in problem.tree.leaves:
        rows = efun.sublevel_zero_cone(horizons[leaf.id])
        if rows is None:
            return None
        sel = _leaf_selector(problem, leaf.id, offsets, total)
        stacked.append(rows @ sel)
    return np.vstack(stacked) if stacked else np.zeros((0, total))


def _witness_ok(
    problem: Problem,
    horizons: Mapping[str, ExtFun],
    offsets: Mapping[str, tuple[int, int]],
    total: int,
    y: np.ndarray,
) -> tuple[bool, dict[str, float]]:
    vals: dict[str, float] = {}
    ok = np.abs(y).sum() > 0
    for leaf in problem.tree.leaves:
        sel = _leaf_selector(problem, leaf.id, offsets, total)
        v = horizons[leaf.id].value(sel @ y)
        vals[leaf.id] = v
        ok = ok and v <= WITNESS_TOL
    return ok, vals


def _split_witness(
    offsets: Mapping[str, tuple[int, int]], y: np.ndarray
) -> dict[str, list[float]]:
    return {nid: [float(v) for v in y[a:b]] for nid, (a, b) in offsets.items()}


# ---------------------------------------------------------------------------
# the positivity check
# ---------------------------------------------------------------------------


def check_horizon_positivity(
    problem: Problem, samples: int = 512, seed: int = 0
) -> CheckReport:
    """Decide whether the only adapted direction with nonpositive horizon is 0.

    This is the hypothesis under which the backward recursion is well
    defined and minimizers exist; on frictionless market fixtures it
    reduces to the classical no-arbitrage condition, which
    :func:`no_arbitrage_lp` checks independently.
    """
    method: list[str] = []
    analysis = problem.meta.get("market_analysis") or {}
    if analysis.get("cost_superlinear") and analysis.get("disutility_growth"):
        method.append("analytic: superlinear total cost pins every nonzero trade direction")
        return CheckReport("holds", None, method, {"market_analysis": dict(analysis)})

    objs = path_objectives(problem)
    if objs is None:
        return CheckReport(
            "undecided",
            None,
            ["no symbolic path objectives available for horizon analysis"],
            {},
        )
    nodes, offsets, total = _adapted_layout(problem)
    if total == 0:
        return CheckReport("holds", None, ["no decisions to check"], {})
    horizons, exact, notes = _leaf_horizons(objs)
    details: dict = {"exact_horizons": exact, "notes": notes}
    if not exact:
        # a lower bound being nonpositive proves nothing about the true
        # horizon, so no sound witness search is possible
        method.append("horizon functions are certified lower bounds only")
        return CheckReport("undecided", None, method, details)
    rows = _stacked_rows(problem, horizons, offsets, total)
    if rows is not None:
        method.append("cone propagation: polyhedral zero-sublevel rows per leaf")
        y, details["cone"] = cone_certificate(rows, total)
        if y is None:
            return CheckReport("holds", None, method, details)
        ok, vals = _witness_ok(problem, horizons, offsets, total, y)
        if ok:
            details["witness_horizon_values"] = vals
            return CheckReport("fails", _split_witness(offsets, y), method, details)
        method.append("LP direction failed re-verification; falling back to sampling")
    method.append("sphere sampling over adapted directions")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, total))
    dirs = np.vstack([np.eye(total), -np.eye(total), dirs])
    dirs /= np.abs(dirs).sum(axis=1, keepdims=True)
    for y in dirs:
        ok, vals = _witness_ok(problem, horizons, offsets, total, y)
        if ok:
            details["witness_horizon_values"] = vals
            return CheckReport("fails", _split_witness(offsets, y), method, details)
    return CheckReport("undecided", None, method, details)


# ---------------------------------------------------------------------------
# classical frictionless no-arbitrage reference
# ---------------------------------------------------------------------------


def terminal_wealth(
    tree: ScenarioTree, prices: Mapping[str, np.ndarray], strategy: Mapping[str, np.ndarray]
) -> dict[str, float]:
    """Frictionless terminal wealth per leaf of a per-node trade strategy.

    ``strategy[node]`` is the vector of risky units bought at that node's
    prices and valued at the leaf prices of every scenario through it.
    """
    out: dict[str, float] = {}
    for leaf in tree.leaves:
        z_leaf = np.asarray(prices[leaf.id], dtype=float)
        w = 0.0
        for nid in tree.path(leaf.id)[:-1]:
            if nid in strategy:
                dphi = np.asarray(strategy[nid], dtype=float)
                w += float(dphi @ (z_leaf - np.asarray(prices[nid], dtype=float)))
        out[leaf.id] = w
    return out


def no_arbitrage_lp(
    tree: ScenarioTree, prices: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray] | None:
    """Search for an arbitrage in the frictionless linear market.

    An arbitrage is an adapted trade plan with nonnegative terminal wealth
    in every scenario and positive wealth in at least one.  The search is
    a bounded linear program (trades normalized to total volume <= 1),
    exact for linear models up to LP tolerance.  Returns the strategy or
    None.
    """
    trade_nodes = [n for n in tree.nodes if n.time < tree.horizon]
    dims = {n.id: len(np.asarray(prices[n.id], dtype=float)) for n in trade_nodes}
    offsets: dict[str, tuple[int, int]] = {}
    total = 0
    for n in trade_nodes:
        offsets[n.id] = (total, total + dims[n.id])
        total += dims[n.id]
    if total == 0:
        return None
    leaves = tree.leaves
    W = np.zeros((len(leaves), total))
    for i, leaf in enumerate(leaves):
        z_leaf = np.asarray(prices[leaf.id], dtype=float)
        for nid in tree.path(leaf.id)[:-1]:
            a, b = offsets[nid]
            W[i, a:b] = z_leaf - np.asarray(prices[nid], dtype=float)
    # variables y = p - m with p, m >= 0; constraints: wealth >= 0 per leaf,
    # sum(p + m) <= 1; objective: maximize total wealth across leaves
    G = np.hstack([W, -W])
    c = -G.sum(axis=0)
    A_ub = np.vstack([-G, np.ones((1, 2 * total))])
    b_ub = np.concatenate([np.zeros(len(leaves)), [1.0]])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * (2 * total), method="highs")
    if res.status != 0 or -res.fun <= 1e-7:
        return None
    y = res.x[:total] - res.x[total:]
    y[np.abs(y) < 1e-12] = 0.0
    scale = np.abs(y).sum()
    if scale == 0:
        return None
    y = y / scale
    strategy = {nid: y[a:b].copy() for nid, (a, b) in offsets.items() if b > a}
    wealth = terminal_wealth(tree, prices, strategy)
    if min(wealth.values()) < -1e-9 or max(wealth.values()) <= 1e-12:
        return None
    return strategy


def no_arbitrage_for_model(model) -> dict[str, np.ndarray] | None:
    """Model-level wrapper; rejects models with trading frictions."""
    if not model.cost.is_frictionless():
        raise ModelNotFrictionless("arbitrage reference requires zero cost integrands")
    return no_arbitrage_lp(model.tree, model.prices)


# ---------------------------------------------------------------------------
# null directions and projection
# ---------------------------------------------------------------------------


def null_space(problem: Problem) -> DirectionSet:
    """Per-node subspaces of decision directions that never change the value.

    Exact only for structures where the directions are certified by
    linearity (zero change of every leaf objective); refuses (kind
    "undecided") otherwise, since a wrong subspace would silently change
    the optimum.  Raises :class:`NotASubspace` when the nonpositive-horizon
    directions form a one-sided cone, in which case existence is not
    guaranteed by the linear-space route.
    """
    nodes, offsets, total = _adapted_layout(problem)
    analysis = problem.meta.get("market_analysis") or {}
    if analysis.get("cost_superlinear") and analysis.get("disutility_growth"):
        return DirectionSet(
            {nid: np.zeros((problem.decision_dim(nid), 0)) for nid in nodes},
            "exact",
            {"method": "analytic: superlinear costs leave no null direction"},
        )
    objs = path_objectives(problem)
    if objs is None:
        return DirectionSet({}, "undecided", {"method": "no symbolic objectives"})
    horizons, exact, notes = _leaf_horizons(objs)
    rows = _stacked_rows(problem, horizons, offsets, total) if exact else None
    if rows is None:
        return DirectionSet({}, "undecided", {"method": "no polyhedral rows", "notes": notes})
    subspace, ray = cone_is_subspace(rows, total)
    if not subspace:
        raise NotASubspace(
            "nonpositive-horizon directions form a one-sided cone, not a subspace",
            ray=_split_witness(offsets, ray),
        )
    # the directions at a stage-t node are the kernel of the leaf rows
    # with every decision before stage t pinned to zero: one kernel per
    # stage, and none after an empty one (pinning more never grows a kernel)
    times = {nid: problem.tree.node(nid).time for nid in nodes}
    eye = np.eye(total)
    kernels: dict[int, np.ndarray] = {}
    K = None
    for t in sorted(set(times.values())):
        if K is None or K.shape[1]:
            past = [np.arange(*offsets[mid]) for mid in nodes if times[mid] < t]
            stacked = np.vstack([rows, eye[np.concatenate(past)]]) if past else rows
            K = kernel_basis(stacked)
        kernels[t] = K
    per_node: dict[str, np.ndarray] = {}
    for nid in nodes:
        a, b = offsets[nid]
        block = kernels[times[nid]][a:b, :]
        if block.size == 0 or not block.any():
            per_node[nid] = np.zeros((b - a, 0))
            continue
        u, s, _ = np.linalg.svd(block)
        keep = s > 1e-10 * max(1.0, s[0])
        per_node[nid] = u[:, : int(keep.sum())]
    return DirectionSet(per_node, "exact", {"method": "kernel of leaf value rows"})


def _blockdiag(mats: list[np.ndarray]) -> np.ndarray:
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def project_problem(problem: Problem, directions: DirectionSet) -> Problem:
    """Restrict decisions to the orthogonal complement of the null directions.

    The restriction is applied by reparameterizing each node's decision on
    an orthonormal basis of the complement (equivalently, summing the
    objective with the indicator of the complement subspace per stage,
    but without a measure-zero feasible set for the grid search).  By the
    null-direction indifference, the optimal value is unchanged, and the
    restricted problem satisfies horizon positivity.
    """
    if directions.kind != "exact":
        raise InexactNullSpace("null space is not certified exact; refusing to project")
    tree = problem.tree
    nodes, _, _ = _adapted_layout(problem)
    if directions.is_trivial():
        return problem
    qmap: dict[str, np.ndarray] = {}
    new_dim: dict[str, int] = {}
    for nid in nodes:
        basis = directions.per_node.get(nid)
        d = problem.decision_dim(nid)
        if basis is None or basis.shape[1] == 0:
            qmap[nid] = np.eye(d)
        else:
            qmap[nid] = orthonormal_complement(basis, d)
        new_dim[nid] = qmap[nid].shape[1]
    stage_dims: dict[int, int] = {}
    for nid in nodes:
        t = tree.node(nid).time
        if t in stage_dims and stage_dims[t] != new_dim[nid]:
            raise InexactNullSpace(
                "null-space dimensions differ across nodes of one stage; "
                "cannot keep a stagewise decision layout"
            )
        stage_dims[t] = new_dim[nid]
    dims = tuple(
        stage_dims.get(t, problem.decision_dims[t]) for t in range(tree.horizon + 1)
    )
    # per stage, the stacked bases of its nodes, indexed by position in the stage
    bases = {
        t: np.stack([qmap[n.id] for n in tree.nodes_at(t)]) for t in stage_dims
    }
    times, stage_index = tree.times, tree.stage_index

    def to_decision(K: np.ndarray, Y: np.ndarray) -> np.ndarray:
        Q = bases.get(int(times[K[0]]))
        return Y if Q is None else np.einsum("rij,rj->ri", np.take(Q, stage_index[K], axis=0), Y)

    orig_tr = problem.state_map.transition

    def transition(K: np.ndarray, S: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return orig_tr(K, S, to_decision(K, Y))

    if problem.state_map.is_history:
        cum = np.cumsum(dims)
        sm = StateMap(
            tuple(int(c) for c in cum), np.zeros(0), transition, is_history=True
        )
        leaf_obj = {}
        for leaf in tree.leaves:
            blocks = [
                qmap.get(nid, np.eye(problem.decision_dim(nid)))
                for nid in tree.path(leaf.id)
                if problem.decision_dim(nid) > 0
            ]
            M = _blockdiag(blocks)
            leaf_obj[leaf.id] = AffinePrecompose(problem.leaf_objective[leaf.id], M)
    else:
        sm = StateMap(
            problem.state_map.dims,
            problem.state_map.initial,
            transition,
            is_history=False,
        )
        leaf_obj = dict(problem.leaf_objective)

    stage_funs = None
    if problem.stage_funs is not None:
        stage_funs = {}
        wrapped: dict[int, Callable] = {}  # one wrapper per shared callable
        for nid, sf in problem.stage_funs.items():
            Q = qmap.get(nid)
            if Q is None:
                stage_funs[nid] = sf
            elif isinstance(sf, ExtFun):
                sdim = sf.dim - problem.decision_dim(nid)
                stage_funs[nid] = AffinePrecompose(
                    sf, _blockdiag([np.eye(sdim), Q])
                )
            else:
                if id(sf) not in wrapped:
                    wrapped[id(sf)] = lambda K, S, Y, _f=sf: _f(K, S, to_decision(K, Y))
                stage_funs[nid] = wrapped[id(sf)]

    meta = dict(problem.meta)
    meta["projection"] = {
        nid: directions.per_node.get(nid, np.zeros((problem.decision_dim(nid), 0)))
        for nid in nodes
    }
    old_paths = problem.meta.get("path_objectives")
    if old_paths is not None:
        new_paths = {}
        for leaf in tree.leaves:
            blocks = [
                qmap.get(nid, np.eye(problem.decision_dim(nid)))
                for nid in tree.path(leaf.id)
                if problem.decision_dim(nid) > 0
            ]
            new_paths[leaf.id] = AffinePrecompose(old_paths[leaf.id], _blockdiag(blocks))
        meta["path_objectives"] = new_paths

    return Problem(
        tree=tree,
        decision_dims=dims,
        state_map=sm,
        leaf_objective=leaf_obj,
        stage_funs=stage_funs,
        lower_bound=problem.lower_bound,
        meta=meta,
    )
