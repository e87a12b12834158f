"""Existence-condition verification.

The backward recursion is only guaranteed to have minimizers when the
objective's horizon function is positive along every nonzero adapted
direction.  This module decides that condition:

* analytically for market models with superlinear total costs;
* by polyhedral cone propagation through the tree for problems whose
  per-leaf objectives have exact symbolic horizons (each leaf contributes
  the halfspace rows R of its horizon's zero sublevel set, written into
  its path's columns of the adapted vector y, which stacks the decisions
  of every decision node in tree order; the adapted cone {R y <= 0} is
  {0} iff ker R = {0} and the cone is a subspace, one SVD and one
  bounded LP);
* by sphere sampling otherwise, in which case only a found witness is
  conclusive and the verdict is otherwise "undecided".

When the condition fails because null directions form a linear space, the
problem can be restricted to the orthogonal complement of those
directions per stage without changing the optimal value; ``null_space``
computes the per-node subspaces exactly for linear/polyhedral structure
(one kernel per stage) and ``project_problem`` applies the restriction.
The projected problem keeps the original state and carries path
objectives in the reduced decisions for every input, history mode
included, so it can be checked and solved like any other problem.
A classical frictionless no-arbitrage search is included as an
independent reference check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from . import efun
from ._polyhedral import (
    cone_is_subspace,
    cone_vertex,
    kernel_basis,
    linprog,
    orthonormal_complement,
    unit_l1,
)
from .dp import Problem, write_csv_rows
from .efun import AffinePrecompose, ExtFun, Sum
from .tree import ScenarioTree

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


@dataclass
class CheckReport:
    """Outcome of the horizon positivity check.

    A ``fails`` verdict always carries a nonzero adapted witness that has
    been re-verified against the symbolic horizon functions leaf by leaf.
    The witness has unit L1 norm; the re-verification ran on it or on the
    same direction scaled to max |y| = 1, where an LP vertex keeps its
    exact coordinates (``method`` says so).
    """

    verdict: str  # "holds" | "fails" | "undecided"
    witness: dict[str, list[float]] | None
    method: list[str]
    details: dict = field(default_factory=dict)

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


def _adapted_layout(
    problem: Problem,
) -> tuple[dict[str, tuple[int, int]], int, dict[str, np.ndarray]]:
    """Each decision node's columns ``(a, b)`` of the adapted vector (in
    tree order), its length, and each leaf's path columns in path order."""
    offsets: dict[str, tuple[int, int]] = {}
    total = 0
    for node in problem.decision_nodes():
        d = problem.decision_dim(node.id)
        offsets[node.id] = (total, total + d)
        total += d
    tree = problem.tree
    leaf_cols = {
        leaf.id: np.array(
            [c for nid in tree.path(leaf.id) if nid in offsets for c in range(*offsets[nid])],
            dtype=np.int64,
        )
        for leaf in tree.leaves
    }
    return offsets, total, leaf_cols


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
    horizons: Mapping[str, ExtFun], leaf_cols: Mapping[str, np.ndarray], total: int
) -> np.ndarray | None:
    """Each leaf's zero-sublevel rows, written into its path columns.

    ``+ 0.0`` turns -0.0 into 0.0 and keeps every other value, so the
    cone LP and kernel SVD see the bits of a product with a dense 0/1
    selector.
    """
    stacked: list[np.ndarray] = []
    for leaf, cols in leaf_cols.items():
        rows = efun.sublevel_zero_cone(horizons[leaf])
        if rows is None:
            return None
        block = np.zeros((rows.shape[0], total))
        block[:, cols] = rows + 0.0
        stacked.append(block)
    return np.vstack(stacked) if stacked else np.zeros((0, total))


def _witness_ok(
    horizons: Mapping[str, ExtFun], leaf_cols: Mapping[str, np.ndarray], y: np.ndarray
) -> tuple[bool, dict[str, float]]:
    vals: dict[str, float] = {}
    ok = np.abs(y).sum() > 0
    for leaf, cols in leaf_cols.items():
        v = horizons[leaf].value(y[cols])
        vals[leaf] = v
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
    offsets, total, leaf_cols = _adapted_layout(problem)
    if total == 0:
        return CheckReport("holds", None, ["no decisions to check"], {})
    horizons, exact, notes = _leaf_horizons(objs)
    details: dict = {"exact_horizons": exact, "notes": notes}
    rows = _stacked_rows(horizons, leaf_cols, total)
    if not exact:
        # a lower bound that is positive off 0 proves the condition (a sum
        # whose domain point the calculus misses, such as borrowing limits
        # that the zero strategy breaks); a nonpositive one proves nothing,
        # so no sound witness search is possible
        method.append("horizon functions are certified lower bounds only")
        if rows is not None:
            box, details["cone"] = cone_vertex(rows, total)
            if box is None:
                method.append("cone propagation: the lower bounds are positive off 0")
                return CheckReport("holds", None, method, details)
        return CheckReport("undecided", None, method, details)
    if rows is not None:
        method.append("cone propagation: polyhedral zero-sublevel rows per leaf")
        box, details["cone"] = cone_vertex(rows, total)
        if box is None:
            return CheckReport("holds", None, method, details)
        y = unit_l1(box)
        ok, vals = _witness_ok(horizons, leaf_cols, y)
        if not ok:
            # the L1 scaling rounds an exact vertex ([1, -1, 1] becomes
            # thirds), and a horizon that is +inf on any loss rejects the
            # 1e-17 profit; the vertex itself keeps its exact coordinates
            ok, vals = _witness_ok(horizons, leaf_cols, box)
            if ok:
                method.append("witness re-verified on the LP vertex (max |y| = 1)")
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
        ok, vals = _witness_ok(horizons, leaf_cols, y)
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
    offsets, total, leaf_cols = _adapted_layout(problem)
    analysis = problem.meta.get("market_analysis") or {}
    if analysis.get("cost_superlinear") and analysis.get("disutility_growth"):
        return DirectionSet(
            {nid: np.zeros((b - a, 0)) for nid, (a, b) in offsets.items()},
            "exact",
            {"method": "analytic: superlinear costs leave no null direction"},
        )
    objs = path_objectives(problem)
    if objs is None:
        return DirectionSet({}, "undecided", {"method": "no symbolic objectives"})
    horizons, exact, notes = _leaf_horizons(objs)
    rows = _stacked_rows(horizons, leaf_cols, total) if exact else None
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
    tree = problem.tree
    times = {nid: int(tree.times[tree.index(nid)]) for nid in offsets}
    kernels: dict[int, np.ndarray] = {}
    K = None
    for t in sorted(set(times.values())):
        if K is None or K.shape[1]:
            past = [c for mid, (a, b) in offsets.items() if times[mid] < t for c in range(a, b)]
            pins = np.zeros((len(past), total))
            pins[np.arange(len(past)), past] = 1.0
            K = kernel_basis(np.vstack([rows, pins]))
        kernels[t] = K
    per_node: dict[str, np.ndarray] = {}
    for nid, (a, b) in offsets.items():
        block = kernels[times[nid]][a:b, :]
        if block.size == 0 or not block.any():
            per_node[nid] = np.zeros((b - a, 0))
            continue
        u, s, _ = np.linalg.svd(block)
        keep = s > 1e-10 * max(1.0, s[0])
        per_node[nid] = u[:, : int(keep.sum())]
    return DirectionSet(per_node, "exact", {"method": "kernel of leaf value rows"})


def project_problem(problem: Problem, directions: DirectionSet) -> Problem:
    """Restrict decisions to the orthogonal complement of the null directions.

    The restriction is applied by reparameterizing each node's decision on
    an orthonormal basis Q of the complement (equivalently, summing the
    objective with the indicator of the complement subspace per stage,
    but without a measure-zero feasible set for the grid search).  By the
    null-direction indifference, the optimal value is unchanged, and the
    restricted problem satisfies horizon positivity.

    The same construction serves every input, history mode included: the
    projected problem keeps the original state (dims, initial state and
    leaf objectives), its transition and stage functions map each reduced
    decision Y back to the original decision Q Y (a callable stage
    function gets the post-decision state unchanged), and its
    ``meta["path_objectives"]`` are :func:`path_objectives` of the input
    (explicit or derived from the history) composed with each leaf path's
    block-diagonal basis, so the projected problem can be checked again.
    """
    if directions.kind != "exact":
        raise InexactNullSpace("null space is not certified exact; refusing to project")
    if directions.is_trivial():
        return problem
    from scipy.linalg import block_diag

    tree = problem.tree
    qmap: dict[str, np.ndarray] = {}  # per decision node, in tree order
    stage_dims: dict[int, int] = {}
    for node in problem.decision_nodes():
        basis = directions.per_node.get(node.id)
        d = problem.decision_dim(node.id)
        Q = np.eye(d) if basis is None or basis.shape[1] == 0 else orthonormal_complement(basis, d)
        if stage_dims.setdefault(node.time, Q.shape[1]) != Q.shape[1]:
            raise InexactNullSpace(
                "null-space dimensions differ across nodes of one stage; "
                "cannot keep a stagewise decision layout"
            )
        qmap[node.id] = Q
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
                stage_funs[nid] = AffinePrecompose(sf, block_diag(np.eye(sdim), Q))
            else:
                if id(sf) not in wrapped:
                    wrapped[id(sf)] = lambda K, S, Y, post, _f=sf: _f(K, S, to_decision(K, Y), post)
                stage_funs[nid] = wrapped[id(sf)]

    meta = dict(problem.meta)
    meta["projection"] = {
        nid: directions.per_node.get(nid, np.zeros((Q.shape[0], 0))) for nid, Q in qmap.items()
    }
    paths = path_objectives(problem)
    if paths is not None:
        meta["path_objectives"] = {
            leaf.id: AffinePrecompose(
                paths[leaf.id],
                block_diag(*(qmap[nid] for nid in tree.path(leaf.id) if nid in qmap)),
            )
            for leaf in tree.leaves
        }

    return Problem(
        tree=tree,
        decision_dims=dims,
        state_map=replace(problem.state_map, transition=transition),
        leaf_objective=dict(problem.leaf_objective),
        stage_funs=stage_funs,
        lower_bound=problem.lower_bound,
        meta=meta,
    )
