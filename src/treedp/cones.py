"""Existence-condition verification.

The backward recursion is only guaranteed to have minimizers when the
objective's horizon function is positive along every nonzero adapted
direction.  This module decides that condition:

* analytically when the builder's validation report
  (``meta["validation"]``) finds strict cost growth and disutility
  growth, as for market models with superlinear total costs;
* node by node when the builder attached each decision node's own
  zero-sublevel rows (``meta["node_rows"]``: frictionless markets that
  trade at every stage, without a borrowing limit): the adapted cone is
  {0} iff every node's one-period cone is, which one batched SVD over the
  small node blocks decides where each node's risk-neutral measure
  certifies its cone a subspace (at every complete node, every binomial
  one among them), and one LP over their block-diagonal system where
  some node's is not (the node route, :func:`_node_system` proves the
  split);
* otherwise by polyhedral cone propagation over the whole tree for
  problems whose builder attached path objectives with exact symbolic
  horizons (``meta["path_objectives"]``: each leaf's objective as an
  expression over its path decisions, in path order; each leaf
  contributes the halfspace rows R of its horizon's zero sublevel
  set, written into its path's columns of the adapted vector y, which
  stacks the decisions of every decision node in tree order; the adapted
  cone {R y <= 0} is {0} iff ker R = {0} and the cone is a subspace, one
  SVD and one bounded LP: the stacked route, which borrowing limits,
  closed stages and history-mode problems take, and the node route's
  test oracle);
* by sphere sampling (:data:`SAMPLES` directions, seed 0) when a
  horizon gives no polyhedral rows, or when the LP vertex fails
  re-verification at both of its scalings and rounded to integers; only
  a found witness is conclusive there, and the verdict is otherwise
  "undecided".

Both routes decide their cones on the one engine of :mod:`._polyhedral`
(a single cone is a batch of one), whose every LP fails closed: one that
stops without an optimum raises RuntimeError, never reads as "no ray".

When the condition fails because null directions form a linear space, the
problem can be restricted to the orthogonal complement of those
directions per stage without changing the optimal value; ``null_space``
computes the per-node subspaces exactly for linear/polyhedral structure
(each node's own kernel on the node route, one kernel of the stacked
rows per stage otherwise) and ``project_problem`` applies the
restriction.
The projected problem keeps the original state and carries path
objectives in the reduced decisions, so it can be checked and solved
like any other problem.  The leaf paths come from the tree's ancestor
table (:attr:`ScenarioTree.ancestors`).
A classical frictionless no-arbitrage search (:func:`no_arbitrage_lp`, a
dense LP of its own) is included as an independent reference check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from . import efun
from ._polyhedral import (
    SLACK_TOL,
    _box_direction,
    block_slacks,
    cone_is_subspace,
    cone_kernels,
    cone_vertex,
    kernel_basis,
    kernel_bases,
    linprog,
    unit_l1,
    unit_rows,
)
from .dp import Problem, write_csv_tables
from .efun import AffinePrecompose, ExtFun
from .tree import NodeValues, ScenarioTree

INF = math.inf
WITNESS_TOL = 1e-9
SAMPLES = 512  # random directions of the sampling fallback (seed 0)


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
    been re-verified against the symbolic horizon functions leaf by leaf
    (on the node route, the leaves below the one node where it is
    nonzero: every other leaf's path sees the zero direction, where a
    horizon is 0).  The witness has unit L1 norm; the re-verification
    ran on it, on the same direction scaled to max |y| = 1, where an LP
    vertex keeps its exact coordinates, or on the vertex rounded to
    nearby rationals and scaled to integer coordinates (``method`` says
    which, and the witness is then that direction at unit L1 norm).
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
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["node"] + [f"x{i}" for i in range(width)])
            write_csv_tables(
                fh, [([nid], (), np.asarray(vec, dtype=float)) for nid, vec in witness.items()],
                0, width)


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
    tree = problem.tree
    dims = np.asarray(problem.decision_dims, dtype=np.int64)
    width = dims[tree.times]
    first = np.cumsum(width) - width  # each position's first column
    offsets = {nid: (a, a + w) for nid, a, w in zip(tree.ids, first.tolist(), width.tolist()) if w}
    anc = tree.ancestors
    cols = np.hstack([first[anc[:, t], None] + np.arange(d) for t, d in enumerate(dims)])
    return offsets, int(width.sum()), dict(zip(tree.ids_at(tree.horizon), cols))


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
# the node route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _NodeSystem:
    """The node rows as unit rows, stacked per (stage, row count): each
    group is (tree positions (B,), rows (B, m, d)); ``rows`` counts the
    nonzero rows and ``dim`` the decision coordinates of every node."""

    groups: list[tuple[np.ndarray, np.ndarray]]
    rows: int
    dim: int


def _node_system(problem: Problem) -> _NodeSystem | None:
    """The builder's per-node rows (``meta["node_rows"]``), or None.

    ``node_rows[t] = (rows, start)`` gives the i-th node of
    ``positions_at(t)`` the rows ``rows[start[i]:start[i + 1]]`` over its
    own decision: -(Z_c - Z_n) for each child c (led by -1 for the
    expenditure coordinate in the terminal form), then the rows of its
    decision box horizon.  Each node's cone is C_n = {y_n : R_n y_n <= 0}.

    Why the adapted cone splits into them.  Write g_n(c) = d_n +
    theta_n . (Z_c - Z_n) for the one-period gain of the decision y_n at
    its child c, K_n for the box rows' cone, and V_m for the gains of
    the ancestors' decisions summed down to m.  The adapted cone is
    C = {y : y_n in K_n for all n, V_l >= 0 at every leaf l}.  A nonzero
    y_n in C_n, zero elsewhere, lies in C.  Conversely let every C_n be a
    subspace, and take y in C.  Backward from the leaves, V_n >= 0 at
    every node: the children have V_c = V_n + g_n(c) >= 0, so V_n < 0
    would put y_n in C_n with every g_n(c) > 0, which a subspace does
    not allow.  Forward from the root, where V = 0: each g_n(c) = V_c >= 0
    puts y_n in C_n, so every g_n(c) = 0 and every child has V_c = 0
    again.  So C is the direct sum of the node subspaces, and a node
    cone that is not a subspace gives C a one-sided ray.  Hence C = {0}
    iff every C_n = {0}; C is a subspace iff every C_n is, and then the
    null directions at each node are ker R_n, the directions the
    stacked route finds there.  The argument needs only linear gains and
    a cone K_n per node, so holdings boxes, the expenditure's d <= 0 and
    a projection y_n = Q_n z_n (rows R_n Q_n) all keep it; a borrowing
    limit couples the nodes of a path, and its builders attach no rows.
    """
    node_rows = problem.meta.get("node_rows")
    if node_rows is None:
        return None
    groups = []
    nonzero = dim = 0
    for t, (rows, start) in node_rows.items():
        P = problem.tree.positions_at(t)
        rows = unit_rows(rows)
        nonzero += int(rows.any(axis=1).sum())
        dim += len(P) * rows.shape[1]
        counts = np.diff(start)
        for m in np.unique(counts).tolist():
            sel = np.flatnonzero(counts == m)
            groups.append((P[sel], rows[start[sel][:, None] + np.arange(m)]))
    return _NodeSystem(groups, nonzero, dim)


def _node_witness(problem: Problem, p: int, y: np.ndarray) -> dict[str, list[float]]:
    """The adapted direction that is ``y`` at position ``p`` and 0 elsewhere,
    per decision node in tree order."""
    dims, tree = problem.decision_dims, problem.tree
    out = {nid: [0.0] * dims[t] for nid, t in zip(tree.ids, tree.times.tolist()) if dims[t]}
    out[tree.ids[p]] = [float(v) for v in y]
    return out


def _leaves_below(tree: ScenarioTree, p: int) -> list[str]:
    anc = tree.ancestors
    return [tree.ids[q] for q in anc[anc[:, tree.times[p]] == p, -1].tolist()]


def _check_by_node(problem: Problem, system: _NodeSystem) -> CheckReport:
    """The check on the node cones: one batched SVD gives each node's
    kernel and, where the node's risk-neutral measure certifies it, that
    its cone is a subspace.  Only when some node with a trivial kernel is
    left undecided does one block LP look for a one-sided ray, at every
    node with a trivial kernel.  The witness is :func:`cone_vertex` on
    the last node in tree order whose cone is not {0}."""
    if system.dim == 0:
        return CheckReport("holds", None, ["no decisions to check"], {})
    method = ["cone propagation: one-period rows per decision node"]
    kernels = [cone_kernels(R) for _, R in system.groups]
    kernel_dims = [np.array([b.shape[1] for b in bases]) for bases, _ in kernels]
    last = max((int(P[k > 0].max(initial=-1)) for (P, _), k in zip(system.groups, kernel_dims)),
               default=-1)
    cone = {"rows": system.rows, "dim": system.dim,
            "kernel_dim": int(sum(k.sum() for k in kernel_dims)), "lp_calls": 0}
    pointed = [(P[k == 0], R[k == 0], subspace[k == 0])
               for (P, R), k, (_, subspace) in zip(system.groups, kernel_dims, kernels)
               if (k == 0).any()]
    if not all(subspace.all() for _, _, subspace in pointed):
        cone["lp_calls"] += 1
        for (P, _, _), (slack, _) in zip(pointed, block_slacks([R for _, R, _ in pointed])):
            last = max(last, int(P[slack > SLACK_TOL].max(initial=-1)))
    details: dict = {"route": "node", "nodes": sum(len(P) for P, _ in system.groups),
                     "cone": cone}
    if last < 0:
        return CheckReport("holds", None, method, details)

    tree = problem.tree
    P, R = next((P, R) for P, R in system.groups if last in P)
    rows = R[int(np.flatnonzero(P == last)[0])]
    box, info = cone_vertex(rows, rows.shape[1])
    cone["lp_calls"] += info["lp_calls"]
    objs = problem.meta.get("path_objectives") or {}
    below = _leaves_below(tree, last)
    horizons, exact, _ = _leaf_horizons({leaf: objs[leaf] for leaf in below if leaf in objs})
    if box is not None and exact and len(horizons) == len(below):
        # a leaf's path vector holds one decision per stage, so the node's
        # columns in it follow the earlier stages' dimensions
        dims = problem.decision_dims
        a = sum(dims[: tree.times[last]])
        cols = dict.fromkeys(below, np.arange(sum(dims)))

        def verify(y: np.ndarray) -> tuple[bool, dict[str, float]]:
            vec = np.zeros(sum(dims))
            vec[a : a + len(y)] = y
            return _witness_ok(horizons, cols, vec)

        y, ok, vals = _verify_vertex(box, verify, method)
        if ok:
            details["witness_node"] = tree.ids[last]
            details["witness_horizon_values"] = vals
            return CheckReport("fails", _node_witness(problem, last, y), method, details)
    method.append("node witness failed re-verification; deciding on the stacked rows")
    return _check_stacked(problem, method)


def _verify_vertex(
    box: np.ndarray,
    verify: Callable[[np.ndarray], tuple[bool, dict[str, float]]],
    method: list[str],
) -> tuple[np.ndarray, bool, dict[str, float]]:
    """``verify`` the LP vertex ``box`` as a witness: (the direction at unit
    L1 norm, whether it verified, the horizon values).

    The L1 scaling rounds an exact vertex ([1, -1, 1] becomes thirds), and
    a horizon that is +inf on any loss rejects the 1e-17 profit; so the
    vertex itself, which keeps its exact coordinates, may verify instead.
    An LP may return interior coordinates one ulp off a small rational
    (0.5000000000000001), so last the vertex is rounded to the nearest
    fractions with denominators <= 1000 and scaled to integers (below
    2**53, so exact as floats), on which gains over prices with small
    denominators come out exact.
    """
    y = unit_l1(box)
    ok, vals = verify(y)
    if not ok:
        ok, vals = verify(box)
        if ok:
            method.append("witness re-verified on the LP vertex (max |y| = 1)")
    if not ok:
        from fractions import Fraction  # deferred: it imports decimal, and few checks get here

        q = [Fraction(v).limit_denominator(1000) for v in box.tolist()]
        scale = math.lcm(*(f.denominator for f in q))
        ints = [int(f * scale) for f in q]
        if max(map(abs, ints)) < 2**53:
            z = np.array(ints, dtype=float)
            ok, vals = verify(z)
            if ok:
                y = unit_l1(z)
                method.append("witness re-verified on the LP vertex rounded to rationals "
                              "(denominators <= 1000) and scaled to integers")
    return y, ok, vals


def _superlinear(problem: Problem) -> bool:
    """Whether the builder's validation report finds strict cost growth
    and disutility growth, which pin every nonzero trade direction."""
    report = problem.meta.get("validation")
    return (report is not None and report.holds("cost_growth_strict")
            and report.holds("disutility_growth"))


# ---------------------------------------------------------------------------
# the positivity check
# ---------------------------------------------------------------------------


def check_horizon_positivity(problem: Problem) -> CheckReport:
    """Decide whether the only adapted direction with nonpositive horizon is 0.

    This is the hypothesis under which the backward recursion is well
    defined and minimizers exist; on frictionless market fixtures it
    reduces to the classical no-arbitrage condition, which
    :func:`no_arbitrage_lp` checks independently.

    Superlinear costs decide it analytically: the builder's validation
    report (``meta["validation"]``) finds ``cost_growth_strict`` and
    ``disutility_growth``, and ``details`` is empty, since the CLI's
    report carries the validation beside the check.  A problem with node
    rows (``meta["node_rows"]``) takes the node route: the cone is {0} iff
    every node's own cone is (see :func:`_node_system`); ``method`` says
    "one-period rows per decision node", ``details["route"]`` is
    ``"node"``, ``details["cone"]`` sums the nodes' ``rows``, ``dim``
    and ``kernel_dim`` and counts the ``lp_calls`` that ran (the block LP
    is skipped when every node with a trivial kernel is certified a
    subspace by its risk-neutral measure, so an arbitrage-free binomial
    market runs none and never imports scipy), and a ``fails``
    witness is nonzero at one node only, ``details["witness_node"]``,
    re-verified on the horizons of the leaves below it (the others see
    the zero direction).  Any other problem with symbolic path
    objectives takes the stacked route ("polyhedral zero-sublevel rows
    per leaf"), which is also the fallback when a node witness fails its
    re-verification.  Where no LP direction re-verifies, the stacked
    route samples :data:`SAMPLES` directions (seed 0) besides the +-unit
    vectors.
    """
    if _superlinear(problem):
        method = ["analytic: superlinear total cost pins every nonzero trade direction"]
        return CheckReport("holds", None, method, {})
    system = _node_system(problem)
    if system is not None:
        return _check_by_node(problem, system)
    return _check_stacked(problem, [])


def _check_stacked(problem: Problem, method: list[str]) -> CheckReport:
    """The check on every leaf's zero-sublevel rows stacked into one cone
    over the whole adapted vector: one SVD and one bounded LP, then
    sphere sampling if the LP direction fails re-verification."""
    objs = problem.meta.get("path_objectives")
    if objs is None:
        return CheckReport(
            "undecided",
            None,
            method + ["no symbolic path objectives available for horizon analysis"],
            {},
        )
    offsets, total, leaf_cols = _adapted_layout(problem)
    if total == 0:
        return CheckReport("holds", None, method + ["no decisions to check"], {})
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
        y, ok, vals = _verify_vertex(
            box, lambda v: _witness_ok(horizons, leaf_cols, v), method)
        if ok:
            details["witness_horizon_values"] = vals
            return CheckReport("fails", _split_witness(offsets, y), method, details)
        method.append("LP direction failed re-verification; falling back to sampling")
    method.append("sphere sampling over adapted directions")
    dirs = np.random.default_rng(0).standard_normal((SAMPLES, total))
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

    With node rows, each node's basis is the kernel of its own rows, from
    one batched SVD, which also certifies a node's cone a subspace where
    its risk-neutral measure does; when some node is left undecided, one
    block LP looks for a one-sided ray at every node (the error's ``ray``
    is nonzero at the last such node in tree order only).  Nodes with
    bit-identical rows get bit-identical bases, and a node whose rows are
    all zero the exact identity (``meta``: method "kernel of node rows"
    and the node count).  Otherwise the
    stacked route takes the kernel of every leaf's rows with the earlier
    stages pinned to zero, one SVD per stage (method "kernel of leaf
    value rows").  Both give the same subspaces (:func:`_node_system`).
    """
    if _superlinear(problem):
        return DirectionSet(
            {n.id: np.zeros((problem.decision_dim(n.id), 0)) for n in problem.decision_nodes()},
            "exact",
            {"method": "analytic: superlinear costs leave no null direction"},
        )
    system = _node_system(problem)
    if system is not None:
        return _null_space_by_node(problem, system)
    offsets, total, leaf_cols = _adapted_layout(problem)
    objs = problem.meta.get("path_objectives")
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


def _null_space_by_node(problem: Problem, system: _NodeSystem) -> DirectionSet:
    """Each node's kernel ker R_n, from one batched SVD, once no node has a
    one-sided ray: every node certified a subspace by that SVD, or else one
    block LP over all nodes found none."""
    if not system.groups:
        return DirectionSet({}, "exact", {"method": "kernel of node rows", "nodes": 0})
    kernels = [cone_kernels(R) for _, R in system.groups]
    rays = []
    if not all(subspace.all() for _, subspace in kernels):
        slacks = block_slacks([R for _, R in system.groups])
        rays = [(int(P[i]), y[i]) for (P, _), (slack, y) in zip(system.groups, slacks)
                for i in np.flatnonzero(slack > SLACK_TOL)]
    if rays:
        p, y = max(rays, key=lambda r: r[0])
        raise NotASubspace(
            "nonpositive-horizon directions form a one-sided cone, not a subspace "
            f"(at node {problem.tree.ids[p]!r})",
            ray=_node_witness(problem, p, unit_l1(_box_direction(y))),
        )
    bases = {int(p): B for (P, _), (K, _) in zip(system.groups, kernels) for p, B in zip(P, K)}
    ids = problem.tree.ids
    return DirectionSet(
        {ids[p]: bases[p] for p in sorted(bases)},
        "exact",
        {"method": "kernel of node rows", "nodes": len(bases)},
    )


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
    decision Y back to the original decision Q Y (a stage function gets
    the post-decision state unchanged), and its
    ``meta["path_objectives"]`` are the input's (which its builder
    attached), each composed with its leaf path's block-diagonal basis
    when it is first read (so a caller that reads none builds none), and
    its node rows, if the input has them, are
    each node's rows times its basis, so the projected problem can be
    checked again, on the same route.
    """
    if directions.kind != "exact":
        raise InexactNullSpace("null space is not certified exact; refusing to project")
    if directions.is_trivial():
        return problem
    tree = problem.tree
    ids, times = tree.ids, tree.times.tolist()
    decision = [(nid, t) for nid, t in zip(ids, times) if problem.decision_dims[t]]
    # each node's complement Q is the kernel of its basis' transpose: one
    # batched SVD per stage (and basis shape) over the nodes with null
    # directions; the others keep the identity
    null: dict[tuple, list[str]] = {}
    for nid, t in decision:
        basis = directions.per_node.get(nid)
        if basis is not None and basis.size:
            null.setdefault((t, basis.shape), []).append(nid)
    complement: dict[str, np.ndarray] = {}
    for group in null.values():
        complement.update(zip(group, kernel_bases(np.stack([directions.per_node[i].T
                                                            for i in group]))))
    # per decision stage, the stacked bases of its nodes, indexed by position in the stage
    bases: dict[int, np.ndarray] = {}
    for t in sorted({t for _, t in decision}):
        eye = np.eye(problem.decision_dims[t])
        Q = [complement.get(nid, eye) for nid in tree.ids_at(t)]
        if len({q.shape[1] for q in Q}) > 1:
            raise InexactNullSpace(
                "null-space dimensions differ across nodes of one stage; "
                "cannot keep a stagewise decision layout"
            )
        bases[t] = np.stack(Q)
    dims = tuple(
        bases[t].shape[2] if t in bases else problem.decision_dims[t]
        for t in range(tree.horizon + 1)
    )
    stage_index = tree.stage_index
    time_of = tree.times

    def to_decision(K: np.ndarray, Y: np.ndarray) -> np.ndarray:
        Q = bases.get(int(time_of[K[0]]))
        return Y if Q is None else np.einsum("rij,rj->ri", np.take(Q, stage_index[K], axis=0), Y)

    orig_tr = problem.state_map.transition

    def transition(K: np.ndarray, S: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return orig_tr(K, S, to_decision(K, Y))

    deciding = dict(decision)
    stage_funs = None if problem.stage_funs is None else {}
    wrapped: dict[int, Callable] = {}  # one wrapper per shared stage function
    for nid, sf in (problem.stage_funs or {}).items():
        if nid in deciding and id(sf) not in wrapped:
            wrapped[id(sf)] = lambda K, S, Y, post, _f=sf: _f(K, S, to_decision(K, Y), post)
        stage_funs[nid] = wrapped[id(sf)] if nid in deciding else sf

    meta = dict(problem.meta)
    paths = problem.meta.get("path_objectives")
    if paths is not None:
        anc, leaves = tree.ancestors, tree.ids_at(tree.horizon)
        shape = (sum(Q.shape[1] for Q in bases.values()), sum(Q.shape[2] for Q in bases.values()))

        def composed(i: int) -> ExtFun:
            # the leaf path's block-diagonal basis: its stage-t ancestor picks
            # the stage's block
            B = np.zeros(shape)
            r = c = 0
            for t in sorted(bases):
                _, d, k = bases[t].shape
                B[r : r + d, c : c + k] = bases[t][stage_index[anc[i, t]]]
                r, c = r + d, c + k
            return AffinePrecompose(paths[leaves[i]], B)

        meta["path_objectives"] = NodeValues(dict(zip(leaves, range(len(leaves)))), composed)
    node_rows = problem.meta.get("node_rows")
    if node_rows is not None:
        # y_n = Q_n z_n: each node's rows act on its reduced decision
        meta["node_rows"] = {
            t: (np.einsum("rd,rdk->rk", rows, bases[t][np.repeat(
                np.arange(len(start) - 1), np.diff(start))]) + 0.0, start)
            for t, (rows, start) in node_rows.items() if bases[t].shape[2]
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
