"""Backward dynamic programming on scenario trees.

The recursion runs stage by stage from the leaves.  Every node minimizes
one objective, stage cost plus the continuation of the post-decision
state, over the stage decision at every grid state (expanding-box grid
search plus pattern refinement).  Conditional expectation combines the
children's tables gridwise into the node's post table, and an interior
node's continuation interpolates that table; the last stage before
decision-free leaves evaluates the leaves exactly.  No convexity is
assumed anywhere; the growth condition checked by the cones module is
what makes the expanding search box provably bracket the minimizers.

Interpolation cannot certify exact optimality, so every solve re-evaluates
the true objective of the extracted policy in a forward pass (mode
``greedy`` re-minimizes against the tables, ``exact`` against the
interpolation-free nested recursion) and reports both numbers; for small
trees the nested recursion also verifies optimality
(``verify_optimality(..., method="exact")``).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import efun
from .efun import ExtFun, HorizonConditionViolated
from .tree import AdaptedSequence, Node, ScenarioTree

INF = math.inf


class SearchBoxExhausted(RuntimeError):
    """The expanding search box hit its cap without bracketing a minimum.

    This signals a violated (or numerically marginal) horizon positivity
    condition at the reported node: values keep improving toward the
    boundary, so no minimizer exists in any bounded region.
    """

    def __init__(self, node: str, n_states: int, box: float):
        super().__init__(
            f"node {node!r}: search box reached {box} without boundary dominance "
            f"at {n_states} grid state(s); horizon positivity likely fails"
        )
        self.node = node


class GridTooCoarse(RuntimeError):
    """Forward-pass value exceeds the table value by more than the gap tolerance."""

    def __init__(self, value: float, forward: float, tol: float):
        super().__init__(
            f"forward value {forward} exceeds table value {value} by more than {tol}; "
            "refine the state grids"
        )
        self.value = value
        self.forward = forward


class BudgetExceeded(RuntimeError):
    """Brute-force enumeration would exceed its cardinality guard."""


@dataclass(frozen=True)
class SolveConfig:
    """Solver tolerances and search parameters (all overridable)."""

    grid_points: int = 33        # decision grid points per axis
    box_init: float = 1.0        # initial half-width of the search box
    box_max: float = 2.0 ** 10   # cap on the half-width
    margin: float = 1.0          # boundary must exceed incumbent by this much
    eps_ref: float = 1e-6        # pattern-search step at which refinement stops
    eps_opt: float = 1e-6        # optimality equality tolerance
    eps_gap: float = 1e-3        # relative table-vs-forward gap tolerance
    threads: int = 1
    state_chunk: int = 2048      # grid states evaluated per batch

    def __post_init__(self):
        if self.grid_points < 5 or self.grid_points % 2 == 0:
            raise ValueError("grid_points must be odd and >= 5")
        for name in ("eps_ref", "eps_opt", "eps_gap"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def exact_refine(self) -> "SolveConfig":
        """Variant used by the interpolation-free nested recursion."""
        return replace(self, grid_points=21, eps_ref=1e-9, threads=1)


DEFAULT_CONFIG = SolveConfig()


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateMap:
    """Sufficient statistic of decision history.

    ``dims[t]`` is the state dimension after the stage-t decision,
    ``initial`` the state entering stage 0, and ``transition`` the batched
    map (node, states (m, s_prev), decisions (m, n_t)) -> (m, dims[t]).
    The leaf objective composed with transitions along a path must equal
    the modeled objective for all decision paths; that soundness is the
    model builder's obligation.  The history map (state = concatenated
    decisions) is always sound and is the fallback for small problems.
    """

    dims: tuple[int, ...]
    initial: np.ndarray
    transition: Callable[[Node, np.ndarray, np.ndarray], np.ndarray]
    is_history: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "initial", np.atleast_1d(np.asarray(self.initial, dtype=float))
        )


StageFun = ExtFun | Callable[[Node, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Problem:
    """A dynamic stochastic optimization problem on a scenario tree.

    The objective along a path is the sum of per-node stage functions of
    (entering state, decision) plus a per-leaf function of the terminal
    state; all pieces are bounded below by the integrable bound
    ``lower_bound``, so expectations are well defined with values in
    R union {+inf}.
    """

    tree: ScenarioTree
    decision_dims: tuple[int, ...]
    state_map: StateMap
    leaf_objective: Mapping[str, ExtFun]
    stage_funs: Mapping[str, StageFun] | None = None
    lower_bound: float | Mapping[str, float] = 0.0
    decision_dim_overrides: Mapping[str, int] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        T = self.tree.horizon
        if len(self.decision_dims) != T + 1:
            raise ValueError(f"need decision dims for stages 0..{T}")
        for leaf in self.tree.leaves:
            if leaf.id not in self.leaf_objective:
                raise ValueError(f"no leaf objective at {leaf.id!r}")

    def decision_dim(self, node_id: str) -> int:
        if self.decision_dim_overrides and node_id in self.decision_dim_overrides:
            return self.decision_dim_overrides[node_id]
        return self.decision_dims[self.tree.node(node_id).time]

    def decision_nodes(self) -> list[Node]:
        return [n for n in self.tree.nodes if self.decision_dim(n.id) > 0]

    def stage_values(self, node: Node, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        if self.stage_funs is None or node.id not in self.stage_funs:
            return np.zeros(S.shape[0])
        fn = self.stage_funs[node.id]
        if isinstance(fn, ExtFun):
            return fn.value_many(np.hstack([S, X]))
        return np.asarray(fn(node, S, X), dtype=float)

    def lower_bound_at(self, leaf_id: str) -> float:
        if isinstance(self.lower_bound, Mapping):
            return float(self.lower_bound[leaf_id])
        return float(self.lower_bound)

    def expected_lower_bound(self, node_id: str) -> float:
        """Conditional expectation of the lower bound given the node."""
        if self.tree.is_leaf(node_id):
            return self.lower_bound_at(node_id)
        return sum(
            child.prob * self.expected_lower_bound(child.id)
            for child in self.tree.children(node_id)
        )


def history_problem(
    tree: ScenarioTree,
    decision_dims: Sequence[int],
    leaf_objective: Mapping[str, ExtFun],
    lower_bound: float | Mapping[str, float],
    stage_funs: Mapping[str, StageFun] | None = None,
    meta: dict | None = None,
) -> Problem:
    """Problem whose state is the raw concatenated decision history."""
    dims = tuple(int(d) for d in decision_dims)
    cum = np.cumsum(dims)

    def transition(node: Node, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.hstack([S, X])

    sm = StateMap(
        dims=tuple(int(c) for c in cum),
        initial=np.zeros(0),
        transition=transition,
        is_history=True,
    )
    return Problem(
        tree=tree,
        decision_dims=dims,
        state_map=sm,
        leaf_objective=dict(leaf_objective),
        stage_funs=stage_funs,
        lower_bound=lower_bound,
        meta=meta or {},
    )


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def interp_multilinear(
    axes: Sequence[np.ndarray], values: np.ndarray, Q: np.ndarray
) -> np.ndarray:
    """Multilinear interpolation with +inf-aware corners and +inf outside.

    Any corner with positive weight and value +inf makes the result +inf
    (the lsc-safe convention).  Queries outside the grid return +inf: the
    grids declare the covered state region, and a wall keeps the search
    box bounded instead of silently extrapolating.  A query with a NaN
    coordinate gives NaN (+inf if another coordinate is outside), never a
    finite value.
    """
    m, s = Q.shape
    if s == 0:
        return np.full(m, float(values))
    los: list[np.ndarray] = []
    ts: list[np.ndarray] = []
    outside = np.zeros(m, dtype=bool)
    for d in range(s):
        ax = axes[d]
        if len(ax) == 1:
            los.append(np.zeros(m, dtype=int))
            ts.append(np.zeros(m))
            continue
        q = Q[:, d]
        tol = 1e-9 * max(1.0, abs(ax[0]), abs(ax[-1]))
        outside |= (q < ax[0] - tol) | (q > ax[-1] + tol)
        hi = np.clip(np.searchsorted(ax, q), 1, len(ax) - 1)
        lo = hi - 1
        t = (q - ax[lo]) / (ax[hi] - ax[lo])
        los.append(lo)
        ts.append(np.clip(t, 0.0, 1.0))
    out = np.zeros(m)
    hit_inf = outside
    for bits in itertools.product((0, 1), repeat=s):
        w = np.ones(m)
        idx = []
        degenerate = False
        for d, b in enumerate(bits):
            if len(axes[d]) == 1:
                if b == 1:
                    degenerate = True
                    break
                idx.append(los[d])
                continue
            idx.append(los[d] + b)
            w = w * (ts[d] if b else 1.0 - ts[d])
        if degenerate:
            continue
        v = values[tuple(idx)]
        inf_here = np.isinf(v)
        hit_inf |= (w > 0) & inf_here
        out += w * np.where(inf_here, 0.0, v)
    out[hit_inf] = INF
    return out


# ---------------------------------------------------------------------------
# sectional minimization
# ---------------------------------------------------------------------------


def _decision_mesh(B: float, K: int, dim: int) -> np.ndarray:
    ax = np.linspace(-B, B, K)
    mesh = np.meshgrid(*([ax] * dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


def minimize_batch(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dim: int,
    n_states: int,
    cfg: SolveConfig = DEFAULT_CONFIG,
    label: str = "",
    executor: ThreadPoolExecutor | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Minimize over the decision for each of ``n_states`` states at once.

    ``objective(I, X)`` evaluates paired rows: state index I[j] with
    decision X[j].  Grid search runs over an expanding box [-B, B]^dim (B
    doubling until every boundary grid value exceeds the incumbent by the
    margin), then batched coordinate pattern search refines each state's
    best point until the step drops below ``eps_ref``.  Ties break to the
    lexicographically smallest grid point.  States with no finite value
    anywhere up to the box cap get value +inf and a NaN argmin; states
    whose incumbent keeps improving toward the boundary raise
    :class:`SearchBoxExhausted`.  Needs ``dim >= 1``; :func:`_minimize_at`
    evaluates decision-free nodes without a search.
    """
    diag = {"expansions": 0, "sweeps": 0, "max_box": 0.0}
    best_val = np.full(n_states, INF)
    best_x = np.full((n_states, dim), np.nan)
    step0 = np.full(n_states, np.nan)
    active = np.ones(n_states, dtype=bool)
    B = cfg.box_init

    def eval_grid(states_idx: np.ndarray, mesh: np.ndarray) -> np.ndarray:
        k = mesh.shape[0]
        max_rows = max(cfg.state_chunk * 64, k)
        per = max(1, max_rows // k)
        chunks = [states_idx[i : i + per] for i in range(0, len(states_idx), per)]

        def run(chunk: np.ndarray) -> np.ndarray:
            I = np.repeat(chunk, k)
            X = np.tile(mesh, (len(chunk), 1))
            return np.asarray(objective(I, X), dtype=float).reshape(len(chunk), k)

        if executor is not None and len(chunks) > 1:
            parts = list(executor.map(run, chunks))
        else:
            parts = [run(c) for c in chunks]
        return np.vstack(parts) if parts else np.zeros((0, k))

    while True:
        mesh = _decision_mesh(B, cfg.grid_points, dim)
        spacing = 2.0 * B / (cfg.grid_points - 1)
        boundary = (np.abs(mesh) >= B * (1 - 1e-12)).any(axis=1)
        idx = np.where(active)[0]
        vals = eval_grid(idx, mesh)
        j = np.argmin(vals, axis=1)  # first minimum = lexicographically smallest
        gridbest = vals[np.arange(len(idx)), j]
        better = gridbest < best_val[idx]
        upd = idx[better]
        best_val[upd] = gridbest[better]
        best_x[upd] = mesh[j[better]]
        step0[upd] = spacing
        bmin = vals[:, boundary].min(axis=1)
        done = np.isfinite(best_val[idx]) & (bmin > best_val[idx] + cfg.margin)
        active[idx[done]] = False
        diag["max_box"] = B
        if not active.any():
            break
        B *= 2.0
        diag["expansions"] += 1
        if B > cfg.box_max:
            stuck = active & np.isfinite(best_val)
            if stuck.any():
                raise SearchBoxExhausted(label, int(stuck.sum()), cfg.box_max)
            active[:] = False
            break

    refine = np.where(np.isfinite(best_val))[0]
    if refine.size:
        x = best_x[refine].copy()
        fx = best_val[refine].copy()
        step = step0[refine].copy()
        live = step >= cfg.eps_ref
        while live.any():
            improved = np.zeros(len(refine), dtype=bool)
            for d in range(dim):
                for sgn in (1.0, -1.0):
                    rows = np.where(live)[0]
                    cand = x[rows].copy()
                    cand[:, d] += sgn * step[rows]
                    vals = np.asarray(
                        objective(refine[rows], cand), dtype=float
                    )
                    acc = vals < fx[rows]
                    hit = rows[acc]
                    x[hit, d] = cand[acc, d]
                    fx[hit] = vals[acc]
                    improved[hit] = True
            step[live & ~improved] *= 0.5
            live = step >= cfg.eps_ref
            diag["sweeps"] += 1
        best_x[refine] = x
        best_val[refine] = fx
    return best_val, best_x, diag


def _minimize_at(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    states: np.ndarray,
    dim: int,
    cfg: SolveConfig = DEFAULT_CONFIG,
    label: str = "",
    executor: ThreadPoolExecutor | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Minimize ``f(S, X)`` over the decision X at each row of ``states``.

    With no decision to choose (``dim == 0``) this evaluates ``f`` once.
    """
    n = states.shape[0]
    if dim == 0:
        vals = np.asarray(f(states, np.zeros((n, 0))), dtype=float)
        return vals, np.zeros((n, 0)), {"expansions": 0, "sweeps": 0, "max_box": 0.0}
    return minimize_batch(
        lambda I, X: f(states[I], X), dim, n, cfg, label=label, executor=executor
    )


def minimize_section(
    f: ExtFun,
    state,
    cfg: SolveConfig = DEFAULT_CONFIG,
    decision_horizon: ExtFun | None = None,
) -> tuple[float, np.ndarray]:
    """Minimize ``f(state, .)`` over the trailing decision block.

    ``f`` is an expression over (state, decision); the leading coordinates
    are fixed at ``state``.  When ``decision_horizon`` is supplied it is
    sanity-checked for positivity off the origin first, since that is what
    guarantees a minimizer exists and the search box terminates.
    Returns (+inf, empty) when no finite value exists.
    """
    state = np.atleast_1d(np.asarray(state, dtype=float))
    dim = f.dim - state.shape[0]
    if dim < 0:
        raise ValueError("state longer than the function's input")
    if decision_horizon is not None:
        verdict, witness = efun.positivity_off_origin(decision_horizon)
        if verdict == "fails":
            raise HorizonConditionViolated(
                "decision-block horizon is not positive off the origin", witness
            )

    vals, xs, _ = _minimize_at(
        lambda S, X: f.value_many(np.hstack([S, X])), state[None, :], dim, cfg
    )
    val = float(vals[0])
    return val, (xs[0] if math.isfinite(val) else np.zeros(0))


# ---------------------------------------------------------------------------
# tables, policy, solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueTable:
    """Values on a rectangular state grid with multilinear queries."""

    node: str
    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    kind: str  # "pre" (before the node's decision) or "post" (after)

    def __call__(self, Q: np.ndarray) -> np.ndarray:
        return interp_multilinear(self.axes, self.values, Q)


@dataclass(frozen=True)
class Policy:
    """Per-node optimal decisions on the entering-state grid.

    This is the exported form of the policy, a plain array per node; the
    solver's forward pass re-optimizes at the exactly visited states
    instead of looking decisions up on the grid.
    """

    entries: Mapping[str, tuple[tuple[np.ndarray, ...], np.ndarray]]


@dataclass
class SolveResult:
    value: float
    forward_value: float
    policy: Policy
    strategy: AdaptedSequence
    pre_tables: dict[str, ValueTable]
    post_tables: dict[str, ValueTable]
    diagnostics: dict

    @property
    def gap(self) -> float:
        if math.isinf(self.value) and math.isinf(self.forward_value):
            return 0.0
        return self.forward_value - self.value

    def report_dict(self) -> dict:
        return {
            "value": self.value,
            "forward_value": self.forward_value,
            "gap": self.gap,
            "strategy": {k: list(map(float, v)) for k, v in self.strategy.values.items()},
            "diagnostics": self.diagnostics,
        }


def _node_objective(
    problem: Problem, node: Node, cont: Callable[[np.ndarray], np.ndarray]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The node's recursion: (S, X) -> stage cost + cont(post-decision state)."""

    def f(S: np.ndarray, X: np.ndarray) -> np.ndarray:
        vals = problem.stage_values(node, S, X)
        return vals + cont(problem.state_map.transition(node, S, X))

    return f


def _table_continuation(
    problem: Problem, node: Node, post: Mapping[str, "ValueTable"]
) -> Callable[[np.ndarray], np.ndarray]:
    """Post-decision continuation of a node on the solver's tables.

    Leaves evaluate their objective exactly.  A node whose children are
    all decision-free leaves also evaluates them exactly (the terminal
    cost-to-go is known in closed form, so the last stage needs no
    interpolation).  Any other node interpolates its own post table:
    interpolation is linear in the values and +inf-aware, so this equals
    the probability-weighted sum of the children's interpolated tables.
    """
    tree = problem.tree
    if not tree.is_leaf(node.id) and not all(
        tree.is_leaf(c.id) and problem.decision_dim(c.id) == 0
        for c in tree.children(node.id)
    ):
        return post[node.id]
    # the children decide nothing, so no search runs and the config is moot
    return _exact_continuation(problem, node, DEFAULT_CONFIG)


def _walk(
    problem: Problem,
    S0: np.ndarray,
    choose: Callable[[Node, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Expected total cost of each row of entering states ``S0`` at the root.

    The walk is depth first and batched over rows: ``choose(node, S)``
    returns the decisions (m, n) at the node for its entering states S.
    """
    tree = problem.tree

    def visit(node: Node, S: np.ndarray, acc: np.ndarray) -> np.ndarray:
        X = choose(node, S)
        acc = acc + problem.stage_values(node, S, X)
        nxt = problem.state_map.transition(node, S, X)
        if tree.is_leaf(node.id):
            return acc + problem.leaf_objective[node.id].value_many(nxt)
        out = np.zeros(S.shape[0])
        for child in tree.children(node.id):
            out += child.prob * visit(child, nxt, acc)
        return out

    return visit(tree.root, S0, np.zeros(S0.shape[0]))


def _entering_axes(
    problem: Problem, grids: Mapping[int, Sequence[np.ndarray]], t: int
) -> tuple[np.ndarray, ...]:
    if t == 0:
        return tuple(np.array([v]) for v in problem.state_map.initial)
    if t - 1 not in grids:
        raise ValueError(f"no state grid supplied for stage {t - 1}")
    axes = grids[t - 1]
    want = problem.state_map.dims[t - 1]
    if len(axes) != want:
        raise ValueError(f"grids[{t-1}] must have {want} axes, got {len(axes)}")
    return tuple(np.asarray(a, dtype=float) for a in axes)


def backward_solve(
    problem: Problem,
    grids: Mapping[int, Sequence[np.ndarray]] | None = None,
    cfg: SolveConfig = DEFAULT_CONFIG,
    forward: str = "greedy",
    check_gap: bool = True,
) -> SolveResult:
    """Run the backward recursion and extract a policy.

    ``grids[t]`` are the per-dimension breakpoints of the stage-t
    post-decision state (t = 0..T-1); siblings share them, so the
    conditional-expectation step is a gridwise weighted sum, the node's
    post table, which its continuation then interpolates.  Horizon
    positivity (cones.check_horizon_positivity) is a precondition: without
    it the expanding search box has nothing to bracket and the solve ends
    in :class:`SearchBoxExhausted`.

    The returned ``value`` is the table root value; ``forward_value``
    re-evaluates the true objective of the extracted policy with
    :func:`forward_pass` in mode ``forward`` ("greedy" or "exact").
    """
    tree = problem.tree
    T = tree.horizon
    if grids is None:
        grids = problem.meta.get("grids", {})
    executor = (
        ThreadPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1 else None
    )
    pre: dict[str, ValueTable] = {}
    post: dict[str, ValueTable] = {}
    policy_entries: dict[str, tuple[tuple[np.ndarray, ...], np.ndarray]] = {}
    diagnostics: dict = {"nodes": {}}
    try:
        for t in range(T, -1, -1):
            axes = _entering_axes(problem, grids, t)
            shape = tuple(len(a) for a in axes)
            mesh = (
                np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
                if axes
                else np.zeros((1, 0))
            )
            for node in tree.nodes_at(t):
                ndim = problem.decision_dim(node.id)
                if t < T:
                    out_axes = tuple(np.asarray(a, dtype=float) for a in grids[t])
                    u = np.zeros(tuple(len(a) for a in out_axes))
                    for child in tree.children(node.id):
                        u = u + child.prob * pre[child.id].values
                    post[node.id] = ValueTable(node.id, out_axes, u, "post")
                f = _node_objective(problem, node, _table_continuation(problem, node, post))
                vals, args, diag = _minimize_at(f, mesh, ndim, cfg, node.id, executor)
                pre[node.id] = ValueTable(node.id, axes, vals.reshape(shape), "pre")
                policy_entries[node.id] = (axes, args.reshape(shape + (ndim,)))
                diagnostics["nodes"][node.id] = diag
    finally:
        if executor is not None:
            executor.shutdown()

    # spot-check the declared lower bound on the computed grids: a table
    # entry below the conditional expectation of m means the model builder
    # declared an invalid bound
    bound_violations = {}
    for nid, table in pre.items():
        bound = problem.expected_lower_bound(nid)
        finite = table.values[np.isfinite(table.values)]
        if finite.size and finite.min() < bound - cfg.eps_opt:
            bound_violations[nid] = float(finite.min() - bound)
    diagnostics["lower_bound_violations"] = bound_violations

    value = float(pre[tree.root.id].values.reshape(-1)[0])
    policy = Policy(policy_entries)
    forward_value, strategy = forward_pass(
        problem, pre, post, policy, cfg, mode=forward
    )
    result = SolveResult(
        value=value,
        forward_value=forward_value,
        policy=policy,
        strategy=strategy,
        pre_tables=pre,
        post_tables=post,
        diagnostics=diagnostics,
    )
    if check_gap and math.isfinite(value):
        tol = cfg.eps_gap * (1.0 + abs(value))
        if forward_value > value + tol:
            raise GridTooCoarse(value, forward_value, tol)
    return result


def forward_pass(
    problem: Problem,
    pre: Mapping[str, ValueTable],
    post: Mapping[str, ValueTable],
    policy: Policy,
    cfg: SolveConfig = DEFAULT_CONFIG,
    mode: str = "greedy",
) -> tuple[float, AdaptedSequence]:
    """Walk the tree with the extracted policy and price it exactly.

    Decisions are adapted by construction (one per visited node).  Mode
    "greedy" re-minimizes each node's objective at the exactly visited
    state with table continuations (interior nodes interpolate their post
    table); mode "exact" re-minimizes it against the interpolation-free
    nested recursion.  ``pre`` and ``policy`` are not read: both modes
    re-optimize instead of looking decisions up, and the parameters stay
    so that positional callers (perfbench/workloads.py) keep working.
    """
    if mode not in ("greedy", "exact"):
        raise ValueError(f"unknown forward mode {mode!r}")
    decisions: dict[str, np.ndarray] = {}

    def choose(node: Node, S: np.ndarray) -> np.ndarray:
        ndim = problem.decision_dim(node.id)
        if ndim == 0:
            return np.zeros((S.shape[0], 0))
        if mode == "exact":
            _, X, _ = _exact_min(problem, node, S, cfg.exact_refine())
        else:
            f = _node_objective(problem, node, _table_continuation(problem, node, post))
            _, X, _ = _minimize_at(f, S, ndim, cfg, node.id)
        X = np.where(np.isnan(X).any(axis=1, keepdims=True), 0.0, X)
        decisions[node.id] = X[0]
        return X

    value = _walk(problem, problem.state_map.initial[None, :], choose)[0]
    return float(value), AdaptedSequence(decisions)


# ---------------------------------------------------------------------------
# interpolation-free nested recursion (for verification on small trees)
# ---------------------------------------------------------------------------


def _exact_continuation(
    problem: Problem, node: Node, cfg: SolveConfig
) -> Callable[[np.ndarray], np.ndarray]:
    """Post-decision continuation of a node by the nested recursion, no tables.

    The recursion stays batched all the way down (states x decisions per
    level), which keeps nested verification on small trees tractable.
    """
    tree = problem.tree
    if tree.is_leaf(node.id):
        return problem.leaf_objective[node.id].value_many
    kids = tree.children(node.id)

    def cont(states: np.ndarray) -> np.ndarray:
        out = np.zeros(states.shape[0])
        for child in kids:
            out += child.prob * _exact_min(problem, child, states, cfg)[0]
        return out

    return cont


def _exact_min(
    problem: Problem, node: Node, states: np.ndarray, cfg: SolveConfig
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Optimal values and decisions at a batch of entering states, no tables."""
    f = _node_objective(problem, node, _exact_continuation(problem, node, cfg))
    return _minimize_at(f, states, problem.decision_dim(node.id), cfg, node.id)


def exact_cost_to_go(
    problem: Problem, node_id: str, state, cfg: SolveConfig | None = None
) -> float:
    """Optimal cost-to-go from a node given its entering state (no tables)."""
    cfg = (cfg or DEFAULT_CONFIG).exact_refine()
    node = problem.tree.node(node_id)
    state = np.atleast_1d(np.asarray(state, dtype=float))
    return float(_exact_min(problem, node, state[None, :], cfg)[0][0])


# ---------------------------------------------------------------------------
# strategies: evaluation, expectation chains, verification
# ---------------------------------------------------------------------------


def _strategy_choice(
    problem: Problem, strategy: AdaptedSequence
) -> Callable[[Node, np.ndarray], np.ndarray]:
    """The strategy's decision at each node, as a ``_walk`` chooser."""

    def choose(node: Node, S: np.ndarray) -> np.ndarray:
        ndim = problem.decision_dim(node.id)
        x = strategy.at(node.id) if ndim > 0 else np.zeros(0)
        if x.shape != (ndim,):
            raise ValueError(f"strategy at {node.id!r} has dimension {x.shape}, want {ndim}")
        return np.repeat(x[None, :], S.shape[0], axis=0)

    return choose


def _strategy_points(
    problem: Problem,
    strategy: AdaptedSequence,
    result: "SolveResult | None",
    cfg: SolveConfig,
    method: str,
) -> dict[str, tuple]:
    """Per node along the strategy: (objective f, entering state S,
    decision X, f(S, X)), one row each.

    ``method="tables"`` gives f the solver's table continuation,
    ``method="exact"`` the nested recursion's.
    """
    if method == "tables":
        if result is None:
            raise ValueError("a solve result is required for method='tables'")
    elif method != "exact":
        raise ValueError(f"unknown verification method {method!r}")
    strategy_choice = _strategy_choice(problem, strategy)
    points: dict[str, tuple] = {}

    def choose(node: Node, S: np.ndarray) -> np.ndarray:
        X = strategy_choice(node, S)
        if method == "exact":
            cont = _exact_continuation(problem, node, cfg.exact_refine())
        else:
            cont = _table_continuation(problem, node, result.post_tables)
        f = _node_objective(problem, node, cont)
        points[node.id] = (f, S, X, float(f(S, X)[0]))
        return X

    _walk(problem, problem.state_map.initial[None, :], choose)
    return points


def _chain(problem: Problem, points: Mapping[str, tuple]) -> list[float]:
    """E h_t for t = 0..T: earlier stage costs plus each node's objective value."""
    tree = problem.tree
    past = {tree.root.id: 0.0}
    chain: list[float] = []
    for t in range(tree.horizon + 1):
        total = 0.0
        for node in tree.nodes_at(t):
            _, S, X, here = points[node.id]
            total += tree.probability(node.id) * (past[node.id] + here)
            stage = float(problem.stage_values(node, S, X)[0])
            for child in tree.children(node.id):
                past[child.id] = past[node.id] + stage
        chain.append(float(total))
    return chain


def evaluate_strategy(problem: Problem, strategy: AdaptedSequence) -> float:
    """Exact expected objective of an adapted strategy."""
    S0 = problem.state_map.initial[None, :]
    return float(_walk(problem, S0, _strategy_choice(problem, strategy))[0])


def expectation_chain(
    problem: Problem,
    strategy: AdaptedSequence,
    result: "SolveResult | None" = None,
    cfg: SolveConfig | None = None,
    method: str = "tables",
) -> list[float]:
    """E h_t(x^t) for t = 0..T along the strategy.

    With ``method="tables"`` the post-decision continuation is the
    solver's own (interior nodes interpolate their post table, exact last
    stage); with ``method="exact"`` it is recomputed by the nested
    recursion, which is slower but free of interpolation error.  The
    final element is always the exact objective value of the strategy.
    """
    points = _strategy_points(problem, strategy, result, cfg or DEFAULT_CONFIG, method)
    return _chain(problem, points)


@dataclass
class VerifyReport:
    """Optimality diagnosis of a candidate strategy against the recursion."""

    chain: list[float]
    node_gaps: dict[str, float]
    optimal: bool
    method: str

    def max_gap(self) -> float:
        finite = [g for g in self.node_gaps.values() if math.isfinite(g)]
        return max(finite, default=0.0)

    def report_dict(self) -> dict:
        return {
            "chain": self.chain,
            "node_gaps": self.node_gaps,
            "max_gap": self.max_gap(),
            "optimal": self.optimal,
            "method": self.method,
        }


def verify_optimality(
    problem: Problem,
    result: SolveResult | None,
    strategy: AdaptedSequence,
    cfg: SolveConfig = DEFAULT_CONFIG,
    method: str = "tables",
) -> VerifyReport:
    """Check the optimality characterization along a candidate strategy.

    Computes the expectation chain E h_t(x^t) and, nodewise, the gap
    between the value of the candidate's decision and the minimized value
    at the same entering state.  The strategy is flagged optimal iff every
    consecutive chain difference and every nodewise gap is within
    ``eps_opt``.  A gridded solve can certify this only up to
    interpolation error; ``method="exact"`` removes that caveat for small
    trees by re-minimizing with the nested recursion.
    """
    points = _strategy_points(problem, strategy, result, cfg, method)
    chain = _chain(problem, points)
    search_cfg = cfg.exact_refine() if method == "exact" else cfg
    node_gaps: dict[str, float] = {}
    for node in problem.tree.nodes:
        f, S, X, here = points[node.id]
        best = float(_minimize_at(f, S, X.shape[1], search_cfg, node.id)[0][0])
        if math.isinf(here) and math.isinf(best):
            node_gaps[node.id] = 0.0
        else:
            node_gaps[node.id] = here - best
    diffs = [abs(chain[t + 1] - chain[t]) for t in range(len(chain) - 1)]
    optimal = all(d <= cfg.eps_opt for d in diffs) and all(
        g <= cfg.eps_opt for g in node_gaps.values()
    )
    return VerifyReport(chain=chain, node_gaps=node_gaps, optimal=optimal, method=method)


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------


def brute_force(
    problem: Problem,
    grids: Mapping[str, np.ndarray],
    guard: int = 10**7,
    chunk: int = 1 << 16,
) -> tuple[float, AdaptedSequence]:
    """Exhaustive enumeration over per-node decision grids.

    One decision per node (adaptedness), exact expectation per joint
    choice, global minimum returned; ties break to the first combination
    in lexicographic grid order.  Independent of the recursion: no tables,
    no interpolation, no refinement.
    """
    nodes = problem.decision_nodes()
    mats = []
    for n in nodes:
        g = np.atleast_2d(np.asarray(grids[n.id], dtype=float))
        if g.shape[0] == 1 and problem.decision_dim(n.id) == 1 and g.shape[1] > 1:
            g = g.T
        if g.shape[1] != problem.decision_dim(n.id):
            raise ValueError(f"grid at {n.id!r} has wrong decision dimension")
        mats.append(g)
    sizes = [m.shape[0] for m in mats]
    total = 1
    for s in sizes:
        total *= s
        if total > guard:
            raise BudgetExceeded(
                f"{total}+ combinations exceed the enumeration guard {guard}"
            )
    strides = np.ones(len(sizes), dtype=np.int64)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]

    best_val = INF
    best_combo = -1
    for start in range(0, total, chunk):
        C = np.arange(start, min(start + chunk, total), dtype=np.int64)
        dec = {
            nodes[i].id: mats[i][(C // strides[i]) % sizes[i]] for i in range(len(nodes))
        }
        m = C.shape[0]
        S0 = np.repeat(problem.state_map.initial[None, :], m, axis=0)
        vals = _walk(problem, S0, lambda node, S: dec.get(node.id, np.zeros((m, 0))))
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_combo = int(C[j])
    if best_combo < 0:
        return INF, AdaptedSequence({})
    decisions = {
        nodes[i].id: mats[i][(best_combo // int(strides[i])) % sizes[i]]
        for i in range(len(nodes))
    }
    return best_val, AdaptedSequence(decisions)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def export_tables_csv(result: SolveResult, path: str) -> None:
    """Plot-ready dump: node, table kind, grid coordinates, value."""
    tabs = list(result.pre_tables.values()) + list(result.post_tables.values())
    width = max((len(t.axes) for t in tabs), default=0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "kind"] + [f"s{i}" for i in range(width)] + ["value"])
        for t in tabs:
            if not t.axes:
                w.writerow([t.node, t.kind] + [""] * width + [repr(float(t.values.reshape(-1)[0]))])
                continue
            for idx in itertools.product(*(range(len(a)) for a in t.axes)):
                coords = [repr(float(t.axes[d][idx[d]])) for d in range(len(t.axes))]
                coords += [""] * (width - len(coords))
                w.writerow([t.node, t.kind] + coords + [repr(float(t.values[idx]))])


def export_policy_csv(result: SolveResult, path: str) -> None:
    entries = result.policy.entries
    swidth = max((len(axes) for axes, _ in entries.values()), default=0)
    dwidth = max((arr.shape[-1] for _, arr in entries.values()), default=0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["node"]
            + [f"s{i}" for i in range(swidth)]
            + [f"x{i}" for i in range(dwidth)]
        )
        for node, (axes, arr) in entries.items():
            ndim = arr.shape[-1]
            if not axes:
                dec = [repr(float(v)) for v in arr.reshape(-1)]
                w.writerow([node] + [""] * swidth + dec + [""] * (dwidth - ndim))
                continue
            for idx in itertools.product(*(range(len(a)) for a in axes)):
                coords = [repr(float(axes[d][idx[d]])) for d in range(len(axes))]
                coords += [""] * (swidth - len(coords))
                dec = [repr(float(v)) for v in arr[idx]]
                dec += [""] * (dwidth - ndim)
                w.writerow([node] + coords + dec)


def report_json(result: SolveResult, extra: dict | None = None) -> str:
    """Deterministic JSON report (sorted keys, repr floats)."""
    payload = result.report_dict()
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2)
