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

Every search is stage-batched: its rows name their node by tree position
(``K``, see :class:`StateMap`), so one :func:`minimize_batch` call covers
every node of a stage.  Each row's search is independent of the other
rows of its batch, so the results equal a node-by-node solve bit for bit.

Interpolation cannot certify exact optimality, so every solve re-evaluates
the true objective of the extracted policy in a forward pass (mode
``greedy`` re-minimizes against the tables, ``exact`` against the
interpolation-free nested recursion) and reports both numbers; for small
trees the nested recursion also verifies optimality
(``verify_optimality(..., method="exact")``), reusing the minima that the
exact forward pass attached to the strategy it returned.

One stage-batched pass (:func:`_stagewise`) follows decisions down the
tree and prices them for the forward passes, :func:`evaluate_strategy`,
the expectation chain and the verifier; brute force keeps its own walk,
as the independent oracle.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .efun import ExtFun
from .tree import AdaptedSequence, Node, ScenarioTree

INF = math.inf
#: rows per objective call in a search and a decision-free stage
_MAX_ROWS = 4096
#: joint choices per block of brute force's sibling sums and minimum
_BF_BLOCK = 2**16
#: fewest states per worker process of a split search (see :func:`_minimize_at`):
#: a fork and pipe round trip costs about as much as searching this many states
_MIN_SPLIT_STATES = 1000


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


class NumericFailure(RuntimeError):
    """The solve met numbers it cannot order: a state-grid axis that is not
    finite and strictly increasing, or a NaN objective value."""


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
    """Solver tolerances and search parameters (all overridable).

    ``threads`` (>= 1) is the number of processes a large stage search may
    run on: :func:`_minimize_at` splits the rows of a search over at most
    ``threads`` forked worker processes, no more than the usable CPUs and
    at least ``_MIN_SPLIT_STATES`` states each.  Every row is searched as
    at one thread, so results are bit for bit the same for every value.
    The nested exact recursion (:meth:`exact_refine`) runs at one thread.
    """

    grid_points: int = 33        # decision grid points per axis
    box_init: float = 1.0        # initial half-width of the search box
    box_max: float = 2.0 ** 10   # cap on the half-width
    margin: float = 1.0          # boundary must exceed incumbent by this much
    eps_ref: float = 1e-6        # pattern-search step at which refinement stops
    eps_opt: float = 1e-6        # optimality equality tolerance
    eps_gap: float = 1e-3        # relative table-vs-forward gap tolerance
    threads: int = 1             # processes a stage search may split over

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


class RowGroups:
    """Rows of a batch grouped by a per-position object, compared by identity.

    ``RowGroups(objs)`` takes one object (or None) per tree position.
    ``map(K, fn)`` evaluates ``fn(object, rows)`` once per distinct object
    among the rows' positions ``K`` and assembles the results in row
    order; ``rows`` is ``slice(None)`` when one object covers every row,
    so the common case evaluates the whole batch without copies.
    """

    def __init__(self, objs: Sequence[object]):
        first: dict[int, int] = {}
        self.objs: list[object] = []
        gid = np.empty(len(objs), dtype=np.int64)
        for i, obj in enumerate(objs):
            if id(obj) not in first:
                first[id(obj)] = len(self.objs)
                self.objs.append(obj)
            gid[i] = first[id(obj)]
        self.gid = gid

    def map(
        self, K: np.ndarray, fn: Callable[[object, slice | np.ndarray], np.ndarray]
    ) -> np.ndarray:
        if len(self.objs) == 1:
            return np.asarray(fn(self.objs[0], slice(None)), dtype=float)
        g = self.gid[K]
        if (g == g[0]).all():
            return np.asarray(fn(self.objs[g[0]], slice(None)), dtype=float)
        out = np.empty(len(K))
        for u in np.unique(g):
            rows = np.flatnonzero(g == u)
            out[rows] = fn(self.objs[u], rows)
        return out


@dataclass(frozen=True)
class StateMap:
    """Sufficient statistic of decision history.

    ``dims[t]`` is the state dimension after the stage-t decision,
    ``initial`` the state entering stage 0, and ``transition`` the batched
    map ``(K, S, X) -> (m, dims[t])``: ``K`` holds the tree position of
    each row's node (all rows of one call are at one stage t), ``S`` the
    entering states (m, dims[t-1]) and ``X`` the decisions (m, n_t).  Rows
    are independent: a row's result may not depend on the other rows.
    The leaf objective composed with transitions along a path must equal
    the modeled objective for all decision paths; that soundness is the
    model builder's obligation.  The history map (state = concatenated
    decisions) is always sound and is the fallback for small problems.
    """

    dims: tuple[int, ...]
    initial: np.ndarray
    transition: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    is_history: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "initial", np.atleast_1d(np.asarray(self.initial, dtype=float))
        )


StageFun = ExtFun | Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Problem:
    """A dynamic stochastic optimization problem on a scenario tree.

    The objective along a path is the sum of per-node stage functions of
    (entering state, decision) plus a per-leaf function of the terminal
    state; all pieces are bounded below by the integrable bound
    ``lower_bound``, so expectations are well defined with values in
    R union {+inf}.  Every node of stage t decides ``decision_dims[t]``
    coordinates.

    Stage functions are ExtFuns of (state, decision) or callables
    ``(K, S, X)`` with the row convention of :class:`StateMap`.  Rows are
    evaluated per distinct function object, so nodes that share one
    object (a builder's per-stage constraint, one leaf objective per
    utility) are evaluated in one call.
    """

    tree: ScenarioTree
    decision_dims: tuple[int, ...]
    state_map: StateMap
    leaf_objective: Mapping[str, ExtFun]
    stage_funs: Mapping[str, StageFun] | None = None
    lower_bound: float | Mapping[str, float] = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        T = self.tree.horizon
        if len(self.decision_dims) != T + 1:
            raise ValueError(f"need decision dims for stages 0..{T}")
        for leaf in self.tree.leaves:
            if leaf.id not in self.leaf_objective:
                raise ValueError(f"no leaf objective at {leaf.id!r}")
        nodes = self.tree.nodes
        stage = self.stage_funs or {}
        object.__setattr__(self, "_stage_groups", RowGroups([stage.get(n.id) for n in nodes]))
        object.__setattr__(
            self, "_leaf_groups", RowGroups([self.leaf_objective.get(n.id) for n in nodes])
        )
        object.__setattr__(self, "_ids", tuple(n.id for n in nodes))

    def decision_dim(self, node_id: str) -> int:
        return self.decision_dims[self.tree.node(node_id).time]

    def decision_nodes(self) -> list[Node]:
        return [n for n in self.tree.nodes if self.decision_dim(n.id) > 0]

    def stage_values(self, K: np.ndarray, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        def evaluate(fn, rows):
            if fn is None:
                return np.zeros(S[rows].shape[0])
            if isinstance(fn, ExtFun):
                return fn.value_many(np.hstack([S[rows], X[rows]]))
            return fn(K[rows], S[rows], X[rows])

        return self._stage_groups.map(K, evaluate)

    def leaf_values(self, K: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Leaf objective of each row's leaf at its terminal state."""
        return self._leaf_groups.map(K, lambda fn, rows: fn.value_many(states[rows]))

    def lower_bound_at(self, leaf_id: str) -> float:
        if isinstance(self.lower_bound, Mapping):
            return float(self.lower_bound[leaf_id])
        return float(self.lower_bound)

    @cached_property
    def _lower_bounds(self) -> np.ndarray:
        tree = self.tree
        return _roll_back(tree, [self.lower_bound_at(n.id) for n in tree.leaves])

    def expected_lower_bound(self, node_id: str) -> float:
        """Conditional expectation of the lower bound given the node."""
        return float(self._lower_bounds[self.tree.index(node_id)])


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

    def transition(K: np.ndarray, S: np.ndarray, X: np.ndarray) -> np.ndarray:
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
    axes: Sequence[np.ndarray],
    values: np.ndarray,
    Q: np.ndarray,
    which: np.ndarray | None = None,
) -> np.ndarray:
    """Multilinear interpolation with +inf-aware corners and +inf outside.

    Any corner with positive weight and value +inf makes the result +inf
    (the lsc-safe convention).  Queries outside the grid return +inf: the
    grids declare the covered state region, and a wall keeps the search
    box bounded instead of silently extrapolating.  A query with a NaN
    coordinate gives NaN (+inf if another coordinate is outside), never a
    finite value.

    With ``which`` (one int per query row), ``values`` carries a leading
    table axis over stacked tables on the same axes, and row j reads table
    ``which[j]``; each row's arithmetic is that of its own table.
    """
    m, s = Q.shape
    if s == 0:
        return np.full(m, float(values)) if which is None else values[which].astype(float)
    # corners are read from the flat values: a row's lower corner sits at
    # ``base`` and each other corner at a fixed offset from it
    flat = values.reshape(-1)
    lead = values.ndim - s
    strides = [math.prod(values.shape[lead + d + 1 :]) for d in range(s)]
    base = np.zeros(m, dtype=np.intp) if which is None else which * math.prod(values.shape[1:])
    live: list[int] = []  # axes with two or more points
    weights: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    outside = np.zeros(m, dtype=bool)
    for d in range(s):
        ax = axes[d]
        if len(ax) == 1:
            continue
        q = Q[:, d]
        tol = 1e-9 * max(1.0, abs(ax[0]), abs(ax[-1]))
        outside |= (q < ax[0] - tol) | (q > ax[-1] + tol)
        hi = np.clip(np.searchsorted(ax, q), 1, len(ax) - 1)
        lo = hi - 1
        t = np.clip((q - ax[lo]) / (ax[hi] - ax[lo]), 0.0, 1.0)
        base = base + lo * strides[d]
        live.append(d)
        weights[d] = (1.0 - t, t)
    out = np.zeros(m)
    hit_inf = outside
    for bits in itertools.product((0, 1), repeat=len(live)):
        w = np.ones(m)
        for d, b in zip(live, bits):
            w = w * weights[d][b]
        v = flat[base + sum(b * strides[d] for d, b in zip(live, bits))]
        inf_here = np.isinf(v)
        hit_inf |= (w > 0) & inf_here
        out += w * np.where(inf_here, 0.0, v)
    out[hit_inf] = INF
    return out


# ---------------------------------------------------------------------------
# sectional minimization
# ---------------------------------------------------------------------------


def _decision_mesh(axis: np.ndarray, dim: int) -> np.ndarray:
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


def _state_name(label: str | Sequence[str], groups: np.ndarray | None, i: int) -> str:
    return label if groups is None else str(label[groups[i]])


def _reject_nan(vals: np.ndarray, states: np.ndarray | None, label, groups) -> None:
    """NumericFailure at the first NaN of ``vals``, whose rows are ``states``
    (None: the rows are the states themselves)."""
    bad = np.isnan(vals)
    if bad.any():
        i = int(np.argmax(bad))
        name = _state_name(label, groups, i if states is None else int(states[i]))
        raise NumericFailure(f"node {name!r}: objective value is not a number")


def _search_diag(n_states: int) -> dict:
    """Zeroed search counters for ``n_states`` states (see :func:`minimize_batch`)."""
    per_state = {
        "expansions": np.zeros(n_states, dtype=np.int64),
        "sweeps": np.zeros(n_states, dtype=np.int64),
        "max_box": np.zeros(n_states),
    }
    return {"expansions": 0, "sweeps": 0, "max_box": 0.0, "per_state": per_state}


def minimize_batch(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dim: int,
    n_states: int,
    cfg: SolveConfig = DEFAULT_CONFIG,
    label: str | Sequence[str] = "",
    groups: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Minimize over the decision for each of ``n_states`` states at once.

    ``objective(I, X)`` evaluates paired rows: state index I[j] with
    decision X[j]; a row's value may not depend on the other rows.  Grid
    search runs over an expanding box [-B, B]^dim (B doubling until every
    boundary grid value exceeds the incumbent by the margin), then batched
    coordinate pattern search (Hooke–Jeeves polls) refines each state's
    best point until the step drops below ``eps_ref``.  Ties break to the
    lexicographically smallest grid point.  The objective sees at most
    ``_MAX_ROWS`` rows per call (or one state's whole mesh).
    The grid phase keeps only each state's argmin, its value there and its
    boundary minimum.  Everything runs on the calling thread.

    The search skips evaluations that cannot change its result, which is
    bit for bit that of evaluating the whole mesh at every box and polling
    + then - (from the possibly moved point) in separate calls:

    - After a doubling, the box-2B mesh skips each point that is bitwise a
      point of the box-B mesh.  A state still expanding has evaluated every
      earlier mesh, so its incumbent is <= the value there, and only a
      strictly smaller grid value replaces the incumbent.  The boundary
      (+-2B) is new and always evaluated; the argmin runs over the
      remaining points in mesh order, so ties break as before.
    - A refinement sweep polls x + s and x - s along each coordinate in one
      call, both from the sweep's x, and accepts + if strictly better,
      else - if strictly better.  After an accepted +, the sequential
      poll's second point (x + s) - s is bitwise x in all but rare
      roundings, and f(x) cannot beat f(x + s); a rounded-off point is
      evaluated in a follow-up call.

    Every state is searched independently of the others: a state leaves
    the box expansion once its boundary dominates and leaves refinement
    once its step is below ``eps_ref``.  States with no finite value
    anywhere up to the box cap get value +inf and a NaN argmin; states
    whose incumbent keeps improving toward the boundary raise
    :class:`SearchBoxExhausted`, naming the first such state's label and
    the number of such states carrying that label.  ``label`` names all
    states, or with ``groups`` (one int per state, such as the state's
    tree position) state i is named ``label[groups[i]]``.  A NaN value at
    a point the sequential poll evaluates raises :class:`NumericFailure`,
    naming the first such state in the order of that poll.  Needs
    ``dim >= 1``; :func:`_minimize_at` evaluates decision-free nodes
    without a search.  With no states it returns empty results (values
    of shape (0,), argmins of shape (0, dim)) without calling ``objective``.

    Returns (values, argmins, diag).  ``diag`` holds the batch's
    ``expansions`` (box doublings), ``sweeps`` (refinement sweeps) and
    ``max_box`` (last half-width), and under ``per_state`` the same three
    counters for each state alone.
    """
    diag = _search_diag(n_states)
    if not n_states:
        return np.zeros(0), np.zeros((0, dim)), diag
    per_state = diag["per_state"]
    best_val = np.full(n_states, INF)
    best_x = np.full((n_states, dim), np.nan)
    step0 = np.full(n_states, np.nan)
    active = np.ones(n_states, dtype=bool)
    B = cfg.box_init

    def eval_grid(states_idx: np.ndarray, mesh: np.ndarray, boundary: np.ndarray):
        """Per state: argmin over the mesh, the value there, the boundary minimum."""
        k = len(mesh)

        def run(piece: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            chunk = states_idx[piece]
            I = np.repeat(chunk, k)
            X = np.tile(mesh, (len(chunk), 1))
            vals = np.asarray(objective(I, X), dtype=float).reshape(len(chunk), k)
            j = np.argmin(vals, axis=1)  # first minimum = lexicographically smallest
            best = vals[np.arange(len(chunk)), j]
            _reject_nan(best, chunk, label, groups)  # argmin stops at a row's first NaN
            return j, best, vals[:, boundary].min(axis=1)

        # whole states per chunk, so each state's mesh row is reduced in one piece
        size = max(1, _MAX_ROWS // k)
        parts = [run(slice(a, a + size)) for a in range(0, len(states_idx), size)]
        return (np.concatenate(a) for a in zip(*parts))

    def eval_rows(I: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.concatenate([
            np.asarray(objective(I[a : a + _MAX_ROWS], X[a : a + _MAX_ROWS]), dtype=float)
            for a in range(0, len(I), _MAX_ROWS)
        ])

    prev_axis = None
    while True:
        axis = np.linspace(-B, B, cfg.grid_points)
        mesh = _decision_mesh(axis, dim)
        if prev_axis is not None:
            # compared as bits: a point is skipped only if it is bitwise a
            # point of the previous mesh
            seen = np.isin(mesh.view(np.int64), prev_axis.view(np.int64)).all(axis=1)
            mesh = mesh[~seen]
        prev_axis = axis
        spacing = 2.0 * B / (cfg.grid_points - 1)
        boundary = (np.abs(mesh) >= B * (1 - 1e-12)).any(axis=1)
        idx = np.flatnonzero(active)
        j, gridbest, bmin = eval_grid(idx, mesh, boundary)
        better = gridbest < best_val[idx]
        upd = idx[better]
        best_val[upd] = gridbest[better]
        best_x[upd] = mesh[j[better]]
        step0[upd] = spacing
        done = np.isfinite(best_val[idx]) & (bmin > best_val[idx] + cfg.margin)
        active[idx[done]] = False
        per_state["max_box"][idx] = B
        diag["max_box"] = B
        if not active.any():
            break
        B *= 2.0
        diag["expansions"] += 1
        per_state["expansions"][active] += 1
        if B > cfg.box_max:
            stuck = active & np.isfinite(best_val)
            if stuck.any():
                first = int(np.argmax(stuck))
                if groups is not None:
                    stuck &= groups == groups[first]
                raise SearchBoxExhausted(
                    _state_name(label, groups, first), int(stuck.sum()), cfg.box_max
                )
            active[:] = False
            break

    refine = np.flatnonzero(np.isfinite(best_val))
    if refine.size:
        x = best_x[refine].copy()
        fx = best_val[refine].copy()
        step = step0[refine].copy()
        live = step >= cfg.eps_ref
        half = max(1, _MAX_ROWS // 2)  # states per call: their + and - rows
        while live.any():
            improved = np.zeros(len(refine), dtype=bool)
            rows = np.flatnonzero(live)
            for d in range(dim):
                plus = np.empty(len(rows))
                minus = np.empty(len(rows))
                for a in range(0, len(rows), half):
                    part = rows[a : a + half]
                    cand = np.concatenate([x[part], x[part]])
                    cand[: len(part), d] += step[part]
                    cand[len(part) :, d] -= step[part]
                    vals = np.asarray(objective(np.tile(refine[part], 2), cand), dtype=float)
                    plus[a : a + len(part)] = vals[: len(part)]
                    minus[a : a + len(part)] = vals[len(part) :]
                _reject_nan(plus, refine[rows], label, groups)
                acc = plus < fx[rows]
                hit = rows[acc]
                old = x[hit, d]
                x[hit, d] += step[hit]
                # the sequential poll's minus row of a moved state is
                # (x + s) - s: bitwise x (value fx, strictly worse than the
                # accepted f(x + s)) or, after rounding, a new point
                minus[acc] = fx[hit]
                fx[hit] = plus[acc]
                back = x[hit, d] - step[hit]
                moved = back.view(np.int64) != old.view(np.int64)
                if moved.any():
                    cand = x[hit[moved]]
                    cand[:, d] = back[moved]
                    minus[np.flatnonzero(acc)[moved]] = eval_rows(refine[hit[moved]], cand)
                _reject_nan(minus, refine[rows], label, groups)
                acc_m = minus < fx[rows]
                down = rows[acc_m]
                x[down, d] -= step[down]
                fx[down] = minus[acc_m]
                improved[hit] = True
                improved[down] = True
            per_state["sweeps"][refine[live]] += 1
            step[live & ~improved] *= 0.5
            live = step >= cfg.eps_ref
            diag["sweeps"] += 1
        best_x[refine] = x
        best_val[refine] = fx
    return best_val, best_x, diag


def _minimize_at(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    K: np.ndarray,
    states: np.ndarray,
    dim: int,
    cfg: SolveConfig = DEFAULT_CONFIG,
    names: Sequence[str] | str = "",
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Minimize ``f(K, S, X)`` over the decision X at each row (K[i], states[i]).

    ``names`` are the node ids by tree position (errors name row i's node
    ``names[K[i]]``), or one name for all rows.  With no decision to
    choose (``dim == 0``) this evaluates ``f`` at each row, in calls of
    at most ``_MAX_ROWS`` rows.

    With ``cfg.threads > 1`` a search of many rows splits them over worker
    processes (:func:`_split_parts`, :func:`_split_search`).  If any part
    fails, the whole search runs again on the calling thread, so an error
    names the same node and state count as at one thread.
    """
    n = states.shape[0]
    groups = None if isinstance(names, str) else K
    if dim == 0:
        parts = [np.zeros(0)]  # concatenates to no values when there are no rows
        for a in range(0, n, _MAX_ROWS):
            rows = slice(a, a + _MAX_ROWS)
            X = np.zeros((len(K[rows]), 0))
            parts.append(np.asarray(f(K[rows], states[rows], X), dtype=float))
        vals = np.concatenate(parts)
        _reject_nan(vals, None, names, groups)
        return vals, np.zeros((n, 0)), _search_diag(n)

    def search(rows: slice) -> tuple[np.ndarray, np.ndarray, dict]:
        Kr, Sr = K[rows], states[rows]
        return minimize_batch(
            lambda I, X: f(Kr[I], np.take(Sr, I, axis=0), X), dim, len(Kr), cfg,
            label=names, groups=None if groups is None else Kr,
        )

    parts = _split_parts(cfg, n)
    if parts > 1:
        try:
            return _split_search(search, n, parts)
        except Exception:
            pass  # searched again here, which raises what a one-thread search raises
    return search(slice(None))


def _split_parts(cfg: SolveConfig, n: int) -> int:
    """Processes a search of ``n`` states splits over: at most ``cfg.threads``
    and the usable CPUs, with at least ``_MIN_SPLIT_STATES`` states each.
    One where ``os.fork`` is missing or other threads run, which a fork
    would leave holding their locks in the child."""
    if cfg.threads < 2 or n < 2 * _MIN_SPLIT_STATES or not hasattr(os, "fork"):
        return 1
    import threading

    if threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cfg.threads, cpus, n // _MIN_SPLIT_STATES)


def _split_search(
    search: Callable[[slice], tuple[np.ndarray, np.ndarray, dict]], n: int, parts: int
) -> tuple[np.ndarray, np.ndarray, dict]:
    """``search(rows)`` over ``parts`` contiguous row ranges of ``n`` rows, merged.

    The calling process searches the first range and forked children the
    others.  A child inherits ``search``, so nothing is pickled going in;
    it pickles its result into a pipe and leaves by ``os._exit``, never
    returning into the caller's code.  Rows are searched independently, so
    the merged values, argmins and per-state counters are those of one
    search, and its batch counters are the maxima over the parts.  Raises
    if any part fails; no child outlives the call.
    """
    import pickle
    import signal

    cuts = [n * i // parts for i in range(parts + 1)]
    pipes, live = [], []  # read ends, and the children not yet reaped
    try:
        for a, b in zip(cuts[1:-1], cuts[2:]):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        pickle.dump(search(slice(a, b)), out, pickle.HIGHEST_PROTOCOL)
                        out.close()
                        code = 0
                    finally:
                        os._exit(code)
            live.append(pid)
        results = [search(slice(0, cuts[1]))]
        for pipe in pipes:
            data = pipe.read()  # all of it first: a child blocks on a full pipe
            status = os.waitpid(live[0], 0)[1]
            del live[0]
            if status:
                raise ChildProcessError(f"search worker ended with wait status {status}")
            results.append(pickle.loads(data))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    vals, args, diags = zip(*results)
    diag = {k: max(d[k] for d in diags) for k in ("expansions", "sweeps", "max_box")}
    diag["per_state"] = {
        k: np.concatenate([d["per_state"][k] for d in diags]) for k in diags[0]["per_state"]
    }
    return np.concatenate(vals), np.concatenate(args), diag


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


Continuation = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _stage_objective(
    problem: Problem, cont: Continuation
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The recursion at a stage: (K, S, X) -> stage cost + cont(K, post-decision state)."""

    def f(K: np.ndarray, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        vals = problem.stage_values(K, S, X)
        return vals + cont(K, problem.state_map.transition(K, S, X))

    return f


def _child_slots(tree: ScenarioTree, K: np.ndarray) -> list[tuple]:
    """The children of the rows of ``K``, slot by slot.

    Slot j lists (rows of K that have a j-th child, that child's
    position, its conditional probability); the rows are ``slice(None)``
    when every row has a j-th child, which uniform branching gives in
    every slot.
    """
    start = tree.child_start[K]
    count = tree.child_start[K + 1] - start
    slots = []
    if not len(K):
        return []
    full = int(count.min())
    for j in range(int(count.max())):
        rows = slice(None) if j < full else np.flatnonzero(count > j)
        e = start[rows] + j
        slots.append((rows, tree.child_pos[e], tree.child_prob[e]))
    return slots


def _expect(slots: list, child_values: np.ndarray, n: int) -> np.ndarray:
    """Per row, the probability-weighted sum of its children's values.

    ``child_values`` stacks the values slot after slot; each row
    accumulates its children in tree order, as a loop over children would.
    """
    out = np.zeros((n,) + child_values.shape[1:])
    i = 0
    for rows, kids, p in slots:
        v = child_values[i : i + len(kids)]
        i += len(kids)
        out[rows] += p.reshape((-1,) + (1,) * (v.ndim - 1)) * v
    return out


def _roll_back(tree: ScenarioTree, at_leaves) -> np.ndarray:
    """Per position, the conditional expectation of the values ``at_leaves``
    (one per leaf, in ``tree.leaves`` order), one stage at a time."""
    T = tree.horizon
    out = np.zeros(len(tree))
    out[tree.positions_at(T)] = at_leaves
    for t in range(T - 1, -1, -1):
        P = tree.positions_at(t)
        slots = _child_slots(tree, P)
        out[P] = _expect(slots, out[np.concatenate([c for _, c, _ in slots])], len(P))
    return out


def _table_continuation(
    problem: Problem, t: int, post: Mapping[str, "ValueTable"]
) -> Continuation:
    """Post-decision continuation of the stage-t nodes on the solver's tables.

    Leaves evaluate their objective exactly.  A stage whose children are
    all decision-free leaves also evaluates them exactly (the terminal
    cost-to-go is known in closed form, so the last stage needs no
    interpolation).  Any other stage interpolates each row's own post
    table: interpolation is linear in the values and +inf-aware, so this
    equals the probability-weighted sum of the children's interpolated
    tables.
    """
    tree = problem.tree
    T = tree.horizon
    if t == T or (t == T - 1 and problem.decision_dims[T] == 0):
        # the children decide nothing, so no search runs and the config is moot
        return _exact_continuation(problem, t, DEFAULT_CONFIG)
    nodes = tree.nodes_at(t)
    axes = post[nodes[0].id].axes
    values = np.stack([post[n.id].values for n in nodes])
    which = tree.stage_index
    return lambda K, Q: interp_multilinear(axes, values, Q, which=which[K])


class _Stage(NamedTuple):
    """One stage of :func:`_stagewise`, one row per node."""

    K: np.ndarray     # positions of the stage's nodes
    S: np.ndarray     # entering states
    X: np.ndarray     # decisions
    past: np.ndarray  # stage costs of each node's ancestors, summed from the root
    cost: np.ndarray  # stage value at (S, X)
    post: np.ndarray  # post-decision state


def _stagewise(
    problem: Problem,
    decide: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
) -> tuple[float, list[_Stage]]:
    """Follow decisions down the tree one stage per call and price them.

    ``decide(t, K, S)`` returns the decisions of the stage-t nodes K at
    their entering states S (one row per node); a decision-free stage
    decides nothing without calling it.  Each stage evaluates its stage
    values and transitions in one call each, and stage T its leaf values;
    a NaN stage or leaf value raises :class:`NumericFailure` naming the
    first such node in stage order.  A node's path cost is its parent's
    plus its own stage value.  Returns the expected total cost at the
    root (each leaf's path cost plus leaf value, combined backward by
    conditional expectation) and the stages.
    """
    tree = problem.tree
    stages: list[_Stage] = []
    for t in range(tree.horizon + 1):
        K = tree.positions_at(t)
        if t == 0:
            S = np.repeat(problem.state_map.initial[None, :], len(K), axis=0)
            past = np.zeros(len(K))
        else:
            up = tree.stage_index[tree.parent_pos[K]]
            S, past = post[up], path[up]
        X = decide(t, K, S) if problem.decision_dims[t] else np.zeros((len(K), 0))
        cost = problem.stage_values(K, S, X)
        _reject_nan(cost, None, problem._ids, K)
        post = problem.state_map.transition(K, S, X)
        path = past + cost
        stages.append(_Stage(K, S, X, past, cost, post))
    leaf = problem.leaf_values(K, post)
    _reject_nan(leaf, None, problem._ids, K)
    return float(_roll_back(tree, path + leaf)[tree.index(tree.root.id)]), stages


def _depth_first(tree: ScenarioTree) -> list[int]:
    """Positions in depth-first order: each node, then its children's
    subtrees in tree order (the order a strategy's decisions are keyed in)."""
    start, kids = tree.child_start, tree.child_pos
    out, todo = [], [tree.index(tree.root.id)]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids[start[p] : start[p + 1]][::-1].tolist())
    return out


def _entering_axes(
    problem: Problem, grids: Mapping[int, Sequence[np.ndarray]], t: int
) -> tuple[np.ndarray, ...]:
    if t == 0:
        axes = tuple(np.array([v]) for v in problem.state_map.initial)
        where = "the initial state"
    else:
        if t - 1 not in grids:
            raise ValueError(f"no state grid supplied for stage {t - 1}")
        want = problem.state_map.dims[t - 1]
        if len(grids[t - 1]) != want:
            raise ValueError(f"grids[{t-1}] must have {want} axes, got {len(grids[t - 1])}")
        axes = tuple(np.asarray(a, dtype=float) for a in grids[t - 1])
        where = f"grids[{t - 1}]"
    for d, a in enumerate(axes):
        if a.ndim != 1 or a.size == 0 or not np.isfinite(a).all() or (np.diff(a) <= 0).any():
            raise NumericFailure(f"axis {d} of {where} is not finite and strictly increasing")
    return axes


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
    post table, which its continuation then interpolates.  Each stage is
    one search over every (node, grid state) row of the stage.  Horizon
    positivity (cones.check_horizon_positivity) is a precondition: without
    it the expanding search box has nothing to bracket and the solve ends
    in :class:`SearchBoxExhausted`.  A grid axis that is not finite and
    strictly increasing raises :class:`NumericFailure`.

    The returned ``value`` is the table root value; ``forward_value``
    re-evaluates the true objective of the extracted policy with
    :func:`forward_pass` in mode ``forward`` ("greedy" or "exact").
    """
    tree = problem.tree
    T = tree.horizon
    if grids is None:
        grids = problem.meta.get("grids", {})
    pre: dict[str, ValueTable] = {}
    post: dict[str, ValueTable] = {}
    policy_entries: dict[str, tuple[tuple[np.ndarray, ...], np.ndarray]] = {}
    diagnostics: dict = {"nodes": {}}
    # a table entry below the conditional expectation of the declared lower
    # bound means the model builder declared an invalid bound
    bound_violations: dict[str, float] = {}
    for t in range(T, -1, -1):
        axes = _entering_axes(problem, grids, t)
        shape = tuple(len(a) for a in axes)
        mesh = (
            np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
            if axes
            else np.zeros((1, 0))
        )
        P = tree.positions_at(t)
        nodes = tree.nodes_at(t)
        n = len(P)
        ndim = problem.decision_dims[t]
        if t < T:
            out_axes = tuple(np.asarray(a, dtype=float) for a in grids[t])
            slots = _child_slots(tree, P)
            kids = np.concatenate([c for _, c, _ in slots])
            u = _expect(slots, stacked[tree.stage_index[kids]], n)
            for node, table in zip(nodes, u):
                post[node.id] = ValueTable(node.id, out_axes, table, "post")
        f = _stage_objective(problem, _table_continuation(problem, t, post))
        K = np.repeat(P, len(mesh))
        vals, args, diag = _minimize_at(f, K, np.tile(mesh, (n, 1)), ndim, cfg, problem._ids)
        stacked = vals.reshape((n,) + shape)
        args = args.reshape((n,) + shape + (ndim,))
        counters = {k: v.reshape(n, -1).max(axis=1) for k, v in diag["per_state"].items()}
        flat = stacked.reshape(n, -1)
        finite = np.isfinite(flat)
        low = np.where(finite, flat, INF).min(axis=1)
        bounds = problem._lower_bounds[P]
        for i, node in enumerate(nodes):
            pre[node.id] = ValueTable(node.id, axes, stacked[i], "pre")
            policy_entries[node.id] = (axes, args[i])
            diagnostics["nodes"][node.id] = {
                "expansions": int(counters["expansions"][i]),
                "sweeps": int(counters["sweeps"][i]),
                "max_box": float(counters["max_box"][i]),
            }
            if finite[i].any() and low[i] < bounds[i] - cfg.eps_opt:
                bound_violations[node.id] = float(low[i] - bounds[i])
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
    """Follow the extracted policy down the tree and price it exactly.

    Decisions are adapted by construction (one per visited node).  Mode
    "greedy" re-minimizes each node's objective at the exactly visited
    state with table continuations (interior nodes interpolate their post
    table); mode "exact" re-minimizes it against the interpolation-free
    nested recursion.  Both decide one stage per search, and
    :func:`_stagewise` prices each stage's decisions as it takes them.
    ``pre`` and ``policy`` are not read: both modes re-optimize instead of
    looking decisions up, and the parameters stay so that positional
    callers (perfbench/workloads.py) keep working.

    In mode "exact" each stage's search also yields the nested
    recursion's minimum at every (node, entering state) row of the stage,
    which is what :func:`verify_optimality` compares the strategy against.
    The returned strategy carries those minima (:class:`_ExactMinima`)
    for as long as it lives, so exact verification of this very strategy
    reads them instead of searching again; nothing is kept elsewhere, and
    a second call searches afresh.
    """
    if mode not in ("greedy", "exact"):
        raise ValueError(f"unknown forward mode {mode!r}")
    exact_cfg = cfg.exact_refine()
    minima: dict[int, tuple[bytes, bytes, np.ndarray]] = {}

    def decide(t: int, K: np.ndarray, S: np.ndarray) -> np.ndarray:
        if mode == "exact":
            vals, X, _ = _exact_min(problem, K, S, exact_cfg)
            minima[t] = (K.tobytes(), S.tobytes(), vals)
        else:
            f = _stage_objective(problem, _table_continuation(problem, t, post))
            _, X, _ = _minimize_at(f, K, S, problem.decision_dims[t], cfg, problem._ids)
        return np.where(np.isnan(X).any(axis=1, keepdims=True), 0.0, X)

    value, stages = _stagewise(problem, decide)
    chosen = {p: x for st in stages if st.X.shape[1] for p, x in zip(st.K.tolist(), st.X)}
    decisions = {problem._ids[p]: chosen[p] for p in _depth_first(problem.tree) if p in chosen}
    record = _ExactMinima(problem, exact_cfg, minima) if mode == "exact" else None
    return value, AdaptedSequence(decisions, _record=record)


# ---------------------------------------------------------------------------
# interpolation-free nested recursion (for verification on small trees)
# ---------------------------------------------------------------------------


def _exact_continuation(problem: Problem, t: int, cfg: SolveConfig) -> Continuation:
    """Post-decision continuation of the stage-t nodes by the nested
    recursion, no tables.

    The recursion stays batched all the way down: one search per level
    covers every child of every row (states x decisions per level), which
    keeps nested verification on small trees tractable.
    """
    if t == problem.tree.horizon:
        return problem.leaf_values

    def cont(K: np.ndarray, states: np.ndarray) -> np.ndarray:
        slots = _child_slots(problem.tree, K)
        kids = np.concatenate([c for _, c, _ in slots])
        entering = np.concatenate(
            [states[rows] if isinstance(rows, slice) else np.take(states, rows, axis=0)
             for rows, _, _ in slots]
        )
        vals = _exact_min(problem, kids, entering, cfg)[0]
        return _expect(slots, vals, len(K))

    return cont


def _exact_min(
    problem: Problem, K: np.ndarray, states: np.ndarray, cfg: SolveConfig
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Optimal values and decisions at a batch of (node, entering state) rows
    of one stage, no tables."""
    t = int(problem.tree.times[K[0]])  # all rows of a batch are at one stage
    f = _stage_objective(problem, _exact_continuation(problem, t, cfg))
    return _minimize_at(f, K, states, problem.decision_dims[t], cfg, problem._ids)


@dataclass(frozen=True, eq=False)
class _ExactMinima:
    """The nested recursion's minima that one exact forward pass computed:
    per decision stage t, the bytes of the stage's positions K and entering
    states S and the minimum at each (K[i], S[i]) row."""

    problem: Problem
    cfg: SolveConfig
    stages: Mapping[int, tuple[bytes, bytes, np.ndarray]]

    def lookup(
        self, problem: Problem, cfg: SolveConfig, t: int, K: np.ndarray, S: np.ndarray
    ) -> np.ndarray | None:
        """The stage-t minima if they were computed for this very problem
        object, an equal search config and bit-identical rows, else None.

        The minimum at (node, entering state) does not depend on the
        decision taken there, so the values are valid for any strategy that
        enters the stage at the same states."""
        if self.problem is not problem or self.cfg != cfg or t not in self.stages:
            return None
        k, s, vals = self.stages[t]
        return vals if k == K.tobytes() and s == S.tobytes() else None


# ---------------------------------------------------------------------------
# strategies: evaluation, expectation chains, verification
# ---------------------------------------------------------------------------


def _strategy_decisions(
    problem: Problem, strategy: AdaptedSequence
) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
    """The strategy's decisions at each stage, as a ``_stagewise`` decider.

    A decision node without a decision of the stage's dimension raises
    ValueError naming it."""

    def decide(t: int, K: np.ndarray, S: np.ndarray) -> np.ndarray:
        ndim = problem.decision_dims[t]
        ids = [problem._ids[p] for p in K.tolist()]
        xs = [strategy.values.get(i) for i in ids]
        for node_id, x in zip(ids, xs):
            if x is None or np.shape(x) != (ndim,):
                have = "no decision" if x is None else f"dimension {np.shape(x)}"
                raise ValueError(f"strategy at {node_id!r} has {have}, want {ndim}")
        return np.array(xs, dtype=float)

    return decide


def _strategy_points(
    problem: Problem,
    strategy: AdaptedSequence,
    result: "SolveResult | None",
    cfg: SolveConfig,
    method: str,
) -> list[tuple[Callable, _Stage, np.ndarray]]:
    """Per stage along the strategy: (objective f, the stage of the pass,
    f at the strategy's decisions), one row per node.

    ``method="tables"`` gives f the solver's table continuation,
    ``method="exact"`` the nested recursion's.
    """
    if method == "tables":
        if result is None:
            raise ValueError("a solve result is required for method='tables'")
    elif method != "exact":
        raise ValueError(f"unknown verification method {method!r}")
    points = []
    for t, st in enumerate(_stagewise(problem, _strategy_decisions(problem, strategy))[1]):
        if method == "exact":
            cont = _exact_continuation(problem, t, cfg.exact_refine())
        else:
            cont = _table_continuation(problem, t, result.post_tables)
        points.append((_stage_objective(problem, cont), st, st.cost + cont(st.K, st.post)))
    return points


def _chain(problem: Problem, points: list[tuple]) -> list[float]:
    """E h_t for t = 0..T: earlier stage costs plus each node's objective value."""
    probabilities = problem.tree.probabilities
    chain: list[float] = []
    for _, st, here in points:
        total = 0.0
        for v in (probabilities[st.K] * (st.past + here)).tolist():
            total += v
        chain.append(float(total))
    return chain


def evaluate_strategy(problem: Problem, strategy: AdaptedSequence) -> float:
    """Exact expected objective of an adapted strategy."""
    return _stagewise(problem, _strategy_decisions(problem, strategy))[0]


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

    The chain evaluates each node's objective at the strategy's own
    decision, so it never reads the minima an exact forward pass attaches
    to its strategy (see :func:`verify_optimality`): those are minima
    over the decision, not values at it.
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
    at the same entering state (one search per decision stage; at a
    decision-free stage the minimum is the chain's own value, so its gaps
    are 0 and a NaN there raises :class:`NumericFailure`).  The strategy is
    flagged optimal iff every consecutive chain difference and every
    nodewise gap is within ``eps_opt``.  A gridded solve can certify this
    only up to interpolation error; ``method="exact"`` removes that caveat
    for small trees by re-minimizing with the nested recursion.

    With ``method="exact"``, a decision stage's minima come without a
    search when the strategy was returned by ``forward_pass(mode="exact")``
    (or ``backward_solve(forward="exact")``) on this same problem object,
    with a config whose :meth:`SolveConfig.exact_refine` compares equal,
    and the strategy enters the stage at bit-identical (node, state) rows:
    the forward pass computed exactly these minima.  Every other strategy
    (copies, sums, bumped or edited ones) and every other config is
    searched as usual; the chain is always evaluated.
    """
    points = _strategy_points(problem, strategy, result, cfg, method)
    chain = _chain(problem, points)
    search_cfg = cfg.exact_refine() if method == "exact" else cfg
    record = strategy._record
    recorded = method == "exact" and isinstance(record, _ExactMinima)
    gaps: dict[str, float] = {}
    for t, (f, (K, S, X, *_), here) in enumerate(points):
        if X.shape[1] == 0:
            # no decision: the minimum is the chain's own value at the same rows
            _reject_nan(here, None, problem._ids, K)
            best = here
        else:
            best = record.lookup(problem, search_cfg, t, K, S) if recorded else None
            if best is None:
                best = _minimize_at(f, K, S, X.shape[1], search_cfg, problem._ids)[0]
        for p, h, b in zip(K.tolist(), here.tolist(), best.tolist()):
            gaps[problem._ids[p]] = 0.0 if math.isinf(h) and math.isinf(b) else h - b
    node_gaps = {n.id: gaps[n.id] for n in problem.tree.nodes}
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
) -> tuple[float, AdaptedSequence]:
    """Exhaustive enumeration over per-node decision grids.

    One decision per node (adaptedness), exact expectation per joint
    choice, global minimum returned; ties break to the first combination
    in lexicographic grid order.  Independent of the recursion: no tables,
    no interpolation, no refinement.

    A node's entering state depends only on the decisions on its path, so
    its stage value, transition and leaf value are evaluated once per
    combination of those decisions: on an array with one axis per decision
    node (``problem.decision_nodes()`` order), of the size of the product
    of its path's grid sizes.  Siblings are then summed with the
    arithmetic of :func:`_stagewise` (path cost plus leaf value, then each
    node's children in tree order), element by element, in C-order blocks
    of at most ``_BF_BLOCK`` joint choices, so the value and the strategy
    are those of :func:`evaluate_strategy` per joint choice, bit for bit.  More than ``guard`` joint
    choices raise :class:`BudgetExceeded` before any evaluation; a decision
    node without a grid, or with a grid of no rows or of the wrong width,
    raises ValueError naming it.
    """
    tree = problem.tree
    nodes = problem.decision_nodes()
    mats = []
    for n in nodes:
        if n.id not in grids:
            raise ValueError(f"no decision grid at {n.id!r}")
        g = np.atleast_2d(np.asarray(grids[n.id], dtype=float))
        if g.shape[0] == 1 and problem.decision_dim(n.id) == 1 and g.shape[1] > 1:
            g = g.T
        if g.shape[1] != problem.decision_dim(n.id):
            raise ValueError(f"grid at {n.id!r} has wrong decision dimension")
        if g.shape[0] == 0:
            raise ValueError(f"grid at {n.id!r} has no decisions")
        mats.append(g)
    sizes = [m.shape[0] for m in mats]
    total = 1
    for s in sizes:
        total *= s
        if total > guard:
            raise BudgetExceeded(
                f"{total}+ combinations exceed the enumeration guard {guard}"
            )

    ids = problem._ids
    T = tree.horizon
    start, kids, probs = tree.child_start, tree.child_pos, tree.child_prob
    axis_of = {tree.index(n.id): a for a, n in enumerate(nodes)}
    ones = (1,) * len(nodes)
    # a leaf's path cost plus leaf value, and the shape of each node's value
    # (an axis of size 1 is a decision the value does not depend on)
    leaf_cost: dict[int, np.ndarray] = {}
    shape_of: dict[int, tuple[int, ...]] = {}

    def visit(p: int, S: np.ndarray, acc: np.ndarray) -> None:
        shape = S.shape[:-1]
        a = axis_of.get(p)
        if a is None:
            X = np.zeros(shape + (0,))
        else:
            shape = shape[:a] + (sizes[a],) + shape[a + 1 :]
            X = mats[a].reshape(ones[:a] + (sizes[a],) + ones[a + 1 :] + (-1,))
        m = math.prod(shape)
        Srows = np.broadcast_to(S, shape + S.shape[-1:]).reshape(m, S.shape[-1])
        Xrows = np.broadcast_to(X, shape + X.shape[-1:]).reshape(m, X.shape[-1])
        K = np.full(m, p)
        here = problem.stage_values(K, Srows, Xrows)
        _reject_nan(here, None, ids, K)
        acc = acc + here.reshape(shape)
        nxt = problem.state_map.transition(K, Srows, Xrows)
        if tree.times[p] == T:
            leaf = problem.leaf_values(K, nxt)
            _reject_nan(leaf, None, ids, K)
            leaf_cost[p] = acc + leaf.reshape(shape)
            shape_of[p] = shape
            return
        nxt = nxt.reshape(shape + nxt.shape[-1:])
        children = [int(c) for c in kids[start[p] : start[p + 1]]]
        for c in children:
            visit(c, nxt, acc)
        shape_of[p] = np.broadcast_shapes(shape, *(shape_of[c] for c in children))

    root = tree.index(tree.root.id)
    S0 = problem.state_map.initial.reshape(ones + (-1,))
    visit(root, S0, np.zeros(ones))

    def value(p: int, block: tuple[slice, ...]) -> np.ndarray:
        """Node p's expected cost-to-go over the joint choices of ``block``."""
        cut = [b if n > 1 else slice(0, 1) for n, b in zip(shape_of[p], block)]
        if p in leaf_cost:
            return leaf_cost[p][tuple(cut)]
        out = np.zeros([b.stop - b.start for b in cut])
        for e in range(start[p], start[p + 1]):
            out += probs[e] * value(int(kids[e]), block)
        return out

    # C-order blocks: single indices of the leading axes, ranges of the last
    # split one, the trailing axes whole
    split, tail = len(sizes), 1
    while split > 0 and tail * sizes[split - 1] <= _BF_BLOCK:
        split -= 1
        tail *= sizes[split]
    per_axis = [[slice(0, s)] for s in sizes]
    if split > 0:
        per_axis[: split - 1] = [[slice(i, i + 1) for i in range(s)] for s in sizes[: split - 1]]
        s, step = sizes[split - 1], _BF_BLOCK // tail
        per_axis[split - 1] = [slice(lo, min(lo + step, s)) for lo in range(0, s, step)]

    best_val = INF
    best_combo = None
    for block in itertools.product(*per_axis):
        vals = value(root, block)
        j = int(np.argmin(vals))
        if vals.flat[j] < best_val:
            best_val = float(vals.flat[j])
            at = np.unravel_index(j, vals.shape)
            best_combo = [b.start + int(i) for b, i in zip(block, at)]
    if best_combo is None:
        return INF, AdaptedSequence({})
    decisions = {n.id: mats[a][best_combo[a]] for a, n in enumerate(nodes)}
    return best_val, AdaptedSequence(decisions)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------
#
# The CSV side files hold the bytes ``csv.writer(fh)`` (default dialect) would
# write, with every float written as its ``repr``.  Text fields (node ids,
# table kinds) go through the csv module; floats never need quoting, so each
# distinct float is formatted once per file and a table's rows are joined
# into one string.


def _csv_start(fields: list[str], more: bool) -> str:
    """``fields`` as ``csv.writer`` writes them at the start of a row, line
    terminator dropped; ``more``: further fields follow in the row.

    The writer keeps its default terminator: the csv module quotes a field
    holding a line break only if that character is part of the terminator.
    """
    buf = io.StringIO()
    csv.writer(buf).writerow(fields + [""] * more)
    return buf.getvalue()[: -3 if more else -2]


def _float_fields(values: np.ndarray, cache: dict[int, str]) -> list[str]:
    """``"," + repr(v)`` for each float ``v`` of ``values`` in C order.

    ``cache`` maps a bit pattern to its field, so -0.0, 0.0 and every NaN
    payload stay apart and each distinct float is formatted once per file.
    """
    keys = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.int64).tolist()
    new = list(set(keys).difference(cache))
    for k, v in zip(new, np.array(new, dtype=np.int64).view(float).tolist()):
        cache[k] = "," + repr(v)
    return list(map(cache.__getitem__, keys))


def write_csv_rows(
    fh, start: list[str], lead: Sequence[str], values: np.ndarray, width: int,
    cache: dict[int, str],
) -> None:
    """Append one CSV row per entry of ``lead`` to ``fh``, in one write.

    Row i holds the text fields ``start``, then ``lead[i]`` (fields already
    formatted, each as ``",field"``), then row i of ``values`` (reshaped to
    ``len(lead)`` rows) as ``repr`` fields, padded with empty fields to
    ``width``.  ``cache`` is the file's float cache (:func:`_float_fields`).
    """
    n = len(lead)
    if not n:
        return
    fields = _float_fields(values, cache)
    k = len(fields) // n
    if k == 1:
        rows = fields
    elif k:
        rows = list(map("".join, zip(*[iter(fields)] * k)))
    else:
        rows = [""] * n
    head = _csv_start(start, more=bool(lead[0]) or width > 0)
    end = "," * (width - k) + "\r\n"
    fh.write(head + (end + head).join(map(operator.add, lead, rows)) + end)


def _coordinate_fields(axes: tuple[np.ndarray, ...], width: int) -> list[str]:
    """Each grid point's coordinates in C order as ``",c0,c1,..."``, padded
    with empty fields to ``width``."""
    pad = "," * (width - len(axes))
    formatted = [["," + repr(v) for v in np.asarray(a, dtype=float).tolist()] for a in axes]
    return ["".join(c) + pad for c in itertools.product(*formatted)]


def export_tables_csv(result: SolveResult, path: str) -> None:
    """Plot-ready dump: node, table kind, grid coordinates, value."""
    tabs = list(result.pre_tables.values()) + list(result.post_tables.values())
    width = max((len(t.axes) for t in tabs), default=0)
    coords: dict[int, list[str]] = {}  # stages share their axes objects
    cache: dict[int, str] = {}
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["node", "kind"] + [f"s{i}" for i in range(width)] + ["value"])
        for t in tabs:
            if id(t.axes) not in coords:
                coords[id(t.axes)] = _coordinate_fields(t.axes, width)
            write_csv_rows(fh, [t.node, t.kind], coords[id(t.axes)], t.values, 1, cache)


def export_policy_csv(result: SolveResult, path: str) -> None:
    """Plot-ready dump: node, entering-state coordinates, decision."""
    entries = result.policy.entries
    swidth = max((len(axes) for axes, _ in entries.values()), default=0)
    dwidth = max((arr.shape[-1] for _, arr in entries.values()), default=0)
    coords: dict[int, list[str]] = {}
    cache: dict[int, str] = {}
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(
            ["node"] + [f"s{i}" for i in range(swidth)] + [f"x{i}" for i in range(dwidth)]
        )
        for node, (axes, arr) in entries.items():
            if id(axes) not in coords:
                coords[id(axes)] = _coordinate_fields(axes, swidth)
            write_csv_rows(fh, [node], coords[id(axes)], arr, dwidth, cache)


def _json_ready(obj):
    """``obj`` with each infinite float replaced by the string "inf" or "-inf",
    which :func:`float` (and so the model and spec readers) reads back."""
    if isinstance(obj, float):
        return ("inf" if obj > 0 else "-inf") if math.isinf(obj) else obj
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def json_text(payload, indent: int | None = None) -> str:
    """Standard, deterministic JSON (sorted keys, repr floats): infinities are
    written as strings, and a NaN raises ``ValueError`` instead of being
    written.  A payload of finite numbers reads as ``json.dumps`` writes it."""
    return json.dumps(_json_ready(payload), sort_keys=True, indent=indent, allow_nan=False)


def report_json(result: SolveResult, extra: dict | None = None) -> str:
    """Deterministic JSON report (see :func:`json_text`)."""
    payload = result.report_dict()
    if extra:
        payload.update(extra)
    return json_text(payload, indent=2)
