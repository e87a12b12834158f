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
(``verify_optimality(..., method="exact")``).  Verification by either
continuation reuses the minima that the forward pass of the same
continuation attached to the strategy it returned.

One stage step (:meth:`Problem.step`) evaluates each row's transition
and stage cost once, for the search objective, the stage-batched pass
and brute force.  One stage-batched pass (:func:`_stagewise`) follows
decisions down the tree and prices them for the forward passes,
:func:`evaluate_strategy`, the expectation chain and the verifier; brute
force keeps its own walk, as the independent oracle.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from .efun import AffinePrecompose, ExtFun, Sum
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
        if not (0 < self.box_init <= self.box_max < math.inf):
            raise ValueError("box_init and box_max must be finite with 0 < box_init <= box_max, "
                             f"got {self.box_init} and {self.box_max}")
        if not (0 <= self.margin < math.inf):
            raise ValueError(f"margin must be finite and >= 0, got {self.margin}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def exact_refine(self) -> "SolveConfig":
        """Variant used by the interpolation-free nested recursion."""
        return replace(self, grid_points=21, eps_ref=1e-9, threads=1)


DEFAULT_CONFIG = SolveConfig()


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------


def first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's group of equal ``keys``, the groups numbered in order of
    first appearance, and the index of each group's first entry."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order]


class RowGroups:
    """Rows of a batch grouped by a per-position object, compared by identity.

    ``RowGroups(objs, times)`` takes one object (or None) and the stage of
    each tree position.  ``map(K, fn)`` evaluates ``fn(object, rows)`` once
    per distinct object among the rows' positions ``K``, which lie at one
    stage (as the rows of a :class:`StateMap` call), and assembles the
    results in row order.  ``rows`` is ``slice(None)`` when one object
    covers every position of that stage, decided once per stage, so the
    common case evaluates the whole batch without copies or a look at K.
    """

    def __init__(self, objs: Sequence[object], times: np.ndarray):
        # groups decided on the objects' ids at once
        self.gid, first = first_appearance(
            np.fromiter(map(id, objs), dtype=np.uint64, count=len(objs)))
        self.objs: list[object] = [objs[i] for i in first.tolist()]
        self.times = times
        # per stage: the group of all its positions, or -1 when they differ
        stages = int(times.max(initial=-1)) + 1
        lo = np.full(stages, len(first), dtype=np.int64)
        hi = np.full(stages, -1, dtype=np.int64)
        np.minimum.at(lo, times, self.gid)
        np.maximum.at(hi, times, self.gid)
        self.stage_gid = np.where(lo == hi, lo, -1)

    def map(
        self, K: np.ndarray, fn: Callable[[object, slice | np.ndarray], np.ndarray]
    ) -> np.ndarray:
        if len(self.objs) == 1:
            return np.asarray(fn(self.objs[0], slice(None)), dtype=float)
        u = self.stage_gid[self.times[K[0]]]
        if u >= 0:
            return np.asarray(fn(self.objs[u], slice(None)), dtype=float)
        g = self.gid.take(K)
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
    The result is the post-decision state: the next stage enters it, and
    the stage functions read it as ``post`` (see :meth:`Problem.step`).
    The leaf objective composed with transitions along a path must equal
    the modeled objective for all decision paths; that soundness is the
    model builder's obligation.  The history map of
    :func:`history_problem` (state = concatenated decisions) is always
    sound and is the fallback for small problems.
    """

    dims: tuple[int, ...]
    initial: np.ndarray
    transition: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(
            self, "initial", np.atleast_1d(np.asarray(self.initial, dtype=float))
        )


StageFun = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Problem:
    """A dynamic stochastic optimization problem on a scenario tree.

    The objective along a path is the sum of per-node stage functions of
    (entering state, decision) plus a per-leaf function of the terminal
    state; all pieces are bounded below by the integrable bound
    ``lower_bound``, so expectations are well defined with values in
    R union {+inf}.  Every node of stage t decides ``decision_dims[t]``
    coordinates.

    Stage functions are callables ``(K, S, X, post)`` with the row
    convention of :class:`StateMap`; ``post`` is the rows' post-decision
    state, computed once by :meth:`step`.  ExtFun stage terms over
    (state, decision) are taken by :func:`history_problem`, whose
    post-decision state is exactly that.  Rows are evaluated per distinct
    function object, so nodes that share one object (a builder's
    per-stage constraint, one leaf objective per utility) are evaluated
    in one call.

    ``local_keys`` (one hashable per node id, or None) lets
    :func:`backward_solve` search each class of bit-identical subtrees
    once (see :attr:`_representatives`).  A node's key must cover
    everything its stage function, the transition and its leaf objective
    read from its position ``K``; nodes with equal keys must be
    interchangeable bit for bit.  That is the builder's obligation, and
    whoever replaces ``stage_funs`` or ``state_map`` on a keyed problem
    owns it.  None shares nothing.
    """

    tree: ScenarioTree
    decision_dims: tuple[int, ...]
    state_map: StateMap
    leaf_objective: Mapping[str, ExtFun]
    stage_funs: Mapping[str, StageFun] | None = None
    lower_bound: float | Mapping[str, float] = 0.0
    meta: dict = field(default_factory=dict)
    local_keys: Mapping[str, Hashable] | None = None

    def __post_init__(self):
        T = self.tree.horizon
        if len(self.decision_dims) != T + 1:
            raise ValueError(f"need decision dims for stages 0..{T}")
        for leaf in self.tree.ids_at(T):
            if leaf not in self.leaf_objective:
                raise ValueError(f"no leaf objective at {leaf!r}")
        tree, stage = self.tree, self.stage_funs or {}
        ids, known = tree.ids, tree.id_positions.keys()
        if self.local_keys is not None and not self.local_keys.keys() >= known:
            missing = next(i for i in ids if i not in self.local_keys)
            raise ValueError(f"no local key at {missing!r}")
        distinct = {id(fn): fn for fn in stage.values()}.values()
        if not stage.keys() <= known or any(isinstance(fn, ExtFun) for fn in distinct):
            for nid, fn in stage.items():  # name the first offender
                if nid not in tree:
                    raise ValueError(f"stage function at unknown node {nid!r}")
                if isinstance(fn, ExtFun):
                    raise ValueError(f"stage function at {nid!r} is an ExtFun, not a callable "
                                     "(K, S, X, post): history_problem takes ExtFun stage terms")
        times = tree.times
        object.__setattr__(self, "_stage_groups", RowGroups(list(map(stage.get, ids)), times))
        object.__setattr__(
            self, "_leaf_groups", RowGroups(list(map(self.leaf_objective.get, ids)), times))
        object.__setattr__(self, "_ids", ids)

    def decision_dim(self, node_id: str) -> int:
        return self.decision_dims[self.tree.times[self.tree._pos(node_id)]]

    def decision_nodes(self) -> list[Node]:
        dims = self.decision_dims
        return [n for n, t in zip(self.tree.nodes, self.tree.times.tolist()) if dims[t]]

    def step(self, K: np.ndarray, S: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(stage cost, post-decision state) of each row: the transition
        runs once, then each row's stage function reads (K, S, X, post)."""
        post = self.state_map.transition(K, S, X)

        def evaluate(fn, rows):
            if fn is None:
                return np.zeros(S[rows].shape[0])
            return fn(K[rows], S[rows], X[rows], post[rows])

        return self._stage_groups.map(K, evaluate), post

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

    @cached_property
    def _representatives(self) -> np.ndarray:
        """Per position, the index within ``positions_at`` of its stage of
        the first node whose subtree is bit-identical to its own.

        Classes are built bottom-up, one stage at a time.  Two nodes of a
        stage share a class when their local keys are equal, their stage
        functions and leaf objectives are the same objects, and their
        children agree in tree order in probability bits and class.  By
        the dynamic programming principle such nodes have bit-identical
        tables, argmins and search counters.  Without local keys every
        node is its own representative.
        """
        tree = self.tree
        if self.local_keys is None:
            return tree.stage_index
        start, kids = tree.child_start.tolist(), tree.child_pos
        prob_bits = tree.child_prob.view(np.int64).tolist()
        stage_fn, leaf_fn = self._stage_groups.gid.tolist(), self._leaf_groups.gid.tolist()
        first = np.empty(len(tree), dtype=np.int64)  # position of each class's first node
        for t in range(tree.horizon, -1, -1):
            classes: dict = {}
            for p in tree.positions_at(t).tolist():
                a, b = start[p], start[p + 1]
                key = (
                    self.local_keys[self._ids[p]], stage_fn[p], leaf_fn[p],
                    tuple(zip(prob_bits[a:b], first[kids[a:b]].tolist())),
                )
                first[p] = classes.setdefault(key, p)
        return tree.stage_index[first]

    def expected_lower_bound(self, node_id: str) -> float:
        """Conditional expectation of the lower bound given the node."""
        return float(self._lower_bounds[self.tree.index(node_id)])


def history_problem(
    tree: ScenarioTree,
    decision_dims: Sequence[int],
    leaf_objective: Mapping[str, ExtFun],
    lower_bound: float | Mapping[str, float],
    stage_funs: Mapping[str, ExtFun | StageFun] | None = None,
    meta: dict | None = None,
) -> Problem:
    """Problem whose state is the raw concatenated decision history.

    A stage function is a callable ``(K, S, X, post)`` or an ExtFun of
    the rows ``[S, X]``, which here are ``post``: each distinct ExtFun is
    evaluated through one callable of ``post``, shared as the ExtFun was.

    The leaf objectives are then expressions over the path decisions, and
    a stage-t function one over the first ``cum[t]`` of them.  So when
    every stage function is an ExtFun, the problem carries its path
    objectives (``meta["path_objectives"]``): each leaf's objective plus,
    in path order, each path node's stage function precomposed with its
    stage's prefix selector, one term per node that every leaf below it
    shares.  A callable stage function leaves them out, and the horizon
    check is undecided.
    """
    dims = tuple(int(d) for d in decision_dims)
    cum = [int(c) for c in np.cumsum(dims)]

    def transition(K: np.ndarray, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.hstack([S, X])

    # one callable per distinct ExtFun (the last one made for it)
    wrapped = {id(f): lambda K, S, X, post, _f=f: _f.value_many(post)
               for f in (stage_funs or {}).values() if isinstance(f, ExtFun)}
    problem = Problem(
        tree=tree,
        decision_dims=dims,
        state_map=StateMap(dims=tuple(cum), initial=np.zeros(0), transition=transition),
        leaf_objective=dict(leaf_objective),
        stage_funs=None if stage_funs is None else {
            nid: wrapped.get(id(f), f) for nid, f in stage_funs.items()},
        lower_bound=lower_bound,
        meta=dict(meta or {}),
    )
    funs = [(stage_funs or {}).get(node.id) for node in tree.nodes]
    if any(f is not None and not isinstance(f, ExtFun) for f in funs):
        return problem
    sel = [np.hstack([np.eye(k), np.zeros((k, cum[-1] - k))]) for k in cum]
    terms = [None if f is None else AffinePrecompose(f, sel[node.time])
             for node, f in zip(tree.nodes, funs)]
    paths: dict[str, ExtFun] = {}
    for leaf, path in zip(tree.leaves, tree.ancestors.tolist()):
        parts = [problem.leaf_objective[leaf.id]] + [terms[p] for p in path if terms[p] is not None]
        paths[leaf.id] = parts[0] if len(parts) == 1 else Sum(tuple(parts))
    problem.meta["path_objectives"] = paths
    return problem


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
        at_lo = ax.take(lo)
        t = np.clip((q - at_lo) / (ax.take(hi) - at_lo), 0.0, 1.0)
        base = base + lo * strides[d]
        live.append(d)
        weights[d] = (1.0 - t, t)
    # per corner: its offset from the lower corner and its weight per row
    corners = []
    for bits in itertools.product((0, 1), repeat=len(live)):
        factors = [weights[d][b] for d, b in zip(live, bits)]
        w = factors[0] if factors else np.ones(m)
        for f in factors[1:]:
            w = w * f
        corners.append((sum(b * strides[d] for d, b in zip(live, bits)), w))
    out = np.zeros(m)
    with np.errstate(invalid="ignore"):  # 0 * inf: a row summed again below
        for off, w in corners:
            out += w * flat.take(base + off)
    # only a +inf or NaN corner (or an overflowing sum) leaves a sum that is
    # not finite; those rows are summed again, +inf-aware: a +inf corner of
    # positive weight makes the row +inf, one of zero weight adds nothing
    redo = np.flatnonzero(~np.isfinite(out))
    if redo.size:
        acc = np.zeros(redo.size)
        hit_inf = np.zeros(redo.size, dtype=bool)
        for off, w in corners:
            v = flat.take(base[redo] + off)
            w = w[redo]
            inf_here = np.isinf(v)
            hit_inf |= (w > 0) & inf_here
            acc += w * np.where(inf_here, 0.0, v)
        acc[hit_inf] = INF
        out[redo] = acc
    out[outside] = INF
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
    - A refinement round whose sweep is call-bound (2 * dim * live states
      <= ``_MAX_ROWS // 4`` rows) polls, in one call, the pairs each live
      state would poll next if nothing were accepted: the rest of its
      sweep, then whole sweeps at s/2, s/4, ... (the first at s after a
      move in the sweep), never below ``eps_ref``, as many sweeps as fit
      in ``_MAX_ROWS // 4`` rows and at most 8.  It then replays them in
      the sequential order: a state consumes its pairs up to and
      including the first accepted one (and that one's follow-up), drops
      the rest, and goes on from there in the next round.  Larger rounds
      poll one coordinate of every state (in calls of ``_MAX_ROWS``
      rows), which is the sweep above call for call.  A row's value does
      not depend on the other rows of its call and halving a step is exact
      (``eps_ref`` keeps it far above the subnormals), so each consumed
      value is the sequential poll's own: values, argmins and counters
      keep their bits.  A NaN at a dropped row is never read; a NaN that
      a speculative round consumes makes the refinement run again from the
      grid's result one coordinate a call, so the error names the state
      the sequential poll names.

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
    ``expansions`` (box doublings), ``sweeps`` (the most refinement sweeps
    of any state) and ``max_box`` (last half-width), and under
    ``per_state`` the same three counters for each state alone.
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
    half = max(1, _MAX_ROWS // 2)  # pairs per call: their + and - rows

    def polish(speculate: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Pattern search from the grid's argmins: (x, f(x), sweeps) per
        state, or None if a speculative round read a NaN."""
        x = best_x[refine]
        fx = best_val[refine]
        step = step0[refine]
        at = np.zeros(len(refine), dtype=np.int64)  # each state's next coordinate
        moved = np.zeros(len(refine), dtype=bool)  # its sweep so far moved it
        sweeps = np.zeros(len(refine), dtype=np.int64)
        live = np.flatnonzero(step >= cfg.eps_ref)
        coord = 0  # the coordinate of a lockstep round (one coordinate per call)
        while live.size:
            n = live.size
            # sweeps polled ahead in a call-bound round: _MAX_ROWS // 4 rows at most
            ahead = min(8, _MAX_ROWS // 4 // (2 * dim * n)) if speculate else 0
            if ahead:
                # the pairs polled if nothing is accepted: the rest of the
                # sweep, then sweeps at halved steps (the first not halved
                # after a move), none below eps_ref
                steps = np.empty((n, ahead))
                steps[:, 0] = step[live]
                nxt = np.where(moved[live], steps[:, 0], steps[:, 0] * 0.5)
                for j in range(1, ahead):
                    steps[:, j] = nxt
                    nxt = nxt * 0.5
                polled = np.repeat((steps >= cfg.eps_ref)[:, :, None], dim, axis=2)
                polled[:, 0] &= np.arange(dim) >= at[live][:, None]
                own, sweep, d = np.nonzero(polled)  # each state's pairs in poll order
                s = steps[own, sweep]
                state = live[own]
            else:  # lockstep: one pair per state, all at the same coordinate
                state, sweep, d, s = live, 0, coord, step[live]
            plus = np.empty(len(state))
            minus = np.empty(len(state))
            for a in range(0, len(state), half):
                part = slice(a, a + half)
                i = state[part]
                cand = np.concatenate([x[i], x[i]])
                if ahead:
                    r = np.arange(len(i))
                    cand[r, d[part]] += s[part]
                    cand[r + len(i), d[part]] -= s[part]
                else:
                    cand[: len(i), d] += s[part]
                    cand[len(i) :, d] -= s[part]
                vals = np.asarray(objective(np.concatenate([refine[i]] * 2), cand), dtype=float)
                plus[part] = vals[: len(i)]
                minus[part] = vals[len(i) :]
            if ahead:
                # replay: each state consumes its pairs up to the first one
                # that accepts or reads a NaN, and drops the rest
                base = fx[state]
                event = np.isnan(plus) | (plus < base) | np.isnan(minus) | (minus < base)
                count = polled.sum(axis=(1, 2))
                ends = np.cumsum(count)
                first = np.minimum.reduceat(np.where(event, np.arange(len(own)), len(own)),
                                            ends - count)
                last = np.minimum(first, ends - 1)
                d, s, sweep, plus, minus = d[last], s[last], sweep[last], plus[last], minus[last]
            if np.isnan(plus).any():
                if ahead:
                    return None
                _reject_nan(plus, refine[live], label, groups)
            acc = plus < fx[live]
            i = live[acc]
            col = d[acc] if ahead else d
            old = x[i, col]
            x[i, col] = old + s[acc]
            # the sequential poll's minus row of a moved state is (x + s) - s:
            # bitwise x (value fx, strictly worse than the accepted f(x + s))
            # or, after rounding, a new point
            minus[acc] = fx[i]
            fx[i] = plus[acc]
            back = x[i, col] - s[acc]
            rounded = back.view(np.int64) != old.view(np.int64)
            if rounded.any():
                cand = x[i[rounded]]
                cand[np.arange(len(cand)), col[rounded] if ahead else col] = back[rounded]
                minus[np.flatnonzero(acc)[rounded]] = eval_rows(refine[i[rounded]], cand)
            if np.isnan(minus).any():
                if ahead:
                    return None
                _reject_nan(minus, refine[live], label, groups)
            acc_m = minus < fx[live]
            i = live[acc_m]
            x[i, d[acc_m] if ahead else d] -= s[acc_m]
            fx[i] = minus[acc_m]
            if ahead:
                # each state's place: the coordinate after its last consumed pair
                sweeps[live] += sweep
                moving = acc | acc_m | moved[live] & (sweep == 0)  # that sweep moved it
                end = d == dim - 1
                sweeps[live[end]] += 1
                step[live] = np.where(end & ~moving, s * 0.5, s)
                at[live] = np.where(end, 0, d + 1)
                moved[live] = moving & ~end
            else:
                moved[live[acc | acc_m]] = True
                coord = (coord + 1) % dim
                if coord:
                    continue
                # the sweep ends, so each state's place is where a speculative
                # round would start it: at coordinate 0, not moved
                swept = step >= cfg.eps_ref  # the live states, as a mask
                sweeps += swept
                step[swept & ~moved] *= 0.5
                moved[:] = False
            live = np.flatnonzero(step >= cfg.eps_ref)  # a step below eps_ref never grows
        return x, fx, sweeps

    if refine.size:
        polished = polish(True)
        if polished is None:  # ran again as the sequential poll, which names its first NaN
            polished = polish(False)
        best_x[refine], best_val[refine], per_state["sweeps"][refine] = polished
        diag["sweeps"] = int(per_state["sweeps"].max())
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
        return _evaluate(f, K, states, names), np.zeros((n, 0)), _search_diag(n)

    def search(rows: slice) -> tuple[np.ndarray, np.ndarray, dict]:
        Kr, Sr = K[rows], states[rows]
        return minimize_batch(
            lambda I, X: f(Kr.take(I), Sr.take(I, axis=0), X), dim, len(Kr), cfg,
            label=names, groups=None if groups is None else Kr,
        )

    parts = _split_parts(cfg, n)
    if parts > 1:
        try:
            return _split_search(search, n, parts)
        except Exception:
            pass  # searched again here, which raises what a one-thread search raises
    return search(slice(None))


def _evaluate(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    K: np.ndarray,
    states: np.ndarray,
    names: Sequence[str] | str,
) -> np.ndarray:
    """``f(K, S, X)`` at each row with no decision to choose, in calls of at
    most ``_MAX_ROWS`` rows; a NaN value raises :class:`NumericFailure`
    naming its node (``names`` as for :func:`_minimize_at`)."""
    X = np.zeros((len(K), 0))
    parts = [
        np.asarray(f(K[a : a + _MAX_ROWS], states[a : a + _MAX_ROWS], X[a : a + _MAX_ROWS]),
                   dtype=float)
        for a in range(0, len(K), _MAX_ROWS)
    ]
    vals = parts[0] if len(parts) == 1 else np.concatenate([np.zeros(0)] + parts)
    _reject_nan(vals, None, names, None if isinstance(names, str) else K)
    return vals


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
        cost, post = problem.step(K, S, X)
        return cost + cont(K, post)

    return f


def _child_slots(tree: ScenarioTree, K: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """The children of the rows of ``K`` (positions of one stage), slot by
    slot, and all of them.

    Slot j lists (rows of K that have a j-th child, that child's position,
    its conditional probability); the rows are ``slice(None)`` when every
    row has a j-th child, which uniform branching gives in every slot (read
    from ``tree.uniform_children``).  The second result concatenates the
    slots' child positions.
    """
    if not len(K):
        return [], np.zeros(0, dtype=np.int64)
    uniform = tree.uniform_children.get(int(tree.times[K[0]]))
    if uniform is not None:
        col = tree.stage_index.take(K)
        kids, probs = uniform[0].take(col, axis=1), uniform[1].take(col, axis=1)
        return [(slice(None), c, p) for c, p in zip(kids, probs)], kids.reshape(-1)
    start = tree.child_start[K]
    count = tree.child_start[K + 1] - start
    slots = []
    full = int(count.min())
    for j in range(int(count.max())):
        rows = slice(None) if j < full else np.flatnonzero(count > j)
        e = start[rows] + j
        slots.append((rows, tree.child_pos[e], tree.child_prob[e]))
    return slots, np.concatenate([c for _, c, _ in slots] or [np.zeros(0, dtype=np.int64)])


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


def _class_arrays(stack: np.ndarray) -> list[np.ndarray]:
    """The classes' arrays of a stack (one class per leading index): read-only
    views, one object per class, which every node of the class holds."""
    stack.flags.writeable = False
    return list(stack)


def _roll_back(tree: ScenarioTree, at_leaves) -> np.ndarray:
    """Per position, the conditional expectation of the values ``at_leaves``
    (one per leaf, in ``tree.leaves`` order), one stage at a time."""
    T = tree.horizon
    out = np.zeros(len(tree))
    out[tree.positions_at(T)] = at_leaves
    for t in range(T - 1, -1, -1):
        P = tree.positions_at(t)
        slots, kids = _child_slots(tree, P)
        out[P] = _expect(slots, out[kids], len(P))
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
    # one stacked table per distinct array (a subtree class shares one), and
    # per position of the stage the row of its node's array
    arrays = [post[n.id].values for n in nodes]
    distinct = {id(a): a for a in arrays}
    row = {k: i for i, k in enumerate(distinct)}
    which = np.zeros(len(tree), dtype=np.intp)
    which[tree.positions_at(t)] = [row[id(a)] for a in arrays]
    values = np.stack(list(distinct.values()))
    return lambda K, Q: interp_multilinear(axes, values, Q, which=which.take(K))


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
) -> tuple[float, list[_Stage], np.ndarray]:
    """Follow decisions down the tree one stage per call and price them.

    ``decide(t, K, S)`` returns the decisions of the stage-t nodes K at
    their entering states S (one row per node); a decision-free stage
    decides nothing without calling it.  Each stage evaluates its stage
    values and transitions in one :meth:`Problem.step`, and stage T its
    leaf values; a NaN stage or leaf value raises :class:`NumericFailure`
    naming the first such node in stage order.  A node's path cost is its
    parent's plus its own stage value.  Returns the expected total cost at the
    root (each leaf's path cost plus leaf value, combined backward by
    conditional expectation), the stages and the leaf values.
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
        cost, post = problem.step(K, S, X)
        _reject_nan(cost, None, problem._ids, K)
        path = past + cost
        stages.append(_Stage(K, S, X, past, cost, post))
    leaf = problem.leaf_values(K, post)
    _reject_nan(leaf, None, problem._ids, K)
    return float(_roll_back(tree, path + leaf)[tree.index(tree.root.id)]), stages, leaf


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
    one search over the (node, grid state) rows of the stage.  Horizon
    positivity (cones.check_horizon_positivity) is a precondition: without
    it the expanding search box has nothing to bracket and the solve ends
    in :class:`SearchBoxExhausted`.  A grid axis that is not finite and
    strictly increasing raises :class:`NumericFailure`.

    With ``problem.local_keys`` a stage searches only the rows of its
    representatives, one node per class of bit-identical subtrees (the
    class's first node in ``positions_at`` order), and computes the post
    tables of the representatives only.  Each class keeps one read-only
    array for its pre table, one for its post table and one for its
    argmins, and every node of the class holds these very objects (without
    local keys each node is a class of its own).  Per-state counters,
    diagnostics and the lower-bound check are scattered to every node, so
    the result is the unshared one bit for bit.  The first NaN value and
    the first stuck state fall on the node they fall on in an unshared
    solve, so :class:`NumericFailure` and :class:`SearchBoxExhausted` name
    the same node and state count.

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
        # one class per representative: ``own`` lists them, ``scatter`` maps
        # each node of the stage to its class
        rep = problem._representatives[P]
        own = np.flatnonzero(rep == np.arange(n))
        scatter = np.searchsorted(own, rep)
        if t < T:
            out_axes = tuple(np.asarray(a, dtype=float) for a in grids[t])
            slots, kids = _child_slots(tree, P[own])
            child_values = children[child_class[tree.stage_index[kids]]]
            u = _class_arrays(_expect(slots, child_values, len(own)))
            for node, c in zip(nodes, scatter.tolist()):
                post[node.id] = ValueTable(node.id, out_axes, u[c], "post")
        f = _stage_objective(problem, _table_continuation(problem, t, post))
        # search the representatives only; their arrays serve every node of the class
        K = np.repeat(P[own], len(mesh))
        vals, args, diag = _minimize_at(
            f, K, np.tile(mesh, (len(own), 1)), ndim, cfg, problem._ids
        )
        stacked = vals.reshape((len(own),) + shape)
        tables = _class_arrays(stacked)
        argmins = _class_arrays(args.reshape((len(own),) + shape + (ndim,)))
        counters = {
            k: v.reshape(len(own), -1).max(axis=1)[scatter] for k, v in diag["per_state"].items()
        }
        flat = stacked.reshape(len(own), -1)
        finite = np.isfinite(flat)
        low = np.where(finite, flat, INF).min(axis=1)[scatter]
        some_finite = finite.any(axis=1)[scatter]
        bounds = problem._lower_bounds[P]
        for i, (node, c) in enumerate(zip(nodes, scatter.tolist())):
            pre[node.id] = ValueTable(node.id, axes, tables[c], "pre")
            policy_entries[node.id] = (axes, argmins[c])
            diagnostics["nodes"][node.id] = {
                "expansions": int(counters["expansions"][i]),
                "sweeps": int(counters["sweeps"][i]),
                "max_box": float(counters["max_box"][i]),
            }
            if some_finite[i] and low[i] < bounds[i] - cfg.eps_opt:
                bound_violations[node.id] = float(low[i] - bounds[i])
        children, child_class = stacked, scatter
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
    state with table continuations on ``post`` (interior nodes
    interpolate their post table); mode "exact" re-minimizes it against
    the interpolation-free nested recursion, searched with
    ``cfg.exact_refine()``.  Both decide one stage per search, and
    :func:`_stagewise` prices each stage's decisions as it takes them.
    ``pre`` and ``policy`` are not read: both modes re-optimize instead of
    looking decisions up, and the parameters stay so that positional
    callers (perfbench/workloads.py) keep working.

    Each stage's search also yields the minimum at every (node, entering
    state) row of the stage, which is what :func:`verify_optimality`
    compares the strategy against.  The returned strategy carries those
    minima (:class:`_StageMinima`) for as long as it lives, so verifying
    this very strategy by the same continuation (``method="tables"`` on
    the same ``post`` mapping after a greedy pass, ``method="exact"``
    after an exact one) reads them instead of searching again; nothing is
    kept elsewhere, and a second call searches afresh.
    """
    if mode not in ("greedy", "exact"):
        raise ValueError(f"unknown forward mode {mode!r}")
    tables, search_cfg = (post, cfg) if mode == "greedy" else (None, cfg.exact_refine())
    minima: dict[int, tuple[bytes, bytes, np.ndarray]] = {}

    def decide(t: int, K: np.ndarray, S: np.ndarray) -> np.ndarray:
        f = _stage_objective(problem, _continuation(problem, t, tables, search_cfg))
        vals, X, _ = _minimize_at(f, K, S, problem.decision_dims[t], search_cfg, problem._ids)
        minima[t] = (K.tobytes(), S.tobytes(), vals)
        return np.where(np.isnan(X).any(axis=1, keepdims=True), 0.0, X)

    value, stages, _ = _stagewise(problem, decide)
    chosen = {p: x for st in stages if st.X.shape[1] for p, x in zip(st.K.tolist(), st.X)}
    decisions = {problem._ids[p]: chosen[p] for p in _depth_first(problem.tree) if p in chosen}
    record = _StageMinima(problem, search_cfg, tables, minima)
    return value, AdaptedSequence(decisions, _record=record)


@dataclass(frozen=True, eq=False)
class _StageMinima:
    """The minima that one forward pass computed: per decision stage t, the
    bytes of the stage's positions K and entering states S and the minimum
    at each (K[i], S[i]) row, searched with ``cfg`` on the post ``tables``
    (None: by the nested recursion)."""

    problem: Problem
    cfg: SolveConfig
    tables: Mapping[str, ValueTable] | None
    stages: Mapping[int, tuple[bytes, bytes, np.ndarray]]

    def lookup(
        self, problem: Problem, cfg: SolveConfig, tables: Mapping | None, t: int,
        K: np.ndarray, S: np.ndarray,
    ) -> np.ndarray | None:
        """The stage-t minima if they were computed for this very problem
        object, an equal search config, this very tables object (or None
        for both) and bit-identical rows, else None.

        The minimum at (node, entering state) does not depend on the
        decision taken there, so the values are valid for any strategy that
        enters the stage at the same states."""
        if (self.problem is not problem or self.cfg != cfg or self.tables is not tables
                or t not in self.stages):
            return None
        k, s, vals = self.stages[t]
        return vals if k == K.tobytes() and s == S.tobytes() else None


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
    f = _stage_objective(problem, _exact_continuation(problem, t + 1, cfg))
    dim = problem.decision_dims[t + 1]

    def cont(K: np.ndarray, states: np.ndarray) -> np.ndarray:
        slots, kids = _child_slots(problem.tree, K)
        entering = np.concatenate(
            [states if isinstance(rows, slice) else np.take(states, rows, axis=0)
             for rows, _, _ in slots]
        )
        return _expect(slots, _minimize_at(f, kids, entering, dim, cfg, problem._ids)[0], len(K))

    return cont


def _continuation(
    problem: Problem, t: int, tables: Mapping[str, ValueTable] | None, cfg: SolveConfig
) -> Continuation:
    """The stage-t continuation on the post ``tables``, or by the nested
    recursion searched with ``cfg`` when ``tables`` is None."""
    if tables is None:
        return _exact_continuation(problem, t, cfg)
    return _table_continuation(problem, t, tables)


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


def _search_setup(
    result: "SolveResult | None", cfg: SolveConfig, method: str
) -> tuple[Mapping[str, ValueTable] | None, SolveConfig]:
    """The post tables and search config of a verification ``method``: the
    solve's own tables and ``cfg`` for "tables", no tables and
    ``cfg.exact_refine()`` (the nested recursion) for "exact"."""
    if method == "exact":
        return None, cfg.exact_refine()
    if method != "tables":
        raise ValueError(f"unknown verification method {method!r}")
    if result is None:
        raise ValueError("a solve result is required for method='tables'")
    return result.post_tables, cfg


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
    ``method="exact"`` the nested recursion's (see :func:`_search_setup`).
    """
    tables, search_cfg = _search_setup(result, cfg, method)
    tree = problem.tree
    T = tree.horizon
    _, stages, leaf = _stagewise(problem, _strategy_decisions(problem, strategy))
    points: list = [None] * (T + 1)
    below = leaf  # the stage-(t+1) objective values at the strategy's rows
    for t in range(T, -1, -1):
        st = stages[t]
        cont = _continuation(problem, t, tables, search_cfg)
        nested = tables is None or t == T or (t == T - 1 and problem.decision_dims[T] == 0)
        if t == T:
            after = leaf
        elif nested and problem.decision_dims[t + 1] == 0:
            # the children decide nothing and enter at these post states, so
            # the nested continuation is their values just computed
            _reject_nan(below, None, problem._ids, stages[t + 1].K)
            slots, kids = _child_slots(tree, st.K)
            after = _expect(slots, below[tree.stage_index[kids]], len(st.K))
        else:
            after = cont(st.K, st.post)
        below = st.cost + after
        points[t] = (_stage_objective(problem, cont), st, below)
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
    decision, so it never reads the minima a forward pass attaches to its
    strategy (see :func:`verify_optimality`): those are minima over the
    decision, not values at it.
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
        """The largest node gap: +inf where the strategy is infeasible at a
        node whose minimum is finite."""
        return max(self.node_gaps.values(), default=0.0)

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

    A decision stage's minima come without a search when the strategy was
    returned by :func:`forward_pass` (or :func:`backward_solve`) on this
    same problem object and every key of its record (:class:`_StageMinima`)
    matches: the search config compares equal (``cfg`` for "tables",
    :meth:`SolveConfig.exact_refine` for "exact"), the tables are the
    same object (``result.post_tables`` after a greedy pass for "tables",
    none after an exact pass for "exact"), and the strategy enters the
    stage at bit-identical (node, state) rows: the forward pass computed
    exactly these minima.  So ``treedp solve`` verifies its greedy
    strategy without searching again.  Every other strategy (copies,
    bumped or edited ones), config, result or method is searched as
    usual; the chain is always evaluated.
    """
    points = _strategy_points(problem, strategy, result, cfg, method)
    chain = _chain(problem, points)
    tables, search_cfg = _search_setup(result, cfg, method)
    record = strategy._record if isinstance(strategy._record, _StageMinima) else None
    gaps: dict[str, float] = {}
    for t, (f, (K, S, X, *_), here) in enumerate(points):
        if X.shape[1] == 0:
            # no decision: the minimum is the chain's own value at the same rows
            _reject_nan(here, None, problem._ids, K)
            best = here
        else:
            best = record.lookup(problem, search_cfg, tables, t, K, S) if record else None
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


#: the most joint choices :func:`brute_force` enumerates by default
BRUTE_FORCE_GUARD = 10**7


def check_enumeration(sizes: Sequence[int], guard: int = BRUTE_FORCE_GUARD) -> None:
    """Raise :class:`BudgetExceeded` when per-node grids of these ``sizes``
    make more than ``guard`` joint choices."""
    total = 1
    for s in sizes:
        total *= s
        if total > guard:
            raise BudgetExceeded(f"{total}+ combinations exceed the enumeration guard {guard}")


def brute_force(
    problem: Problem,
    grids: Mapping[str, np.ndarray],
    guard: int = BRUTE_FORCE_GUARD,
) -> tuple[float, AdaptedSequence]:
    """Exhaustive enumeration over per-node decision grids.

    One decision per node (adaptedness), exact expectation per joint
    choice, global minimum returned; ties break to the first combination
    in lexicographic grid order.  Independent of the recursion: no tables,
    no interpolation, no refinement.

    A node's entering state depends only on the decisions on its path, so
    its step (:meth:`Problem.step`) and leaf value are evaluated once per
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
    check_enumeration(sizes, guard)

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
        here, nxt = problem.step(K, Srows, Xrows)
        _reject_nan(here, None, ids, K)
        acc = acc + here.reshape(shape)
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
# distinct float is formatted once per file.  The nodes of a subtree class
# hold one array object (see :func:`backward_solve`), so the rows of each
# distinct array are formatted once, and each node's table is one write: its
# own text fields at the start of every row of that shared text.


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


def _csv_rows(
    lead: Sequence[str], values: np.ndarray, width: int, cache: dict[int, str]
) -> list[str]:
    """The CSV rows after their text fields, one per entry of ``lead``.

    Row i holds ``lead[i]`` (fields already formatted, each as ``",field"``),
    then row i of ``values`` (reshaped to ``len(lead)`` rows) as ``repr``
    fields, padded with empty fields to ``width``, then the line terminator.
    ``cache`` is the file's float cache (:func:`_float_fields`).
    """
    n = len(lead)
    if not n:
        return []
    fields = _float_fields(values, cache)
    k = len(fields) // n
    if k == 1:
        rows = fields
    elif k:
        rows = list(map("".join, zip(*[iter(fields)] * k)))
    else:
        rows = [""] * n
    end = "," * (width - k) + "\r\n"
    return [a + b + end for a, b in zip(lead, rows)]


def write_csv_tables(fh, items: list[tuple[list[str], tuple, np.ndarray]], swidth: int,
                     width: int) -> None:
    """Append the rows of each (text fields, axes, values) of ``items`` to
    ``fh``, in order, one write per item.

    An item's rows are :func:`_csv_rows` with the grid coordinates of
    ``axes`` (padded to ``swidth``) as their lead and ``values`` padded to
    ``width``, each led by the item's text fields.  The rows of one (axes,
    values) pair of objects are formatted once and kept only until the
    last item that holds them is written.
    """
    keys = [(id(axes), id(values)) for _, axes, values in items]
    uses = collections.Counter(keys)
    coords: dict[int, list[str]] = {}  # stages share their axes objects
    texts: dict[tuple[int, int], list[str]] = {}
    cache: dict[int, str] = {}
    for (start, axes, values), key in zip(items, keys):
        rows = texts.get(key)
        if rows is None:
            if id(axes) not in coords:
                coords[id(axes)] = _coordinate_fields(axes, swidth)
            rows = texts[key] = _csv_rows(coords[id(axes)], values, width, cache)
        uses[key] -= 1
        if not uses[key]:
            del texts[key]
        if rows:
            head = _csv_start(start, more=rows[0] != "\r\n")
            fh.write(head + head.join(rows))


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
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["node", "kind"] + [f"s{i}" for i in range(width)] + ["value"])
        write_csv_tables(fh, [([t.node, t.kind], t.axes, t.values) for t in tabs], width, 1)


def export_policy_csv(result: SolveResult, path: str) -> None:
    """Plot-ready dump: node, entering-state coordinates, decision."""
    entries = result.policy.entries
    swidth = max((len(axes) for axes, _ in entries.values()), default=0)
    dwidth = max((arr.shape[-1] for _, arr in entries.values()), default=0)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(
            ["node"] + [f"s{i}" for i in range(swidth)] + [f"x{i}" for i in range(dwidth)]
        )
        write_csv_tables(fh, [([node], axes, arr) for node, (axes, arr) in entries.items()],
                         swidth, dwidth)


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

