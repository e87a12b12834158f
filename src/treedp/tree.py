"""Finite scenario trees.

A scenario tree is a finite filtered probability space represented as a
rooted tree: the nodes at depth t are the time-t atoms of the filtration,
and each edge carries the conditional probability of the child given its
parent.  Conditional expectation is then an exact child-weighted sum and
every adapted quantity is a per-node value.

Trees are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import numbers
import reprlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

#: tolerance used when checking that probabilities sum to one
PROB_TOL = 1e-12


class TreeFormatError(ValueError):
    """Raised by the loader when a tree file is malformed or invalid."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


@dataclass(frozen=True)
class Node:
    """One atom of the filtration at a given time stage.

    ``prob`` is the conditional probability of this node given its parent
    (1.0 for the root by convention).  ``data`` is an opaque per-node
    payload (prices, cost parameters, claims, ...).
    """

    id: str
    time: int
    parent: str | None
    prob: float = 1.0
    data: Mapping[str, Any] = field(default_factory=dict)


class ScenarioTree:
    """Immutable rooted tree over :class:`Node` records.

    The tree keeps its records as columns (ids, stages, parents,
    probabilities, payloads, in input order) and builds the :class:`Node`
    objects only when ``nodes`` or another accessor that returns nodes is
    first read.  The constructor tolerates structurally broken input (so
    that :func:`validate` can report violations as data); accessors that
    need a well-formed tree raise if the structure is too broken to answer.
    """

    def __init__(self, nodes: Iterable[Node]):
        nodes = tuple(nodes)
        self._set_columns([n.id for n in nodes], [n.time for n in nodes],
                          [n.parent for n in nodes], [n.prob for n in nodes],
                          [n.data for n in nodes])
        self.__dict__["nodes"] = nodes  # the cached ``nodes``: these very records

    @classmethod
    def from_columns(
        cls,
        ids: Sequence[str],
        times: Sequence[int],
        parents: Sequence[str | None],
        probs: Sequence[float],
        data: Sequence[Mapping[str, Any]],
    ) -> "ScenarioTree":
        """The tree of the records whose fields are given as columns, one
        entry per node in input order; the same tree as the constructor
        builds from the :class:`Node` records of those fields."""
        tree = cls.__new__(cls)
        tree._set_columns(ids, times, parents, probs, data)
        return tree

    def _set_columns(self, ids, times, parents, probs, data) -> None:
        ids = tuple(ids)
        index = dict(zip(ids, range(len(ids))))
        if len(index) != len(ids):
            dupes = sorted(i for i, c in Counter(ids).items() if c > 1)
            raise ValueError(f"duplicate node ids: {dupes}")
        self._ids, self._index = ids, index
        self._times, self._parents = list(times), list(parents)
        self._probs, self._data = list(probs), list(data)
        self._horizon: int = max(self._times, default=0)
        # -1: no parent, -2: a parent id that is not in the tree
        raw = [-1 if p is None else index.get(p, -2) for p in self._parents]
        self._parent_raw = _frozen(np.array(raw, dtype=np.int64))
        self._prob_arr = _frozen(np.array(self._probs, dtype=float))

    @cached_property
    def _arrays(self) -> dict[str, np.ndarray]:
        parent = np.maximum(self._parent_raw, -1)
        # the children of each position in input order: a stable sort by parent
        order = np.argsort(parent, kind="stable")
        counts = np.bincount(parent[parent >= 0], minlength=len(parent))
        child_pos = order[len(parent) - int(counts.sum()):]
        return {
            "times": _frozen(_stage_numbers(self._times)),
            "parent_pos": _frozen(parent),
            "child_start": _frozen(np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)),
            "child_pos": _frozen(child_pos),
            "child_prob": _frozen(self._prob_arr[child_pos]),
        }

    @cached_property
    def _stages(self) -> tuple[dict[int, np.ndarray], np.ndarray]:
        # built on first use, from a well-formed tree's stage numbers
        times = self.times
        order = np.argsort(times, kind="stable")  # each stage's positions in input order
        stages = [g for g in np.split(order, np.flatnonzero(np.diff(times[order])) + 1) if g.size]
        stage_index = np.empty(len(times), dtype=np.int64)
        for g in stages:
            stage_index[g] = np.arange(len(g))
        return {int(times[g[0]]): _frozen(g) for g in stages}, _frozen(stage_index)

    def _pos(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    # -- basic accessors -------------------------------------------------

    @property
    def horizon(self) -> int:
        """Number of the final stage T (stages run 0..T)."""
        return self._horizon

    @property
    def root(self) -> Node:
        roots = [i for i in np.flatnonzero(self._parent_raw == -1).tolist() if self._times[i] == 0]
        if len(roots) != 1:
            raise ValueError(f"tree has {len(roots)} roots, expected exactly 1")
        return self.nodes[roots[0]]

    def node(self, node_id: str) -> Node:
        i = self._pos(node_id)
        if "nodes" in self.__dict__:
            return self.nodes[i]
        # one record, without building every node (an equal Node)
        return Node(self._ids[i], self._times[i], self._parents[i], self._probs[i], self._data[i])

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._index

    def __len__(self) -> int:
        return len(self._ids)

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(map(Node, self._ids, self._times, self._parents, self._probs, self._data))

    @property
    def ids(self) -> tuple[str, ...]:
        """Node ids in input order (the ids of ``nodes``)."""
        return self._ids

    @property
    def id_positions(self) -> Mapping[str, int]:
        """Read-only map from node id to position in ``nodes``."""
        return MappingProxyType(self._index)

    def ids_at(self, t: int) -> tuple[str, ...]:
        """Ids of the stage-t nodes, in the order of ``nodes_at(t)``."""
        return tuple(map(self._ids.__getitem__, self.positions_at(t).tolist()))

    @cached_property
    def _stage_nodes(self) -> dict[int, tuple[Node, ...]]:
        nodes = self.nodes
        return {t: tuple(nodes[i] for i in P.tolist()) for t, P in self._stages[0].items()}

    def nodes_at(self, t: int) -> tuple[Node, ...]:
        """Nodes at stage t, in input order (deterministic)."""
        return self._stage_nodes.get(t, ())

    def children(self, node_id: str) -> tuple[Node, ...]:
        i, start = self._pos(node_id), self.child_start
        return tuple(self.nodes[c] for c in self.child_pos[start[i] : start[i + 1]].tolist())

    @property
    def leaves(self) -> tuple[Node, ...]:
        return self.nodes_at(self._horizon)

    def is_leaf(self, node_id: str) -> bool:
        return self._times[self._pos(node_id)] == self._horizon

    # -- array layout (positions are indices into ``nodes``) -------------

    def index(self, node_id: str) -> int:
        """Position of the node in ``nodes``."""
        return self._index[self.node(node_id).id]

    @property
    def times(self) -> np.ndarray:
        """Stage of the node at each position (int64; object for stage
        numbers too large for it, which only a broken tree has)."""
        return self._arrays["times"]

    def positions_at(self, t: int) -> np.ndarray:
        """Positions of the stage-t nodes, in the order of ``nodes_at(t)``."""
        return self._stages[0].get(t, _frozen(np.zeros(0, dtype=np.int64)))

    @property
    def stage_index(self) -> np.ndarray:
        """Index of the node at each position within ``positions_at`` of its stage."""
        return self._stages[1]

    @property
    def parent_pos(self) -> np.ndarray:
        """Position of each node's parent (-1 for a root or an unknown parent)."""
        return self._arrays["parent_pos"]

    @property
    def child_start(self) -> np.ndarray:
        """CSR offsets: the children of position i are
        ``child_pos[child_start[i]:child_start[i + 1]]``, in input order."""
        return self._arrays["child_start"]

    @property
    def child_pos(self) -> np.ndarray:
        return self._arrays["child_pos"]

    @property
    def child_prob(self) -> np.ndarray:
        """Conditional probability of each entry of ``child_pos``."""
        return self._arrays["child_prob"]

    @cached_property
    def uniform_children(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per stage t whose nodes all have the same number c >= 1 of
        children: their (positions, conditional probabilities), each of
        shape (c, nodes at t).  Column i belongs to the i-th node of
        ``positions_at(t)`` (its ``stage_index``), row j to its j-th child
        in input order."""
        start, out = self.child_start, {}
        for t, P in self._stages[0].items():
            count = start[P + 1] - start[P]
            if count.size and count[0] > 0 and (count == count[0]).all():
                e = start[P] + np.arange(count[0])[:, None]
                out[t] = (_frozen(self.child_pos[e]), _frozen(self.child_prob[e]))
        return out

    @cached_property
    def ancestors(self) -> np.ndarray:
        """(leaves, T + 1) positions: row i is the path of the i-th leaf of
        ``leaves``, root first (the positions of :meth:`path`)."""
        T = self._horizon
        out = np.empty((len(self.positions_at(T)), T + 1), dtype=np.int64)
        out[:, T] = self.positions_at(T)
        for t in range(T - 1, -1, -1):
            out[:, t] = self.parent_pos[out[:, t + 1]]
        return _frozen(out)

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Unconditional probability at each position (as :meth:`probability`,
        bit for bit: each node's conditional probability times its
        ancestors', nearest first, the root's left out)."""
        parent, prob = self.parent_pos, self._prob_arr
        out = np.where(parent >= 0, prob, 1.0)
        up = parent.copy()  # the ancestor whose probability comes next
        live = np.flatnonzero(up >= 0)
        live = live[parent[up[live]] >= 0]
        while live.size:
            out[live] *= prob[up[live]]
            up[live] = parent[up[live]]
            live = live[parent[up[live]] >= 0]
        return _frozen(out)

    # -- probability and paths -------------------------------------------

    def path(self, leaf_id: str) -> list[str]:
        """Node ids from the root to ``leaf_id`` (an elementary event).

        ``leaf_id`` must be a final-stage node.
        """
        i = self._pos(leaf_id)
        if self._times[i] != self._horizon:
            raise ValueError(f"node {leaf_id!r} is at stage {self._times[i]}, not a leaf")
        out = [self._ids[i]]
        while self._parents[i] is not None:
            i = self._pos(self._parents[i])
            out.append(self._ids[i])
        out.reverse()
        return out

    def probability(self, node_id: str) -> float:
        """Unconditional probability of the node (product along its path)."""
        i = self._pos(node_id)
        p = self._probs[i] if self._parents[i] is not None else 1.0
        while self._parents[i] is not None:
            i = self._pos(self._parents[i])
            if self._parents[i] is not None:
                p *= self._probs[i]
        return p


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _stage_numbers(times: list) -> np.ndarray:
    """The stage numbers as int64, or as Python ints (object) when one of
    them is too large for int64 arithmetic (a broken tree that ``validate``
    must still report)."""
    try:
        out = np.array(times, dtype=np.int64)
    except OverflowError:
        return np.array(times, dtype=object)
    if out.size and max(-int(out.min()), int(out.max())) >= 2**62:
        return np.array(times, dtype=object)
    return out


def validate(tree: ScenarioTree) -> list[str]:
    """Check all structural invariants; return violations (empty if valid).

    Violations are data, not failures: each entry names the offending node
    and the broken invariant.  The root checks come first, then every
    node's checks in input order (an unknown parent, else the parent's
    stage and the conditional probability; then a childless interior
    node and the children's probability sum), then, on a tree without
    other violations, the leaf mass.  Each invariant is decided on the
    tree's arrays at once; the child sums are summed again left to right
    where they come near the tolerance, and the leaf mass adds the leaves'
    :meth:`ScenarioTree.probabilities` left to right, so every printed
    number has the bits of the node-by-node sums.
    """
    out: list[str] = []
    ids, times, parents, probs = tree._ids, tree._times, tree._parents, tree._probs
    T, raw, prob = tree.horizon, tree._parent_raw, tree._prob_arr
    roots = np.flatnonzero(raw == -1)
    if len(roots) != 1:
        out.append(f"tree: expected exactly one root, found {len(roots)}")
    t = tree.times
    found: list[tuple[int, int, str]] = []  # (position, check, message)
    for i in roots[t[roots] != 0].tolist():
        found.append((i, 0, f"node {ids[i]}: root must be at stage 0, is at {times[i]}"))
    for i in roots[np.abs(prob[roots] - 1.0) > PROB_TOL].tolist():
        found.append((i, 1, f"node {ids[i]}: root conditional probability must be 1"))
    out += [m for _, _, m in sorted(found)]

    found = []
    for i in np.flatnonzero(raw == -2).tolist():
        found.append((i, 0, f"node {ids[i]}: unknown parent {parents[i]!r}"))
    kid = np.flatnonzero(raw >= 0)
    for i in kid[t[kid] != t[raw[kid]] + 1].tolist():
        p = raw[i]
        found.append((i, 1, f"node {ids[i]}: stage {times[i]} is not parent stage {times[p]} + 1"))
    for i in kid[~((0.0 < prob[kid]) & (prob[kid] <= 1.0))].tolist():
        found.append((i, 2, f"node {ids[i]}: conditional probability {probs[i]} not in (0, 1]"))
    start, child_pos = tree.child_start, tree.child_pos
    counts = np.diff(start)
    checked = raw != -2  # a node with an unknown parent gets no further checks
    for i in np.flatnonzero(checked & (t < T) & (counts == 0)).tolist():
        found.append((i, 3, f"node {ids[i]}: interior node at stage {times[i]} has no children"))
    parents_at = np.flatnonzero(checked & (counts > 0))
    if parents_at.size:
        # in any order the sums are this close to the left-to-right ones; so
        # only a node whose sum is near the tolerance is summed again
        sums = np.add.reduceat(tree.child_prob, start[parents_at])
        for i in parents_at[np.abs(sums - 1.0) > 0.5 * PROB_TOL].tolist():
            s = sum(probs[c] for c in child_pos[start[i] : start[i + 1]].tolist())
            if abs(s - 1.0) > PROB_TOL:
                found.append((i, 4, f"node {ids[i]}: child probabilities sum to {s!r}, not 1"))
    out += [m for _, _, m in sorted(found)]
    if not out:
        total = sum(tree.probabilities[tree.positions_at(T)].tolist())
        if abs(total - 1.0) > 1e-9:
            out.append(f"tree: leaf probabilities sum to {total!r}, not 1")
    return out


class NodeValues(Mapping):
    """A read-only mapping from node ids to values made on first read.

    ``positions`` maps each id to its position (and sets the iteration
    order); ``make(i)`` makes the value at position i.  Each value is made
    once: every later read returns the same object.  So a caller that
    reads a few ids pays for those alone.
    """

    def __init__(self, positions: Mapping[str, int], make: Callable[[int], Any]):
        self._positions, self._make = positions, make
        self._made: dict[int, Any] = {}

    def __getitem__(self, node_id: str) -> Any:
        i = self._positions[node_id]
        if i not in self._made:
            self._made.setdefault(i, self._make(i))  # a racing thread's value is discarded
        return self._made[i]

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._positions

    def __iter__(self):
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def keys(self):
        return self._positions.keys()


@dataclass(frozen=True)
class AdaptedSequence:
    """A decision per node: the tree form of an adapted process.

    ``values`` maps node id to the stage decision vector at that node.

    ``_record`` is private data of dp's forward pass, which keeps there
    the stage minima it computed; it is not compared.
    """

    values: Mapping[str, np.ndarray]
    _record: Any = field(default=None, compare=False, repr=False)

    def at(self, node_id: str) -> np.ndarray:
        return np.asarray(self.values[node_id], dtype=float)


# -- JSON interchange ----------------------------------------------------


def _is_integer(v: Any) -> bool:
    return not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()
    )


#: the JSON type tests of the loaders, by the name their messages give.
#: As JSON Schema counts: a bool is neither an integer nor a number, an
#: integer-valued float such as ``0.0`` is an integer, and NaN and the
#: infinities are numbers (a market model rejects them as not finite).
JSON_TYPES: dict[str, Callable[[Any], bool]] = {
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "a number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "an integer >= 0": lambda v: _is_integer(v) and v >= 0,
    "an integer >= 1": lambda v: _is_integer(v) and v >= 1,
    "an object": lambda v: isinstance(v, dict),
    "an array": lambda v: isinstance(v, list),
    "an array of integers >= 0": lambda v: (
        isinstance(v, list) and all(_is_integer(x) and x >= 0 for x in v)
    ),
}

#: the required keys of a tree record, then the optional ones, each with
#: its :data:`JSON_TYPES` name
TREE_RECORD = (
    {"id": "a string", "time": "an integer >= 0", "parent": "a string or null",
     "prob": "a number"},
    {"data": "an object"},
)


def json_object_problem(
    obj: Any, required: Mapping[str, str | None], optional: Mapping[str, str | None]
) -> str | None:
    """The first way ``obj`` breaks its field table, or None if it keeps it.

    ``obj`` must be a JSON object with every ``required`` key and no key
    outside ``required`` and ``optional``; each value must pass the
    :data:`JSON_TYPES` test named for its key (None: any value).
    """
    if not isinstance(obj, dict):
        return f"{reprlib.repr(obj)} is not an object"
    for key in required:
        if key not in obj:
            return f"{key!r} is missing"
    fields = {**required, **optional}
    for key, value in obj.items():
        if key not in fields:
            return f"unknown key {reprlib.repr(key)}"
        kind = fields[key]
        if kind is not None and not JSON_TYPES[kind](value):
            return f"{key!r} is not {kind}: {reprlib.repr(value)}"
    return None


def tree_from_records(records: list[dict]) -> ScenarioTree:
    """Build and validate a tree from loaded JSON records.

    Rejects (``TreeFormatError``) any record that is not a
    :data:`TREE_RECORD` and any invariant violation.  The fields are read
    and checked as columns: when every record has the usual keys and
    every column holds only its plainest JSON values (string ids,
    nonnegative integer stages, string or null parents, numeric
    probabilities, object payloads), no record is looked at alone.
    Otherwise :func:`json_object_problem` checks the records in input
    order and names the first that breaks the table; a tree that passes
    is built from the same columns.
    """
    if not isinstance(records, list):
        raise TreeFormatError(f"tree record at <root>: {reprlib.repr(records)} is not an array")
    cols = _record_columns(records) if _usual_keys(records) else None
    if cols is None or not _plain_columns(*cols):
        for i, r in enumerate(records):
            problem = json_object_problem(r, *TREE_RECORD)
            if problem is not None:
                raise TreeFormatError(f"tree record at {i}: {problem}")
        cols = cols or _record_columns(records)
    ids, times, parents, probs, data = cols
    if not _types(times) <= {int}:
        times = [int(v) for v in times]  # an integer-valued float such as 0.0
    if not _types(probs) <= {float}:
        probs = [float(v) for v in probs]
    try:
        tree = ScenarioTree.from_columns(ids, times, parents, probs, data)
    except ValueError as e:
        raise TreeFormatError(str(e)) from None
    violations = validate(tree)
    if violations:
        raise TreeFormatError(
            "invalid tree: " + "; ".join(violations), violations=violations
        )
    return tree


def _types(column: list) -> set[type]:
    return set(map(type, column))


def _usual_keys(records: list) -> bool:
    """Whether every record is a dict with the keys :data:`TREE_RECORD` allows."""
    required, optional = TREE_RECORD
    return _types(records) <= {dict} and all(
        required.keys() <= set(keys) <= required.keys() | optional.keys()
        for keys in set(map(tuple, records))
    )


def _record_columns(records: list) -> tuple[list, ...]:
    """The (id, time, parent, prob, data) columns of records that have the keys."""
    return (
        *([r[key] for r in records] for key in ("id", "time", "parent", "prob")),
        [r.get("data", {}) for r in records],
    )


def _plain_columns(ids: list, times: list, parents: list, probs: list, data: list) -> bool:
    """Whether every column holds only the plainest values its
    :data:`TREE_RECORD` type accepts (so every record keeps the table)."""
    return (
        _types(ids) <= {str}
        and _types(times) <= {int} and min(times, default=0) >= 0
        and _types(parents) <= {str, type(None)}
        and _types(probs) <= {float, int}
        and _types(data) <= {dict}
    )


def load_tree(path: str) -> ScenarioTree:
    """Load a tree from a JSON file of node records."""
    with open(path) as fh:
        try:
            records = json.load(fh)
        except json.JSONDecodeError as e:
            raise TreeFormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    return tree_from_records(records)


def tree_to_records(tree: ScenarioTree) -> list[dict]:
    return [
        {"id": i, "time": t, "parent": p, "prob": q, "data": dict(d)}
        for i, t, p, q, d in zip(tree._ids, tree._times, tree._parents, tree._probs, tree._data)
    ]
