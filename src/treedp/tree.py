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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping

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

    The constructor tolerates structurally broken input (so that
    :func:`validate` can report violations as data); accessors that need a
    well-formed tree raise if the structure is too broken to answer.
    """

    def __init__(self, nodes: Iterable[Node]):
        nodes = list(nodes)
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate node ids: {dupes}")
        self._nodes: dict[str, Node] = {n.id: n for n in nodes}
        self._order: tuple[str, ...] = tuple(ids)
        kids: dict[str, list[str]] = {n.id: [] for n in nodes}
        for n in nodes:
            if n.parent is not None and n.parent in kids:
                kids[n.parent].append(n.id)
        self._children: dict[str, tuple[str, ...]] = {k: tuple(v) for k, v in kids.items()}
        self._roots: tuple[str, ...] = tuple(
            n.id for n in nodes if n.parent is None and n.time == 0
        )
        self._horizon: int = max((n.time for n in nodes), default=0)
        self._layout()

    def _layout(self) -> None:
        nodes = self.nodes
        self._index: dict[str, int] = {n.id: i for i, n in enumerate(nodes)}
        stages: dict[int, list[int]] = {}
        for i, n in enumerate(nodes):
            stages.setdefault(n.time, []).append(i)
        self._stage_nodes = {t: tuple(nodes[i] for i in p) for t, p in stages.items()}
        self._stage_lists = stages

    @cached_property
    def _arrays(self) -> dict[str, np.ndarray]:
        # built on first use: a broken tree (say, a stage number beyond int64)
        # must still reach ``validate``, which reports it as data
        nodes = self.nodes
        stage_pos = {t: _frozen(np.array(p, dtype=np.int64)) for t, p in self._stage_lists.items()}
        stage_index = np.zeros(len(nodes), dtype=np.int64)
        for p in stage_pos.values():
            stage_index[p] = np.arange(len(p))
        kids = [self._children[n.id] for n in nodes]
        flat_kids = [self._nodes[c] for k in kids for c in k]
        return {
            "times": _frozen(np.array([n.time for n in nodes], dtype=np.int64)),
            "stage_pos": stage_pos,
            "stage_index": _frozen(stage_index),
            "parent_pos": _frozen(np.array(
                [self._index.get(n.parent, -1) if n.parent is not None else -1 for n in nodes],
                dtype=np.int64,
            )),
            "child_start": _frozen(np.cumsum([0] + [len(k) for k in kids], dtype=np.int64)),
            "child_pos": _frozen(np.array([self._index[c.id] for c in flat_kids], dtype=np.int64)),
            "child_prob": _frozen(np.array([c.prob for c in flat_kids], dtype=float)),
        }

    # -- basic accessors -------------------------------------------------

    @property
    def horizon(self) -> int:
        """Number of the final stage T (stages run 0..T)."""
        return self._horizon

    @property
    def root(self) -> Node:
        if len(self._roots) != 1:
            raise ValueError(f"tree has {len(self._roots)} roots, expected exactly 1")
        return self._nodes[self._roots[0]]

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes[i] for i in self._order)

    def nodes_at(self, t: int) -> tuple[Node, ...]:
        """Nodes at stage t, in input order (deterministic)."""
        return self._stage_nodes.get(t, ())

    def children(self, node_id: str) -> tuple[Node, ...]:
        return tuple(self._nodes[c] for c in self._children[self.node(node_id).id])

    @property
    def leaves(self) -> tuple[Node, ...]:
        return self.nodes_at(self._horizon)

    def is_leaf(self, node_id: str) -> bool:
        return self.node(node_id).time == self._horizon

    # -- array layout (positions are indices into ``nodes``) -------------

    def index(self, node_id: str) -> int:
        """Position of the node in ``nodes``."""
        return self._index[self.node(node_id).id]

    @property
    def times(self) -> np.ndarray:
        """Stage of the node at each position."""
        return self._arrays["times"]

    def positions_at(self, t: int) -> np.ndarray:
        """Positions of the stage-t nodes, in the order of ``nodes_at(t)``."""
        return self._arrays["stage_pos"].get(t, _frozen(np.zeros(0, dtype=np.int64)))

    @property
    def stage_index(self) -> np.ndarray:
        """Index of the node at each position within ``positions_at`` of its stage."""
        return self._arrays["stage_index"]

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
        for t, P in self._arrays["stage_pos"].items():
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
        out = np.empty((len(self.leaves), T + 1), dtype=np.int64)
        out[:, T] = self.positions_at(T)
        for t in range(T - 1, -1, -1):
            out[:, t] = self.parent_pos[out[:, t + 1]]
        return _frozen(out)

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Unconditional probability at each position (as :meth:`probability`)."""
        return _frozen(np.array([self.probability(n.id) for n in self.nodes]))

    # -- probability and paths -------------------------------------------

    def path(self, leaf_id: str) -> list[str]:
        """Node ids from the root to ``leaf_id`` (an elementary event).

        ``leaf_id`` must be a final-stage node.
        """
        node = self.node(leaf_id)
        if node.time != self._horizon:
            raise ValueError(f"node {leaf_id!r} is at stage {node.time}, not a leaf")
        out = [node.id]
        while node.parent is not None:
            node = self.node(node.parent)
            out.append(node.id)
        out.reverse()
        return out

    def probability(self, node_id: str) -> float:
        """Unconditional probability of the node (product along its path)."""
        node = self.node(node_id)
        p = node.prob if node.parent is not None else 1.0
        while node.parent is not None:
            node = self.node(node.parent)
            if node.parent is not None:
                p *= node.prob
        return p


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def validate(tree: ScenarioTree) -> list[str]:
    """Check all structural invariants; return violations (empty if valid).

    Violations are data, not failures: each entry names the offending node
    and the broken invariant.
    """
    out: list[str] = []
    T = tree.horizon
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
            if n.parent not in tree:
                out.append(f"node {n.id}: unknown parent {n.parent!r}")
                continue
            p = tree.node(n.parent)
            if n.time != p.time + 1:
                out.append(
                    f"node {n.id}: stage {n.time} is not parent stage {p.time} + 1"
                )
            if not 0.0 < n.prob <= 1.0:
                out.append(f"node {n.id}: conditional probability {n.prob} not in (0, 1]")
        if n.time < T and not tree.children(n.id):
            out.append(f"node {n.id}: interior node at stage {n.time} has no children")
        kids = tree.children(n.id)
        if kids:
            s = sum(c.prob for c in kids)
            if abs(s - 1.0) > PROB_TOL:
                out.append(f"node {n.id}: child probabilities sum to {s!r}, not 1")
    if not out:
        total = sum(tree.probability(leaf.id) for leaf in tree.leaves)
        if abs(total - 1.0) > 1e-9:
            out.append(f"tree: leaf probabilities sum to {total!r}, not 1")
    return out


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
    :data:`TREE_RECORD` and any invariant violation.
    """
    if not isinstance(records, list):
        raise TreeFormatError(f"tree record at <root>: {reprlib.repr(records)} is not an array")
    for i, r in enumerate(records):
        problem = json_object_problem(r, *TREE_RECORD)
        if problem is not None:
            raise TreeFormatError(f"tree record at {i}: {problem}")
    nodes = [
        Node(
            id=r["id"],
            time=int(r["time"]),
            parent=r["parent"],
            prob=float(r["prob"]),
            data=r.get("data", {}),
        )
        for r in records
    ]
    try:
        tree = ScenarioTree(nodes)
    except ValueError as e:
        raise TreeFormatError(str(e)) from None
    violations = validate(tree)
    if violations:
        raise TreeFormatError(
            "invalid tree: " + "; ".join(violations), violations=violations
        )
    return tree


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
        {
            "id": n.id,
            "time": n.time,
            "parent": n.parent,
            "prob": n.prob,
            "data": dict(n.data),
        }
        for n in tree.nodes
    ]
