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
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping

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
        self._children: dict[str, tuple[str, ...]] = {n.id: () for n in nodes}
        kids: dict[str, list[str]] = {n.id: [] for n in nodes}
        for n in nodes:
            if n.parent is not None and n.parent in kids:
                kids[n.parent].append(n.id)
        self._children = {k: tuple(v) for k, v in kids.items()}
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

    def parent(self, node_id: str) -> Node | None:
        p = self.node(node_id).parent
        return self._nodes[p] if p is not None and p in self._nodes else None

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

    def conditional_expectation(
        self, t: int, values: Mapping[str, float]
    ) -> dict[str, float]:
        """Stage-t conditional expectation of stage-(t+1) per-node scalars.

        At each stage-t node the result is the child-probability-weighted
        sum of ``values`` over its children, with the extended-real
        convention that any +inf child value makes the result +inf.
        """
        if not 0 <= t < self._horizon:
            raise ValueError(f"stage {t} out of range [0, {self._horizon})")
        out: dict[str, float] = {}
        for node in self.nodes_at(t):
            acc = 0.0
            for child in self.children(node.id):
                v = float(values[child.id])
                if math.isnan(v) or v == -math.inf:
                    raise ValueError(f"value at node {child.id!r} is {v}")
                acc += child.prob * v
            out[node.id] = acc
        return out


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
    Supports the little algebra needed for direction arguments (sums and
    scalar multiples are nodewise).
    """

    values: Mapping[str, np.ndarray]

    def at(self, node_id: str) -> np.ndarray:
        return np.asarray(self.values[node_id], dtype=float)

    def __add__(self, other: "AdaptedSequence") -> "AdaptedSequence":
        if set(self.values) != set(other.values):
            raise ValueError("adapted sequences are defined on different nodes")
        return AdaptedSequence(
            {k: self.at(k) + other.at(k) for k in self.values}
        )

    def scaled(self, c: float) -> "AdaptedSequence":
        return AdaptedSequence({k: c * self.at(k) for k in self.values})

    def norm(self) -> float:
        return float(sum(np.abs(v).sum() for v in self.values.values()))


# -- JSON interchange ----------------------------------------------------

TREE_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["id", "time", "parent", "prob"],
        "properties": {
            "id": {"type": "string"},
            "time": {"type": "integer", "minimum": 0},
            "parent": {"type": ["string", "null"]},
            "prob": {"type": "number"},
            "data": {"type": "object"},
        },
        "additionalProperties": False,
    },
}


def tree_from_records(records: list[dict]) -> ScenarioTree:
    """Build and validate a tree from loaded JSON records.

    Rejects (``TreeFormatError``) on any schema or invariant violation.
    """
    import jsonschema

    try:
        jsonschema.validate(records, TREE_SCHEMA)
    except jsonschema.ValidationError as e:
        path = "/".join(str(p) for p in e.absolute_path)
        raise TreeFormatError(f"tree record at {path or '<root>'}: {e.message}") from None
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
