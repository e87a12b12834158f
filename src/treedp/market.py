"""Financial market models on scenario trees.

A model holds, per node: marginal prices of the risky assets (the
riskless asset has price 1 at all times), a trading cost integrand
(none, or superlinear power costs of trade size), optional box
constraints on risky holdings, claims payable at the node, and an
endowment at the leaves.  Preferences are a nonconcave utility of
terminal wealth, equivalently the disutility V(c) = -u(-c) of terminal
expenditure.

One builder turns a model into a solvable problem, in two forms.  In
both, the state is (cash, holdings), starting at (initial cash, 0); each
open stage trades at the marginal price plus the friction cost and pays
its claim, a closed stage holds the position, and at the horizon the
position is liquidated into terminal wealth, valued by the disutility
of minus wealth.  Both forms honour ``trading_stages`` and the
borrowing limit ``cash_lower``.

* ``build_problem_cash``: each open stage decides the target risky
  holdings.
* ``build_problem_terminal``: the full-portfolio form, the cash form
  plus a leading expenditure coordinate d_t <= 0 at each open stage,
  which leaves the cash account.

The two forms have the same optimal value; the test suite checks this
on every fixture.  A frictionless model that trades at every stage also
gets each leaf's objective as a symbolic expression of its path
decisions, in either form; one with a closed stage gets none, and its
horizon check is undecided.  Without a borrowing limit it also gets each
decision node's own zero-sublevel rows, on which the check and the null
space decide node by node.  ``validate`` decides the standing
assumptions analytically per atom family and explains which existence
route applies.
"""

from __future__ import annotations

import itertools
import json
import math
import reprlib
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .dp import Problem, RowGroups, StageFun, StateMap, first_appearance
from .efun import (
    AffinePrecompose,
    ExtFun,
    IndicatorBox,
    Sampled1D,
    SShapedDisutility,
    Sum,
    horizon,
    sublevel_zero_cone,
)
from .tree import (
    NodeValues,
    ScenarioTree,
    TreeFormatError,
    json_object_problem,
    tree_from_records,
    tree_to_records,
    _frozen,
    _types,
)

INF = math.inf


class InvalidModel(ValueError):
    """The market data violate a structural requirement."""


# ---------------------------------------------------------------------------
# cost integrands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Frictionless:
    """Zero trading cost beyond the marginal price."""

    def is_frictionless(self) -> bool:
        return True

    def params_at(self, node_id: str) -> tuple:
        return ()

    def cost_many(self, params: tuple, D: np.ndarray) -> np.ndarray:
        """The cost of each trade D[j] (zero)."""
        return np.zeros(D.shape[0])


@dataclass(frozen=True)
class PowerIlliquidity:
    """Superlinear illiquidity cost: coeff * sum_i |d_i|**exponent per trade d.

    Parameters may be overridden per node (node id -> (coeff, exponent)).
    """

    coeff: float
    exponent: float
    per_node: Mapping[str, tuple[float, float]] | None = None

    def __post_init__(self):
        for lam, p in [(self.coeff, self.exponent)] + list((self.per_node or {}).values()):
            if not lam > 0:
                raise InvalidModel("cost coefficient must be > 0")
            if not p > 1:
                raise InvalidModel("cost exponent must be > 1 (superlinear)")

    def is_frictionless(self) -> bool:
        return False

    def params_at(self, node_id: str) -> tuple[float, float]:
        if self.per_node and node_id in self.per_node:
            return self.per_node[node_id]
        return self.coeff, self.exponent

    def cost_many(self, params: tuple[float, float], D: np.ndarray) -> np.ndarray:
        """The cost of each trade D[j] at the parameters ``params``, as
        :meth:`params_at` gives them."""
        lam, p = params
        # a cost too large for a float is +inf, the right value for the
        # solver (the trade is never chosen); lam > 0 keeps it from NaN
        with np.errstate(over="ignore"):
            powers = np.abs(D) ** p
            # one asset: the sum is its only term (never -0.0, so adding
            # it onto +0.0 would change no bit)
            return lam * (powers[:, 0] if powers.shape[1] == 1 else powers.sum(axis=1))


# ---------------------------------------------------------------------------
# preferences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SShapedUtility:
    """Bounded-above S-shaped utility: kappa*w**gamma/(1+w**gamma) on gains,
    beta*w on losses.  Convex near zero on the gain side, concave beyond,
    so genuinely nonconcave."""

    gamma: float
    kappa: float
    beta: float

    def __post_init__(self):
        try:
            SShapedDisutility(self.gamma, self.kappa, self.beta)  # parameter checks
        except ValueError as e:
            raise InvalidModel(f"sshaped utility: {e}") from None

    def value(self, w: float) -> float:
        return -self.disutility().value([-float(w)])

    def sup(self) -> float:
        return self.kappa

    @property
    def loss_slope(self) -> float:
        """Asymptotic slope of u on deep losses (u(aw)/a -> loss_slope * w)."""
        return self.beta

    def disutility(self) -> ExtFun:
        return SShapedDisutility(self.gamma, self.kappa, self.beta)


@dataclass(frozen=True)
class SampledUtility:
    """Utility given by samples plus asymptotic slopes.

    Upper semicontinuity and boundedness above are enforced at load time:
    the right tail slope must be <= 0 and the left tail slope >= 0 (a
    value of +inf on the left is allowed and gives the extended decay
    condition).  The loss decay condition needs slope_left > 0.
    """

    grid: np.ndarray
    values: np.ndarray
    slope_left: float
    slope_right: float

    def __post_init__(self):
        xs = np.atleast_1d(np.asarray(self.grid, dtype=float))
        ys = np.atleast_1d(np.asarray(self.values, dtype=float))
        if xs.shape != ys.shape or xs.size < 2 or not (np.diff(xs) > 0).all():
            raise InvalidModel("utility sample needs a strictly increasing grid")
        if not np.isfinite(ys).all():
            raise InvalidModel("utility sample values must be finite")
        sl, sr = float(self.slope_left), float(self.slope_right)
        if sr > 0 or sl < 0:
            raise InvalidModel(
                "utility must be bounded above: need slope_right <= 0 <= slope_left"
            )
        object.__setattr__(self, "grid", xs)
        object.__setattr__(self, "values", ys)
        object.__setattr__(self, "slope_left", sl)
        object.__setattr__(self, "slope_right", sr)

    def value(self, w: float) -> float:
        return -self.disutility().value([-float(w)])

    def sup(self) -> float:
        return float(self.values.max())

    @property
    def loss_slope(self) -> float:
        return self.slope_left

    def disutility(self) -> ExtFun:
        # V(c) = -u(-c): reflect the sample, swap and reuse the tail slopes
        return Sampled1D(
            -self.grid[::-1],
            -self.values[::-1],
            slope_left=self.slope_right,
            slope_right=self.slope_left,
        )


Utility = SShapedUtility | SampledUtility


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketModel:
    """Scenario tree plus market data; immutable.

    ``prices`` may be any mapping from every node id to that node's J
    prices; the model keeps them as one read-only (N, J) array,
    ``price_array`` (row i at the node of position i in ``tree.nodes``),
    and ``prices`` becomes a read-only mapping onto its rows.
    """

    tree: ScenarioTree
    n_risky: int
    prices: Mapping[str, np.ndarray]
    cost: Frictionless | PowerIlliquidity
    utility: Utility
    claims: Mapping[str, float] = field(default_factory=dict)
    endowment: Mapping[str, float] = field(default_factory=dict)
    initial_cash: float = 0.0
    constraints: Mapping[int, tuple[np.ndarray, np.ndarray]] | None = None
    utility_overrides: Mapping[str, Utility] = field(default_factory=dict)
    #: stages at which the position may be changed (None: every t < T);
    #: at other stages the market is closed and the position is held
    trading_stages: frozenset[int] | None = None
    #: borrowing limit: the cash account may not drop below this (None: free)
    cash_lower: float | None = None

    def __post_init__(self):
        """Check every node-keyed and stage-keyed field against the tree.

        Each field is checked as a column, and the message names the
        first offender in the field's own order: the prices by node, then
        the claims, endowments, utility overrides and per-node cost
        parameters by entry (an unknown node id, then a non-leaf node
        where a leaf is needed, then a value that is not finite), then the
        trading stages in increasing order and the constraint bounds by
        entry.
        """
        tree = self.tree
        Z = _price_array(tree, self.prices, self.n_risky)
        object.__setattr__(self, "price_array", Z)
        object.__setattr__(self, "prices", NodeValues(tree.id_positions, Z.__getitem__))
        _node_keyed(tree, self.claims, "claim", finite=True)
        _node_keyed(tree, self.endowment, "endowment", leaves_only=True, finite=True)
        _node_keyed(tree, self.utility_overrides, "utility override", leaves_only=True)
        _node_keyed(tree, getattr(self.cost, "per_node", None) or {}, "cost parameters")
        for name in ("initial_cash", "cash_lower"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise InvalidModel(f"{name} is not finite: {v}")
        _stage_keyed(tree, dict.fromkeys(sorted(self.trading_stages or ())), "trading stage {} is ")
        _stage_keyed(tree, self.constraints or {}, "constraint bounds at stage {}: ", self.n_risky)

    def _per_position(self, entries: Mapping[str, float]) -> np.ndarray:
        """The node-keyed floats ``entries`` as one value per position (0.0 elsewhere)."""
        out = np.zeros(len(self.tree))
        if entries:
            where = self.tree.id_positions
            out[np.fromiter(map(where.__getitem__, entries), np.int64, len(entries))] = (
                np.array(list(entries.values()), dtype=float))
        return _frozen(out)

    @cached_property
    def claim_array(self) -> np.ndarray:
        """The claim at each position (as :meth:`claim`)."""
        return self._per_position(self.claims)

    @cached_property
    def endowment_array(self) -> np.ndarray:
        """The endowment at each position (as :meth:`endow`)."""
        return self._per_position(self.endowment)

    @cached_property
    def cost_groups(self) -> tuple[np.ndarray, list[tuple]]:
        """Each position's group of nodes that share cost parameters
        (numbered by first appearance in node order) and each group's
        parameters, as :meth:`params_at` gives them at its first node."""
        cost, ids = self.cost, self.tree.ids
        per_node = getattr(cost, "per_node", None) or {}
        label = np.zeros(len(ids), dtype=np.int64)  # 0: the parameters of unlisted nodes
        if per_node:
            table = {(cost.coeff, cost.exponent): 0}
            label[np.fromiter(map(self.tree.id_positions.__getitem__, per_node), np.int64,
                              len(per_node))] = [table.setdefault(tuple(p), len(table))
                                                 for p in per_node.values()]
        groups, first = first_appearance(label)
        return _frozen(groups), [tuple(cost.params_at(ids[i])) for i in first.tolist()]

    @cached_property
    def leaf_utilities(self) -> dict[str, Utility]:
        """The utilities the leaves use, by name: ``"<global>"`` when some
        leaf has no override (or the tree has no leaf), then each override
        by its leaf id."""
        tree, overrides = self.tree, self.utility_overrides
        unused = 0 < len(overrides) == len(tree.positions_at(tree.horizon))
        return {**({} if unused else {"<global>": self.utility}), **overrides}

    def Z(self, node_id: str) -> np.ndarray:
        return self.prices[node_id]

    def claim(self, node_id: str) -> float:
        return float(self.claims.get(node_id, 0.0))

    def endow(self, leaf_id: str) -> float:
        return float(self.endowment.get(leaf_id, 0.0))

    def utility_at(self, leaf_id: str) -> Utility:
        return self.utility_overrides.get(leaf_id, self.utility)

    def can_trade(self, t: int) -> bool:
        if t >= self.tree.horizon:
            return False
        return self.trading_stages is None or t in self.trading_stages

    def holdings_bounds(self, t: int) -> tuple[np.ndarray, np.ndarray] | None:
        if self.constraints is None:
            return None
        if t not in self.constraints:
            return None
        lo, up = self.constraints[t]
        return np.atleast_1d(np.asarray(lo, float)), np.atleast_1d(np.asarray(up, float))

    def lower_bound(self) -> float:
        """Integrable lower bound of the leaf disutility: -sup u over the
        utilities the leaves use."""
        return -max(u.sup() for u in self.leaf_utilities.values())


_MISSING = object()


def _price_array(tree: ScenarioTree, prices: Mapping, J: int) -> np.ndarray:
    """The prices of every node as one read-only (N, J) float array, in
    node order.

    The rows are converted at once.  Rows that do not stack into (N, J)
    are converted one at a time, each as a 1-D array (a scalar is one
    price), and InvalidModel names the first node, in node order, whose
    prices are missing, not J numbers or not finite.  Then the first
    price entry at a node id the tree does not have is rejected.
    """
    ids = tree.ids
    rows = list(map(prices.get, ids, itertools.repeat(_MISSING)))
    try:
        Z = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        Z = None
    if Z is not None and J == 1 and Z.shape == (len(rows),):
        Z = Z[:, None]
    if Z is None or Z.shape != (len(rows), J):
        Z = np.array([_price_row(nid, r, J) for nid, r in zip(ids, rows)]).reshape(len(rows), J)
    finite = np.isfinite(Z).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InvalidModel(f"prices at {ids[i]!r} are not finite: {Z[i].tolist()}")
    if len(prices) != len(rows):
        unknown = next(k for k in prices if k not in tree)
        raise InvalidModel(f"prices at unknown node {unknown!r}")
    return _frozen(Z)


def _price_row(node_id: str, row, J: int) -> np.ndarray:
    """One node's prices as a 1-D array of J finite floats (InvalidModel otherwise)."""
    if row is _MISSING:
        raise InvalidModel(f"no prices at node {node_id!r}")
    z = np.atleast_1d(np.asarray(row, dtype=float))
    if z.shape != (J,):
        raise InvalidModel(f"prices at {node_id!r} have shape {z.shape}, want ({J},)")
    if not np.isfinite(z).all():
        raise InvalidModel(f"prices at {node_id!r} are not finite: {z.tolist()}")
    return z


def _node_keyed(
    tree: ScenarioTree, entries: Mapping, noun: str, *,
    leaves_only: bool = False, finite: bool = False,
) -> None:
    """Check the node ids of ``entries`` and, with ``finite``, their
    values, all at once: InvalidModel names the first entry, in entry
    order, at an unknown node id, at a non-leaf node (``leaves_only``) or
    with a value that is not finite."""
    if not entries:
        return
    keys = list(entries)
    pos = np.fromiter(map(tree.id_positions.get, keys, itertools.repeat(-1)), np.int64, len(keys))
    bad = pos < 0
    if leaves_only:
        bad[~bad] = tree.times[pos[~bad]] != tree.horizon
    if finite:
        bad |= ~np.isfinite(np.array(list(entries.values()), dtype=float))
    if bad.any():
        nid = keys[int(np.argmax(bad))]
        if nid not in tree:
            raise InvalidModel(f"{noun} at unknown node {nid!r}")
        if leaves_only and not tree.is_leaf(nid):
            raise InvalidModel(f"{noun} at non-leaf node {nid!r}")
        raise InvalidModel(f"{noun} at {nid!r} is not finite: {entries[nid]}")


def _stage_keyed(tree: ScenarioTree, entries: Mapping, lead: str, J: int | None = None) -> None:
    """Check the keys of ``entries``, in entry order, against the stages
    that decide (0..T-1) and, with ``J``, each value as the (lower, upper)
    bounds of J holdings: InvalidModel names the first offender, the
    message led by ``lead`` formatted with its stage."""
    for t, bounds in entries.items():
        if t not in range(tree.horizon):
            raise InvalidModel(f"{lead.format(t)}not a stage 0..{tree.horizon - 1}")
        if J is None:
            continue
        lo, up = bounds
        try:
            IndicatorBox(lo, up)  # shape/order checks
        except ValueError as e:
            raise InvalidModel(f"{lead.format(t)}{e}") from None
        if np.atleast_1d(lo).shape != (J,):
            raise InvalidModel(f"constraint bounds at stage {t} have wrong shape")


# ---------------------------------------------------------------------------
# validation of the standing assumptions
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    """Per-condition verdicts with analytic evidence.

    Condition names:

    * ``cost_growth``: the total-cost growth rate dominates every revenue
      direction (holds with equality in the frictionless case);
    * ``cost_growth_strict``: strict domination off the solvent orthant,
      the condition that pins all trade directions analytically;
    * ``utility_loss_decay``: deep losses hurt at a linear rate
      (limsup u(a w)/a < 0 for w < 0);
    * ``disutility_growth``: terminal expenditure eventually hurts at a
      linear rate (the reflected form of the previous condition);
    * ``disutility_orthant``: nonpositive-expenditure directions are
      exactly the free ones;
    * ``inada``: the extended case of infinite loss slope;
    * ``free_disposal``: the total cost is nondecreasing componentwise
      (for power costs, decided in closed form on the region where it
      holds).
    """

    conditions: dict[str, dict]

    def status(self, name: str) -> str:
        return self.conditions[name]["status"]

    def holds(self, name: str) -> bool:
        return self.status(name) == "holds"

    def required_ok(self) -> bool:
        """The utility-side conditions every model must satisfy."""
        return self.holds("utility_loss_decay") and self.holds("disutility_growth")

    def report_dict(self) -> dict:
        return {"conditions": self.conditions}


def validate(model: MarketModel) -> ValidationReport:
    """Decide the standing assumptions of ``model`` analytically; the
    utility conditions read the utilities the leaves use
    (:attr:`MarketModel.leaf_utilities`)."""
    c: dict[str, dict] = {}
    frictionless = model.cost.is_frictionless()
    if frictionless:
        c["cost_growth"] = {
            "status": "equality",
            "note": "frictionless: total-cost growth is exactly linear in the trade",
        }
        c["cost_growth_strict"] = {
            "status": "fails",
            "note": (
                "frictionless model: existence needs the linear-space route; "
                "run the horizon positivity check (classical no-arbitrage)"
            ),
        }
    else:
        c["cost_growth"] = {
            "status": "holds",
            "note": "superlinear cost dominates any linear revenue at scale",
        }
        c["cost_growth_strict"] = {
            "status": "holds",
            "note": "power cost grows superlinearly in every nonzero trade direction",
        }

    utilities = model.leaf_utilities
    slopes = {name: u.loss_slope for name, u in utilities.items()}
    min_slope = min(slopes.values())
    if min_slope > 0:
        c["utility_loss_decay"] = {
            "status": "holds",
            "note": f"limsup u(a*w)/a = loss_slope*w < 0 for w < 0 (min slope {min_slope})",
        }
        c["disutility_growth"] = {
            "status": "holds",
            "note": f"liminf V(a*d)/a = loss_slope*d > 0 for d > 0 (min slope {min_slope})",
        }
        c["disutility_orthant"] = {
            "status": "holds",
            "note": "nonpositive directions are free, positive ones grow linearly",
        }
    else:
        bad = sorted(k for k, s in slopes.items() if not s > 0)
        c["utility_loss_decay"] = {
            "status": "fails",
            "note": f"loss slope is 0 at {bad}: deep losses do not hurt linearly",
        }
        c["disutility_growth"] = {"status": "fails", "note": f"reflected failure at {bad}"}
        c["disutility_orthant"] = {
            "status": "fails",
            "note": "positive expenditure directions are not penalized at scale",
        }
    inada = all(u.loss_slope == INF for u in utilities.values())
    c["inada"] = {
        "status": "holds" if inada else "fails",
        "note": (
            "infinite loss slope: disutility horizon is the nonpositive-orthant indicator"
            if inada
            else "finite loss slope; the growth condition is used instead"
        ),
    }
    c["free_disposal"] = _free_disposal_check(model)
    return ValidationReport(c)


def _free_disposal_check(model: MarketModel) -> dict:
    Z = model.price_array
    neg_price = [model.tree.ids[i] for i in np.flatnonzero((Z < 0).any(axis=1)).tolist()]
    if neg_price:
        return {
            "status": "fails",
            "note": f"negative marginal prices at {neg_price[:4]}: disposal can earn money",
        }
    if model.cost.is_frictionless():
        return {
            "status": "holds",
            "note": "linear cost with nonnegative prices is monotone everywhere",
        }
    # the power cost is separable: Z_i d_i + coeff |d_i|**p is nondecreasing
    # in d_i exactly where d_i >= 0 or |d_i| <= (Z_i/(coeff p))**(1/(p-1)); the
    # bound grows with Z_i, so each parameter group's least price decides it
    radius = INF
    if model.n_risky:
        zmin = np.minimum.reduce(Z, axis=1)
        groups, params = model.cost_groups
        for g, (lam, p) in enumerate(params):
            zm = zmin[groups == g].min()
            with np.errstate(over="ignore"):
                ratio = zm / (lam * p)
                r = ratio ** (1.0 / (p - 1.0))
                if ratio == INF:
                    # a huge price overflows the ratio but not always its root:
                    # take that root in log space (zmin > 0 and lam * p > 0 here)
                    r = np.exp((np.log(zm) - np.log(lam * p)) / (p - 1.0))
            radius = min(radius, float(r))
    if model.n_risky and not math.isfinite(radius):
        return {
            "status": "undecided",
            "note": "the monotone radius (Z_i/(coeff*exponent))**(1/(exponent-1)) "
                    "overflows at every node (not finite): no region to state",
        }
    return {
        "status": "holds",
        "note": f"closed form: nondecreasing in each d_i where d_i >= 0 or |d_i| <= "
                f"{radius!r}, the least (Z_i/(coeff*exponent))**(1/(exponent-1)) "
                f"over nodes and assets",
    }


# ---------------------------------------------------------------------------
# problem builders
# ---------------------------------------------------------------------------


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (m, J) arrays."""
    return np.einsum("ij,ij->i", A, B)


def _decision_box(model: MarketModel, t: int, lead: int) -> IndicatorBox | None:
    """Bounds of an open stage-t decision: the ``lead`` expenditure
    coordinates are nonpositive and the holdings keep their box; None when
    nothing is bounded."""
    bounds = model.holdings_bounds(t)
    if bounds is None and not lead:
        return None
    J = model.n_risky
    lo, up = bounds or (np.full(J, -INF), np.full(J, INF))
    return IndicatorBox(np.concatenate([[-INF] * lead, lo]), np.concatenate([[0.0] * lead, up]))


def _path_objectives(
    model: MarketModel, lead: int, moves: np.ndarray,
    boxes: list[IndicatorBox | None], disutility: Mapping[int, ExtFun],
) -> NodeValues:
    """Each leaf's objective as an expression over its path decisions.

    In a frictionless market that trades at every stage, terminal wealth
    is affine in the decisions: the initial cash, the expenditures, the
    gains phi_t . (Z_{t+1} - Z_t), the endowment and minus the claims
    along the path.  The leaf objective is the disutility of minus that
    wealth (``disutility``: the builder's one per distinct utility, by
    id) plus the builder's decision ``boxes`` (one term per stage, shared
    by every leaf).  The post-trade cash at each node of the path is
    affine too: the initial cash, the expenditures and claims so far, the
    gains of the earlier holdings, minus the value of the new holdings.  A
    borrowing limit adds the halfspace indicator of each of them.

    Every leaf's rows are built together, one stage at a time, from the
    tree's ancestor table, the model's per-position arrays and the price
    moves ``moves`` (Z_p - Z_parent(p)).  The result is a read-only
    mapping in leaf order that builds a leaf's expression from its rows
    when it is first read, so a caller that reads a few leaves pays for
    those alone.
    """
    tree = model.tree
    T, anc = tree.horizon, tree.ancestors
    d = lead + model.n_risky
    limited = model.cash_lower is not None
    row = np.zeros((len(anc), T * d))  # terminal wealth, less its constant
    # post-trade cash at each path node, less its constant (for the limit)
    cash = np.zeros((len(anc), T, T * d)) if limited else None
    for t in range(T):
        row[:, t * d : t * d + lead] = 1.0
        if limited:
            cash[:, t] = row
            cash[:, t, t * d + lead : (t + 1) * d] = -model.price_array[anc[:, t]]
        row[:, t * d + lead : (t + 1) * d] = moves[anc[:, t + 1]]
    # the claims paid up to each path node, summed left to right (+ 0.0: a
    # sum that starts from 0 is never -0.0)
    claims = np.cumsum(model.claim_array[anc], axis=1) + 0.0
    const = model.initial_cash - claims[:, T] + model.endowment_array[anc[:, T]]
    terms: list[ExtFun] = []  # the decision boxes, on their stage's block
    for t, box in enumerate(boxes):
        if box is not None:
            sel = np.zeros((d, T * d))
            sel[:, t * d : (t + 1) * d] = np.eye(d)
            terms.append(AffinePrecompose(box, sel))
    if limited:
        lower = model.cash_lower - (model.initial_cash - claims[:, :T])
    leaves = tree.ids_at(T)

    def leaf(i: int) -> ExtFun:
        V = disutility[id(model.utility_at(leaves[i]))]
        parts = [AffinePrecompose(V, -row[i : i + 1], [-const[i]]), *terms]
        if limited:
            # one term for all of the path's limits: its domain point meets them all
            parts.append(AffinePrecompose(IndicatorBox(lower[i], np.full(T, INF)), cash[i]))
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    return NodeValues(dict(zip(leaves, range(len(leaves)))), leaf)


def _node_rows(
    model: MarketModel, lead: int, moves: np.ndarray,
    boxes: list[IndicatorBox | None], disutility: Mapping[int, ExtFun],
) -> dict[int, tuple[np.ndarray, np.ndarray]] | None:
    """Each decision node's zero-sublevel rows over its own decision, from
    the price moves ``moves``, ``boxes`` and ``disutility`` of
    :func:`_path_objectives`.

    Per stage t, ``(rows, start)``: the i-th node of ``positions_at(t)``
    owns ``rows[start[i]:start[i + 1]]``, one row -(1, Z_c - Z_n) per
    child c (the expenditure 1 in the terminal form only), then the rows
    of the stage's decision box horizon.  Built when the adapted cone of
    the path objectives splits into these node cones (see
    :mod:`treedp.cones`): a frictionless market that trades at every
    stage (the caller's condition), without a borrowing limit, whose
    every leaf disutility has the zero sublevel {c <= 0} (loss slope > 0,
    gain slope 0); None otherwise.  The rows carry the bits of the path
    objectives' rows.
    """
    tree = model.tree
    if model.cash_lower is not None:
        return None
    for V in disutility.values():
        rows = sublevel_zero_cone(horizon(V))
        if rows is None or rows.tolist() != [[1.0]]:
            return None
    d = lead + model.n_risky
    out = {}
    for t, box in enumerate(boxes):
        box_rows = np.zeros((0, d)) if box is None else sublevel_zero_cone(box.horizon_cone())
        P = tree.positions_at(t)
        first = tree.child_start[P]
        counts = tree.child_start[P + 1] - first
        start = np.concatenate([[0], np.cumsum(counts + len(box_rows))])
        # the e-th child entry of the stage lands at its node's start plus its rank
        ends = np.cumsum(counts)
        rank = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        at = np.repeat(start[:-1], counts) + rank
        kids = tree.child_pos[np.repeat(first, counts) + rank]
        rows = np.empty((start[-1], d))
        rows[at, :lead] = -1.0
        rows[at, lead:] = -moves[kids] + 0.0
        for k, r in enumerate(box_rows):
            rows[start[:-1] + counts + k] = r
        out[t] = (rows, start)
    return out


def _default_grids(
    model: MarketModel, radius: float, points: int, cash_points: int
) -> dict[int, tuple[np.ndarray, ...]]:
    """Rectangular state grids covering trades of size up to ``radius``.

    Per stage, a (cash, holdings) grid: the cash axis spans everything T
    such trades, their costs and the claims can move the cash account
    around ``initial_cash``.  The largest cost is that of a full-width
    trade, evaluated once per group of nodes that share cost parameters
    (:attr:`MarketModel.cost_groups`).
    """
    tree = model.tree
    J, T = model.n_risky, tree.horizon
    N = len(tree)
    max_z = float(np.abs(model.price_array).max()) if N else 1.0
    max_claim = float(np.abs(model.claim_array).max()) if N else 0.0
    trade = np.full((1, J), 2.0 * radius)
    max_cost = max((float(model.cost.cost_many(params, trade)[0])
                    for params in model.cost_groups[1]), default=0.0)
    span = T * (2.0 * radius * J * max_z + max_cost + max_claim) + 0.5
    x0 = model.initial_cash
    cash_ax = _axis(x0 - span, x0 + span, cash_points)
    phi_ax = _axis(-radius, radius, points)
    return {t: (cash_ax,) + (phi_ax,) * J for t in range(T)}


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` evenly spaced points from ``lo`` to ``hi``.

    Bounds whose width is not a finite float (an overflowed span) give
    the axis [-inf, inf], the interval they stand for, instead of the NaN
    that ``linspace`` would fill in: ``backward_solve`` rejects it with
    NumericFailure, while the checks, which never read the grids, still
    run on the problem.
    """
    if not math.isfinite(float(hi) - float(lo)):
        return np.array([-INF, INF])
    return np.linspace(lo, hi, n)


def _build_problem(model: MarketModel, form: str, radius: float, points: int) -> Problem:
    """The market's problem in either form.

    The state entering each stage t < T is (cash, holdings), starting at
    (``initial_cash``, 0).  An open stage decides the target holdings; in
    the terminal form its decision leads with the expenditure d_t <= 0,
    which leaves the cash account.  A closed stage decides nothing and
    holds the position.  Each stage pays its trade at the marginal price
    plus the friction cost, then its claim; the post-trade cash may not
    drop below ``cash_lower``.  At T the position is liquidated into
    terminal wealth, net of the claim and plus the endowment, and the leaf
    objective is V(-wealth).  The state grids need ``points >= 2`` and a
    finite ``radius > 0`` (ValueError otherwise).
    """
    if not points >= 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    tree = model.tree
    J, T = model.n_risky, tree.horizon
    lead = int(form == "terminal")  # the expenditure coordinate
    times, trades = tree.times, [model.can_trade(t) for t in range(T)]
    dims = tuple(lead + J if trades[t] else 0 for t in range(T)) + (0,)
    state_dims = tuple([J + 1] * T + [1])
    prices = model.price_array

    def stage_reader(v: np.ndarray) -> Callable[[int, np.ndarray], np.ndarray | float]:
        """``v`` at the stage-t positions K: one float when every stage-t
        node holds the same bits (arithmetic with it equals that with the
        gathered rows, bit for bit), else one value per row."""
        shared = {}
        for t in range(T + 1):
            bits = v[tree.positions_at(t)].view(np.int64)
            if bits.size and (bits == bits[0]).all():
                shared[t] = float(v[tree.positions_at(t)[0]])
        return lambda t, K: v.take(K) if shared.get(t) is None else shared[t]

    claim_at, endow_at = stage_reader(model.claim_array), stage_reader(model.endowment_array)
    # one cost_many call per group of rows whose nodes share cost parameters
    groups, params = model.cost_groups
    cost_rows = RowGroups([params[g] for g in groups.tolist()], times)

    def cost(K: np.ndarray, D: np.ndarray) -> np.ndarray:
        return cost_rows.map(K, lambda p, rows: model.cost.cost_many(p, D[rows]))

    def transition(K: np.ndarray, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        t = times[K[0]]
        Z = prices.take(K, axis=0)
        phi = S[:, 1:]
        # huge data makes inf or NaN here; the search reports it as a NumericFailure
        with np.errstate(over="ignore", invalid="ignore"):
            if t == T:
                liq = _rowdot(phi, Z) - cost(K, -phi)
                wealth = S[:, 0] + liq - claim_at(t, K) + endow_at(t, K)
                return wealth[:, None]
            target = X[:, lead:] if trades[t] else phi
            delta = target - phi
            # (cash - claim) - (delta . Z + cost), then the expenditure
            out = np.empty((len(K), J + 1))
            cash = out[:, 0]
            np.subtract(S[:, 0], claim_at(t, K), out=cash)
            cash -= _rowdot(delta, Z) + cost(K, delta)
            if lead and trades[t]:
                cash += X[:, 0]
        out[:, 1:] = target
        return out

    lower = None if model.cash_lower is None else model.cash_lower - 1e-12

    def constraint(box: IndicatorBox | None) -> StageFun:
        """The stage's decision box on X, then the limit on the post-trade cash."""

        def fn(K: np.ndarray, S: np.ndarray, X: np.ndarray, post: np.ndarray) -> np.ndarray:
            vals = np.zeros(len(K)) if box is None else box.value_many(X)
            if lower is not None:
                vals += np.where(post[:, 0] >= lower, 0.0, INF)
            return vals

        return fn

    # each open stage's decision box, shared by its constraint, the path
    # objectives and the node rows
    boxes = [_decision_box(model, t, lead) if trades[t] else None for t in range(T)]
    per_stage = {t: constraint(box) for t, box in enumerate(boxes)
                 if box is not None or lower is not None}
    stage_funs = {nid: per_stage[t] for nid, t in zip(tree.ids, times.tolist()) if t in per_stage}

    # one disutility and one leaf objective per distinct utility the leaves use
    disutility = {id(u): u.disutility() for u in model.leaf_utilities.values()}
    objective = {k: AffinePrecompose(V, [[-1.0]]) for k, V in disutility.items()}
    leaf_obj = {leaf: objective[id(model.utility_at(leaf))] for leaf in tree.ids_at(T)}

    # what the transition reads from a position: prices, claim, endowment
    # and cost parameters, compared as bits (stage functions and leaf
    # objectives are shared per stage and per utility, compared by identity)
    local = np.column_stack([prices, model.claim_array, model.endowment_array,
                             np.array(params, dtype=float, ndmin=2)[groups]])
    local_keys = dict(zip(tree.ids, local.view(f"V{local.shape[1] * 8}").ravel().tolist()))

    initial = np.concatenate([[model.initial_cash], np.zeros(J)])
    meta: dict = {
        "validation": validate(model),
        # the terminal form's expenditure moves the state along the cash
        # axis, so that axis is denser than the holdings axes
        "grids": _default_grids(model, radius, points, 2 * points - 1 if lead else points),
    }
    if model.cost.is_frictionless() and all(trades):
        # the one-period price move into each position (0 at the root)
        moves = prices - prices[np.maximum(tree.parent_pos, 0)]
        meta["path_objectives"] = _path_objectives(model, lead, moves, boxes, disutility)
        node_rows = _node_rows(model, lead, moves, boxes, disutility)
        if node_rows is not None:
            meta["node_rows"] = node_rows
    return Problem(
        tree=tree,
        decision_dims=dims,
        state_map=StateMap(state_dims, initial, transition),
        leaf_objective=leaf_obj,
        stage_funs=stage_funs or None,
        lower_bound=model.lower_bound(),
        meta=meta,
        local_keys=local_keys,
    )


def build_problem_cash(
    model: MarketModel, radius: float = 2.0, points: int = 33
) -> Problem:
    """Optimal investment with the cash account eliminated.

    Decisions at each open stage are the target risky holdings; the cash
    account follows from the budget.  Minimizing the expected leaf
    objective, the negative utility of liquidated terminal wealth,
    maximizes expected utility.  ``points`` is the density of every state
    grid axis.
    """
    return _build_problem(model, "cash", radius, points)


def build_problem_terminal(
    model: MarketModel, radius: float = 2.0, points: int = 33
) -> Problem:
    """Optimal investment in full portfolio variables.

    The cash form with one more decision coordinate at each open stage:
    the expenditure d_t <= 0, which leaves the cash account.  The
    expenditure keeps every stage constraint an axis-aligned box, which
    the coordinate pattern search can follow.  With a nondecreasing
    utility, spending nothing is optimal, so both forms have the same
    value.  The cash axis of the state grids has ``2 * points - 1``
    points.
    """
    return _build_problem(model, "terminal", radius, points)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

#: the top level of a market file, as :data:`tree.TREE_RECORD`; ``cost``
#: and ``utility`` take any value here, and the reader of their ``kind``
#: checks it
MARKET_FIELDS = (
    {"assets": "an integer >= 1", "cost": None, "utility": None, "tree": "an array"},
    {"initial_cash": "a number", "cash_lower": "a number", "constraints": "an object",
     "trading_stages": "an array of integers >= 0"},
)


def _has_bool(v) -> bool:
    """Whether a JSON value is, or holds in its arrays, a boolean (which
    ``float`` would read as 0 or 1)."""
    return isinstance(v, bool) or isinstance(v, list) and any(map(_has_bool, v))


def _number(d: Mapping, key: str, where: str, array: bool = False) -> float | np.ndarray:
    """``d[key]`` as a float (with ``array``, a float array), or
    InvalidModel naming the field and quoting the value, shortened."""
    if key not in d:
        raise InvalidModel(f"{where} is missing {key!r}")
    try:
        if _has_bool(d[key]):
            raise TypeError
        # float() parses "inf"/"-inf" spellings too
        return np.asarray(d[key], dtype=float) if array else float(d[key])
    except (TypeError, ValueError):
        what = "a list of numbers" if array else "a number"
        raise InvalidModel(f"{where}: {key!r} is not {what}: {reprlib.repr(d[key])}") from None


def _float(v) -> float:
    """``float(v)`` for a JSON number or numeric string, not for a boolean."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not a number")
    return float(v)


#: the JSON ``kind`` of each cost and utility class; both are read and
#: written by walking the class's dataclass fields
COSTS = {"frictionless": Frictionless, "power": PowerIlliquidity}
UTILITIES = {"sshaped": SShapedUtility, "sampled": SampledUtility}


def _kind_from_dict(d, table: Mapping[str, type], noun: str, where: str):
    """The ``table`` class named by ``d["kind"]``, built from ``d``'s fields.

    Array fields and other numbers are read with :func:`_number`; an
    absent field that has a default takes it.  A key that is neither
    ``kind`` nor a field of the class is rejected.
    """
    if not isinstance(d, Mapping):
        raise InvalidModel(f"{where} is not an object: {reprlib.repr(d)}")
    kind = d.get("kind")
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidModel(f"unknown {noun} kind {reprlib.repr(kind)}")
    names = {f.name for f in fields(cls)}
    for key in d:
        if key != "kind" and key not in names:
            raise InvalidModel(f"{where}: unknown key {reprlib.repr(key)} of a {kind!r} {noun}")
    args = {}
    for f in fields(cls):
        if f.name not in d and f.default is not MISSING:
            continue
        if f.name == "per_node":
            v = d["per_node"]
            try:
                args[f.name] = {k: (_float(p[0]), _float(p[1])) for k, p in v.items()}
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                raise InvalidModel(
                    f"cost.per_node must map node ids to [coeff, exponent]: {reprlib.repr(v)}"
                ) from None
        elif f.type == "np.ndarray":
            args[f.name] = _number(d, f.name, where, array=True)
        else:
            args[f.name] = _number(d, f.name, where)
    return cls(**args)


def _kind_to_dict(obj, table: Mapping[str, type]) -> dict:
    """Inverse of :func:`_kind_from_dict`, every number a float (as the
    reader makes it); an unset ``per_node`` is left out."""
    out: dict = {"kind": next(k for k, cls in table.items() if type(obj) is cls)}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.name != "per_node":
            out[f.name] = np.asarray(v, dtype=float).tolist()
        elif v:
            out[f.name] = {k: list(map(float, p)) for k, p in v.items()}
    return out


def market_from_dict(d: Mapping) -> MarketModel:
    """The market model of a loaded market file (InvalidModel if malformed).

    The node fields are read as columns of the tree records' ``data``.  A
    node is read on its own only where a column holds something other
    than its plainest JSON values (prices that are not a list of numbers,
    a claim or endowment that is not a number) and where it carries a
    utility override; those nodes are read in node order, so the first
    malformed one is named.  ``MarketModel`` then checks every field
    against the tree.
    """
    problem = json_object_problem(d, *MARKET_FIELDS)
    if problem is not None:
        raise InvalidModel(f"market file at <root>: {problem}")
    tree = tree_from_records(d["tree"])
    ids = tree.ids
    data = [r.get("data", {}) for r in d["tree"]]
    Z = [x.get("Z", _MISSING) for x in data]
    named = {key: [(i, x[key]) for i, x in enumerate(data) if key in x]
             for key in ("claim", "endowment")}
    # the nodes to read alone: what the columns cannot take at once
    alone = {i for i, x in enumerate(data) if "utility" in x}
    plain = {float, int}
    if not (_types(Z) <= {list} and _types(itertools.chain.from_iterable(Z)) <= plain):
        alone.update(i for i, z in enumerate(Z) if type(z) is not list or not _types(z) <= plain)
    for entries in named.values():
        alone.update(i for i, v in entries if type(v) not in plain)
    overrides = {}
    for i in sorted(alone):
        node, where = ids[i], f"node {ids[i]!r}"
        if "Z" not in data[i]:
            raise InvalidModel(f"node {node!r} carries no prices (data.Z)")
        _number(data[i], "Z", where, array=True)
        for key in ("claim", "endowment"):
            if key in data[i]:
                _number(data[i], key, where)
        if "utility" in data[i]:
            overrides[node] = _kind_from_dict(
                data[i]["utility"], UTILITIES, "utility", f"utility at {where}"
            )
    constraints = None
    if "constraints" in d:
        constraints = {}
        for k, v in d["constraints"].items():
            where = f"constraints at stage {reprlib.repr(k)}"
            if not isinstance(v, Mapping):
                raise InvalidModel(f"{where}: {reprlib.repr(v)} is not an object")
            bounds = []
            for side in ("lower", "upper"):
                if side not in v:
                    raise InvalidModel(f"{where} are missing {side!r}")
                try:
                    if not isinstance(v[side], list):
                        raise TypeError
                    # float() itself, not a float array, so that null fails
                    bounds.append(np.asarray([_float(x) for x in v[side]], dtype=float))
                except (TypeError, ValueError):
                    raise InvalidModel(f"{where}: {side!r} is not a list of numbers: "
                                       f"{reprlib.repr(v[side])}") from None
            try:
                constraints[int(k)] = tuple(bounds)
            except ValueError:
                raise InvalidModel(f"{where}: the stage is not an integer") from None
    claims, endowment = ({ids[i]: float(v) for i, v in named[key]}
                         for key in ("claim", "endowment"))
    return MarketModel(
        tree=tree,
        n_risky=int(d["assets"]),
        prices=dict(zip(ids, Z)),
        cost=_kind_from_dict(d["cost"], COSTS, "cost", "cost"),
        utility=_kind_from_dict(d["utility"], UTILITIES, "utility", "utility"),
        claims=claims,
        endowment=endowment,
        initial_cash=float(d.get("initial_cash", 0.0)),
        constraints=constraints,
        utility_overrides=overrides,
        cash_lower=float(d["cash_lower"]) if "cash_lower" in d else None,
        trading_stages=(
            frozenset(int(t) for t in d["trading_stages"])
            if "trading_stages" in d
            else None
        ),
    )


def market_to_dict(model: MarketModel) -> dict:
    """The market file of ``model``, every price, amount and parameter
    written as a float, as the reader makes it: loading it gives a model
    that writes the same text."""
    records = tree_to_records(model.tree)
    for r, z in zip(records, model.price_array.tolist()):
        r["data"]["Z"] = z
    where = model.tree.id_positions
    for key, entries in (("claim", model.claims), ("endowment", model.endowment)):
        for nid, v in entries.items():
            records[where[nid]]["data"][key] = float(v)
    for nid, u in model.utility_overrides.items():
        records[where[nid]]["data"]["utility"] = _kind_to_dict(u, UTILITIES)
    out: dict = {
        "assets": model.n_risky,
        "initial_cash": float(model.initial_cash),
        "cost": _kind_to_dict(model.cost, COSTS),
        "utility": _kind_to_dict(model.utility, UTILITIES),
        "tree": records,
    }
    if model.cash_lower is not None:
        out["cash_lower"] = float(model.cash_lower)
    if model.trading_stages is not None:
        out["trading_stages"] = sorted(model.trading_stages)
    if model.constraints:
        out["constraints"] = {
            str(t): {"lower": list(map(float, lo)), "upper": list(map(float, up))}
            for t, (lo, up) in model.constraints.items()
        }
    return out


def load_market(path: str) -> MarketModel:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise InvalidModel(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    try:
        return market_from_dict(payload)
    except TreeFormatError as e:
        raise InvalidModel(str(e)) from None
