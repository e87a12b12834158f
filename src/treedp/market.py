"""Financial market models on scenario trees.

A model holds, per node: marginal prices of the risky assets (the
riskless asset has price 1 at all times), a trading cost integrand
(none, or superlinear power costs of trade size), optional box
constraints on risky holdings, claims payable at the node, and an
endowment at the leaves.  Preferences are a nonconcave utility of
terminal wealth, equivalently the disutility V(c) = -u(-c) of terminal
expenditure.

Two builders turn a model into a solvable problem:

* ``build_problem_cash``: decisions are the risky holdings, cash is
  eliminated through the wealth dynamics, and the leaf objective values
  the liquidated terminal position.
* ``build_problem_terminal``: decisions are full portfolios (cash and
  risky), intermediate spending is constrained nonpositive, and the
  terminal disutility is applied to the final expenditure.

The two formulations have the same optimal value; the test suite checks
this on every fixture.  ``validate`` decides the standing assumptions
analytically per atom family and explains which existence route applies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import efun
from .dp import Problem, RowGroups, StageFun, StateMap
from .efun import (
    AffinePrecompose,
    ExtFun,
    IndicatorBox,
    Sampled1D,
    SShapedDisutility,
    Sum,
)
from .tree import Node, ScenarioTree, TreeFormatError, tree_from_records, tree_to_records

INF = math.inf


class InvalidModel(ValueError):
    """The market data violate a structural requirement."""


class NoCashAccount(ValueError):
    """The cash-reduced builder needs a perfectly liquid riskless asset."""


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

    def cost_many(self, node: Node, D: np.ndarray) -> np.ndarray:
        return np.zeros(D.shape[0])

    def to_dict(self) -> dict:
        return {"kind": "frictionless"}


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

    def cost_many(self, node: Node, D: np.ndarray) -> np.ndarray:
        lam, p = self.params_at(node.id)
        return lam * (np.abs(D) ** p).sum(axis=1)

    def to_dict(self) -> dict:
        d: dict = {"kind": "power", "coeff": self.coeff, "exponent": self.exponent}
        if self.per_node:
            d["per_node"] = {k: list(v) for k, v in self.per_node.items()}
        return d


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

    def to_dict(self) -> dict:
        return {
            "kind": "sshaped",
            "gamma": self.gamma,
            "kappa": self.kappa,
            "beta": self.beta,
        }


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

    def to_dict(self) -> dict:
        return {
            "kind": "sampled",
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
            "slope_left": self.slope_left,
            "slope_right": self.slope_right,
        }


Utility = SShapedUtility | SampledUtility


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketModel:
    """Scenario tree plus market data; immutable."""

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
    cash_account: bool = True
    #: stages at which the position may be changed (None: every t < T);
    #: at other stages the market is closed and the position is held
    trading_stages: frozenset[int] | None = None
    #: borrowing limit: the cash account may not drop below this (None: free)
    cash_lower: float | None = None

    def __post_init__(self):
        prices = {}
        for node in self.tree.nodes:
            if node.id not in self.prices:
                raise InvalidModel(f"no prices at node {node.id!r}")
            z = np.atleast_1d(np.asarray(self.prices[node.id], dtype=float))
            if z.shape != (self.n_risky,):
                raise InvalidModel(
                    f"prices at {node.id!r} have shape {z.shape}, want ({self.n_risky},)"
                )
            if not np.isfinite(z).all():
                raise InvalidModel(f"prices at {node.id!r} are not finite: {z.tolist()}")
            prices[node.id] = z
        object.__setattr__(self, "prices", prices)
        for nid, v in self.claims.items():
            if nid not in self.tree:
                raise InvalidModel(f"claim at unknown node {nid!r}")
            if not math.isfinite(v):
                raise InvalidModel(f"claim at {nid!r} is not finite: {v}")
        for nid, v in self.endowment.items():
            if not self.tree.is_leaf(nid):
                raise InvalidModel(f"endowment at non-leaf node {nid!r}")
            if not math.isfinite(v):
                raise InvalidModel(f"endowment at {nid!r} is not finite: {v}")
        for name in ("initial_cash", "cash_lower"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise InvalidModel(f"{name} is not finite: {v}")
        if self.constraints:
            for t, (lo, up) in self.constraints.items():
                try:
                    IndicatorBox(lo, up)  # shape/order checks
                except ValueError as e:
                    raise InvalidModel(f"constraint bounds at stage {t}: {e}") from None
                if np.atleast_1d(lo).shape != (self.n_risky,):
                    raise InvalidModel(f"constraint bounds at stage {t} have wrong shape")

    def Z(self, node_id: str) -> np.ndarray:
        return self.prices[node_id]

    def claim(self, node_id: str) -> float:
        return float(self.claims.get(node_id, 0.0))

    def endow(self, leaf_id: str) -> float:
        return float(self.endowment.get(leaf_id, 0.0))

    def utility_at(self, leaf_id: str) -> Utility:
        return self.utility_overrides.get(leaf_id, self.utility)

    def disutility_at(self, leaf_id: str) -> ExtFun:
        return self.utility_at(leaf_id).disutility()

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

    def total_cost_many(self, node: Node, D: np.ndarray) -> np.ndarray:
        """Total cost of the trade D at the node: price part plus friction."""
        return D @ self.Z(node.id) + self.cost.cost_many(node, D)

    def lower_bound(self) -> float:
        """Integrable lower bound of the leaf disutility: -sup u."""
        sups = [self.utility.sup()] + [u.sup() for u in self.utility_overrides.values()]
        return -max(sups)


def liquidation_value(
    model: MarketModel, node_id: str, phi, with_frictions: bool = False
) -> float:
    """Proceeds from closing the position ``phi`` at the node's prices.

    The frictional variant subtracts the cost of the closing trade -phi.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    node = model.tree.node(node_id)
    value = float(phi @ model.Z(node_id))
    if with_frictions:
        value -= float(model.cost.cost_many(node, -phi[None, :])[0])
    return value


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
      (checked on the region where it can hold for power costs).
    """

    conditions: dict[str, dict]

    def status(self, name: str) -> str:
        return self.conditions[name]["status"]

    def holds(self, name: str) -> bool:
        return self.status(name) == "holds"

    def analytic_route_ok(self) -> bool:
        """True when existence follows without any arbitrage-type check."""
        return self.holds("cost_growth_strict") and self.holds("disutility_growth")

    def required_ok(self) -> bool:
        """The utility-side conditions every model must satisfy."""
        return self.holds("utility_loss_decay") and self.holds("disutility_growth")

    def report_dict(self) -> dict:
        return {"conditions": self.conditions}


def validate(model: MarketModel) -> ValidationReport:
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

    utilities = [("<global>", model.utility)] + list(model.utility_overrides.items())
    slopes = {name: u.loss_slope for name, u in utilities}
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
    inada = all(u.loss_slope == INF for _, u in utilities)
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


def _free_disposal_check(model: MarketModel, samples: int = 64) -> dict:
    neg_price = [
        n.id for n in model.tree.nodes if (model.Z(n.id) < 0).any()
    ]
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
    # power costs are monotone only within |d_i| <= (Z_i/(p*coeff))**(1/(p-1))
    radius = INF
    for node in model.tree.nodes:
        lam, p = model.cost.params_at(node.id)
        z = model.Z(node.id)
        r = (np.minimum.reduce(z) / (lam * p)) ** (1.0 / (p - 1.0)) if z.size else INF
        radius = min(radius, float(r))
    rng = np.random.default_rng(7)
    for node in model.tree.nodes:
        base = rng.uniform(-radius, radius, size=(samples, model.n_risky))
        drop = rng.uniform(0.0, 1.0, size=(samples, model.n_risky))
        lower = np.maximum(base - drop, -radius)
        s_hi = model.total_cost_many(node, base)
        s_lo = model.total_cost_many(node, lower)
        if (s_lo > s_hi + 1e-9).any():
            return {
                "status": "fails",
                "note": f"monotonicity violated within radius {radius} at node {node.id}",
            }
    return {
        "status": "holds",
        "note": f"sampled monotone on componentwise-ordered pairs within radius {radius:.4g}",
    }


def _analysis_stamp(model: MarketModel, report: ValidationReport) -> dict:
    return {
        "cost_superlinear": not model.cost.is_frictionless(),
        "frictionless": model.cost.is_frictionless(),
        "disutility_growth": report.holds("disutility_growth"),
    }


# ---------------------------------------------------------------------------
# problem builders
# ---------------------------------------------------------------------------


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (m, J) arrays."""
    return np.einsum("ij,ij->i", A, B)


@dataclass(frozen=True)
class _PositionData:
    """Per-position market data of the tree, built once per problem.

    ``cost(K, D)`` is the friction cost of trade D[j] at the node of
    position K[j]: one ``cost_many`` call per group of nodes that share
    cost parameters, with a representative node of the group.
    """

    Z: np.ndarray        # (N, J) prices
    claim: np.ndarray    # (N,)
    endow: np.ndarray    # (N,)
    cost_model: Frictionless | PowerIlliquidity
    cost_groups: RowGroups

    @classmethod
    def of(cls, model: MarketModel) -> "_PositionData":
        nodes = model.tree.nodes
        reps: dict = {}
        return cls(
            Z=np.array([model.Z(n.id) for n in nodes]).reshape(len(nodes), model.n_risky),
            claim=np.array([model.claim(n.id) for n in nodes]),
            endow=np.array([model.endow(n.id) for n in nodes]),
            cost_model=model.cost,
            cost_groups=RowGroups([reps.setdefault(model.cost.params_at(n.id), n) for n in nodes]),
        )

    def cost(self, K: np.ndarray, D: np.ndarray) -> np.ndarray:
        return self.cost_groups.map(K, lambda node, rows: self.cost_model.cost_many(node, D[rows]))


def _leaf_objectives(model: MarketModel, wrap) -> dict[str, ExtFun]:
    """``wrap(disutility)`` per leaf, one shared object per distinct utility."""
    shared: dict[int, ExtFun] = {}
    out = {}
    for leaf in model.tree.leaves:
        u = model.utility_at(leaf.id)
        if id(u) not in shared:
            shared[id(u)] = wrap(u.disutility())
        out[leaf.id] = shared[id(u)]
    return out


def _constraint_stage_fun(model: MarketModel, t: int, state_dim: int) -> ExtFun | None:
    bounds = model.holdings_bounds(t)
    if bounds is None:
        return None
    lo, up = bounds
    sel = np.zeros((model.n_risky, state_dim + model.n_risky))
    sel[:, state_dim:] = np.eye(model.n_risky)
    return AffinePrecompose(IndicatorBox(lo, up), sel)


def _wealth_row_cash(model: MarketModel, leaf_id: str) -> tuple[np.ndarray, float]:
    """Coefficients of terminal wealth in the leaf's path decisions
    (frictionless), plus the decision-independent part."""
    tree = model.tree
    path = tree.path(leaf_id)
    J = model.n_risky
    T = tree.horizon
    row = np.zeros(T * J)
    for t in range(T):
        dz = model.Z(path[t + 1]) - model.Z(path[t])
        row[t * J : (t + 1) * J] = dz
    const = (
        model.initial_cash
        - sum(model.claim(nid) for nid in path)
        + model.endow(leaf_id)
    )
    return row, const


def _path_objectives_cash(model: MarketModel) -> dict[str, ExtFun] | None:
    if not model.cost.is_frictionless() or model.trading_stages is not None:
        return None
    tree = model.tree
    J, T = model.n_risky, tree.horizon
    out: dict[str, ExtFun] = {}
    for leaf in tree.leaves:
        row, const = _wealth_row_cash(model, leaf.id)
        terms: list[ExtFun] = [
            AffinePrecompose(model.disutility_at(leaf.id), -row[None, :], [-const])
        ]
        for t, nid in enumerate(tree.path(leaf.id)[:-1]):
            bounds = model.holdings_bounds(t)
            if bounds is None:
                continue
            sel = np.zeros((J, T * J))
            sel[:, t * J : (t + 1) * J] = np.eye(J)
            terms.append(AffinePrecompose(IndicatorBox(*bounds), sel))
        out[leaf.id] = terms[0] if len(terms) == 1 else Sum(tuple(terms))
    return out


def _default_grids(
    model: MarketModel, radius: float, points: int, cash_points: int
) -> dict[int, tuple[np.ndarray, ...]]:
    """Rectangular state grids covering trades of size up to ``radius``.

    Per stage, a (cash, holdings) grid: the cash axis spans everything T
    such trades, their costs and the claims can move the cash account
    around ``initial_cash``.
    """
    tree = model.tree
    J, T = model.n_risky, tree.horizon
    max_z = max((float(np.abs(model.Z(n.id)).max()) for n in tree.nodes), default=1.0)
    max_claim = max((abs(model.claim(n.id)) for n in tree.nodes), default=0.0)
    trade = np.full((1, J), 2.0 * radius)
    max_cost = max(
        (float(model.cost.cost_many(n, trade)[0]) for n in tree.nodes), default=0.0
    )
    span = T * (2.0 * radius * J * max_z + max_cost + max_claim) + 0.5
    x0 = model.initial_cash
    cash_ax = np.linspace(x0 - span, x0 + span, cash_points)
    phi_ax = np.linspace(-radius, radius, points)
    return {t: (cash_ax,) + (phi_ax,) * J for t in range(T)}


def build_problem_cash(
    model: MarketModel, radius: float = 2.0, points: int = 33
) -> Problem:
    """Optimal investment with the cash account eliminated.

    Decisions are the target risky holdings per node before the final
    stage; the state is (cash, holdings); the leaf objective is the
    negative utility of liquidated terminal wealth plus endowment, net of
    claims, so minimizing it maximizes expected utility.
    """
    if not model.cash_account:
        raise NoCashAccount("cash-reduced form needs a riskless asset of price 1")
    tree = model.tree
    J, T = model.n_risky, tree.horizon
    dims = tuple(J if model.can_trade(t) else 0 for t in range(T)) + (0,)
    state_dims = tuple([J + 1] * T + [1])

    data = _PositionData.of(model)
    times = tree.times

    def transition(K: np.ndarray, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        t = times[K[0]]
        Z = np.take(data.Z, K, axis=0)
        if t < T:
            cash, phi = S[:, :1], S[:, 1:]
            target = X if model.can_trade(t) else phi
            delta = target - phi
            spend = _rowdot(delta, Z) + data.cost(K, delta)
            new_cash = cash[:, 0] - data.claim[K] - spend
            return np.hstack([new_cash[:, None], target])
        cash, phi = S[:, 0], S[:, 1:]
        liq = _rowdot(phi, Z) - data.cost(K, -phi)
        wealth = cash + liq - data.claim[K] + data.endow[K]
        return wealth[:, None]

    initial = np.concatenate([[model.initial_cash], np.zeros(J)])
    sm = StateMap(state_dims, initial, transition)
    leaf_obj = _leaf_objectives(model, lambda dis: AffinePrecompose(dis, [[-1.0]]))
    per_stage = {
        t: _constraint_stage_fun(model, t, J + 1) for t in range(T) if model.can_trade(t)
    }
    stage_funs: dict[str, ExtFun] = {
        node.id: per_stage[node.time]
        for node in tree.nodes
        if per_stage.get(node.time) is not None
    }
    report = validate(model)
    meta: dict = {
        "market": model,
        "form": "cash",
        "market_analysis": _analysis_stamp(model, report),
        "validation": report,
        "grids": _default_grids(model, radius, points, points),
    }
    paths = _path_objectives_cash(model)
    if paths is not None:
        meta["path_objectives"] = paths
    return Problem(
        tree=tree,
        decision_dims=dims,
        state_map=sm,
        leaf_objective=leaf_obj,
        stage_funs=stage_funs or None,
        lower_bound=model.lower_bound(),
        meta=meta,
    )


def _path_objectives_terminal(model: MarketModel) -> dict[str, ExtFun] | None:
    # decision block per stage t < T: (d_t, risky holdings), d_t = expenditure
    if not model.cost.is_frictionless():
        return None
    tree = model.tree
    J, T = model.n_risky, tree.horizon
    d = J + 1
    n = T * d
    out: dict[str, ExtFun] = {}
    for leaf in tree.leaves:
        path = tree.path(leaf.id)
        terms: list[ExtFun] = []
        const = -model.initial_cash - model.endow(leaf.id)
        row = np.zeros(n)
        for t in range(T):
            nid = path[t]
            sel = np.zeros((1, n))
            sel[0, t * d] = 1.0
            terms.append(AffinePrecompose(IndicatorBox([-INF], [0.0]), sel))
            bounds = model.holdings_bounds(t)
            if bounds is not None:
                selz = np.zeros((J, n))
                selz[:, t * d + 1 : (t + 1) * d] = np.eye(J)
                terms.append(AffinePrecompose(IndicatorBox(*bounds), selz))
            # terminal expenditure: claims minus all unspent budget and gains
            row[t * d] = -1.0
            dz = model.Z(path[t + 1]) - model.Z(nid)
            row[t * d + 1 : (t + 1) * d] = -dz
            const += model.claim(nid)
        const += model.claim(leaf.id)
        terms.append(
            AffinePrecompose(model.disutility_at(leaf.id), row[None, :], [const])
        )
        out[leaf.id] = Sum(tuple(terms))
    return out


def build_problem_terminal(
    model: MarketModel, radius: float = 2.0, points: int = 33
) -> Problem:
    """Optimal investment in full portfolio variables with explicit budgets.

    Decisions at each node before the final stage are (d_t, risky
    holdings): d_t is the expenditure allowed at the node, constrained
    nonpositive, and the cash account absorbs exactly the budget identity
    (total cost of the trade plus the claim equals d_t).  The position is
    liquidated at the final stage and the terminal disutility applies to
    the final expenditure.  The expenditure variable keeps every stage
    constraint an axis-aligned box, which the coordinate pattern search
    can follow; an inequality-form budget would put the optimum on a
    diagonal wall.
    """
    tree = model.tree
    J, T = model.n_risky, tree.horizon
    if T == 0:
        # degenerate: no trading, terminal expenditure is the net claim
        leaf = tree.root
        dis = model.disutility_at(leaf.id)
        arg = model.claim(leaf.id) - model.initial_cash - model.endow(leaf.id)
        sm = StateMap((1,), np.zeros(0), lambda K, S, X: np.full((S.shape[0], 1), arg))
        return Problem(
            tree=tree,
            decision_dims=(0,),
            state_map=sm,
            leaf_objective={leaf.id: dis},
            lower_bound=model.lower_bound(),
            meta={
                "market": model,
                "form": "terminal",
                "market_analysis": _analysis_stamp(model, validate(model)),
                "validation": validate(model),
                "grids": {},
            },
        )
    d = J + 1
    dims = tuple([d] * T + [0])
    state_dims = tuple([d] * T + [1])

    data = _PositionData.of(model)
    times = tree.times
    # the initial cash enters as a negative claim at the root
    net_claim = data.claim - np.where(times == 0, model.initial_cash, 0.0)

    def transition(K: np.ndarray, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        Z = np.take(data.Z, K, axis=0)
        if times[K[0]] < T:
            # state (cash, holdings); decision (expenditure d_t, holdings)
            cash, phi = S[:, 0], S[:, 1:]
            target = X[:, 1:]
            delta = target - phi
            new_cash = (
                cash
                + X[:, 0]
                - (_rowdot(delta, Z) + data.cost(K, delta))
                - net_claim[K]
            )
            return np.hstack([new_cash[:, None], target])
        # forced liquidation: the final trade is minus the held portfolio
        cash_prev, phi_prev = S[:, 0], S[:, 1:]
        spend = (
            -cash_prev
            + _rowdot(-phi_prev, Z)
            + data.cost(K, -phi_prev)
            + data.claim[K]
            - data.endow[K]
        )
        return spend[:, None]

    per_stage: dict[int, StageFun] = {}
    for t in range(T):
        lo = np.concatenate([[-INF], np.full(J, -INF)])
        up = np.concatenate([[0.0], np.full(J, INF)])
        bounds = model.holdings_bounds(t)
        if bounds is not None:
            lo[1:], up[1:] = bounds
        sel = np.zeros((d, d + d))
        sel[:, d:] = np.eye(d)
        box = AffinePrecompose(IndicatorBox(lo, up), sel)
        if model.cash_lower is None:
            per_stage[t] = box
        else:
            # borrowing limit: the post-trade cash account stays above it
            def fn(K: np.ndarray, S: np.ndarray, X: np.ndarray, _box=box) -> np.ndarray:
                vals = _box.value_many(np.hstack([S, X]))
                new_cash = transition(K, S, X)[:, 0]
                return vals + np.where(new_cash >= model.cash_lower - 1e-12, 0.0, INF)

            per_stage[t] = fn
    stage_funs = {node.id: per_stage[node.time] for node in tree.nodes if node.time < T}

    sm = StateMap(state_dims, np.zeros(d), transition)
    leaf_obj = _leaf_objectives(model, lambda dis: dis)
    report = validate(model)
    meta: dict = {
        "market": model,
        "form": "terminal",
        "market_analysis": _analysis_stamp(model, report),
        "validation": report,
        # the cash axis only needs the binding-budget region (wasted slack
        # never helps a nondecreasing disutility), and it is denser than the
        # holdings axes because the value varies along it at every stage
        "grids": _default_grids(model, radius, points, 2 * points - 1),
    }
    paths = _path_objectives_terminal(model)
    if paths is not None:
        meta["path_objectives"] = paths
    return Problem(
        tree=tree,
        decision_dims=dims,
        state_map=sm,
        leaf_objective=leaf_obj,
        stage_funs=stage_funs,
        lower_bound=model.lower_bound(),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

MARKET_SCHEMA = {
    "type": "object",
    "required": ["assets", "cost", "utility", "tree"],
    "properties": {
        "assets": {"type": "integer", "minimum": 1},
        "initial_cash": {"type": "number"},
        "cash_lower": {"type": "number"},
        "cost": {"type": "object", "required": ["kind"]},
        "utility": {"type": "object", "required": ["kind"]},
        "constraints": {"type": "object"},
        "trading_stages": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "tree": {"type": "array"},
    },
    "additionalProperties": False,
}


def _number(d: Mapping, key: str, where: str) -> float:
    """``d[key]`` as a float, or InvalidModel naming the field."""
    if key not in d:
        raise InvalidModel(f"{where} is missing {key!r}")
    try:
        return float(d[key])  # parses "inf"/"-inf" spellings too
    except (TypeError, ValueError):
        raise InvalidModel(f"{where}: {key!r} is not a number: {d[key]!r}") from None


def _numbers(d: Mapping, key: str, where: str) -> np.ndarray:
    """``d[key]`` as a float array, or InvalidModel naming the field."""
    if key not in d:
        raise InvalidModel(f"{where} is missing {key!r}")
    try:
        return np.asarray(d[key], dtype=float)
    except (TypeError, ValueError):
        raise InvalidModel(f"{where}: {key!r} is not a list of numbers: {d[key]!r}") from None


def _cost_from_dict(d: Mapping) -> Frictionless | PowerIlliquidity:
    kind = d.get("kind")
    if kind == "frictionless":
        return Frictionless()
    if kind == "power":
        per_node = None
        if "per_node" in d:
            try:
                per_node = {k: (float(v[0]), float(v[1])) for k, v in d["per_node"].items()}
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                raise InvalidModel(
                    f"cost.per_node must map node ids to [coeff, exponent]: {d['per_node']!r}"
                ) from None
        return PowerIlliquidity(
            _number(d, "coeff", "cost"), _number(d, "exponent", "cost"), per_node
        )
    raise InvalidModel(f"unknown cost kind {kind!r}")


def _utility_from_dict(d: Mapping, where: str = "utility") -> Utility:
    if not isinstance(d, Mapping):
        raise InvalidModel(f"{where} is not an object: {d!r}")
    kind = d.get("kind")
    if kind == "sshaped":
        return SShapedUtility(*(_number(d, k, where) for k in ("gamma", "kappa", "beta")))
    if kind == "sampled":
        return SampledUtility(
            _numbers(d, "grid", where), _numbers(d, "values", where),
            _number(d, "slope_left", where), _number(d, "slope_right", where),
        )
    raise InvalidModel(f"unknown utility kind {kind!r}")


def market_from_dict(d: Mapping) -> MarketModel:
    import jsonschema

    try:
        jsonschema.validate(d, MARKET_SCHEMA)
    except jsonschema.ValidationError as e:
        path = "/".join(str(p) for p in e.absolute_path)
        raise InvalidModel(f"market file at {path or '<root>'}: {e.message}") from None
    tree = tree_from_records(list(d["tree"]))
    J = int(d["assets"])
    prices = {}
    claims = {}
    endowment = {}
    overrides = {}
    for node in tree.nodes:
        data = node.data
        if "Z" not in data:
            raise InvalidModel(f"node {node.id!r} carries no prices (data.Z)")
        where = f"node {node.id!r}"
        prices[node.id] = _numbers(data, "Z", where)
        if "claim" in data:
            claims[node.id] = _number(data, "claim", where)
        if "endowment" in data:
            if not tree.is_leaf(node.id):
                raise InvalidModel(f"endowment at non-leaf node {node.id!r}")
            endowment[node.id] = _number(data, "endowment", where)
        if "utility" in data:
            if not tree.is_leaf(node.id):
                raise InvalidModel(f"utility override at non-leaf node {node.id!r}")
            overrides[node.id] = _utility_from_dict(data["utility"], f"utility at {where}")
    constraints = None
    if "constraints" in d:
        constraints = {}
        for k, v in d["constraints"].items():
            try:
                constraints[int(k)] = tuple(
                    np.asarray([efun._inf_ok(x) for x in v[side]], dtype=float)
                    for side in ("lower", "upper")
                )
            except KeyError as e:
                raise InvalidModel(f"constraints at stage {k!r} are missing {e}") from None
            except (TypeError, ValueError) as e:
                raise InvalidModel(f"constraints at stage {k!r}: {e}") from None
    return MarketModel(
        tree=tree,
        n_risky=J,
        prices=prices,
        cost=_cost_from_dict(d["cost"]),
        utility=_utility_from_dict(d["utility"]),
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
    records = tree_to_records(model.tree)
    for r in records:
        data = dict(r["data"])
        data["Z"] = [float(v) for v in model.Z(r["id"])]
        if r["id"] in model.claims:
            data["claim"] = model.claim(r["id"])
        if r["id"] in model.endowment:
            data["endowment"] = model.endow(r["id"])
        if r["id"] in model.utility_overrides:
            data["utility"] = model.utility_overrides[r["id"]].to_dict()
        r["data"] = data
    out: dict = {
        "assets": model.n_risky,
        "initial_cash": model.initial_cash,
        "cost": model.cost.to_dict(),
        "utility": model.utility.to_dict(),
        "tree": records,
    }
    if model.cash_lower is not None:
        out["cash_lower"] = model.cash_lower
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
