"""Bit-level oracles for the row kernels of the stage objective.

The leaf utility, the affine maps, the market transition and its cost,
the row groups, the child slots and the interpolation all run on the
solver's hot path.  Each test here keeps a plain reference body (the
straightforward formula, one operation per step) and compares bytes on
inputs with +-0.0, +-inf, NaN, subnormals and +-1e308.  The kernel may
not warn where its reference does not.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import warnings

import numpy as np
import pytest

from treedp import dp, market
from treedp._polyhedral import unit_rows
from treedp.efun import AffinePrecompose, ExtFun, SShapedDisutility

from conftest import binomial_tree, ragged_tree

INF = math.inf
SPECIAL = np.array([0.0, -0.0, INF, -INF, np.nan, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308])


def with_specials(rng, X, share=0.3):
    X = np.array(X, dtype=float)
    mask = rng.random(X.shape) < share
    X[mask] = rng.choice(SPECIAL, int(mask.sum()))
    return X


def run(fn, *args, **kwargs):
    """(result, the kinds of the warnings it raised): "overflow", "divide
    by zero", "invalid value" and so on, whichever operation raised them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, {str(w.message).split(" encountered")[0] for w in caught}


def assert_same(new, ref, *args, **kwargs):
    """``new`` and ``ref`` give the same bytes, and ``new`` raises no
    warning that ``ref`` does not."""
    got, got_warn = run(new, *args, **kwargs)
    want, want_warn = run(ref, *args, **kwargs)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).shape == np.asarray(want).shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert got_warn <= want_warn, got_warn - want_warn


# ---------------------------------------------------------------------------
# leaf utility and affine maps
# ---------------------------------------------------------------------------


def sshaped_reference(f: SShapedDisutility, X):
    c = X[:, 0]
    loss = c < 0
    with np.errstate(over="ignore"):
        out = f.beta * c
        out[loss] = -f.kappa / (1.0 + np.abs(c[loss]) ** -f.gamma)
    return out


class Recorder(ExtFun):
    """An inner function that returns its input rows' bytes to compare."""

    def __init__(self, dim):
        self.dim = dim

    def value_many(self, X):
        return X.copy()


class TestLeafKernels:
    @pytest.mark.parametrize("gamma, kappa, beta", [
        (2.0, 1.0, 1.0), (1.5, 0.3, 2.0), (3.0, 1e300, 1e-300), (7.25, 2.0, 1e308),
    ])
    @pytest.mark.parametrize("m", [0, 1, 7, 4099])
    def test_sshaped_utility(self, gamma, kappa, beta, m):
        rng = np.random.default_rng(m)
        f = SShapedDisutility(gamma, kappa, beta)
        X = rng.standard_normal((m, 1)) * 10.0 ** rng.integers(-320, 300, (m, 1))
        X = with_specials(rng, X)
        assert_same(f.value_many, lambda X: sshaped_reference(f, X), X)
        # a strided first column, as a wider input gives
        wide = np.hstack([X, with_specials(rng, rng.standard_normal((m, 2)))])
        assert_same(f.value_many, lambda X: sshaped_reference(f, X), wide)

    def test_sshaped_utility_warns_nowhere(self):
        # |0|**-gamma divides by zero on the gain side, which never reads it
        f = SShapedDisutility(2.0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = f.value_many(SPECIAL[:, None])
        assert out.tobytes() == sshaped_reference(f, SPECIAL[:, None]).tobytes()

    @pytest.mark.parametrize("k, r", [(1, 1), (1, 2), (1, 3), (2, 1), (3, 2)])
    def test_affine_map(self, k, r):
        rng = np.random.default_rng(10 * k + r)
        for trial in range(20):
            A = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, 3.25, 1e308, 5e-324], (r, k))
            if trial % 2:
                A = rng.standard_normal((r, k))
            b = rng.choice([0.0, -0.0, 1.5, -1e308, 5e-324], r)
            f = AffinePrecompose(Recorder(r), A, b if trial % 3 else None)
            m = int(rng.integers(0, 300))
            X = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-5, 5, (m, k))
            X = with_specials(rng, X)
            for Xv in (X, np.asfortranarray(X), X[::2]):
                assert_same(f.value_many, lambda X: X @ f.matrix.T + f.offset, Xv)

    def test_leaf_objective_of_the_builders(self):
        # the builders' leaf objective: the utility behind the map [[-1.0]]
        rng = np.random.default_rng(4)
        inner = SShapedDisutility(2.0, 1.0, 1.0)
        f = AffinePrecompose(inner, [[-1.0]])
        X = with_specials(rng, rng.standard_normal((5000, 1)))
        assert_same(f.value_many, lambda X: sshaped_reference(inner, X @ f.matrix.T + f.offset), X)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def interp_reference(axes, values, Q, which=None):
    """+inf-aware multilinear interpolation, every corner of every row
    masked by its own isinf test."""
    m, s = Q.shape
    if s == 0:
        return np.full(m, float(values)) if which is None else values[which].astype(float)
    flat = values.reshape(-1)
    lead = values.ndim - s
    strides = [math.prod(values.shape[lead + d + 1 :]) for d in range(s)]
    base = np.zeros(m, dtype=np.intp) if which is None else which * math.prod(values.shape[1:])
    live, weights = [], {}
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


def random_axes(rng, s):
    axes = []
    for _ in range(s):
        n = int(rng.choice([1, 2, 3, 9, 33]))
        if rng.random() < 0.5:
            ax = np.linspace(rng.uniform(-12, 0), rng.uniform(0.5, 12), n)
        else:
            ax = np.sort(rng.choice(np.arange(-40, 40) / 3.0, n, replace=False))
        axes.append(ax)
    return axes


def random_queries(rng, axes, m):
    """Inside, outside, exactly on and next to grid points, and special values."""
    Q = np.stack([rng.uniform(a[0] - 1.0, a[-1] + 1.0, m) for a in axes], axis=1)
    for d, a in enumerate(axes):
        on = rng.random(m) < 0.3
        Q[on, d] = rng.choice(a, int(on.sum()))
        near = rng.random(m) < 0.1
        Q[near, d] = np.nextafter(rng.choice(a, int(near.sum())), rng.choice([-INF, INF]))
    return with_specials(rng, Q, share=0.05)


class TestInterpolation:
    @pytest.mark.parametrize("seed", range(6))
    def test_single_and_stacked_tables(self, seed):
        rng = np.random.default_rng(seed)
        for s in (1, 2, 3):
            axes = random_axes(rng, s)
            shape = tuple(len(a) for a in axes)
            tables = rng.uniform(-5.0, 5.0, (4,) + shape)
            tables[rng.random(tables.shape) < 0.1] = INF  # scattered +inf
            Q = random_queries(rng, axes, int(rng.choice([1, 12, 600])))
            which = rng.integers(0, 4, len(Q))
            assert_same(dp.interp_multilinear, interp_reference, axes, tables[0], Q)
            assert_same(dp.interp_multilinear, interp_reference, axes, tables, Q, which=which)

    def test_no_state_coordinates(self):
        tables = np.array([1.5, -0.0, INF])
        Q = np.zeros((5, 0))
        assert_same(dp.interp_multilinear, interp_reference, [], tables[0], Q)
        assert_same(dp.interp_multilinear, interp_reference, [], tables, Q,
                    which=np.array([0, 1, 2, 1, 0]))

    def test_huge_and_tiny_table_values(self):
        # sums that overflow, and corners of -0.0 and subnormal values
        rng = np.random.default_rng(7)
        axes = [np.linspace(0.0, 1.0, 5), np.linspace(-2.0, 2.0, 9)]
        values = rng.choice([1e308, -1e308, 1.7e308, -0.0, 5e-324, INF, 2.0], (5, 9))
        Q = random_queries(rng, axes, 400)
        assert_same(dp.interp_multilinear, interp_reference, axes, values, Q)


# ---------------------------------------------------------------------------
# child slots and conditional expectation
# ---------------------------------------------------------------------------


def child_slots_reference(tree, K):
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


def expect_reference(slots, child_values, n):
    out = np.zeros((n,) + child_values.shape[1:])
    i = 0
    for rows, kids, p in slots:
        v = child_values[i : i + len(kids)]
        i += len(kids)
        out[rows] += p.reshape((-1,) + (1,) * (v.ndim - 1)) * v
    return out


def slot_bytes(slots):
    return [(rows if isinstance(rows, slice) else rows.tobytes(), kids.tobytes(), p.tobytes())
            for rows, kids, p in slots]


class TestChildSlots:
    @pytest.mark.parametrize("seed", range(8))
    def test_uniform_and_ragged_trees(self, seed):
        rng = np.random.default_rng(seed)
        tree = binomial_tree(3) if seed % 2 else ragged_tree(rng, int(rng.integers(1, 5)))
        for t in range(tree.horizon):
            P = tree.positions_at(t)
            for K in (P, rng.choice(P, int(rng.integers(1, 40))), P[:0]):
                slots, kids = dp._child_slots(tree, K)
                ref = child_slots_reference(tree, K)
                assert slot_bytes(slots) == slot_bytes(ref)
                want = np.concatenate([c for _, c, _ in ref]) if ref else np.zeros(0, np.int64)
                assert kids.dtype == want.dtype and kids.tobytes() == want.tobytes()
                for shape in ((), (3, 2)):
                    vals = with_specials(rng, rng.standard_normal((len(kids),) + shape))
                    if not len(K):
                        continue
                    assert_same(dp._expect, expect_reference, slots, vals, len(K))

    def test_uniform_children_table(self):
        rng = np.random.default_rng(5)
        tree = ragged_tree(rng, 3)
        for t in range(tree.horizon + 1):
            P = tree.positions_at(t)
            counts = tree.child_start[P + 1] - tree.child_start[P]
            table = tree.uniform_children.get(t)
            assert (table is not None) == bool(counts.min() == counts.max() > 0)
        tree = binomial_tree(2)
        pos, prob = tree.uniform_children[1]
        assert pos.shape == prob.shape == (2, 2)
        assert not pos.flags.writeable


# ---------------------------------------------------------------------------
# row groups
# ---------------------------------------------------------------------------


def groups_reference(objs, K, fn):
    first, gid = {}, []
    for obj in objs:
        gid.append(first.setdefault(id(obj), len(first)))
    gid = np.array(gid)
    uniq = list({id(o): o for o in objs}.values())
    if len(uniq) == 1:
        return np.asarray(fn(uniq[0], slice(None)), dtype=float)
    g = gid[K]
    if (g == g[0]).all():
        return np.asarray(fn(uniq[g[0]], slice(None)), dtype=float)
    out = np.empty(len(K))
    for u in np.unique(g):
        rows = np.flatnonzero(g == u)
        out[rows] = fn(uniq[u], rows)
    return out


class TestRowGroups:
    def test_groups_decided_per_stage(self):
        rng = np.random.default_rng(2)
        tree = ragged_tree(rng, 3)
        scale = [1.0, -0.0, 3.0]
        objs = [scale[int(rng.integers(0, 3))] if n.time % 2 else scale[0] for n in tree.nodes]
        groups = dp.RowGroups(objs, tree.times)
        X = with_specials(rng, rng.standard_normal(200))
        for t in range(tree.horizon + 1):
            K = rng.choice(tree.positions_at(t), 200)

            def fn(obj, rows):
                with np.errstate(all="ignore"):  # -0.0 * inf, 3.0 * 1e308
                    return obj * X[rows]

            assert groups.map(K, fn).tobytes() == groups_reference(objs, K, fn).tobytes()


# ---------------------------------------------------------------------------
# market transition and cost
# ---------------------------------------------------------------------------


def cost_reference(model, nodes, K, D):
    """The friction cost of each row at its node's parameters."""
    out = np.empty(len(K))
    keys = [model.cost.params_at(nodes[k].id) for k in K.tolist()]
    for key in dict.fromkeys(keys):
        rows = np.flatnonzero([k == key for k in keys])
        if model.cost.is_frictionless():
            out[rows] = 0.0
            continue
        lam, p = key
        with np.errstate(over="ignore"):
            out[rows] = lam * (np.abs(D[rows]) ** p).sum(axis=1)
    return out


def transition_reference(K, S, X, model, form):
    tree = model.tree
    nodes, T, J = tree.nodes, tree.horizon, model.n_risky
    lead = int(form == "terminal")
    Zall = np.array([model.Z(n.id) for n in nodes]).reshape(len(nodes), J)
    claim = np.array([model.claim(n.id) for n in nodes])
    endow = np.array([model.endow(n.id) for n in nodes])
    t = tree.times[K[0]]
    Z = np.take(Zall, K, axis=0)
    if t < T:
        cash, phi = S[:, :1], S[:, 1:]
        trade = model.can_trade(t)
        target = X[:, lead:] if trade else phi
        delta = target - phi
        spend = np.einsum("ij,ij->i", delta, Z) + cost_reference(model, nodes, K, delta)
        new_cash = cash[:, 0] - claim[K] - spend
        if lead and trade:
            new_cash = new_cash + X[:, 0]
        return np.hstack([new_cash[:, None], target])
    cash, phi = S[:, 0], S[:, 1:]
    liq = np.einsum("ij,ij->i", phi, Z) - cost_reference(model, nodes, K, -phi)
    wealth = cash + liq - claim[K] + endow[K]
    return wealth[:, None]


def random_market(rng) -> market.MarketModel:
    tree = ragged_tree(rng, int(rng.integers(1, 4)))
    J = int(rng.integers(1, 3))
    prices = {n.id: rng.uniform(0.2, 3.0, J) for n in tree.nodes}
    pick = rng.random()
    values = [0.0, -0.0, 0.05, -0.3]
    if pick < 0.3:  # every node of a stage shares its claim
        by_stage = {t: float(rng.choice(values)) for t in range(tree.horizon + 1)}
        claims = {n.id: by_stage[n.time] for n in tree.nodes}
    else:
        claims = {n.id: float(rng.choice(values)) for n in tree.nodes if rng.random() < 0.6}
    endowment = {n.id: float(rng.choice(values)) for n in tree.leaves if rng.random() < 0.5}
    if rng.random() < 0.3:
        cost = market.Frictionless()
    else:
        per_node = {n.id: (float(rng.choice([0.05, 0.1, 2.0])), float(rng.choice([1.5, 2.0, 3.0])))
                    for n in tree.nodes if rng.random() < 0.4}
        cost = market.PowerIlliquidity(0.1, 2.0, per_node or None)
    trading = None
    if tree.horizon > 1 and rng.random() < 0.5:
        trading = frozenset(t for t in range(tree.horizon) if rng.random() < 0.5)
    return market.MarketModel(
        tree=tree, n_risky=J, prices=prices, cost=cost,
        utility=market.SShapedUtility(2.0, 1.0, 1.0),
        claims=claims, endowment=endowment, initial_cash=1.0, trading_stages=trading,
    )


class TestTransition:
    @pytest.mark.parametrize("seed", range(12))
    def test_transition_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        model = random_market(rng)
        tree, J = model.tree, model.n_risky
        for form in ("cash", "terminal"):
            problem = market._build_problem(model, form, 1.0, 5)
            transition = problem.state_map.transition
            reference = functools.partial(transition_reference, model=model, form=form)
            for t in range(tree.horizon + 1):
                P = tree.positions_at(t)
                for m in (1, 13, 300):
                    K = rng.choice(P, m)
                    scale = 10.0 ** rng.integers(-3, 3, (m, J + 1))
                    S = with_specials(rng, rng.standard_normal((m, J + 1)) * scale, 0.1)
                    n = problem.decision_dims[t]
                    X = with_specials(rng, rng.standard_normal((m, n)), 0.1)
                    assert_same(transition, reference, K, S, X)

    @pytest.mark.parametrize("J", [1, 2, 3])
    def test_power_cost(self, J):
        rng = np.random.default_rng(J)
        for lam, p in ((0.1, 2.0), (2.0, 1.5), (1e300, 3.0), (5e-324, 1.0001)):
            cost = market.PowerIlliquidity(lam, p)
            D = rng.standard_normal((500, J)) * 10.0 ** rng.integers(-200, 200, (500, J))
            D = with_specials(rng, D)

            def reference(params, D):
                with np.errstate(over="ignore"):
                    return lam * (np.abs(D) ** p).sum(axis=1)

            assert_same(cost.cost_many, reference, (lam, p), D)

    def test_row_dot(self):
        rng = np.random.default_rng(0)
        for J in (1, 2, 3):
            A = with_specials(rng, rng.standard_normal((300, J)))
            B = with_specials(rng, rng.standard_normal((300, J)))
            assert_same(market._rowdot, lambda A, B: np.einsum("ij,ij->i", A, B), A, B)
            assert_same(market._rowdot, lambda A, B: np.einsum("ij,ij->i", A, B), A[:, ::-1], B)


# ---------------------------------------------------------------------------
# the market's stage constraint
# ---------------------------------------------------------------------------


def stage_constraint_reference(K, S, X, post, model, t, lead):
    """The decision box behind a 0/1 selector of the rows [S, X], plus the
    borrowing limit on the post-trade cash; None when the stage has neither."""
    box = market._decision_box(model, t, lead) if model.can_trade(t) else None
    if box is None and model.cash_lower is None:
        return None
    vals = 0.0
    if box is not None:
        sel = np.zeros((box.dim, S.shape[1] + box.dim))
        sel[:, S.shape[1]:] = np.eye(box.dim)
        vals = AffinePrecompose(box, sel).value_many(np.hstack([S, X]))
    if model.cash_lower is not None:
        vals = vals + np.where(post[:, 0] >= model.cash_lower - 1e-12, 0.0, INF)
    return np.asarray(vals, dtype=float)


class TestStageConstraint:
    @pytest.mark.parametrize("seed", range(12))
    def test_stage_constraint_matches_the_selector_form(self, seed):
        rng = np.random.default_rng(seed)
        model = random_market(rng)
        tree, J, T = model.tree, model.n_risky, model.tree.horizon
        ends = [-INF, -1.0, -0.0, 0.0, 0.5, INF]
        boxes = {}
        for t in range(T):
            if rng.random() < 0.6:
                lo, up = np.sort(rng.choice(ends, (2, J)), axis=0)
                boxes[t] = (lo, up)
        lower = float(rng.choice([-0.5, 0.0, 1.0]))
        for cash_lower, constraints in itertools.product((None, lower), (None, boxes or None)):
            limited = dataclasses.replace(model, constraints=constraints, cash_lower=cash_lower)
            for form in ("cash", "terminal"):
                lead = int(form == "terminal")
                problem = market._build_problem(limited, form, 1.0, 5)
                stage_funs = problem.stage_funs or {}
                for t in range(T):
                    P = tree.positions_at(t)
                    K = rng.choice(P, 200)
                    n = problem.decision_dims[t]
                    # finite states, and decisions finite or NaN, as the search
                    # proposes them: the selector's 0 * inf (or 0 * NaN) would
                    # make every other coordinate of such a row NaN
                    S = with_specials(rng, rng.standard_normal((200, J + 1)), 0.1)
                    S[~np.isfinite(S)] = -0.0
                    X = with_specials(rng, rng.standard_normal((200, n)), 0.1)
                    X[np.isinf(X)] = np.copysign(1e308, X[np.isinf(X)])
                    bound = market._decision_box(limited, t, lead) if n else None
                    if bound is not None:  # coordinates exactly on a finite bound
                        side = np.where(rng.random(X.shape) < 0.5, bound.lower, bound.upper)
                        on = (rng.random(X.shape) < 0.3) & np.isfinite(side)
                        X[on] = side[on]
                    with np.errstate(all="ignore"):  # the transition of NaN and 1e308 rows
                        post = problem.state_map.transition(K, S, X)
                    if cash_lower is not None:  # post-trade cash at and around the limit
                        at = cash_lower - 1e-12
                        post[:, 0] = rng.choice(
                            [at, np.nextafter(at, -INF), np.nextafter(at, INF), -0.0, 0.0,
                             cash_lower, INF, -INF, np.nan], 200)
                    reference = functools.partial(
                        stage_constraint_reference, model=limited, t=t, lead=lead)
                    fn = stage_funs.get(tree.nodes[P[0]].id)
                    assert (fn is None) == (reference(K, S, X, post) is None), (t, form)
                    if fn is not None:
                        assert all(stage_funs.get(tree.nodes[p].id) is fn for p in P)
                        assert_same(fn, reference, K, S, X, post)


# ---------------------------------------------------------------------------
# cone rows
# ---------------------------------------------------------------------------


def unit_rows_reference(R):
    """Each row over its norm, in extended precision, rounded to float once."""
    L = R.astype(np.longdouble)
    return (L / np.sqrt((L * L).sum(axis=-1, keepdims=True))).astype(float)


def signed_rows(rng, shape, exponents, zeros=0.2):
    """Rows of entries +-10**e, e drawn from ``exponents``, a share of them 0;
    every row keeps a nonzero entry."""
    R = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(*exponents, shape)
    R[rng.random(shape) < zeros] = 0.0
    R[..., 0] = np.where(R.any(axis=-1), R[..., 0], 1.0)
    return R


class TestUnitRows:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 2), (50, 5), (3, 4, 6), (9, 40)])
    def test_rows_of_normal_size_keep_their_bits(self, shape):
        # every entry in [1e-153, 1e153]: no square leaves the normal range
        rng = np.random.default_rng(sum(shape))
        for exponents in ((-153, 153), (-3, 3), (-153, -140), (140, 153)):
            R = signed_rows(rng, shape, exponents)
            assert_same(unit_rows, lambda R: R / np.linalg.norm(R, axis=-1, keepdims=True), R)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is plain double here")
    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.7e308, -1.7e308, 5e-324, 2.5e-310])
    def test_tiny_huge_and_subnormal_rows_within_2_ulp(self, scale):
        rng = np.random.default_rng(int(math.log10(abs(scale)) + 400))
        R = scale * signed_rows(rng, (300, 3), (-2, 0))
        if abs(scale) == 5e-324:  # subnormal entries: whole multiples of 5e-324
            R = rng.integers(-2**20, 2**20, (300, 3)) * 5e-324
            R[:, 0] = np.where(R.any(axis=1), R[:, 0], 5e-324)
        R[::7, 1] = 5e-324  # a subnormal beside the row's size
        got, warned = run(unit_rows, R)
        ref = unit_rows_reference(R)
        assert not warned
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref))), np.abs(got - ref).max()

    def test_zero_rows_stay_zero(self):
        R = np.array([[[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]], [[1.0, -0.0, 0.0], [0.0, 0.0, 0.0]]])
        got, warned = run(unit_rows, R)
        assert got.tobytes() == R.tobytes() and not warned
        assert unit_rows(np.zeros((2, 0, 3))).shape == (2, 0, 3)
