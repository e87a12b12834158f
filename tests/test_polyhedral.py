"""The cone test against a coordinate-LP reference, the one cone engine
against dense references, and the subspace certificate of
``cone_kernels`` against the block LP.

``cone_vertex`` decides {y : R y <= 0} = {0} from one SVD and
at most two LPs.  The reference below pushes each of the 2n coordinates
to its bound over the cone within the unit box: slow, but a direct
transcription of the definition.  A block that ``cone_kernels``
certifies a subspace must read no one-sided slack from
``block_slacks``, and the node route must give the same bytes with the
certificate switched off, when every node goes to the block LP.  A single
cone is a block LP and a batched SVD of one block: both must give the
bytes of the dense LP and the plain SVD, and an LP that stops without an
optimum must raise, never read as "no ray".  A positive multiple of a row
leaves the cone as it is, so no verdict may change when a row is scaled,
however tiny or huge it becomes, nor when rows are permuted or duplicated.
"""

import dataclasses
import json
import types

import numpy as np
import pytest
from scipy.optimize import linprog

from treedp import _polyhedral, cli, cones, efun, market
from treedp._polyhedral import (
    LP_TOL,
    SLACK_TOL,
    _normalize_rows,
    block_slacks,
    cone_is_subspace,
    cone_kernels,
    cone_vertex,
    kernel_basis,
    unit_l1,
    unit_rows,
)

from conftest import (
    binomial_prices,
    binomial_tree,
    duplicated_asset_model,
    exp_utility,
    random_bounds,
    random_frictionless_tree,
    stacked_route,
)


def coordinate_lp_direction(rows: np.ndarray, dim: int) -> np.ndarray | None:
    """Reference: a nonzero y with R y <= 0 from 2n coordinate LPs, or None."""
    rows = _normalize_rows(rows) if np.size(rows) else np.zeros((0, dim))
    if rows.shape[0] == 0:
        return None if dim == 0 else np.eye(dim)[0]
    bounds = [(-1.0, 1.0)] * dim
    for i in range(dim):
        for sign in (1.0, -1.0):
            c = np.zeros(dim)
            c[i] = -sign  # maximize sign * y_i
            res = linprog(c, A_ub=rows, b_ub=np.zeros(rows.shape[0]), bounds=bounds,
                          method="highs")
            if res.status == 0 and -res.fun > 1e-7:
                y = np.asarray(res.x, dtype=float)
                y[np.abs(y) < 1e-12] = 0.0
                if np.all(rows @ y <= LP_TOL) and np.abs(y).sum() > 0:
                    return y / np.abs(y).sum()
    return None


def _dense(rng, n):
    return rng.standard_normal((int(rng.integers(1, 2 * n + 2)), n))


def _pointed(rng, n):
    # every row is strictly negative on d, so d is interior and the cone is
    # nonzero; n or more generic rows make it pointed
    d = rng.standard_normal(n)
    rows = rng.standard_normal((int(rng.integers(n, 2 * n + 2)), n))
    slack = rows @ d
    rows -= np.outer(slack + rng.uniform(0.1, 1.0, len(rows)), d) / (d @ d)
    return rows


def _rank_deficient(rng, n):
    k = int(rng.integers(1, n))
    return rng.standard_normal((int(rng.integers(1, 2 * n + 2)), k)) @ rng.standard_normal((k, n))


def _positively_spanning(rng, n):
    # R and -sum(R): the cone is ker R, {0} when R has full column rank
    rows = rng.standard_normal((int(rng.integers(1, 2 * n + 1)), n))
    return np.vstack([rows, -rows.sum(axis=0)])


def _small_integer(rng, n):
    rows = rng.integers(-2, 3, size=(int(rng.integers(1, 2 * n + 2)), n)).astype(float)
    return np.vstack([rows, rows[: int(rng.integers(0, len(rows) + 1))]])  # ties


FAMILIES = {
    "dense": _dense,
    "pointed": _pointed,
    "rank_deficient": _rank_deficient,
    "positively_spanning": _positively_spanning,
    "small_integer": _small_integer,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verdict_matches_coordinate_lps(family):
    rng = np.random.default_rng(sorted(FAMILIES).index(family) + 41)
    verdicts = set()
    for _ in range(60):
        n = int(rng.integers(2, 6)) if family == "rank_deficient" else int(rng.integers(1, 6))
        rows = FAMILIES[family](rng, n)
        y = unit_l1(cone_vertex(rows, n)[0])
        ref = coordinate_lp_direction(rows, n)
        assert (y is None) == (ref is None), (rows, y, ref)
        verdicts.add(y is None)
        if y is not None:
            assert np.all(_normalize_rows(rows) @ y <= 1e-9)
            assert np.abs(y).sum() == pytest.approx(1.0, abs=1e-12)
    if family in ("pointed", "rank_deficient"):
        assert verdicts == {False}
    else:
        assert len(verdicts) == 2  # both answers occur


def test_certificate_counts():
    # a line (kernel), a half-line (one-sided), and {0}
    y, info = cone_vertex(np.array([[1.0, 1.0], [-2.0, -2.0]]), 2)
    y = unit_l1(y)
    assert info == {"rows": 2, "dim": 2, "kernel_dim": 1, "lp_calls": 1}
    assert np.allclose(np.abs(y), 0.5) and y.sum() == 0.0
    y, info = cone_vertex(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), 2)
    y = unit_l1(y)
    assert info == {"rows": 3, "dim": 2, "kernel_dim": 0, "lp_calls": 1}
    assert y.tolist() == [0.0, -1.0]
    y, info = cone_vertex(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), 2)
    y = unit_l1(y)
    assert y is None and info["lp_calls"] == 1
    # no rows: the whole space; zero rows are dropped
    y, info = cone_vertex(np.zeros((2, 3)), 3)
    y = unit_l1(y)
    assert y.tolist() == [1.0, 0.0, 0.0] and info["rows"] == 0 and info["kernel_dim"] == 3


def test_subspace_test_agrees_on_kernels():
    # a kernel direction alone never makes the cone one-sided
    rows = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]])
    assert cone_is_subspace(rows, 3) == (True, None)
    subspace, ray = cone_is_subspace(np.array([[1.0, -1.0, 0.0]]), 3)
    assert not subspace and ray @ np.array([1.0, -1.0, 0.0]) < 0


def test_huge_rows_keep_their_direction():
    rows = np.array([[1e308, -1e308], [3.0, 4.0], [0.0, 0.0]])
    assert np.allclose(_normalize_rows(rows), [[0.5**0.5, -(0.5**0.5)], [0.6, 0.8]])
    assert rows[0, 0] == 1e308  # the caller's rows are not scaled in place
    # {y : y1 <= y2, 3 y1 + 4 y2 <= 0} is not {0}, and the huge row still binds
    y = unit_l1(cone_vertex(rows, 2)[0])
    assert y is not None and y[0] <= y[1] + 1e-12


def _node_moves(rng) -> np.ndarray:
    """One node's price moves Z_c - Z_n: 2-4 children, 1-3 assets."""
    m, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    kind = rng.integers(3)
    if kind == 0:
        moves = rng.uniform(-0.5, 0.5, size=(m, d))
    elif kind == 1:
        moves = rng.integers(-4, 5, size=(m, d)) / 8.0
    else:  # a martingale under the uniform measure
        moves = rng.uniform(-0.5, 0.5, size=(m, d))
        moves[-1] = -moves[:-1].sum(axis=0)
    if rng.random() < 0.2:
        moves = np.abs(moves)  # one-signed: an arbitrage unless zero
    if rng.random() < 0.3:
        moves[rng.random(m) < 0.4] = 0.0
    if rng.random() < 0.3:
        moves[:, 1:] = moves[:, :1]
    return moves * rng.choice([1.0, 1e-12, 1e150])


def test_certified_blocks_read_no_slack():
    rng = np.random.default_rng(2041)
    blocks: dict[tuple, list] = {}
    for _ in range(1500):
        rows = unit_rows(-_node_moves(rng))
        blocks.setdefault(rows.shape, []).append(rows)
    groups = [np.stack(b) for b in blocks.values()]
    seen = {"certified": 0, "undecided": 0, "one_sided": 0}
    for R, (slack, _) in zip(groups, block_slacks(groups)):
        _, subspace = cone_kernels(R)
        assert np.all(slack[subspace] <= SLACK_TOL), slack[subspace].max()
        seen["certified"] += int(subspace.sum())
        seen["undecided"] += int((~subspace).sum())
        seen["one_sided"] += int((slack > SLACK_TOL).sum())
    assert min(seen.values()) > 0, seen


def _verdicts(rows: np.ndarray, n: int) -> tuple:
    """Whether the cone is {0} and whether it is a subspace, and the
    kernel dimension and subspace certificate of the node route's block."""
    (K,), certified = cone_kernels(unit_rows(rows)[None])
    return (cone_vertex(rows, n)[0] is None, cone_is_subspace(rows, n)[0],
            K.shape[1], bool(certified[0]))


def _normal_scales(row: np.ndarray) -> tuple[int, int]:
    """The least and the largest k in [-1070, 1020] for which every
    nonzero entry of ``row`` times 2^k is a normal float."""
    e = np.frexp(row[row != 0])[1]  # |x| in [2^(e-1), 2^e)
    return max(-1070, -1021 - int(e.min())), min(1020, 1024 - int(e.max()))


SCALED_FAMILIES = {**FAMILIES, "node_moves": lambda rng, n: -_node_moves(rng)}


@pytest.mark.parametrize("family", sorted(SCALED_FAMILIES))
def test_verdicts_do_not_depend_on_the_scale_or_order_of_the_rows(family):
    rng = np.random.default_rng(sorted(SCALED_FAMILIES).index(family) + 61)
    changed = {"scaled": 0, "permuted": 0, "duplicated": 0}
    for _ in range(16):
        n = int(rng.integers(2, 6)) if family == "rank_deficient" else int(rng.integers(1, 6))
        rows = SCALED_FAMILIES[family](rng, n)
        n = rows.shape[1]
        want = _verdicts(rows, n)
        live = np.flatnonzero(rows.any(axis=1))
        i = int(rng.choice(live))
        lo, hi = _normal_scales(rows[i])
        for k in (lo, hi, int(rng.integers(lo, hi + 1))):
            scaled = rows.copy()
            scaled[i] = np.ldexp(rows[i], k)
            assert np.all(np.abs(scaled[i][scaled[i] != 0]) >= np.finfo(float).tiny)
            changed["scaled"] += _verdicts(scaled, n) != want
        changed["permuted"] += _verdicts(rows[rng.permutation(len(rows))], n) != want
        # a duplicated row widens the left kernel, where the certificate is
        # not read: the block turns undecided, and nothing else may change
        dup = np.vstack([rows, rows[rng.integers(len(rows), size=int(rng.integers(1, 3)))]])
        got = _verdicts(dup, n)
        changed["duplicated"] += got[:3] != want[:3]
        assert not got[3] or want[3]
    assert changed == {"scaled": 0, "permuted": 0, "duplicated": 0}, changed


@pytest.mark.parametrize("scale", [1e-150, 1e-170, 1e-300])
def test_a_tiny_priced_arbitrage_fails(scale, tmp_path, capsys):
    # both children are above the root: buying at the root is an arbitrage
    # at any price level, and the cone rows keep their direction however tiny
    y, _ = cone_vertex(scale * np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), 2)
    assert y.tolist() == [-1.0, 0.0]
    subspace, ray = cone_is_subspace(np.array([[scale, 0.0]]), 2)
    assert not subspace and ray.tolist() == [-0.5, -0.5]
    model = market.MarketModel(
        tree=binomial_tree(1), n_risky=1,
        prices={"r": [scale], "u": [1.2 * scale], "d": [1.1 * scale]},
        cost=market.Frictionless(), utility=market.SShapedUtility(2.0, 1.0, 1.0),
        initial_cash=0.0,
    )
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(market.market_to_dict(model)))
    assert cli.main(["check", str(path), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()
    report = json.loads((tmp_path / "o" / "check_report.json").read_text())
    assert report["horizon_positivity"]["verdict"] == "fails"
    assert report["horizon_positivity"]["witness"] == {"r": [1.0]}


def _node_route_bytes(problem) -> tuple:
    """The node route's check report (``lp_calls`` aside), witness CSV rows
    and null-space bases or one-sided ray, as comparable bytes."""
    rep = cones.check_horizon_positivity(problem).report_dict()
    lp_calls = rep["details"].get("cone", {}).pop("lp_calls", None)
    try:
        ds = cones.null_space(problem)
        null = [(k, b.shape, b.tobytes()) for k, b in ds.per_node.items()], ds.meta
    except cones.NotASubspace as err:
        null = str(err), repr(err.ray)
    return repr(rep), null, lp_calls


def test_node_route_bytes_do_not_depend_on_the_certificate(monkeypatch):
    rng = np.random.default_rng(2043)
    utilities = (market.SShapedUtility(2.0, 1.0, 1.0), exp_utility())
    seen = {"holds": 0, "fails": 0, "fewer_lps": 0, "bounded": 0, "floats": 0, "terminal": 0}
    full = cones.cone_kernels
    for k in range(36):
        n_assets = int(rng.integers(1, 3))
        T = int(rng.integers(1, 4))
        model = random_frictionless_tree(
            rng, T=T, n_branch=int(rng.integers(2, 4)), n_assets=n_assets,
            duplicated=n_assets == 2 and k % 3 == 0, balanced=k % 4 != 1,
            utility=utilities[k % 2], floats=k % 3 == 2,
        )
        if k % 5 == 3:
            model = dataclasses.replace(model, constraints=random_bounds(rng, n_assets, T))
            seen["bounded"] += model.constraints is not None
        seen["floats"] += k % 3 == 2
        for build in (market.build_problem_cash, market.build_problem_terminal):
            problem = build(model, radius=1.0, points=5)
            rep, null, lp_calls = _node_route_bytes(problem)
            with monkeypatch.context() as m:
                # every block undecided: every node goes to the block LP
                m.setattr(cones, "cone_kernels",
                          lambda R: (full(R)[0], np.zeros(len(R), dtype=bool)))
                ref_rep, ref_null, ref_lp_calls = _node_route_bytes(problem)
            assert rep == ref_rep and null == ref_null
            assert lp_calls <= ref_lp_calls
            seen["fewer_lps"] += lp_calls < ref_lp_calls
            seen["holds" if "'holds'" in rep else "fails"] += 1
            seen["terminal"] += build is market.build_problem_terminal
    assert min(seen.values()) > 0, seen


def _dense_lp(rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Reference: minimize c . y over {R y <= 0, |y| <= 1} on the dense rows."""
    res = linprog(c, A_ub=rows, b_ub=np.zeros(rows.shape[0]),
                  bounds=[(-1.0, 1.0)] * rows.shape[1], method="highs")
    assert res.status == 0, res.message
    return np.asarray(res.x, dtype=float)


def _dense_kernel(matrix: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Reference: the kernel from one plain SVD of ``matrix``."""
    if matrix.shape[0] == 0 or not matrix.any():
        return np.eye(matrix.shape[1])
    _, s, vt = np.linalg.svd(matrix)
    rank = int(np.sum(s > rtol * max(matrix.shape) * s[0]))
    return vt[rank:].T.copy()


def test_a_single_cone_is_a_batch_of_one():
    # the one-block LP and the one-block SVD give the dense bytes, on the
    # families above and on node-style rows with zero entries and zero rows
    rng = np.random.default_rng(2047)
    families = sorted(FAMILIES)
    seen = {"kernel_lp": 0, "slack_lp": 0, "zero_entries": 0}
    for k in range(150):
        if k % 3 == 0:
            raw = -_node_moves(rng)
        else:
            raw = FAMILIES[families[k % len(families)]](rng, int(rng.integers(2, 6)))
        seen["zero_entries"] += int((raw == 0).any())
        assert kernel_basis(raw).tobytes() == _dense_kernel(raw).tobytes()
        assert kernel_basis(raw).shape == _dense_kernel(raw).shape
        rows = _normalize_rows(raw)
        if not rows.size:
            continue
        K = kernel_basis(rows)
        objectives = {"slack_lp": rows.sum(axis=0)}
        if K.shape[1]:
            objectives["kernel_lp"] = -K[:, 0]
        for kind, c in objectives.items():
            y = _polyhedral._box_lp([rows[None]], [c[None]])[0][0]
            assert y.tobytes() == _dense_lp(rows, c).tobytes(), (rows, c)
            seen[kind] += 1
    assert min(seen.values()) > 20, seen


def _limited_binomial() -> market.MarketModel:
    # a borrowing limit: the model takes the stacked route, where it holds
    tree = binomial_tree(2)
    return market.MarketModel(
        tree=tree, n_risky=1, prices=binomial_prices(tree, 1.0, 1.2, 0.85),
        cost=market.Frictionless(), utility=market.SShapedUtility(2.0, 1.0, 1.0),
        initial_cash=1.0, cash_lower=-5.0,
    )


def _stopped(*args, **kwargs):
    return types.SimpleNamespace(status=1, message="Iteration limit reached.", x=None, fun=None)


@pytest.mark.parametrize("build", [market.build_problem_cash, market.build_problem_terminal],
                         ids=["cash", "terminal"])
def test_a_cone_lp_without_an_optimum_raises(monkeypatch, build):
    # a stopped LP proves nothing: neither "holds" nor "a subspace"
    limited = build(_limited_binomial(), radius=1.0, points=5)
    dup = stacked_route(build(duplicated_asset_model(), radius=1.0, points=5))
    assert "node_rows" not in limited.meta
    assert cones.check_horizon_positivity(limited).verdict == "holds"
    assert cones.null_space(limited).kind == "exact"
    monkeypatch.setattr(_polyhedral, "linprog", _stopped)
    with pytest.raises(RuntimeError, match="cone LP failed: Iteration limit reached"):
        cones.check_horizon_positivity(limited)  # the max-slack LP
    with pytest.raises(RuntimeError, match="cone LP failed"):
        cones.null_space(limited)
    with pytest.raises(RuntimeError, match="cone LP failed"):
        cones.check_horizon_positivity(dup)  # the kernel-direction LP
    with pytest.raises(RuntimeError, match="cone LP failed"):
        cone_is_subspace(np.array([[1.0, -1.0]]), 2)
    with pytest.raises(RuntimeError, match="cone LP failed"):
        efun.positivity_off_origin(efun.Sum((efun.Affine([1.0]), efun.IndicatorBox([0.0], [np.inf]))))
