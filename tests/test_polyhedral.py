"""The cone test against a coordinate-LP reference.

``cone_vertex`` decides {y : R y <= 0} = {0} from one SVD and
at most two LPs.  The reference below pushes each of the 2n coordinates
to its bound over the cone within the unit box: slow, but a direct
transcription of the definition.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from treedp._polyhedral import (
    LP_TOL,
    _normalize_rows,
    cone_is_subspace,
    cone_vertex,
    unit_l1,
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
