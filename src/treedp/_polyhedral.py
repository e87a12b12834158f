"""Small exact-ish polyhedral cone utilities built on linear algebra and LPs.

A polyhedral cone is given by halfspace rows R, meaning C = {y : R y <= 0}.
Its lineality space C ∩ -C is ker R, so C = {0} exactly when ker R = {0}
and C is a subspace (a theorem of the alternative in the Gordan/Stiemke
family).  Deciding C = {0} therefore takes one SVD (the kernel) and one
bounded LP, whatever the dimension: the subspace test when the kernel is
trivial, else a vertex along a kernel vector as the witness.  The LPs
are solved with HiGHS, which is deterministic for fixed input, so results
are reproducible bit-for-bit.  :func:`linprog` is the package's one LP
entry: scipy is imported at its first call, so that a solve that never
needs an LP never loads scipy.
"""

from __future__ import annotations

import numpy as np

LP_TOL = 1e-9


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at the first call."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size == 0:
        return rows.reshape(0, rows.shape[1] if rows.ndim == 2 else 0)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    huge = np.isinf(norms)
    if huge.any():
        # a norm beyond the float range: scale the row by its largest entry
        # first, so that huge data keeps its direction instead of becoming 0
        huge &= np.isfinite(rows).all(axis=1)
        rows = rows.copy()
        rows[huge] /= np.abs(rows[huge]).max(axis=1)[:, None]
        norms[huge] = np.linalg.norm(rows[huge], axis=1)
    keep = norms > 0
    rows = rows[keep]
    norms = norms[keep]
    return rows / norms[:, None]


def _box_direction(y: np.ndarray) -> np.ndarray | None:
    """``y`` cleaned of LP/SVD noise and scaled to max |y| = 1; None if it is 0.

    Coordinates within 1e-12 of 0 or of a bound of the unit box are set to
    it, so that an LP vertex of exact data stays exact: its largest
    coordinate is then +-1, and the scaling leaves it as it is.
    """
    y = np.array(y, dtype=float)
    y[np.abs(y) < 1e-12] = 0.0
    at_bound = np.abs(np.abs(y) - 1.0) < 1e-12
    y[at_bound] = np.sign(y[at_bound])
    scale = np.abs(y).max(initial=0.0)
    return y / scale if scale > 0 else None


def unit_l1(y: np.ndarray | None) -> np.ndarray | None:
    """``y`` scaled to unit L1 norm (None stays None)."""
    return None if y is None else y / np.abs(y).sum()


def cone_vertex(rows: np.ndarray, dim: int) -> tuple[np.ndarray | None, dict]:
    """Decide {y : R y <= 0} = {0}; return (direction or None, cone size).

    The certificate: the cone is {0} iff ker R = {0} and the cone is a
    subspace.  A nontrivial kernel is a two-sided direction; the witness
    is then the LP vertex furthest along the first kernel vector, whose
    coordinates carry no SVD rounding (a horizon that is +inf on any loss
    rejects a direction off the kernel by 1e-17).  With a trivial kernel,
    the max-slack ray of :func:`cone_is_subspace` is a one-sided
    direction; when neither exists the cone is ker R = {0}.  The direction
    is scaled to max |y| = 1, so an LP vertex keeps its exact coordinates.
    The size record holds the nonzero ``rows``, ``dim``, ``kernel_dim``
    and ``lp_calls``.
    """
    rows = _normalize_rows(rows) if np.size(rows) else np.zeros((0, dim))
    info = {"rows": int(rows.shape[0]), "dim": int(dim), "kernel_dim": int(dim),
            "lp_calls": 0}
    if rows.shape[0] == 0:
        if dim == 0:
            return None, info
        y = np.zeros(dim)
        y[0] = 1.0
        return y, info
    K = kernel_basis(rows)
    info["kernel_dim"] = int(K.shape[1])
    if K.shape[1]:
        info["lp_calls"] += 1
        v = _lp_vertex(rows, dim, -K[:, 0])
        y = _box_direction(K[:, 0] if v is None else v)
        if y is not None and np.all(rows @ unit_l1(y) <= LP_TOL):
            return y, info
    info["lp_calls"] += 1
    return _max_slack_ray(rows, dim), info


def _lp_vertex(rows: np.ndarray, dim: int, c: np.ndarray) -> np.ndarray | None:
    """Minimizer of c . y over the cone within the unit box, if the minimum
    is below -1e-7 (a nonzero direction); None otherwise."""
    res = linprog(
        c, A_ub=rows, b_ub=np.zeros(rows.shape[0]), bounds=[(-1.0, 1.0)] * dim,
        method="highs",
    )
    if res.status == 0 and -res.fun > 1e-7:
        return np.asarray(res.x, dtype=float)
    return None


def _max_slack_ray(rows: np.ndarray, dim: int) -> np.ndarray | None:
    """A ray y of the cone with R y != 0 (max |y| = 1), or None.

    ``rows`` are unit-normalized.  One LP maximizes the total slack
    -sum(R y) over the cone within the unit box; a positive optimum
    certifies a one-sided direction.
    """
    v = _lp_vertex(rows, dim, rows.sum(axis=0))  # minimize sum(R y)
    return None if v is None else _box_direction(v)


def cone_is_subspace(rows: np.ndarray, dim: int) -> tuple[bool, np.ndarray | None]:
    """Decide whether {y : R y <= 0} equals {y : R y = 0}.

    Returns (True, None) when the cone is a subspace, else (False, ray)
    with a witness direction that is in the cone but whose negative is not.
    """
    rows = _normalize_rows(rows) if np.size(rows) else np.zeros((0, dim))
    if rows.shape[0] == 0:
        return True, None  # the whole space
    ray = unit_l1(_max_slack_ray(rows, dim))
    return ray is None, ray


def kernel_basis(matrix: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``matrix``."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = matrix.shape[1]
    if matrix.shape[0] == 0 or not matrix.any():
        return np.eye(n)
    u, s, vt = np.linalg.svd(matrix)
    tol = rtol * max(matrix.shape) * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return vt[rank:].T.copy()


def orthonormal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of span(basis)."""
    basis = np.asarray(basis, dtype=float)
    if basis.size == 0:
        return np.eye(dim)
    return kernel_basis(basis.T.reshape(-1, dim))
