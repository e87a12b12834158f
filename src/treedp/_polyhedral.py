"""Small exact-ish polyhedral cone utilities built on linear algebra and LPs.

A polyhedral cone is given by halfspace rows R, meaning C = {y : R y <= 0}.
Its lineality space C ∩ -C is ker R, so C = {0} exactly when ker R = {0}
and C is a subspace (a theorem of the alternative in the Gordan/Stiemke
family).  Deciding C = {0} therefore takes one SVD (the kernel) and at
most one bounded LP for the decision: the subspace test when the kernel
is trivial, else a vertex along a kernel vector as the witness.  The
subspace test needs no LP when the cone's nonzero rows leave a
one-dimensional left kernel spanned by a Stiemke certificate, a
lambda > 0 with lambda R = 0, read from the SVD's left singular vectors
(:func:`_stiemke`): at a complete node of a frictionless market, such as
every binomial one, that lambda is the node's risk-neutral measure.

A positive multiple of a row leaves the cone as it is, so every cone is
decided on :func:`unit_rows`, the one row normalization: each row is first
scaled by the power of two of its largest entry, which is exact, and then
by its norm.  Tiny, normal and huge rows take the same path, so no verdict
depends on the size of a row, and rows with every entry in [1e-153, 1e153]
keep the bits of a plain division by their norm.

One engine serves every cone: many small cones at once (one per tree
node) stack as (B, m, d) blocks, and a single cone is a batch of one.
:func:`_kernels` reads each block's kernel and certificate from one
batched SVD of the distinct blocks, and :func:`_box_lp`, the one LP,
optimizes over their block-diagonal system within the unit box.  HiGHS is
deterministic for fixed input, so results are reproducible bit-for-bit;
an LP that stops without an optimum raises RuntimeError, never reads as
"no ray".  :func:`linprog` is the package's one LP entry: scipy is
imported at its first call, so that a solve that never needs an LP never
loads scipy.
"""

from __future__ import annotations

import numpy as np

LP_TOL = 1e-9
#: an LP optimum beyond this certifies a nonzero direction (a one-sided ray's slack)
SLACK_TOL = 1e-7


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at the first call."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of a (..., m, d) stack scaled to unit norm; zero rows stay 0.

    The row is first scaled by 2^-e, e the exponent of its largest |entry|:
    exact, and no norm overflows or underflows, so rows with every entry in
    [1e-153, 1e153] keep the bits of ``r / np.linalg.norm(r)``.  Blocks of
    equal shape stay stacked; a zero row constrains nothing."""
    rows = np.asarray(rows, dtype=float)
    top = np.abs(rows).max(axis=-1, keepdims=True, initial=0.0)
    rows = np.ldexp(rows, -np.frexp(top)[1])
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows / np.where(norms > 0, norms, 1.0)


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`unit_rows` of an (m, d) array, zero rows dropped."""
    rows = unit_rows(np.atleast_2d(rows))
    return rows[rows.any(axis=1)]


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
        y = _box_direction(_box_lp([rows[None]], [-K[None, :, 0]])[0][0])
        if y is not None and np.all(rows @ unit_l1(y) <= LP_TOL):
            return y, info
    info["lp_calls"] += 1
    return _max_slack_ray(rows), info


def _max_slack_ray(rows: np.ndarray) -> np.ndarray | None:
    """A ray y of the cone with R y != 0 (max |y| = 1), or None: the
    :func:`block_slacks` of the unit-normalized ``rows`` alone."""
    (slack, y), = block_slacks([rows[None]])
    return _box_direction(y[0]) if slack[0] > SLACK_TOL else None


def cone_is_subspace(rows: np.ndarray, dim: int) -> tuple[bool, np.ndarray | None]:
    """Decide whether {y : R y <= 0} equals {y : R y = 0}.

    Returns (True, None) when the cone is a subspace, else (False, ray)
    with a witness direction that is in the cone but whose negative is not.
    """
    rows = _normalize_rows(rows) if np.size(rows) else np.zeros((0, dim))
    if rows.shape[0] == 0:
        return True, None  # the whole space
    ray = unit_l1(_max_slack_ray(rows))
    return ray is None, ray


def kernel_basis(matrix: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``matrix``: its
    :func:`kernel_bases` as a stack of one."""
    return kernel_bases(np.atleast_2d(np.asarray(matrix, dtype=float))[None], rtol)[0]


def kernel_bases(blocks: np.ndarray, rtol: float = 1e-10) -> list[np.ndarray]:
    """Orthonormal kernel basis (columns) of each (m, d) block of a
    (B, m, d) stack.

    One batched SVD runs over the distinct blocks only, so blocks with
    equal bytes get bit-identical bases, and an all-zero block gets the
    exact identity.  Each block gets its own array.
    """
    return _kernels(blocks, rtol, certify=False)[0]


def cone_kernels(
    blocks: np.ndarray, rtol: float = 1e-10
) -> tuple[list[np.ndarray], np.ndarray]:
    """:func:`kernel_bases` of a (B, m, d) stack of cone rows R, and
    whether each block's cone {y : R y <= 0} is certified a subspace.

    The certificate (:func:`_stiemke`) reads the left singular vectors of
    the same batched SVD; False means undecided, not "one-sided".  A block
    with no nonzero row is the whole space, so it is certified.
    """
    return _kernels(blocks, rtol, certify=True)


def _kernels(
    blocks: np.ndarray, rtol: float, certify: bool
) -> tuple[list[np.ndarray], np.ndarray]:
    B, m, d = blocks.shape
    flat = np.ascontiguousarray(blocks, dtype=float).reshape(B, m * d)
    if not flat.size:
        return [np.eye(d) for _ in range(B)], np.ones(B, dtype=bool)
    keys = flat.view(np.dtype((np.void, 8 * m * d)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = flat[first].reshape(-1, m, d)
    bases = [np.eye(d) for _ in first]
    subspace = ~distinct.any(axis=(1, 2))  # no nonzero row: the whole space
    live = np.flatnonzero(~subspace)
    if live.size:
        # only the certificate reads U, and with m < d a thin V^T misses kernel rows
        u, s, vt = np.linalg.svd(distinct[live], full_matrices=certify or m < d)
        tol = rtol * max(m, d) * s[:, :1]
        for i, rank, ui, v in zip(live.tolist(), (s > tol).sum(axis=1).tolist(), u, vt):
            bases[i] = v[rank:].T
            subspace[i] = certify and _stiemke(distinct[i], ui, rank)
    inverse = inverse.ravel()
    return [bases[i].copy() for i in inverse.tolist()], subspace[inverse]


def _stiemke(rows: np.ndarray, u: np.ndarray, rank: int) -> bool:
    """Whether {y : R y <= 0} is certified a subspace, from the left
    singular vectors ``u`` of the (m, d) block R of rank ``rank``.

    The certificate is Stiemke's: a lambda > 0 on the nonzero rows with
    lambda R = 0 (at a node of a frictionless market, its risk-neutral
    measure).  Then any y of the cone within the unit box has slacks
    s = -R y >= 0 with lambda . s = -(lambda R) y <= |lambda R|_1, so its
    total slack is at most |lambda R|_1 / min lambda, which must stay a
    hundred times below SLACK_TOL.  lambda is read only where the left
    kernel of the nonzero rows is one-dimensional (a complete node, such
    as every binomial one), and its every entry must be >= 1e-6 max
    lambda.  Every other block is undecided.
    """
    nz = rows.any(axis=1)
    if nz.sum() - rank != 1:
        return False
    kernel = u[nz, rank:]  # on the nonzero rows, every column is a multiple of lambda
    lam = kernel[:, np.argmax(np.einsum("ij,ij->j", kernel, kernel))]
    lam = lam * np.sign(lam[np.argmax(np.abs(lam))])
    if not lam.min() >= 1e-6 * lam.max():
        return False
    residual = np.abs(lam @ rows[nz]).sum()
    return bool(residual <= 1e-2 * SLACK_TOL * lam.min())


def block_slacks(groups: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Largest one-sided slack of each block's cone {y : R y <= 0}.

    ``groups`` are (B, m, d) stacks of unit rows.  :func:`_box_lp`
    maximizes each block's total slack -sum(R y) within the unit box, and
    a slack above SLACK_TOL certifies a one-sided direction there.
    Returns per group (slack per block, the block's part y).
    """
    ys = _box_lp(groups, [g.sum(axis=1) for g in groups])  # minimize sum(R y)
    return [(-np.einsum("bmd,bd->b", g, y), y) for g, y in zip(groups, ys)]


def _box_lp(groups: list[np.ndarray], costs: list[np.ndarray]) -> list[np.ndarray]:
    """A minimizer of sum_b c_b . y_b over {y : R_b y_b <= 0, |y| <= 1}.

    ``groups`` are (B, m, d) stacks of blocks R_b and ``costs`` the
    matching (B, d) objectives c_b.  One sparse LP holds the whole
    block-diagonal system; objective and constraints split by block, so
    each block's part of the optimum is that block's own minimizer.
    Returns per group the (B, d) parts.  An LP that stops without an
    optimum raises RuntimeError.
    """
    from scipy.sparse import csc_array

    # the nonzero entries, column by column (a block's d columns hold its m rows)
    data, rows, cols = [], [], []
    r0 = c0 = 0
    for g in groups:
        B, m, d = g.shape
        b, j, i = np.nonzero(g.transpose(0, 2, 1))
        data.append(g[b, i, j])
        rows.append(r0 + m * b + i)
        cols.append(c0 + d * b + j)
        r0, c0 = r0 + B * m, c0 + B * d
    indptr = np.concatenate([[0], np.cumsum(np.bincount(np.concatenate(cols), minlength=c0))])
    A = csc_array((np.concatenate(data), np.concatenate(rows), indptr), shape=(r0, c0))
    c = np.concatenate([np.ravel(cost) for cost in costs])
    res = linprog(c, A_ub=A, b_ub=np.zeros(r0), bounds=(-1.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"cone LP failed: {res.message}")
    x = np.asarray(res.x, dtype=float)
    ends = np.cumsum([g.shape[0] * g.shape[2] for g in groups])
    return [y.reshape(g.shape[0], g.shape[2]) for g, y in zip(groups, np.split(x, ends[:-1]))]
