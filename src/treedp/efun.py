"""Extended-real-valued lower-semicontinuous functions on R^n.

Functions are built from a closed set of atoms and combinators for which
growth at infinity can be computed exactly.  Three things live here:

* pointwise evaluation (scalar and batched), with values in R union {+inf}
  and -inf unrepresentable by construction;
* a symbolic horizon calculus: ``horizon(f)`` returns the positively
  homogeneous function describing f's growth at infinity, with an
  exactness certificate tracked through every rule;
* a numeric liminf ladder ``horizon_numeric`` used as an independent
  cross-check oracle, never as the primary path.

The horizon rules track two structural facts per subexpression: whether
the computed horizon is exact, and whether the function has true limits
along rays ``alpha -> g(alpha*w + w0)/alpha`` from any domain point.  Sums
of nonconvex pieces are exact precisely when all summands have such ray
limits and share a domain point; otherwise the sum rule yields a certified
lower bound, flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from ._polyhedral import cone_vertex, unit_l1, unit_rows

INF = math.inf

#: default relative tolerance for the numeric liminf ladder
LADDER_TOL = 1e-6


class UnsupportedStructure(ValueError):
    """No exact horizon rule applies and the caller demanded exactness."""


class HorizonConditionViolated(RuntimeError):
    """A partial minimization lacks horizon positivity in the minimized block."""

    def __init__(self, message: str, witness: np.ndarray | None = None):
        super().__init__(message)
        self.witness = witness


def _as_vec(x, dim: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"expected a vector of dimension {dim}, got shape {x.shape}")
    if np.isnan(x).any():
        raise ValueError("NaN input")
    return x


class ExtFun:
    """Base class for extended-real function expressions."""

    dim: int

    # -- evaluation ----------------------------------------------------

    def value(self, x) -> float:
        """Evaluate at a single point; returns a finite float or +inf."""
        return float(self.value_many(_as_vec(x, self.dim)[None, :])[0])

    def value_many(self, X: np.ndarray) -> np.ndarray:
        """Evaluate at each row of ``X`` (shape (m, dim))."""
        raise NotImplementedError

    def __call__(self, x) -> float:
        return self.value(x)

    # -- structural predicates used by the horizon engine ---------------

    def domain_point(self) -> np.ndarray | None:
        """Some point with a finite value, or None if none is known."""
        z = np.zeros(self.dim)
        return z if self.value(z) < INF else None

    def is_indicator(self) -> bool:
        """Whether the function only takes the values 0 and +inf."""
        return False


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Affine(ExtFun):
    """x -> a . x + b."""

    a: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a, dtype=float)))
        object.__setattr__(self, "b", float(self.b))
        if not np.isfinite(self.a).all() or not math.isfinite(self.b):
            raise ValueError("affine coefficients must be finite")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def value_many(self, X):
        return X @ self.a + self.b

@dataclass(frozen=True, eq=False)
class PowerCost(ExtFun):
    """z -> coeff * sum_i |z_i|**exponent, superlinear for exponent > 1."""

    coeff: float
    exponent: float
    dim: int = 1

    def __post_init__(self):
        if not self.coeff > 0:
            raise ValueError("coeff must be > 0")
        if not self.exponent > 1:
            raise ValueError("exponent must be > 1")

    def value_many(self, X):
        return self.coeff * np.abs(X) ** self.exponent @ np.ones(self.dim)

@dataclass(frozen=True, eq=False)
class IndicatorBox(ExtFun):
    """0 on the box [lower, upper] (entries may be +-inf), +inf outside."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        up = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != up.shape:
            raise ValueError("bound shapes differ")
        if not (lo <= up).all():
            raise ValueError("need lower <= upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def value_many(self, X):
        ok = np.logical_and(X >= self.lower, X <= self.upper).all(axis=1)
        return np.where(ok, 0.0, INF)

    def domain_point(self):
        # 0 clipped into the box, then moved off a bound it lands on by one
        # unit (at most half the width), so that a point mapped onto it by
        # a least-squares solve stays inside despite rounding
        x = np.clip(np.zeros(self.dim), self.lower, self.upper)
        with np.errstate(invalid="ignore"):  # inf - inf: a box at infinity
            inward = np.fmin(1.0, (self.upper - self.lower) / 2.0)
        return np.where(x == self.lower, x + inward, np.where(x == self.upper, x - inward, x))

    def is_indicator(self):
        return True

    def horizon_cone(self) -> "IndicatorBox":
        """Recession directions of the box, again as a box."""
        lo = np.where(np.isinf(self.lower), -INF, 0.0)
        up = np.where(np.isinf(self.upper), INF, 0.0)
        return IndicatorBox(lo, up)


@dataclass(frozen=True, eq=False)
class IndicatorPolyCone(ExtFun):
    """0 on the polyhedral cone {x : normals @ x <= 0}, +inf outside."""

    normals: np.ndarray

    def __post_init__(self):
        nm = np.atleast_2d(np.asarray(self.normals, dtype=float))
        if not np.isfinite(nm).all():
            raise ValueError("normals must be finite")
        object.__setattr__(self, "normals", nm)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def value_many(self, X):
        ok = (X @ self.normals.T <= 0.0).all(axis=1)
        return np.where(ok, 0.0, INF)

    def is_indicator(self):
        return True


@dataclass(frozen=True, eq=False)
class Sampled1D(ExtFun):
    """Piecewise-linear function on a 1-D grid with explicit tail slopes.

    Inside [grid[0], grid[-1]] the function interpolates ``values``
    linearly; beyond the grid it continues linearly with the stated
    asymptotic slopes (in the usual sense, slope = lim f(x)/x).  A finite
    sample cannot determine growth at infinity, so the slopes are data:
    ``slope_left`` in [-inf, inf) and ``slope_right`` in (-inf, inf].  An
    infinite slope means the function is +inf beyond the grid on that
    side, which keeps it lsc and bounded below by a linear function.
    """

    grid: np.ndarray
    values: np.ndarray
    slope_left: float
    slope_right: float

    dim = 1

    def __post_init__(self):
        xs = np.atleast_1d(np.asarray(self.grid, dtype=float))
        ys = np.atleast_1d(np.asarray(self.values, dtype=float))
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("grid and values must be 1-D arrays of equal length >= 2")
        if not (np.diff(xs) > 0).all():
            raise ValueError("grid must be strictly increasing")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("grid and values must be finite")
        sl, sr = float(self.slope_left), float(self.slope_right)
        if sl == INF:
            raise ValueError("slope_left must be < +inf")
        if sr == -INF:
            raise ValueError("slope_right must be > -inf")
        object.__setattr__(self, "grid", xs)
        object.__setattr__(self, "values", ys)
        object.__setattr__(self, "slope_left", sl)
        object.__setattr__(self, "slope_right", sr)

    def value_many(self, X):
        x = X[:, 0]
        xs, ys = self.grid, self.values
        out = np.interp(x, xs, ys)
        left = x < xs[0]
        right = x > xs[-1]
        if left.any():
            out[left] = ys[0] + self.slope_left * (x[left] - xs[0])
        if right.any():
            out[right] = ys[-1] + self.slope_right * (x[right] - xs[-1])
        return out

    def domain_point(self):
        return np.array([self.grid[0]])

@dataclass(frozen=True, eq=False)
class SShapedDisutility(ExtFun):
    """Disutility of terminal expenditure for an S-shaped investor.

    V(c) = beta * c for c >= 0 and V(c) = -kappa * |c|**gamma / (1 + |c|**gamma)
    for c < 0.  It is continuous, nondecreasing, bounded below by -kappa,
    V(0) = 0, and it is the reflection V(c) = -u(-c) of the S-shaped,
    bounded-above utility u(w) = kappa * w**gamma / (1 + w**gamma) on gains
    and u(w) = beta * w on losses.
    """

    gamma: float
    kappa: float
    beta: float

    dim = 1

    def __post_init__(self):
        for name in ("gamma", "kappa", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.gamma > 1:
            raise ValueError("gamma must be > 1")
        if not self.kappa > 0:
            raise ValueError("kappa must be > 0")
        if not self.beta > 0:
            raise ValueError("beta must be > 0")

    def value_many(self, X):
        c = X[:, 0]
        # beta*c overflows to +-inf, its exact limit; kappa*m/(1+m) with
        # m = |c|**gamma is written so that m = inf gives kappa, and tiny
        # |c| overflows |c|**-gamma to inf, which gives -0.0.  The loss
        # branch runs on every row, so |0|**-gamma divides by zero on rows
        # that take beta*c
        with np.errstate(over="ignore", divide="ignore"):
            return np.where(c < 0, -self.kappa / (1.0 + np.abs(c) ** -self.gamma), self.beta * c)

    def utility(self, w) -> float:
        """The underlying utility u(w) = -V(-w)."""
        return -self.value([-float(w)])

@dataclass(frozen=True, eq=False)
class Homog1D(ExtFun):
    """Positively homogeneous 1-D function: slope_pos * w for w > 0,
    slope_neg * w for w < 0, zero at zero.

    This is the closure of 1-D horizon outputs: ``slope_pos`` in
    (-inf, inf] and ``slope_neg`` in [-inf, inf), where an infinite slope
    makes the corresponding side identically +inf.
    """

    slope_neg: float
    slope_pos: float

    dim = 1

    def __post_init__(self):
        sn, sp = float(self.slope_neg), float(self.slope_pos)
        if sn == INF or sp == -INF:
            raise ValueError("slopes would produce -inf values")
        object.__setattr__(self, "slope_neg", sn)
        object.__setattr__(self, "slope_pos", sp)

    def value_many(self, X):
        w = X[:, 0]
        out = np.zeros_like(w)
        pos, neg = w > 0, w < 0
        out[pos] = self.slope_pos * w[pos]
        out[neg] = self.slope_neg * w[neg]
        return out + 0.0  # normalizes -0.0

    def is_indicator(self):
        return self.slope_pos in (0.0, INF) and self.slope_neg in (0.0, -INF)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Sum(ExtFun):
    """Weighted sum of expressions on a shared input space, weights > 0."""

    terms: tuple[ExtFun, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("empty sum")
        dims = {t.dim for t in terms}
        if len(dims) != 1:
            raise ValueError(f"summands have mixed dimensions {sorted(dims)}")
        if self.weights is None:
            w = tuple(1.0 for _ in terms)
        else:
            w = tuple(float(x) for x in self.weights)
            if len(w) != len(terms):
                raise ValueError("one weight per term required")
            if not all(x > 0 and math.isfinite(x) for x in w):
                raise ValueError("weights must be finite and > 0")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.terms[0].dim

    def value_many(self, X):
        acc = self.weights[0] * self.terms[0].value_many(X)
        for w, t in zip(self.weights[1:], self.terms[1:]):
            acc = acc + w * t.value_many(X)
        return acc

    def domain_point(self):
        cands = [np.zeros(self.dim)]
        for t in self.terms:
            c = t.domain_point()
            if c is not None:
                cands.append(c)
        # one sequential clip through all box summands lands inside their
        # intersection whenever it is nonempty (componentwise argument)
        boxes = [t for t in self.terms if isinstance(t, IndicatorBox)]
        if boxes:
            for c in list(cands):
                x = c.copy()
                for b in boxes:
                    x = np.clip(x, b.lower, b.upper)
                cands.append(x)
        for c in cands:
            if self.value(c) < INF:
                return c
        return None

    def is_indicator(self):
        return all(t.is_indicator() for t in self.terms)


@dataclass(frozen=True, eq=False)
class AffinePrecompose(ExtFun):
    """x -> inner(matrix @ x + offset)."""

    inner: ExtFun
    matrix: np.ndarray
    offset: np.ndarray | None = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if A.shape[0] != self.inner.dim:
            raise ValueError(
                f"matrix maps into dimension {A.shape[0]}, inner expects {self.inner.dim}"
            )
        b = (
            np.zeros(self.inner.dim)
            if self.offset is None
            else np.atleast_1d(np.asarray(self.offset, dtype=float))
        )
        if b.shape != (self.inner.dim,):
            raise ValueError("offset shape mismatch")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("matrix and offset must be finite")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "offset", b)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def value_many(self, X):
        A = self.matrix
        if A.shape[1] > 1:
            return self.inner.value_many(X @ A.T + self.offset)
        # one input coordinate: X @ A.T sums each product onto +0.0, so a
        # broadcast product plus (offset + 0.0) gives its bits, without
        # matmul's elementwise loop
        Y = X * A[:, 0]
        Y += self.offset + 0.0
        return self.inner.value_many(Y)

    def domain_point(self):
        cands = [np.zeros(self.dim)]
        dp = self.inner.domain_point()
        if dp is not None:
            sol, *_ = np.linalg.lstsq(self.matrix, dp - self.offset, rcond=None)
            cands.append(sol)
        for c in cands:
            if self.value(c) < INF:
                return c
        return None

    def is_indicator(self):
        return self.inner.is_indicator()


@dataclass(frozen=True, eq=False)
class PartialMin(ExtFun):
    """x1 -> inf over x2 of inner(x1, x2), keeping the first ``keep`` coords.

    Evaluation delegates to the solver's sectional minimizer with its
    tolerance contract; the horizon rule requires (and checks) horizon
    positivity of the inner function in the minimized block.
    """

    inner: ExtFun
    keep: int

    def __post_init__(self):
        if not 0 <= self.keep < self.inner.dim:
            raise ValueError("keep must be in [0, inner.dim)")

    @property
    def dim(self) -> int:
        return self.keep

    def value_many(self, X):
        from . import dp  # deferred: dp depends on efun

        # one search for all rows: minimize_batch searches each state alone
        vals, _, _ = dp.minimize_batch(
            lambda I, Y: self.inner.value_many(np.hstack([X[I], Y])),
            self.inner.dim - self.keep, len(X),
        )
        return vals

    def domain_point(self):
        dp_ = self.inner.domain_point()
        if dp_ is None:
            return None
        x1 = dp_[: self.keep]
        return x1 if self.value(x1) < INF else None


# ---------------------------------------------------------------------------
# horizon calculus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _HInfo:
    fn: ExtFun
    exact: bool
    ray: bool
    notes: tuple[str, ...] = ()


def _block_embed(total: int, keep: int) -> np.ndarray:
    E = np.zeros((total, total - keep))
    E[keep:, :] = np.eye(total - keep)
    return E


def _horizon_impl(f: ExtFun) -> _HInfo:
    if isinstance(f, Affine):
        return _HInfo(Affine(f.a, 0.0), True, True)
    if isinstance(f, PowerCost):
        z = np.zeros(f.dim)
        return _HInfo(IndicatorBox(z, z), True, True)
    if isinstance(f, IndicatorBox):
        return _HInfo(f.horizon_cone(), True, True)
    if isinstance(f, IndicatorPolyCone):
        return _HInfo(f, True, True)
    if isinstance(f, Sampled1D):
        return _HInfo(Homog1D(f.slope_left, f.slope_right), True, True)
    if isinstance(f, SShapedDisutility):
        return _HInfo(Homog1D(0.0, f.beta), True, True)
    if isinstance(f, Homog1D):
        return _HInfo(f, True, True)
    if isinstance(f, Sum):
        infos = [_horizon_impl(t) for t in f.terms]
        fn = Sum(tuple(i.fn for i in infos), f.weights)
        notes: list[str] = [n for i in infos for n in i.notes]
        kids_ok = all(i.exact and i.ray for i in infos)
        shared = f.domain_point() is not None
        if not kids_ok:
            notes.append("sum: a summand lacks an exact ray-limit horizon; lower bound only")
        if not shared:
            notes.append("sum: no shared domain point found; lower bound only")
        exact = kids_ok and shared
        return _HInfo(fn, exact, exact, tuple(notes))
    if isinstance(f, AffinePrecompose):
        info = _horizon_impl(f.inner)
        fn = AffinePrecompose(info.fn, f.matrix, None)
        surjective = np.linalg.matrix_rank(f.matrix) == f.matrix.shape[0]
        reachable = f.domain_point() is not None
        notes = list(info.notes)
        exact = info.exact and (surjective or (info.ray and reachable))
        if not exact:
            notes.append("precompose: map not surjective and inner lacks ray limits; lower bound only")
        return _HInfo(fn, exact, info.ray and reachable, tuple(notes))
    if isinstance(f, PartialMin):
        info = _horizon_impl(f.inner)
        if not info.exact:
            raise UnsupportedStructure(
                "partial minimization needs an exact inner horizon: " + "; ".join(info.notes)
            )
        embedded = AffinePrecompose(info.fn, _block_embed(f.inner.dim, f.keep), None)
        verdict, witness = positivity_off_origin(embedded)
        if verdict == "fails":
            raise HorizonConditionViolated(
                "horizon is not positive on the minimized block; no minimizer is guaranteed",
                witness=witness,
            )
        if verdict == "undecided":
            raise UnsupportedStructure(
                "cannot certify horizon positivity on the minimized block"
            )
        return _HInfo(PartialMin(info.fn, f.keep), True, False)
    raise UnsupportedStructure(f"no horizon rule for {type(f).__name__}")


def horizon(f: ExtFun) -> ExtFun:
    """The horizon (growth-at-infinity) function of ``f``, symbolically.

    Raises :class:`UnsupportedStructure` unless every rule applied is
    exact; :func:`horizon_with_flags` returns the certified lower bound
    that an inexact rule gives.
    """
    info = _horizon_impl(f)
    if not info.exact:
        raise UnsupportedStructure(
            "horizon is not exact for this expression: " + "; ".join(info.notes)
        )
    return info.fn


def horizon_with_flags(f: ExtFun) -> tuple[ExtFun, bool, tuple[str, ...]]:
    """(function, exact, notes): a certified lower bound on the horizon of
    ``f``, equal to it when ``exact``; the notes name the inexact rules."""
    info = _horizon_impl(f)
    return info.fn, info.exact, info.notes


@dataclass(frozen=True)
class NumericHorizon:
    """Result of the liminf ladder: the estimate and its convergence state."""

    value: float
    converged: bool
    diverged_to_inf: bool
    rungs: tuple[float, ...]


def horizon_numeric(
    f: ExtFun,
    w,
    w_bar=None,
    ladder: Sequence[float] | None = None,
    tol: float = LADDER_TOL,
) -> NumericHorizon:
    """Estimate the horizon value at direction ``w`` by the liminf ladder.

    Evaluates g(alpha*w + w_bar)/alpha on a geometric ladder (default
    alpha = 2**k, k = 0..30) and reports the tail minimum, which
    approximates the liminf.  A monotonically growing tail is reported as
    divergence to +inf.  This is a cross-check oracle for :func:`horizon`,
    never the primary path.
    """
    w = _as_vec(w, f.dim)
    if w_bar is None:
        w_bar = f.domain_point()
        if w_bar is None:
            raise ValueError("no domain point known; pass w_bar explicitly")
    w_bar = _as_vec(w_bar, f.dim)
    if not f.value(w_bar) < INF:
        raise ValueError("w_bar must have a finite value")
    alphas = np.asarray(ladder if ladder is not None else 2.0 ** np.arange(31), dtype=float)
    if alphas.size < 3 or not (np.diff(alphas) > 0).all() or not (alphas > 0).all():
        raise ValueError("ladder must be at least 3 increasing positive scalings")
    pts = alphas[:, None] * w[None, :] + w_bar[None, :]
    rungs = f.value_many(pts) / alphas
    v1, v2, v3 = rungs[-1], rungs[-2], rungs[-3]

    def rel(a: float, b: float) -> float:
        if math.isinf(a) and math.isinf(b):
            return 0.0
        if math.isinf(a) or math.isinf(b):
            return INF
        return abs(a - b) / max(1.0, abs(a), abs(b))

    if math.isinf(v1) and math.isinf(v2):
        return NumericHorizon(INF, True, True, tuple(rungs))
    reldiff = rel(v1, v2)
    if reldiff < tol:
        return NumericHorizon(min(v1, v2), True, False, tuple(rungs))
    growing = (
        math.isfinite(v3)
        and v1 > v2 >= v3
        and (v1 - v2) >= (v2 - v3) * (1.0 - 1e-9)
    )
    if math.isinf(v1) or growing:
        return NumericHorizon(INF, False, True, tuple(rungs))
    return NumericHorizon(min(v1, v2), False, False, tuple(rungs))


# ---------------------------------------------------------------------------
# sign analysis of (horizon) functions
# ---------------------------------------------------------------------------


def _analytic_nonneg(f: ExtFun) -> bool | None:
    """True if f >= 0 everywhere is certified analytically, False if f is
    certainly negative somewhere, None if inconclusive."""
    if isinstance(f, (IndicatorBox, IndicatorPolyCone, PowerCost)):
        return True
    if isinstance(f, Affine):
        if not f.a.any():
            return True if f.b >= 0 else False
        return False
    if isinstance(f, Homog1D):
        return True if (f.slope_neg <= 0.0 <= f.slope_pos) else False
    if isinstance(f, SShapedDisutility):
        return False
    if isinstance(f, Sampled1D):
        if (f.values >= 0).all() and f.slope_right >= 0 and f.slope_left <= 0:
            return True
        if (f.values < 0).any():
            return False
        return None
    if isinstance(f, Sum):
        kids = [_analytic_nonneg(t) for t in f.terms]
        if all(k is True for k in kids):
            return True
        return None
    if isinstance(f, AffinePrecompose):
        return True if _analytic_nonneg(f.inner) is True else None
    if isinstance(f, PartialMin):
        return True if _analytic_nonneg(f.inner) is True else None
    return None


def sublevel_zero_cone(f: ExtFun) -> np.ndarray | None:
    """Halfspace rows R with {x : f(x) <= 0} = {x : R x <= 0}, if exact.

    Only defined for positively homogeneous expressions whose zero
    sublevel set is a polyhedral cone expressible from the structure;
    returns None when no exact extraction applies.
    """
    n = f.dim
    if isinstance(f, IndicatorBox):
        rows = []
        for i in range(n):
            lo, up = f.lower[i], f.upper[i]
            if lo == 0.0:
                e = np.zeros(n)
                e[i] = -1.0
                rows.append(e)
            elif not math.isinf(lo):
                return None
            if up == 0.0:
                e = np.zeros(n)
                e[i] = 1.0
                rows.append(e)
            elif not math.isinf(up):
                return None
        return np.array(rows).reshape(len(rows), n)
    if isinstance(f, IndicatorPolyCone):
        return f.normals.copy()
    if isinstance(f, Affine):
        if f.b != 0.0:
            return None
        return f.a[None, :].copy()
    if isinstance(f, PowerCost):
        rows = np.vstack([np.eye(n), -np.eye(n)])
        return rows
    if isinstance(f, Homog1D):
        rows = []
        if not f.slope_pos <= 0.0:
            rows.append([1.0])
        if not f.slope_neg >= 0.0:
            rows.append([-1.0])
        return np.array(rows).reshape(len(rows), 1)
    if isinstance(f, SShapedDisutility):
        return np.array([[1.0]])
    if isinstance(f, Sum):
        # the sum is <= 0 exactly where every term is when all terms are
        # nonnegative, or when one term is signed and the others are
        # indicators; a finite nonnegative term next to a signed one can
        # offset it, so no intersection of the terms' cones is exact
        finite = [t for t in f.terms if not t.is_indicator()]
        if len(finite) > 1 and any(_analytic_nonneg(t) is not True for t in finite):
            return None
        rows = []
        for t in f.terms:
            sub = sublevel_zero_cone(t)
            if sub is None:
                return None
            rows.append(sub)
        return np.vstack(rows)
    if isinstance(f, AffinePrecompose):
        if f.offset.any():
            return None
        sub = sublevel_zero_cone(f.inner)
        if sub is None:
            return None
        return sub @ f.matrix
    return None


def _sphere_directions(dim: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = np.arange(0.0, 2 * math.pi, 1e-2)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(0)
    dirs = unit_rows(rng.standard_normal((10000, dim)))
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    return np.vstack([axes, dirs])


def positivity_off_origin(f: ExtFun) -> tuple[str, np.ndarray | None]:
    """Decide whether f(w) > 0 for every w != 0.

    Returns ("positive", None), ("fails", witness with f(witness) <= 0), or
    ("undecided", None).  Intended for positively homogeneous functions,
    for which checking unit directions suffices.  Whenever
    :func:`sublevel_zero_cone` gives the exact rows of {f <= 0}, one cone
    LP decides; otherwise only a sampled unit direction can find a witness.
    """
    rows = sublevel_zero_cone(f)
    if rows is not None:
        d = unit_l1(cone_vertex(rows, f.dim)[0])
        if d is None:
            return "positive", None
        if f.value(d) <= 1e-12:
            return "fails", d
        return "undecided", None
    dirs = _sphere_directions(f.dim)
    vals = f.value_many(dirs)
    bad = np.where(vals <= 1e-12)[0]
    if bad.size:
        return "fails", dirs[bad[0]]
    return "undecided", None


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


#: the JSON ``kind`` of each expression class.  Both directions walk the
#: class's dataclass fields: parameters are written as numpy's plain lists
#: and numbers, the expression fields ``terms``/``inner`` as ``"children"``.
KINDS: dict[str, type[ExtFun]] = {
    "affine": Affine,
    "power_cost": PowerCost,
    "indicator_box": IndicatorBox,
    "indicator_polycone": IndicatorPolyCone,
    "sampled1d": Sampled1D,
    "sshaped_disutility": SShapedDisutility,
    "homog1d": Homog1D,
    "sum": Sum,
    "affine_precompose": AffinePrecompose,
    "partial_min": PartialMin,
}


def to_spec(f: ExtFun) -> dict:
    """Serialize an expression to the {kind, params, children} JSON form."""
    kind = next((k for k, cls in KINDS.items() if type(f) is cls), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(f).__name__}")
    spec: dict = {"kind": kind}
    children: list[dict] = []
    for fld in fields(f):
        v = getattr(f, fld.name)
        if fld.name == "terms":
            children = [to_spec(t) for t in v]
        elif fld.name == "inner":
            children = [to_spec(v)]
        else:
            spec[fld.name] = np.asarray(v).tolist()
    if children:
        spec["children"] = children
    return spec


def from_spec(d: Mapping) -> ExtFun:
    """Inverse of :func:`to_spec`; numbers may be strings that ``float`` reads
    ("inf", "-inf"), and an absent optional field takes its default.  An
    unknown key, an absent required field and an ``int`` field that is not
    an integer (or a whole float) raise ValueError naming the field."""
    kind = d.get("kind") if isinstance(d, Mapping) else None
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown expression kind {kind!r}")
    keys = {"children" if f.name in ("terms", "inner") else f.name: f for f in fields(cls)}
    unknown = [k for k in d if k != "kind" and k not in keys]
    if unknown:
        raise ValueError(f"{kind}: unknown key {unknown[0]!r}")
    args = {}
    for key, fld in keys.items():
        v = d.get(key, MISSING)
        if v is MISSING:
            if fld.default is MISSING:
                raise ValueError(f"{kind}: missing field {key!r}")
        elif key == "children":
            one = fld.name == "inner"
            if not isinstance(v, list) or (one and len(v) != 1):
                want = "one expression" if one else "expressions"
                raise ValueError(f"{kind}: 'children' must be a list of {want}")
            args[fld.name] = from_spec(v[0]) if one else tuple(from_spec(c) for c in v)
        elif fld.type == "int":
            whole = isinstance(v, int) or isinstance(v, float) and v.is_integer()
            if isinstance(v, bool) or not whole:
                raise ValueError(f"{kind}: field {key!r} must be an integer, got {v!r}")
            args[fld.name] = int(v)
        else:
            args[fld.name] = v
    return cls(**args)
