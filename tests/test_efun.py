import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treedp as td
from treedp import efun
from treedp.efun import (
    Affine,
    AffinePrecompose,
    Homog1D,
    IndicatorBox,
    IndicatorPolyCone,
    PartialMin,
    PowerCost,
    Sampled1D,
    SShapedDisutility,
    Sum,
)

INF = math.inf


def two_well() -> Sampled1D:
    """min((x+1)^2, (x-1)^2 + 0.5) sampled densely; +inf beyond the grid."""
    xs = np.arange(-5000, 5001) / 1000.0
    ys = np.minimum((xs + 1.0) ** 2, (xs - 1.0) ** 2 + 0.5)
    return Sampled1D(xs, ys, slope_left=-INF, slope_right=INF)


def exp_like() -> Sampled1D:
    xs = np.arange(-6000, 6001) / 1000.0
    return Sampled1D(xs, np.exp(xs), slope_left=0.0, slope_right=INF)


class TestEval:
    def test_affine(self):
        assert Affine([2.0], 5.0).value([3.0]) == 11.0

    def test_indicator_box(self):
        box = IndicatorBox([0.0], [1.0])
        assert box.value([2.0]) == INF
        assert box.value([0.5]) == 0.0

    def test_power_cost(self):
        assert PowerCost(1.0, 2.0, 2).value([1.0, 2.0]) == 5.0

    def test_polycone(self):
        cone = IndicatorPolyCone([[1.0, -1.0]])  # x <= y
        assert cone.value([0.0, 1.0]) == 0.0
        assert cone.value([1.0, 0.0]) == INF

    def test_sshaped(self):
        v = SShapedDisutility(2.0, 1.0, 1.0)
        assert v.value([0.0]) == 0.0
        assert v.value([2.0]) == 2.0
        assert v.value([-1.0]) == pytest.approx(-0.5)
        assert v.utility(1.0) == pytest.approx(0.5)
        assert v.utility(-2.0) == pytest.approx(-2.0)

    def test_sshaped_deep_loss_does_not_overflow(self):
        # |c|**gamma overflows to inf at c = -2**30; the value is still -kappa
        v = SShapedDisutility(40.0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # c = 0 must not divide by zero either
            vals = v.value_many(np.array([[-2.0**30], [0.0]]))
        assert vals[0] == -1.0 and math.isfinite(vals[0])
        assert vals[1] == 0.0

    def test_sampled_interpolation_and_tails(self):
        f = Sampled1D([0.0, 1.0], [0.0, 2.0], slope_left=-1.0, slope_right=3.0)
        assert f.value([0.5]) == pytest.approx(1.0)
        assert f.value([-2.0]) == pytest.approx(2.0)   # 0 + (-1)*(-2)
        assert f.value([2.0]) == pytest.approx(5.0)    # 2 + 3*1
        g = Sampled1D([0.0, 1.0], [0.0, 2.0], slope_left=-INF, slope_right=INF)
        assert g.value([-0.1]) == INF and g.value([1.1]) == INF

    def test_sum_and_precompose(self):
        f = Sum((Affine([1.0], 0.0), PowerCost(1.0, 2.0, 1)), weights=(2.0, 1.0))
        assert f.value([3.0]) == pytest.approx(15.0)
        g = AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0]], [-3.0])
        assert g.value([3.0]) == 0.0
        assert g.value([5.0]) == 4.0

    def test_partial_min(self):
        inner = Sum((
            AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0, 0.0]]),
            AffinePrecompose(PowerCost(1.0, 2.0, 1), [[0.0, 1.0]], [-2.0]),
        ))
        pm = PartialMin(inner, keep=1)
        assert pm.value([1.0]) == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Affine([1.0, 2.0]).value([1.0])

    def test_never_minus_inf(self):
        for f in (two_well(), SShapedDisutility(2.0, 1.0, 1.0), Homog1D(-2.0, 3.0)):
            xs = np.linspace(-50.0, 50.0, 101)[:, None]
            assert (f.value_many(xs) > -INF).all()


class TestHorizonRules:
    def test_power_cost(self):
        H = td.horizon(PowerCost(1.0, 2.0, 1))
        assert H.value([0.0]) == 0.0
        assert H.value([1.0]) == INF

    def test_sshaped_derived(self):
        # numeric liminf of V(a*c)/a confirms the limits before asserting
        v = SShapedDisutility(2.0, 1.0, 1.0)
        lad_pos = td.horizon_numeric(v, [1.0], [0.0])
        lad_neg = td.horizon_numeric(v, [-1.0], [0.0])
        assert lad_pos.value == pytest.approx(1.0, abs=1e-6)
        assert lad_neg.value == pytest.approx(0.0, abs=1e-6)
        H = td.horizon(v)
        assert H.value([1.0]) == pytest.approx(1.0)
        assert H.value([-1.0]) == 0.0

    def test_sum_affine_power_derived(self):
        f = Sum((Affine([1.0], 0.0), PowerCost(1.0, 2.0, 1)))
        H = td.horizon(f)
        assert H.value([-1.0]) == INF
        lad = td.horizon_numeric(f, [-1.0], [0.0])
        assert lad.diverged_to_inf

    def test_affine(self):
        H = td.horizon(Affine([2.0, -1.0], 5.0))
        assert H.value([1.0, 0.0]) == 2.0
        assert H.value([0.0, 1.0]) == -1.0
        assert H.value([0.0, 0.0]) == 0.0

    def test_box(self):
        box = IndicatorBox([0.0, -INF, -1.0], [INF, 0.0, 1.0])
        H = td.horizon(box)
        assert H.value([1.0, -1.0, 0.0]) == 0.0
        assert H.value([-1.0, 0.0, 0.0]) == INF
        assert H.value([0.0, 0.0, 0.5]) == INF

    def test_polycone_is_its_own_horizon(self):
        cone = IndicatorPolyCone([[1.0, 1.0]])
        assert td.horizon(cone) is cone

    def test_sampled_slopes(self):
        f = Sampled1D([0.0, 1.0], [0.0, 1.71], slope_left=-0.5, slope_right=2.0)
        H = td.horizon(f)
        assert H.value([1.0]) == 2.0
        assert H.value([-1.0]) == 0.5

    def test_precompose(self):
        f = AffinePrecompose(SShapedDisutility(2.0, 1.0, 2.0), [[1.0, -1.0]])
        H = td.horizon(f)
        assert H.value([1.0, 0.0]) == pytest.approx(2.0)
        assert H.value([0.0, 1.0]) == 0.0

    def test_partial_min_requires_positivity(self):
        good = Sum((
            AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0, 0.0]]),
            AffinePrecompose(PowerCost(1.0, 2.0, 1), [[0.0, 1.0]]),
        ))
        H = td.horizon(PartialMin(good, keep=1))
        assert H.value([1.0]) == INF
        bad = AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0, 0.0]])  # flat in x2
        with pytest.raises(td.HorizonConditionViolated):
            td.horizon(PartialMin(bad, keep=1))

    def test_box_intersection_found_off_axis(self):
        # neither box's nearest-to-zero corner lies in the intersection,
        # but a shared domain point exists and the sum rule stays exact
        f = Sum((
            IndicatorBox([0.0, 5.0], [10.0, 6.0]),
            IndicatorBox([5.0, 0.0], [6.0, 10.0]),
        ))
        assert f.domain_point() is not None
        H, exact, _ = td.horizon_with_flags(f)
        assert exact
        assert H.value([0.0, 0.0]) == 0.0
        assert H.value([1.0, 0.0]) == INF

    def test_inexact_sum_flagged(self):
        # disjoint indicator domains: no shared domain point
        f = Sum((IndicatorBox([0.0], [1.0]), IndicatorBox([2.0], [3.0])))
        with pytest.raises(td.UnsupportedStructure):
            td.horizon(f)
        H, exact, notes = td.horizon_with_flags(f)
        assert not exact and notes


class TestHorizonNumeric:
    def test_exp_like_left_direction(self):
        f = exp_like()
        lad = td.horizon_numeric(f, [-1.0], [0.0])
        assert lad.value == pytest.approx(0.0, abs=1e-6)
        assert lad.converged

    def test_affine(self):
        lad = td.horizon_numeric(Affine([2.0], 5.0), [1.0], [0.0])
        assert lad.value == pytest.approx(2.0, rel=1e-6)
        assert lad.converged and not lad.diverged_to_inf

    def test_power_diverges(self):
        lad = td.horizon_numeric(PowerCost(1.0, 2.0, 1), [1.0], [0.0])
        assert lad.value == INF
        assert lad.diverged_to_inf

    def test_requires_finite_base(self):
        with pytest.raises(ValueError):
            td.horizon_numeric(IndicatorBox([0.0], [1.0]), [1.0], [5.0])


def oracle_fixtures():
    """(name, function, base point) for every atom and combinator."""
    sshaped = SShapedDisutility(2.0, 1.5, 0.7)
    return [
        ("affine", Affine([1.5, -2.0, 0.5], 3.0), np.zeros(3)),
        ("power", PowerCost(0.7, 1.8, 2), np.zeros(2)),
        ("box", IndicatorBox([0.0, -INF], [INF, 2.0]), np.array([1.0, 0.0])),
        ("polycone", IndicatorPolyCone([[1.0, 1.0], [-1.0, 2.0]]), np.zeros(2)),
        ("sampled_two_well", two_well(), np.zeros(1)),
        ("sampled_exp", exp_like(), np.zeros(1)),
        ("sshaped", sshaped, np.zeros(1)),
        ("homog", Homog1D(-0.5, 2.0), np.zeros(1)),
        ("sum", Sum((PowerCost(0.5, 2.0, 2), Affine([1.0, -1.0], 0.0)), (1.0, 2.0)), np.zeros(2)),
        ("sum_nonconvex", Sum((
            AffinePrecompose(sshaped, [[1.0, 0.0]]),
            AffinePrecompose(SShapedDisutility(3.0, 1.0, 1.2), [[0.0, 1.0]]),
        )), np.zeros(2)),
        ("precompose", AffinePrecompose(sshaped, [[0.5, -1.0]], [0.25]), np.zeros(2)),
        ("partial_min", PartialMin(Sum((
            AffinePrecompose(PowerCost(1.0, 2.0, 1), [[1.0, 0.5]]),
            AffinePrecompose(PowerCost(2.0, 2.0, 1), [[0.0, 1.0]], [-1.0]),
        )), keep=1), np.zeros(1)),
    ]


LADDERS = {"partial_min": 2.0 ** np.arange(10)}


def agree(a: float, b: float, tol: float = 1e-6) -> bool:
    if math.isinf(a) and math.isinf(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestHorizonOracle:
    @pytest.mark.parametrize("name,f,base", oracle_fixtures(), ids=lambda p: p if isinstance(p, str) else "")
    def test_symbolic_matches_ladder(self, name, f, base):
        H = td.horizon(f)
        rng = np.random.default_rng(11)
        ladder = LADDERS.get(name)
        for _ in range(100):
            w = rng.standard_normal(f.dim)
            sym = H.value(w)
            lad = td.horizon_numeric(f, w, base, ladder=ladder)
            assert agree(sym, lad.value), (name, w, sym, lad.value)

    @pytest.mark.parametrize("name,f,base", oracle_fixtures(), ids=lambda p: p if isinstance(p, str) else "")
    def test_positive_homogeneity(self, name, f, base):
        H = td.horizon(f)
        rng = np.random.default_rng(12)
        sampled = isinstance(f, (Sampled1D, PartialMin)) or name == "partial_min"
        for _ in range(100):
            w = rng.standard_normal(f.dim)
            h1 = H.value(w)
            for lam in (0.5, 2.0, 10.0):
                hl = H.value(lam * w)
                if math.isinf(h1) or math.isinf(hl):
                    assert math.isinf(h1) == math.isinf(hl)
                    continue
                tol = 1e-9 if sampled else 1e-12
                assert abs(hl - lam * h1) <= tol * max(1.0, abs(hl), lam * abs(h1))

    def test_base_point_independence_1d(self):
        f = two_well()
        rng = np.random.default_rng(13)
        for _ in range(20):
            w = rng.standard_normal(1)
            vals = [td.horizon_numeric(f, w, [b]).value for b in (-2.0, 0.0, 1.5)]
            assert all(agree(vals[0], v) for v in vals[1:])

    def test_horizon_idempotent(self):
        for name, f, _ in oracle_fixtures():
            if name == "partial_min":
                continue  # evaluating its horizon needs the solver; covered above
            H = td.horizon(f)
            HH = td.horizon(H)
            rng = np.random.default_rng(14)
            for _ in range(25):
                w = rng.standard_normal(f.dim)
                a, b = H.value(w), HH.value(w)
                assert agree(a, b, tol=1e-12), (name, w, a, b)

    def test_sum_lower_bound_inequality(self):
        rng = np.random.default_rng(15)
        pairs = [
            (SShapedDisutility(2.0, 1.0, 1.0), SShapedDisutility(3.0, 2.0, 0.5)),
            (two_well(), Affine([1.0], 0.0)),
            (PowerCost(1.0, 2.0, 1), SShapedDisutility(2.0, 1.0, 2.0)),
        ]
        for f, g in pairs:
            s = Sum((f, g))
            Hs, exact, _ = td.horizon_with_flags(s)
            Hf, Hg = td.horizon(f), td.horizon(g)
            for _ in range(50):
                w = rng.standard_normal(1)
                lhs = Hf.value(w) + Hg.value(w)
                rhs = Hs.value(w)
                if math.isinf(lhs) or math.isinf(rhs):
                    assert rhs >= lhs or math.isinf(rhs)
                    continue
                assert rhs >= lhs - 1e-9
                if exact:
                    assert agree(rhs, lhs, tol=1e-9)


class TestIsNonnegativeOn:
    def test_relu_like_certificate(self):
        rep = td.is_nonnegative_on(Homog1D(0.0, 1.5))
        assert rep.verdict == "nonnegative"

    def test_affine_counterexample_on_halfline(self):
        region = IndicatorBox([0.0], [INF])
        rep = td.is_nonnegative_on(Affine([-1.0], 0.0), region)
        assert rep.verdict == "violated"
        assert rep.witness is not None
        assert rep.witness[0] == pytest.approx(1.0)
        assert Affine([-1.0], 0.0).value(rep.witness) == pytest.approx(-1.0)

    def test_total_cost_horizon_certificate(self):
        # horizon of Z*z + power cost: +inf off 0, 0 at 0
        f = Sum((Affine([1.0], 0.0), PowerCost(1.0, 2.0, 1)))
        H = td.horizon(f)
        rep = td.is_nonnegative_on(H)
        assert rep.verdict == "nonnegative"
        assert H.value([0.0]) == 0.0
        for w in (1.0, -1.0):
            assert H.value([w]) == INF
            assert td.horizon_numeric(f, [w], [0.0]).diverged_to_inf

    def test_sampled_fallback(self):
        H = td.horizon(AffinePrecompose(SShapedDisutility(2.0, 1.0, 1.0), [[1.0, 1.0]]))
        rep = td.is_nonnegative_on(H)
        assert rep.verdict in ("nonnegative", "sampled-nonnegative")
        rep2 = td.is_nonnegative_on(
            AffinePrecompose(Affine([-1.0], 0.0), [[1.0, 1.0]]),
            IndicatorPolyCone([[-1.0, 0.0], [0.0, -1.0]]),
        )
        assert rep2.verdict == "violated"


class TestJsonSpec:
    def test_round_trip_all_kinds(self):
        for name, f, _ in oracle_fixtures():
            spec = efun.to_spec(f)
            g = efun.from_spec(spec)
            rng = np.random.default_rng(16)
            X = rng.standard_normal((20, f.dim))
            if name == "partial_min":
                X = X[:3]
            fv = np.array([f.value(x) for x in X])
            gv = np.array([g.value(x) for x in X])
            finite = np.isfinite(fv)
            assert (np.isfinite(gv) == finite).all()
            assert np.allclose(fv[finite], gv[finite], rtol=1e-12, atol=1e-12)

    def test_infinite_bounds_spelled_as_strings(self):
        f = efun.from_spec({
            "kind": "indicator_box", "lower": ["-inf", 0], "upper": [0, "inf"],
        })
        assert f.value([-1.0, 1.0]) == 0.0
        assert f.value([1.0, 1.0]) == INF


class TestHypothesisProperties:
    finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
    pos = st.floats(min_value=0.05, max_value=20, allow_nan=False)

    @given(
        slope_neg=st.one_of(st.just(-INF), finite),
        slope_pos=st.one_of(st.just(INF), finite),
        # a subnormal w lets lam * w underflow to 0.0, which moves the query
        # from an infinite side to the origin; that is float rounding, not
        # a failure of homogeneity
        w=st.floats(min_value=-100, max_value=100, allow_nan=False,
                    allow_subnormal=False),
        lam=st.floats(min_value=0.01, max_value=100, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_homog1d_positively_homogeneous(self, slope_neg, slope_pos, w, lam):
        H = Homog1D(slope_neg, slope_pos)
        a, b = H.value([lam * w]), H.value([w])
        if math.isinf(a) or math.isinf(b):
            assert math.isinf(a) == math.isinf(b)
        else:
            assert abs(a - lam * b) <= 1e-9 * max(1.0, abs(a), lam * abs(b))

    @given(
        g1=st.floats(min_value=1.1, max_value=6), k1=pos, b1=pos,
        g2=st.floats(min_value=1.1, max_value=6), k2=pos, b2=pos,
        w=st.floats(min_value=-20, max_value=20, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_sum_horizon_exact_for_sshaped_pairs(self, g1, k1, b1, g2, k2, b2, w):
        f, g = SShapedDisutility(g1, k1, b1), SShapedDisutility(g2, k2, b2)
        Hs, exact, _ = td.horizon_with_flags(Sum((f, g)))
        assert exact
        lhs = td.horizon(f).value([w]) + td.horizon(g).value([w])
        rhs = Hs.value([w])
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))

    @given(
        gamma=st.floats(min_value=1.1, max_value=5), kappa=pos, beta=pos,
        c=st.floats(min_value=-30, max_value=30, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_sshaped_bounded_below_and_nondecreasing(self, gamma, kappa, beta, c):
        v = SShapedDisutility(gamma, kappa, beta)
        assert v.value([c]) >= -kappa - 1e-12
        assert v.value([c]) <= v.value([c + 0.5]) + 1e-12
