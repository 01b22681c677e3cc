"""Spline layer: basis recursion, derivatives, convex reparameterization,
linear extension."""
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from convexkan.bspline import (
    BSplineCurve,
    ConvexSpline,
    KnotVector,
    eval_basis,
    eval_basis_derivatives,
    reparameterize,
    reparameterize_vjp,
)
from convexkan.errors import ConfigurationError


def rational_basis(x, t, i, k, deriv=0):
    """Straight-from-definition Cox-de Boor recursion in exact rationals.

    Independent oracle: no arrays, no shared code with the implementation.
    1-based index ``i`` maps to ``t[i-1]`` here (0-based python list).
    ``deriv`` > 0 applies the knot-difference derivative formula
    ``B'_{i,k} = k B_{i,k-1} / (t_{i+k} - t_i) - k B_{i+1,k-1} / (t_{i+k+1} - t_{i+1})``
    that many times; like the order-0 indicator it is right-continuous.
    """
    if deriv:
        return k * (
            rational_basis(x, t, i, k - 1, deriv - 1) / (t[i + k] - t[i])
            - rational_basis(x, t, i + 1, k - 1, deriv - 1) / (t[i + k + 1] - t[i + 1])
        )
    if k == 0:
        return Fraction(1) if t[i] <= x < t[i + 1] else Fraction(0)
    left = Fraction(0)
    if t[i + k] != t[i]:
        left = Fraction(x - t[i], t[i + k] - t[i]) * rational_basis(x, t, i, k - 1)
    right = Fraction(0)
    if t[i + k + 1] != t[i + 1]:
        right = Fraction(t[i + k + 1] - x, t[i + k + 1] - t[i + 1]) * rational_basis(
            x, t, i + 1, k - 1
        )
    return left + right


class TestKnotVector:
    def test_from_domain_matches_appendix_defaults(self):
        kv = KnotVector.from_domain(-5.0, 25.0, n_coef=17, k=5)
        assert kv.m_b == 23
        assert kv.n_b == 17
        npt.assert_allclose(kv.domain, (-5.0, 25.0))
        npt.assert_allclose(np.diff(kv.t), kv.s)

    def test_rejects_nonuniform(self):
        with pytest.raises(ConfigurationError):
            KnotVector(t=np.array([0.0, 1.0, 2.5, 3.0, 4.0]), k=1)

    def test_rejects_too_few_knots(self):
        with pytest.raises(ConfigurationError):
            KnotVector(t=np.array([0.0, 1.0]), k=3)


class TestEvalBasis:
    def test_zero_order_indicator(self):
        kv = KnotVector(t=np.arange(6.0), k=0)
        b = eval_basis(0.5, kv)
        assert b[0] == 1.0
        assert eval_basis(1.5, kv)[0] == 0.0
        assert eval_basis(1.5, kv)[1] == 1.0

    def test_partition_of_unity_cubic(self):
        kv = KnotVector.from_domain(-2.0, 3.0, n_coef=9, k=3)
        lo, hi = kv.domain
        x = np.linspace(lo, hi, 1000)
        npt.assert_allclose(eval_basis(x, kv).sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_matches_exact_rational_recursion(self):
        # k=2, knots {0..5}: compare against the exact-arithmetic oracle
        t = [0, 1, 2, 3, 4, 5]
        kv = KnotVector(t=np.array(t, dtype=float), k=2)
        for x in [Fraction(p, 8) for p in range(1, 40, 2)]:  # 20 sample points
            got = eval_basis(float(x), kv)
            want = [float(rational_basis(x, t, i, 2)) for i in range(kv.n_b)]
            npt.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_zero_outside_support(self):
        kv = KnotVector.from_domain(0.0, 1.0, n_coef=8, k=3)
        npt.assert_array_equal(eval_basis(kv.t[0] - 1.0, kv), 0.0)


class TestBasisDerivatives:
    def test_derivative_sum_vanishes(self):
        kv = KnotVector.from_domain(0.0, 2.0, n_coef=11, k=4)
        x = np.linspace(*kv.domain, 257)
        npt.assert_allclose(
            eval_basis_derivatives(x, kv, 1).sum(axis=1), 0.0, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_central_finite_difference(self, order):
        kv = KnotVector.from_domain(-1.0, 4.0, n_coef=12, k=5)
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.5, 3.5, size=40)
        h = 1e-6
        if order == 1:
            fd = (eval_basis(x + h, kv) - eval_basis(x - h, kv)) / (2 * h)
        else:
            fd = (
                eval_basis_derivatives(x + h, kv, 1) - eval_basis_derivatives(x - h, kv, 1)
            ) / (2 * h)
        got = eval_basis_derivatives(x, kv, order)
        npt.assert_allclose(got, fd, rtol=1e-6, atol=1e-6)

    def test_continuity_at_knot(self):
        kv = KnotVector.from_domain(0.0, 5.0, n_coef=9, k=3)
        x_knot = kv.t[kv.k + 2]  # an interior knot
        left = eval_basis_derivatives(x_knot - 1e-9, kv, 1)
        right = eval_basis_derivatives(x_knot + 1e-9, kv, 1)
        npt.assert_allclose(left, right, rtol=0, atol=1e-10 + 1e-7 * np.abs(right).max())

    def test_order_too_low_rejected(self):
        kv = KnotVector.from_domain(0.0, 1.0, n_coef=5, k=1)
        with pytest.raises(ConfigurationError):
            eval_basis_derivatives(0.5, kv, 2)


def dense_design_rows(x, knots):
    """The dense Cox-de Boor rows ``(b0, b1, b2)`` with linear extension that
    ``BSplineCurve.design_rows`` computed before the local kernel: every
    basis function at every point, by the general knot-difference formulas."""
    t, k, n_b = knots.t, knots.k, knots.n_b

    def all_orders(x, order):
        B = ((t[:-1] <= x[:, None]) & (x[:, None] < t[1:])).astype(np.float64)
        for r in range(1, order + 1):
            i = np.arange(t.size - r - 1)
            B = (x[:, None] - t[i]) / (t[i + r] - t[i]) * B[:, :-1] + (
                (t[i + r + 1] - x[:, None]) / (t[i + r + 1] - t[i + 1]) * B[:, 1:]
            )
        return B

    def derivative_rows(x, order):
        i = np.arange(n_b)
        ca, cb = k / (t[i + k] - t[i]), k / (t[i + k + 1] - t[i + 1])
        if order == 1:
            B = all_orders(x, k - 1)
            return ca * B[:, :n_b] - cb * B[:, 1 : n_b + 1]
        B = all_orders(x, k - 2)
        da, db = (k - 1) / (t[i + k - 1] - t[i]), (k - 1) / (t[i + k] - t[i + 1])
        dc = (k - 1) / (t[i + k + 1] - t[i + 2])
        return ca * (da * B[:, :n_b] - db * B[:, 1 : n_b + 1]) - cb * (
            db * B[:, 1 : n_b + 1] - dc * B[:, 2 : n_b + 2]
        )

    lo, hi = knots.domain
    xc = np.clip(x, lo, hi)
    b0, b1, b2 = all_orders(xc, k), derivative_rows(xc, 1), derivative_rows(xc, 2)
    outside = (x < lo) | (x > hi)
    edge = np.where(x < lo, lo, hi)[outside]
    slope = derivative_rows(edge, 1)
    b0[outside] += (x[outside] - edge)[:, None] * slope
    b1[outside], b2[outside] = slope, 0.0
    return b0, b1, b2


class TestLocalKernel:
    """The local span kernel against the exact-rational oracle and against
    the dense recursion it replaced.

    Each point evaluates only the k + 1 functions non-zero on the half-open
    span ``[t_mu, t_mu+1)`` that holds it, the span the Cox-de Boor indicator
    picks.  So even where a derivative jumps at a knot (the first derivative
    for k = 1, the second for k = 2) the kernel gives the right-hand value,
    as the oracle and the dense recursion do: there is no difference to
    allow for at knots, for any k.
    """

    @staticmethod
    def knots_and_points(k):
        # dyadic knots and points: exact in floats and in the oracle
        t = [Fraction(-5, 4) + Fraction(3, 4) * i for i in range(k + 9)]
        kv = KnotVector(t=np.array([float(v) for v in t]), k=k)
        eps = Fraction(1, 2**30)
        xs = [t[0] - 1, t[0] - eps, t[-1], t[-1] + eps]  # off the knots: zero
        for a, b in zip(t[:-1], t[1:]):  # every span, outer spans included
            xs += [a, a + eps, (3 * a + b) / 4, (a + b) / 2, b - eps]
        return t, kv, xs

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_exact_rational_oracle(self, k):
        t, kv, xs = self.knots_and_points(k)
        x = np.array([float(v) for v in xs])
        got = [eval_basis(x, kv), eval_basis_derivatives(x, kv, 1),
               eval_basis_derivatives(x, kv, 2)]
        for deriv, rows in enumerate(got):
            want = np.array(
                [[float(rational_basis(v, t, i, k, deriv)) for i in range(kv.n_b)] for v in xs]
            )
            scale = np.abs(want).max()
            npt.assert_allclose(rows, want, rtol=0, atol=1e-13 * scale, err_msg=f"deriv {deriv}")
        # a point of an outer span sees only the functions defined there
        assert np.count_nonzero(got[0][xs.index((t[0] + t[1]) / 2)]) == 1
        for rows in got:  # off [t_1, t_{m_b}): exact zeros
            npt.assert_array_equal(rows[:4], 0.0)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("domain", [(-5.0, 25.0), (0.1234, 0.98765), (-3.3e-3, 7.77)])
    def test_design_rows_match_dense_recursion(self, k, domain):
        kv = KnotVector.from_domain(*domain, n_coef=k + 9, k=k)
        rng = np.random.default_rng(k)
        pad = 0.5 * (kv.t[-1] - kv.t[0])
        x = np.concatenate((
            rng.uniform(kv.t[0] - pad, kv.t[-1] + pad, 500),
            kv.t, np.nextafter(kv.t, -np.inf), np.nextafter(kv.t, np.inf),
        ))
        curve = BSplineCurve(knots=kv, raw=np.zeros(kv.n_b))
        for got, want in zip(curve.design_rows(x), dense_design_rows(x, kv)):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_scalar_and_single_point(self):
        kv = KnotVector.from_domain(-5.0, 25.0, n_coef=17, k=5)
        for got, want in zip(BSplineCurve(kv, np.zeros(17)).design_rows(3.7),
                             dense_design_rows(np.array([3.7]), kv)):
            assert got.shape == (17,)
            npt.assert_allclose(got, want[0], rtol=0, atol=1e-14 * np.abs(want).max())
        assert eval_basis_derivatives(3.7, kv, 2).shape == (17,)


class TestReparameterize:
    def test_hand_computed_cumulative_sums(self):
        # raw=[1,-2,3] -> h=[1,0,3] -> d=[1,0,3] -> c=[1,1,4]
        npt.assert_array_equal(reparameterize([1.0, -2.0, 3.0]), [1.0, 1.0, 4.0])

    def test_all_zeros(self):
        npt.assert_array_equal(reparameterize(np.zeros(6)), np.zeros(6))

    def test_second_example(self):
        c = reparameterize([0.0, 1.0, 1.0, 1.0])
        npt.assert_array_equal(c, [0.0, 1.0, 3.0, 6.0])
        assert np.all(np.diff(c, 2) >= 0)

    def test_constraint_soundness_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            c = reparameterize(rng.normal(scale=3.0, size=17))
            d = np.diff(c)
            assert np.all(d >= 0.0)  # exact, no tolerance
            assert np.all(np.diff(d) >= 0.0)

    @staticmethod
    def _nudge_every_index(raw):
        """Reference: the float-exactness loop run over every index."""
        p = np.asarray(raw, dtype=np.float64)
        h = np.maximum(p, 0.0)
        h[0] = p[0]
        d = np.empty_like(h)
        d[0] = h[0]
        d[1:] = np.cumsum(h[1:])
        c = np.cumsum(d)
        prev = 0.0
        for i in range(1, c.size):
            while c[i] - c[i - 1] < prev:
                c[i] = np.nextafter(c[i], np.inf)
            prev = c[i] - c[i - 1]
        return c

    def test_bit_identical_to_full_nudge_loop(self):
        rng = np.random.default_rng(5)
        raws = rng.normal(scale=3.0, size=(4000, 17))
        # curvature-sparse rows, as the curvature prior leaves them: most
        # increments clamp to 0 and the control points run linear
        sparse = raws[1::2]
        sparse[:, 2:][rng.uniform(size=sparse[:, 2:].shape) < 0.8] = -1.0
        sparse[:, 1] = np.abs(sparse[:, 1]) * 10.0 ** rng.uniform(-3, 3, size=len(sparse))
        want = np.array([self._nudge_every_index(raw) for raw in raws])
        plain = np.cumsum(
            np.column_stack((raws[:, 0], np.cumsum(np.maximum(raws[:, 1:], 0.0), axis=1))),
            axis=1,
        )
        assert np.sum(np.any(want != plain, axis=1)) > 100  # the nudge loop ran often
        # the stack acts row by row, and each row as a vector of its own
        npt.assert_array_equal(reparameterize(raws), want)
        for raw, row in zip(raws[:200], want):
            npt.assert_array_equal(reparameterize(raw), row)

    def test_vjp_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(4, 9))
        raw[np.abs(raw) < 1e-3] = 0.5  # stay away from the clamp kink
        cbar = rng.normal(size=(4, 9))
        got = reparameterize_vjp(raw, cbar)
        h = 1e-7
        fd = np.empty_like(raw)
        for idx in np.ndindex(raw.shape):
            rp, rm = raw.copy(), raw.copy()
            rp[idx] += h
            rm[idx] -= h
            fd[idx] = np.sum(cbar * (reparameterize(rp) - reparameterize(rm))) / (2 * h)
        npt.assert_allclose(got, fd, rtol=1e-6, atol=1e-6)
        for row in range(raw.shape[0]):
            npt.assert_array_equal(reparameterize_vjp(raw[row], cbar[row]), got[row])


def random_convex_spline(rng, n_coef=17, k=5, lo=-5.0, hi=25.0):
    kv = KnotVector.from_domain(lo, hi, n_coef=n_coef, k=k)
    return ConvexSpline(knots=kv, raw=rng.uniform(-1.0, 1.0, size=n_coef))


class TestEvalExtended:
    def test_continuous_at_left_endpoint(self):
        sp = random_convex_spline(np.random.default_rng(1))
        lo, _ = sp.knots.domain
        v_in, d_in, _ = sp.eval_extended(lo)
        v_out, d_out, d2_out = sp.eval_extended(lo - 1e-12)
        assert abs(v_in - v_out) < 1e-10
        assert abs(d_in - d_out) < 1e-8
        assert d2_out == 0.0

    def test_left_extension_is_linear_with_endpoint_slope(self):
        sp = random_convex_spline(np.random.default_rng(2))
        lo, _ = sp.knots.domain
        v0, slope, _ = sp.eval_extended(lo)
        v, d, d2 = sp.eval_extended(lo - 1.0)
        assert slope >= 0.0
        npt.assert_allclose(v, v0 - slope, rtol=0, atol=1e-12)
        npt.assert_allclose(d, slope, rtol=0, atol=1e-12)
        assert d2 == 0.0

    def test_monotone_beyond_right_end(self):
        sp = random_convex_spline(np.random.default_rng(4))
        _, hi = sp.knots.domain
        v1 = sp.eval_extended(hi + 0.5)[0]
        v2 = sp.eval_extended(hi + 2.5)[0]
        assert v2 >= v1

    def test_convex_and_monotone_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sp = random_convex_spline(rng)
            lo, hi = sp.knots.domain
            pad = 0.5 * (hi - lo)
            x = np.linspace(lo - pad, hi + pad, 1000)
            _, d1, d2 = sp.eval_extended(x)
            assert np.min(d1) >= -1e-12
            assert np.min(d2) >= -1e-10

    def test_analytic_derivatives_match_fd(self):
        sp = random_convex_spline(np.random.default_rng(6))
        rng = np.random.default_rng(7)
        lo, hi = sp.knots.domain
        x = rng.uniform(lo + 0.01, hi - 0.01, size=30)
        x += 1e-4  # avoid landing exactly on knots
        h = 1e-6
        v, d1, d2 = sp.eval_extended(x)
        vp, d1p, _ = sp.eval_extended(x + h)
        vm, d1m, _ = sp.eval_extended(x - h)
        npt.assert_allclose(d1, (vp - vm) / (2 * h), rtol=1e-5, atol=1e-8)
        npt.assert_allclose(d2, (d1p - d1m) / (2 * h), rtol=1e-5, atol=1e-8)

    def test_knot_scaling_preserves_sign_pattern(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(-1.0, 1.0, size=11)
        for lam in (0.1, 3.0, 40.0):
            a = ConvexSpline(KnotVector.from_domain(0.0, 1.0, 11, 3), raw.copy())
            b = ConvexSpline(KnotVector.from_domain(0.0, lam, 11, 3), raw.copy())
            xa = np.linspace(0.0, 1.0, 400)
            _, d1a, d2a = a.eval_extended(xa)
            _, d1b, d2b = b.eval_extended(xa * lam)
            assert np.min(d1a) >= -1e-12 and np.min(d1b) >= -1e-12
            assert np.min(d2a) >= -1e-10 and np.min(d2b) >= -1e-10


class TestUnconstrainedCurve:
    def test_raw_used_directly(self):
        kv = KnotVector.from_domain(0.0, 1.0, 8, 3)
        raw = np.array([0.5, -1.0, 2.0, 0.0, 1.0, -0.5, 0.25, 3.0])
        sp = BSplineCurve(knots=kv, raw=raw)
        npt.assert_array_equal(sp.control_points, raw)
        npt.assert_array_equal(sp.coeff_vjp(raw * 2), raw * 2)


class TestCurveStack:
    def test_rows_evaluate_like_single_curves(self):
        rng = np.random.default_rng(10)
        kv = KnotVector.from_domain(-5.0, 25.0, n_coef=17, k=5)
        raws = rng.uniform(-1.0, 1.0, size=(4, 17))
        x = np.linspace(-10.0, 30.0, 300)
        for spline_cls in (ConvexSpline, BSplineCurve):
            stack = spline_cls(knots=kv, raw=raws)
            got = stack.eval_extended(x)
            for row, raw in enumerate(raws):
                single = spline_cls(knots=kv, raw=raw)
                npt.assert_array_equal(stack.control_points[row], single.control_points)
                for g, w in zip(got, single.eval_extended(x)):
                    assert g.shape == (300, 4)
                    npt.assert_allclose(g[:, row], w, rtol=1e-13, atol=1e-13 * np.abs(w).max())

    def test_rejects_wrong_length(self):
        kv = KnotVector.from_domain(0.0, 1.0, 8, 3)
        with pytest.raises(ConfigurationError):
            BSplineCurve(knots=kv, raw=np.zeros((2, 7)))
