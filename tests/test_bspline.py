"""Spline layer: basis recursion, derivatives, convex reparameterization,
linear extension."""
import math
import re
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from convexkan.bspline import (
    BSplineCurve,
    _local_values,
    _scatter,
    design_rows,
    reparameterize,
    reparameterize_vjp,
    uniform_knots,
)
from convexkan.errors import ConfigurationError


def rows(x, t, k, order=0):
    """Every basis function's derivative of the given order at the points x,
    ``(len(x), n_b)``, inside the natural domain of the knots ``t``."""
    return design_rows(x, t, k, (order,))[0]


def natural_domain(t, k):
    """``[t_{k+1}, t_{m_b-k}]``, where the basis is a partition of unity."""
    return float(t[k]), float(t[-k - 1])


def kernel_rows(x, t, k, order=0):
    """The same from the local kernel and scatter that ``design_rows`` runs,
    without its linear extension, so that points in the outer spans and off
    the knots see the B-splines themselves."""
    mu, vals = _local_values(x, t, k, (order,))
    return _scatter(mu, vals, k, t.size - k - 1)[0]


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
    """Knot vectors as ``uniform_knots`` makes them, and its refusals."""

    def test_from_domain_matches_appendix_defaults(self):
        t = uniform_knots(-5.0, 25.0, n_coef=17, k=5)
        assert t.shape == (23,)  # n_coef + k + 1: 17 basis functions
        npt.assert_allclose(natural_domain(t, 5), (-5.0, 25.0))
        npt.assert_allclose(np.diff(t), 30.0 / 12)

    def test_rejects_nonuniform(self):
        # a domain narrow against its distance from 0 rounds its knots: near
        # 1e4 steps of 0.1 differ by more than 1e-12, and at 1e16, where
        # floats are 2 apart, knots a third apart merge
        with pytest.raises(ConfigurationError, match="knots are not uniformly spaced"):
            uniform_knots(10000.0, 10001.2, n_coef=17, k=5)
        with pytest.raises(ConfigurationError, match="knots must be strictly increasing"):
            uniform_knots(1e16, 1.0000000000000004e16, n_coef=17, k=5)

    def test_rejects_too_few_knots(self):
        with pytest.raises(ConfigurationError, match=re.escape("need n_coef > k")):
            uniform_knots(0.0, 1.0, n_coef=3, k=3)

    @pytest.mark.parametrize("lo, hi, n_coef, k, refusal", [
        (3.0, 3.0, 3, 3, "empty domain [3.0, 3.0]"),
        (1e308, 1.7e308, 3, 4, "need n_coef > k, got n_coef=3, k=4"),
        (-1e308, 1e308, 17, -1, "knots of domain [-1e+308, 1e+308] are not finite"),
        (1e16, 1.0000000000000004e16, 17, -1, "spline order must be non-negative, got -1"),
    ])
    def test_refusals_in_order(self, lo, hi, n_coef, k, refusal):
        # each case also fails the next check: the refusal names the first
        with pytest.raises(ConfigurationError, match=re.escape(refusal)):
            uniform_knots(lo, hi, n_coef, k)


class TestEvalBasis:
    def test_zero_order_indicator(self):
        t = np.arange(6.0)
        b = rows(np.array([0.5, 1.5]), t, 0)
        assert b[0, 0] == 1.0
        assert b[1, 0] == 0.0
        assert b[1, 1] == 1.0

    def test_partition_of_unity_cubic(self):
        t = uniform_knots(-2.0, 3.0, n_coef=9, k=3)
        lo, hi = natural_domain(t, 3)
        x = np.linspace(lo, hi, 1000)
        npt.assert_allclose(rows(x, t, 3).sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_matches_exact_rational_recursion(self):
        # k=2, knots {0..5}: compare against the exact-arithmetic oracle
        t = [0, 1, 2, 3, 4, 5]
        for x in [Fraction(p, 8) for p in range(1, 40, 2)]:  # 20 sample points
            got = kernel_rows(np.array([float(x)]), np.array(t, dtype=float), 2)[0]
            want = [float(rational_basis(x, t, i, 2)) for i in range(len(t) - 3)]
            npt.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_zero_outside_support(self):
        t = uniform_knots(0.0, 1.0, n_coef=8, k=3)
        npt.assert_array_equal(kernel_rows(t[:1] - 1.0, t, 3), 0.0)


class TestBasisDerivatives:
    def test_derivative_sum_vanishes(self):
        t = uniform_knots(0.0, 2.0, n_coef=11, k=4)
        x = np.linspace(*natural_domain(t, 4), 257)
        npt.assert_allclose(rows(x, t, 4, 1).sum(axis=1), 0.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_central_finite_difference(self, order):
        t = uniform_knots(-1.0, 4.0, n_coef=12, k=5)
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.5, 3.5, size=40)
        h = 1e-6
        fd = (rows(x + h, t, 5, order - 1) - rows(x - h, t, 5, order - 1)) / (2 * h)
        got = rows(x, t, 5, order)
        npt.assert_allclose(got, fd, rtol=1e-6, atol=1e-6)

    def test_continuity_at_knot(self):
        t = uniform_knots(0.0, 5.0, n_coef=9, k=3)
        x_knot = t[3 + 2]  # an interior knot
        left, right = rows(np.array([x_knot - 1e-9, x_knot + 1e-9]), t, 3, 1)
        npt.assert_allclose(left, right, rtol=0, atol=1e-10 + 1e-7 * np.abs(right).max())

    def test_order_too_low_rejected(self):
        t = uniform_knots(0.0, 1.0, n_coef=5, k=1)
        with pytest.raises(ConfigurationError):
            rows(np.array([0.5]), t, 1, 2)


def dense_design_rows(x, t, k):
    """The dense Cox-de Boor rows ``(b0, b1, b2)`` with linear extension that
    ``BSplineCurve.design_rows`` computed before the local kernel: every
    basis function at every point, by the general knot-difference formulas."""
    n_b = t.size - k - 1

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

    lo, hi = natural_domain(t, k)
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
        eps = Fraction(1, 2**30)
        xs = [t[0] - 1, t[0] - eps, t[-1], t[-1] + eps]  # off the knots: zero
        for a, b in zip(t[:-1], t[1:]):  # every span, outer spans included
            xs += [a, a + eps, (3 * a + b) / 4, (a + b) / 2, b - eps]
        return t, xs

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_exact_rational_oracle(self, k):
        t, xs = self.knots_and_points(k)
        x, tf = (np.array([float(v) for v in vs]) for vs in (xs, t))
        got = [kernel_rows(x, tf, k, order) for order in range(3)]
        for deriv, rows in enumerate(got):
            want = np.array(
                [[float(rational_basis(v, t, i, k, deriv)) for i in range(len(t) - k - 1)]
                 for v in xs]
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
        t = uniform_knots(*domain, n_coef=k + 9, k=k)
        rng = np.random.default_rng(k)
        pad = 0.5 * (t[-1] - t[0])
        x = np.concatenate((
            rng.uniform(t[0] - pad, t[-1] + pad, 500),
            t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
        ))
        for got, want in zip(BSplineCurve(t, k).design_rows(x), dense_design_rows(x, t, k)):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_scalar_and_single_point(self):
        t = uniform_knots(-5.0, 25.0, n_coef=17, k=5)
        for got, want in zip(BSplineCurve(t, 5).design_rows(3.7),
                             dense_design_rows(np.array([3.7]), t, 5)):
            assert got.shape == (17,)
            npt.assert_allclose(got, want[0], rtol=0, atol=1e-14 * np.abs(want).max())


class TestRequestedOrders:
    """``design_rows(x, t, k, orders)`` is the matching slices of the full
    call, bit for bit, inside, past and exactly at the natural domain's ends,
    on shared and on per-member knots."""

    @staticmethod
    def points_and_knots(per_member):
        rng = np.random.default_rng(3)
        lo = np.array([[-5.0], [0.25], [-0.003]])
        width = np.array([[30.0], [0.5], [0.0123]])
        t = uniform_knots(0.0, 1.0, 17, 5)
        t = (lo + width * t)[None]  # (1, n_in, m_b)
        if per_member:
            t = t * np.array([1.0, 1.5])[:, None, None]  # (2, n_in, m_b)
        dom_lo, dom_hi = t[..., 5:6], t[..., -6:-5]
        span = dom_hi - dom_lo
        x = dom_lo + span * rng.uniform(-0.5, 1.5, size=(t.shape[0], 3, 40))
        x[..., :3] = np.concatenate((dom_lo, dom_hi, t[..., 8:9]), axis=-1)
        return x, t

    @pytest.mark.parametrize("per_member", [False, True], ids=["shared", "per-member"])
    @pytest.mark.parametrize("orders", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    def test_orders_are_bitwise_slices_of_full_call(self, orders, per_member):
        x, t = self.points_and_knots(per_member)
        full = design_rows(x, t, 5)
        got = design_rows(x, t, 5, orders)
        assert got.shape == (len(orders),) + full.shape[1:]
        npt.assert_array_equal(got.view(np.int64), full[list(orders)].view(np.int64))

    def test_shared_points_on_per_member_knots(self):
        x, t = self.points_and_knots(True)
        full = design_rows(x[:1], t, 5)
        assert full.shape[1] == 2
        npt.assert_array_equal(design_rows(x[:1], t, 5, (0,))[0].view(np.int64),
                               full[0].view(np.int64))


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
    def _corpus():
        """4000 random rows, half of them curvature-sparse as the curvature
        prior leaves them (most increments clamp to 0 and the control points
        run linear), then rows at the edges of the float range."""
        rng = np.random.default_rng(5)
        raws = rng.normal(scale=3.0, size=(4000, 17))
        sparse = raws[1::2]
        sparse[:, 2:][rng.uniform(size=sparse[:, 2:].shape) < 0.8] = -1.0
        sparse[:, 1] = np.abs(sparse[:, 1]) * 10.0 ** rng.uniform(-3, 3, size=len(sparse))
        big_first, neg_first = np.full(17, 1e-3), np.full(17, 1e-3)
        big_first[0], neg_first[0] = 1e6, -1e6
        steep = np.abs(rng.normal(size=17))
        steep[1] *= 1e3
        clamped = -np.abs(rng.normal(size=17))
        clamped[0] = 0.7
        huge = np.full(17, 1e290)
        huge[0] = 1e300
        edges = [big_first, neg_first, steep, clamped, np.zeros(17), np.full(17, 5e-324), huge]
        return np.vstack([raws] + edges)

    def test_within_grid_rounding_of_exact_rational_sums(self):
        raws = self._corpus()
        n = raws.shape[1]
        got = reparameterize(raws)
        for raw, row in zip(raws, got):
            h = [float(raw[0])] + [max(float(v), 0.0) for v in raw[1:]]
            exact, slope = [Fraction(h[0])], Fraction(0)
            for v in h[1:]:
                slope += Fraction(v)
                exact.append(exact[-1] + slope)
            bound = abs(h[0]) + math.fsum((n - i) * v for i, v in enumerate(h[1:], 1))
            q = Fraction(2) ** (math.frexp(max(bound, np.finfo(np.float64).tiny))[1] - 52)
            worst = max(abs(Fraction(float(c)) - e) for c, e in zip(row, exact))
            assert worst <= (1 + Fraction(n * (n - 1), 2)) * q / 2

    def test_constraint_exact_and_rows_independent_of_stacking(self):
        raws = self._corpus()
        plain = np.cumsum(
            np.column_stack((raws[:, 0], np.cumsum(np.maximum(raws[:, 1:], 0.0), axis=1))),
            axis=1,
        )
        # the corpus reaches the rounding that plain cumulative sums get wrong
        assert np.sum(np.any(np.diff(plain, 2) < 0.0, axis=1)) > 100
        got = reparameterize(raws)
        assert np.all(np.diff(got) >= 0.0)  # exact, no tolerance
        assert np.all(np.diff(got, 2) >= 0.0)
        stack = raws[-18:].reshape(3, 2, 3, 17)  # the edge rows among them
        npt.assert_array_equal(reparameterize(stack).reshape(18, 17), got[-18:])
        for raw, row in zip(raws, got):
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


def curve(t, k, c, x):
    """Value, slope and curvature at ``x`` (scalar or array) of the spline
    with control points ``c`` on the knots ``t`` of order ``k``, the design
    rows times ``c``: of shape ``x.shape`` for one vector of control points
    and ``x.shape + (m,)`` for an ``(m, n_b)`` stack of them."""
    b = design_rows(np.atleast_1d(x), t, k) @ np.asarray(c).T
    return tuple(b[:, 0] if np.ndim(x) == 0 else b)


def random_convex_spline(rng):
    """Knots of order 5 and the control points of a random convex spline on them."""
    return uniform_knots(-5.0, 25.0, n_coef=17, k=5), reparameterize(rng.uniform(-1.0, 1.0, 17))


class TestEvalExtended:
    def test_continuous_at_left_endpoint(self):
        t, c = random_convex_spline(np.random.default_rng(1))
        lo, _ = natural_domain(t, 5)
        v_in, d_in, _ = curve(t, 5, c, lo)
        v_out, d_out, d2_out = curve(t, 5, c, lo - 1e-12)
        assert abs(v_in - v_out) < 1e-10
        assert abs(d_in - d_out) < 1e-8
        assert d2_out == 0.0

    def test_left_extension_is_linear_with_endpoint_slope(self):
        t, c = random_convex_spline(np.random.default_rng(2))
        lo, _ = natural_domain(t, 5)
        v0, slope, _ = curve(t, 5, c, lo)
        v, d, d2 = curve(t, 5, c, lo - 1.0)
        assert slope >= 0.0
        npt.assert_allclose(v, v0 - slope, rtol=0, atol=1e-12)
        npt.assert_allclose(d, slope, rtol=0, atol=1e-12)
        assert d2 == 0.0

    def test_monotone_beyond_right_end(self):
        t, c = random_convex_spline(np.random.default_rng(4))
        _, hi = natural_domain(t, 5)
        v1 = curve(t, 5, c, hi + 0.5)[0]
        v2 = curve(t, 5, c, hi + 2.5)[0]
        assert v2 >= v1

    def test_convex_and_monotone_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t, c = random_convex_spline(rng)
            lo, hi = natural_domain(t, 5)
            pad = 0.5 * (hi - lo)
            x = np.linspace(lo - pad, hi + pad, 1000)
            _, d1, d2 = curve(t, 5, c, x)
            assert np.min(d1) >= -1e-12
            assert np.min(d2) >= -1e-10

    def test_analytic_derivatives_match_fd(self):
        t, c = random_convex_spline(np.random.default_rng(6))
        rng = np.random.default_rng(7)
        lo, hi = natural_domain(t, 5)
        x = rng.uniform(lo + 0.01, hi - 0.01, size=30)
        x += 1e-4  # avoid landing exactly on knots
        h = 1e-6
        v, d1, d2 = curve(t, 5, c, x)
        vp, d1p, _ = curve(t, 5, c, x + h)
        vm, d1m, _ = curve(t, 5, c, x - h)
        npt.assert_allclose(d1, (vp - vm) / (2 * h), rtol=1e-5, atol=1e-8)
        npt.assert_allclose(d2, (d1p - d1m) / (2 * h), rtol=1e-5, atol=1e-8)

    def test_knot_scaling_preserves_sign_pattern(self):
        rng = np.random.default_rng(8)
        c = reparameterize(rng.uniform(-1.0, 1.0, size=11))
        for lam in (0.1, 3.0, 40.0):
            a = uniform_knots(0.0, 1.0, 11, 3)
            b = uniform_knots(0.0, lam, 11, 3)
            xa = np.linspace(0.0, 1.0, 400)
            _, d1a, d2a = curve(a, 3, c, xa)
            _, d1b, d2b = curve(b, 3, c, xa * lam)
            assert np.min(d1a) >= -1e-12 and np.min(d1b) >= -1e-12
            assert np.min(d2a) >= -1e-10 and np.min(d2b) >= -1e-10


class TestUnconstrainedCurve:
    def test_raw_used_directly(self):
        # the rows carry no constraint: raw control points give a curve that
        # falls and bends down, their reparameterization one that does neither
        t = uniform_knots(0.0, 1.0, 8, 3)
        raw = np.array([0.5, -1.0, 2.0, 0.0, 1.0, -0.5, 0.25, 3.0])
        x = np.linspace(0.0, 1.0, 101)
        rows = BSplineCurve(t, 3).design_rows(x)
        for got, want in zip(rows, design_rows(x, t, 3)):
            npt.assert_array_equal(got, want)
        _, d1, d2 = (b @ raw for b in rows)
        assert d1.min() < 0.0 and d2.min() < 0.0
        _, d1, d2 = (b @ reparameterize(raw) for b in rows)
        assert d1.min() >= -1e-12 and d2.min() >= -1e-10


class TestCurveStack:
    def test_rows_evaluate_like_single_curves(self):
        rng = np.random.default_rng(10)
        t = uniform_knots(-5.0, 25.0, n_coef=17, k=5)
        raws = rng.uniform(-1.0, 1.0, size=(4, 17))
        x = np.linspace(-10.0, 30.0, 300)
        for points in (reparameterize, np.asarray):  # convex, and raw as control points
            got = curve(t, 5, points(raws), x)
            for row, raw in enumerate(raws):
                npt.assert_array_equal(points(raws)[row], points(raw))
                for g, w in zip(got, curve(t, 5, points(raw), x)):
                    assert g.shape == (300, 4)
                    npt.assert_allclose(g[:, row], w, rtol=1e-13, atol=1e-13 * np.abs(w).max())
