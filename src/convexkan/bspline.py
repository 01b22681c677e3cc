"""Uniform B-splines with exact derivatives, a monotone-convex control-point
reparameterization, and linear extrapolation beyond the natural domain.

Knot and basis indices follow the usual 1-based convention in docstrings
(``t_1 .. t_{m_b}``, basis functions ``B_1 .. B_{n_b}``); arrays are 0-based.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import ConfigurationError

Array = npt.NDArray[np.float64]

_UNIFORMITY_RTOL = 1e-12


@dataclass(frozen=True)
class KnotVector:
    """Uniformly spaced knots ``t`` for splines of order ``k``.

    The natural domain (where the basis forms a partition of unity) is
    ``[t_{k+1}, t_{m_b-k}]`` in 1-based terms, i.e. ``t[k] .. t[-k-1]``.
    """

    t: Array
    k: int

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        object.__setattr__(self, "t", t)
        if self.k < 0:
            raise ConfigurationError(f"spline order must be non-negative, got {self.k}")
        if t.ndim != 1 or t.size < self.k + 2:
            raise ConfigurationError(
                f"need at least k+2={self.k + 2} knots, got {t.size}"
            )
        steps = np.diff(t)
        s = steps[0]
        if s <= 0:
            raise ConfigurationError("knots must be strictly increasing")
        if np.any(np.abs(steps - s) > _UNIFORMITY_RTOL * max(abs(s), 1.0)):
            raise ConfigurationError("knots are not uniformly spaced")

    @classmethod
    def from_domain(cls, lo: float, hi: float, n_coef: int, k: int) -> "KnotVector":
        """Knots whose natural domain is exactly ``[lo, hi]`` for ``n_coef`` basis
        functions of order ``k``."""
        if hi <= lo:
            raise ConfigurationError(f"empty domain [{lo}, {hi}]")
        if n_coef <= k:
            raise ConfigurationError(f"need n_coef > k, got n_coef={n_coef}, k={k}")
        n_span = n_coef - k  # intervals inside the natural domain
        s = (hi - lo) / n_span
        m_b = n_coef + k + 1
        t = lo + (np.arange(m_b) - k) * s
        return cls(t=t, k=k)

    @property
    def m_b(self) -> int:
        return self.t.size

    @property
    def n_b(self) -> int:
        """Number of basis functions this knot vector supports at order k."""
        return self.m_b - self.k - 1

    @property
    def s(self) -> float:
        """Knot spacing."""
        return float(self.t[1] - self.t[0])

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.t[self.k]), float(self.t[self.m_b - self.k - 1])


def _basis_all_orders(x: Array, t: Array, order: int) -> Array:
    """All basis functions of the given order at points ``x``.

    Returns an array of shape ``(len(x), m_b - order - 1)`` built by the
    Cox-de Boor recursion, vectorized over points.
    """
    x = np.asarray(x, dtype=np.float64)
    m = t.size
    # zero order: half-open indicator on each knot interval
    B = ((t[:-1][None, :] <= x[:, None]) & (x[:, None] < t[1:][None, :])).astype(
        np.float64
    )
    for r in range(1, order + 1):
        n_fun = m - r - 1
        i = np.arange(n_fun)
        left_den = t[i + r] - t[i]
        right_den = t[i + r + 1] - t[i + 1]
        left = (x[:, None] - t[i][None, :]) / left_den[None, :] * B[:, :n_fun]
        right = (
            (t[i + r + 1][None, :] - x[:, None]) / right_den[None, :] * B[:, 1 : n_fun + 1]
        )
        B = left + right
    return B


def eval_basis(x, knots: KnotVector) -> Array:
    """Evaluate all ``n_b`` basis functions of order ``knots.k`` at ``x``.

    ``x`` may be a scalar or 1-D array; the result has shape ``(n_b,)`` or
    ``(len(x), n_b)``.  Within the natural domain the values sum to one.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    B = _basis_all_orders(xs, knots.t, knots.k)[:, : knots.n_b]
    return B[0] if scalar else B


def eval_basis_derivatives(x, knots: KnotVector, order: int) -> Array:
    """First or second derivatives of all basis functions at ``x``.

    Uses the closed-form knot-difference formulas; requires ``knots.k >= order``.
    """
    if order not in (1, 2):
        raise ConfigurationError(f"derivative order must be 1 or 2, got {order}")
    k = knots.k
    if k < order:
        raise ConfigurationError(
            f"order-{order} derivative needs spline order k >= {order}, got k={k}"
        )
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    t = knots.t
    n_b = knots.n_b
    if order == 1:
        Blow = _basis_all_orders(xs, t, k - 1)  # (N, m_b - k)
        i = np.arange(n_b)
        a = k / (t[i + k] - t[i])
        b = k / (t[i + k + 1] - t[i + 1])
        D = a[None, :] * Blow[:, :n_b] - b[None, :] * Blow[:, 1 : n_b + 1]
    else:
        Blow = _basis_all_orders(xs, t, k - 2)  # (N, m_b - k + 1)
        i = np.arange(n_b)
        ca = k / (t[i + k] - t[i])
        cb = k / (t[i + k + 1] - t[i + 1])
        da = (k - 1) / (t[i + k - 1] - t[i])
        db = (k - 1) / (t[i + k] - t[i + 1])
        dc = (k - 1) / (t[i + k + 1] - t[i + 2])
        D = (
            ca[None, :] * (da[None, :] * Blow[:, :n_b] - db[None, :] * Blow[:, 1 : n_b + 1])
            - cb[None, :] * (db[None, :] * Blow[:, 1 : n_b + 1] - dc[None, :] * Blow[:, 2 : n_b + 2])
        )
    return D[0] if scalar else D


def reparameterize(raw) -> Array:
    """Map unconstrained parameters to convex non-decreasing control points.

    Acts along the last axis, so ``raw`` may be one parameter vector or a
    stack of them.  The first entry passes through; the rest are clamped at
    zero from below, then two cumulative sums turn non-negative increments
    into control points whose consecutive differences are non-negative and
    non-decreasing.
    """
    p = np.asarray(raw, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] < 3:
        raise ConfigurationError(f"need at least 3 parameters, got shape {p.shape}")
    h = np.maximum(p, 0.0)
    h[..., 0] = p[..., 0]
    d = np.empty_like(h)
    d[..., 0] = h[..., 0]
    d[..., 1:] = np.cumsum(h[..., 1:], axis=-1)
    c = np.cumsum(d, axis=-1)
    # Rounding in the cumulative sums can leave the floating-point differences
    # of c violating the constraint by an ulp; nudge entries up until the
    # constraint holds exactly as evaluated in double precision.  Entries
    # before a row's first violation need no nudge, so its loop starts there,
    # on Python floats (the same IEEE doubles, without numpy scalar overhead).
    diff = np.diff(c, axis=-1)
    prev = np.concatenate((np.zeros_like(diff[..., :1]), diff[..., :-1]), axis=-1)
    bad = (diff < prev).reshape(-1, diff.shape[-1])
    rows = c.reshape(-1, c.shape[-1])  # a view: c is a fresh contiguous array
    for r in np.flatnonzero(bad.any(axis=1)):
        start = int(np.argmax(bad[r])) + 1
        vals = rows[r].tolist()
        prev = vals[start - 1] - vals[start - 2] if start > 1 else 0.0
        for i in range(start, len(vals)):
            while vals[i] - vals[i - 1] < prev:
                vals[i] = math.nextafter(vals[i], math.inf)
            prev = vals[i] - vals[i - 1]
        rows[r] = vals
    return c


def reparameterize_vjp(raw, cbar) -> Array:
    """Pull a gradient w.r.t. control points back to the raw parameters,
    along the last axis like :func:`reparameterize`.

    Subgradient of the clamp: 0 for negative raw entries, 1 otherwise.
    """
    p = np.asarray(raw, dtype=np.float64)
    g_d = np.cumsum(np.asarray(cbar, dtype=np.float64)[..., ::-1], axis=-1)[..., ::-1]
    g_h = np.empty_like(g_d)
    g_h[..., 0] = g_d[..., 0]
    g_h[..., 1:] = np.cumsum(g_d[..., :0:-1], axis=-1)[..., ::-1]
    g_p = g_h.copy()
    g_p[..., 1:] *= (p[..., 1:] >= 0.0).astype(np.float64)
    return g_p


@dataclass
class BSplineCurve:
    """A spline curve ``psi(x) = sum_i c_i B_i(x)`` with linear extrapolation
    beyond the natural domain.

    ``raw`` is one parameter vector of length ``n_b`` or an ``(m, n_b)``
    stack of them, one curve per row on the shared knots.  The base class
    uses the raw parameters directly as control points (unconstrained);
    :class:`ConvexSpline` reparameterizes them to enforce a convex
    non-decreasing curve.
    """

    knots: KnotVector
    raw: Array

    def __post_init__(self):
        self.raw = np.asarray(self.raw, dtype=np.float64)
        if self.raw.ndim not in (1, 2) or self.raw.shape[-1] != self.knots.n_b:
            raise ConfigurationError(
                f"expected {self.knots.n_b} parameters per curve, got shape {self.raw.shape}"
            )

    @property
    def control_points(self) -> Array:
        return self.raw

    def coeff_vjp(self, cbar: Array) -> Array:
        """Gradient w.r.t. raw parameters given a gradient w.r.t. control points."""
        return np.asarray(cbar, dtype=np.float64)

    def design_rows(self, x) -> tuple[Array, Array, Array]:
        """Rows ``(b0, b1, b2)`` such that value/slope/curvature at ``x`` are
        ``b0 @ c``, ``b1 @ c``, ``b2 @ c``, with the linear extension baked in
        for points outside the natural domain."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        lo, hi = self.knots.domain
        xc = np.clip(xs, lo, hi)
        b0 = eval_basis(xc, self.knots)
        b1 = eval_basis_derivatives(xc, self.knots, 1)
        b2 = eval_basis_derivatives(xc, self.knots, 2)
        outside = (xs < lo) | (xs > hi)
        if np.any(outside):
            edge = np.where(xs < lo, lo, hi)[outside]
            slope_rows = eval_basis_derivatives(edge, self.knots, 1)
            b0[outside] = b0[outside] + (xs[outside] - edge)[:, None] * slope_rows
            b1[outside] = slope_rows
            b2[outside] = 0.0
        if scalar:
            return b0[0], b1[0], b2[0]
        return b0, b1, b2

    def eval_extended(self, x):
        """Value, first and second derivative at ``x`` (scalar or array), of
        shape ``x.shape`` for one curve and ``x.shape + (m,)`` for a stack.

        Inside the natural domain these are the exact spline derivatives;
        outside, the curve continues linearly with the endpoint slope.
        """
        c = self.control_points.T
        return tuple(b @ c for b in self.design_rows(x))


@dataclass
class ConvexSpline(BSplineCurve):
    """Spline constrained to be convex and non-decreasing by construction."""

    @property
    def control_points(self) -> Array:
        return reparameterize(self.raw)

    def coeff_vjp(self, cbar: Array) -> Array:
        return reparameterize_vjp(self.raw, cbar)
