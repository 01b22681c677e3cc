"""Uniform B-splines with exact derivatives, a monotone-convex control-point
reparameterization, and linear extrapolation beyond the natural domain.

Knot and basis indices follow the usual 1-based convention in docstrings
(``t_1 .. t_{m_b}``, basis functions ``B_1 .. B_{n_b}``); arrays are 0-based.
"""
from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _span_matrices(k: int) -> Array:
    """Matrix form (Qin 2000, *The Visual Computer* 16:177) of the k + 1
    uniform B-splines non-zero on a knot span: ``sum_p u**p M[d, p, r]`` is
    ``s**d`` times the ``d``-th derivative of ``B_{mu-k+r}`` at ``t_mu + u*s``
    (zero for ``d > k``), from the uniform Cox-de Boor recursion."""
    V = [np.eye(k + 1, 1)]  # V[d][p, r]: u**p coefficient of B_{mu-d+r}, order d
    for d in range(1, k + 1):
        # B_i = ((u + d - r) B'_i + (r + 1 - u) B'_{i+1}) / d, B' of order d - 1
        P, r = np.pad(V[-1], ((0, 0), (1, 1))), np.arange(d + 1)
        uP = np.roll(P, 1, axis=0)  # times u: the top coefficient of P is 0
        V.append(((d - r) * P[:, :-1] + uP[:, :-1] + (r + 1) * P[:, 1:] - uP[:, 1:]) / d)
    M = np.zeros((3, k + 1, k + 1))
    for d in range(min(k, 2) + 1):
        D = V[k - d]
        for _ in range(d):  # d-th derivative: d-th difference of order k - d
            D = -np.diff(np.pad(D, ((0, 0), (1, 1))), axis=1)  # D[r-1] - D[r]
        M[d] = D
    M.flags.writeable = False  # shared by every caller through the cache
    return M


def _basis_rows(x, knots: KnotVector, orders) -> Array:
    """Dense rows of all ``n_b`` basis functions' derivatives of the given
    ``orders`` at ``x``: shape ``(len(orders), len(x), n_b)``, or
    ``(len(orders), n_b)`` for a scalar.

    Each point evaluates only the k + 1 functions non-zero on its knot span
    ``[t_mu, t_mu+1)``, half-open as in the Cox-de Boor recursion (so a
    derivative that jumps at a knot takes its right-hand value).  Points off
    ``[t_1, t_{m_b})`` get zero rows, points in the outer spans the partial
    values of the functions defined there.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    k, t, n_b, orders = knots.k, knots.t, knots.n_b, list(orders)
    if k < max(orders):
        raise ConfigurationError(
            f"order-{max(orders)} derivative needs spline order k >= {max(orders)}, got k={k}"
        )
    mu = np.clip(np.searchsorted(t, xs, side="right") - 1, 0, t.size - 2)
    M = _span_matrices(k)[orders] / knots.s ** np.array(orders, dtype=np.float64)[:, None, None]
    vals = np.vander((xs - t[mu]) / knots.s, k + 1, increasing=True) @ M
    vals[:, (xs < t[0]) | (xs >= t[-1])] = 0.0
    # columns shifted by k, so that B_{mu-k} .. B_mu of every span fit
    width = n_b + 2 * k
    rows = np.zeros((len(orders), xs.size, width))
    rows.reshape(len(orders), -1)[:, (np.arange(xs.size) * width + mu)[:, None]
                                  + np.arange(k + 1)] = vals
    rows = rows[:, :, k : k + n_b]
    return rows[:, 0] if np.ndim(x) == 0 else rows


def eval_basis(x, knots: KnotVector) -> Array:
    """Evaluate all ``n_b`` basis functions of order ``knots.k`` at ``x``.

    ``x`` may be a scalar or 1-D array; the result has shape ``(n_b,)`` or
    ``(len(x), n_b)``.  Within the natural domain the values sum to one.
    """
    return _basis_rows(x, knots, (0,))[0]


def eval_basis_derivatives(x, knots: KnotVector, order: int) -> Array:
    """First or second derivatives of all basis functions at ``x``: on
    uniform knots, the first and second differences of the order k - 1 and
    k - 2 basis over ``s`` and ``s**2``.  Requires ``knots.k >= order``.
    """
    if order not in (1, 2):
        raise ConfigurationError(f"derivative order must be 1 or 2, got {order}")
    return _basis_rows(x, knots, (order,))[0]


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
        b0, b1, b2 = _basis_rows(xc, self.knots, (0, 1, 2))
        outside = (xs < lo) | (xs > hi)
        if np.any(outside):
            # linear extension: b1 already holds the slope rows at the edge
            b0[outside] += (xs - xc)[outside, None] * b1[outside]
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
