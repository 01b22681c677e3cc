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


def uniform_knots(lo: float, hi: float, n_coef: int, k: int) -> Array:
    """The ``n_coef + k + 1`` uniformly spaced knots ``t`` of ``n_coef`` basis
    functions of order ``k`` whose natural domain (where the basis forms a
    partition of unity) is exactly ``[lo, hi]``: ``[t_{k+1}, t_{m_b-k}]`` in
    1-based terms, i.e. ``t[k] .. t[-k-1]``."""
    if hi <= lo:
        raise ConfigurationError(f"empty domain [{lo}, {hi}]")
    if n_coef <= k:
        raise ConfigurationError(f"need n_coef > k, got n_coef={n_coef}, k={k}")
    n_span = n_coef - k  # intervals inside the natural domain
    s = (hi - lo) / n_span
    if not (math.isfinite(lo - k * s) and math.isfinite(lo + n_coef * s)):  # first, last
        raise ConfigurationError(f"knots of domain [{lo}, {hi}] are not finite")
    if k < 0:
        raise ConfigurationError(f"spline order must be non-negative, got {k}")
    t = lo + (np.arange(n_coef + k + 1) - k) * s
    # a domain narrow against its distance from 0 rounds its knots together
    steps = np.diff(t)
    if steps[0] <= 0:
        raise ConfigurationError("knots must be strictly increasing")
    if np.any(np.abs(steps - steps[0]) > _UNIFORMITY_RTOL * max(abs(steps[0]), 1.0)):
        raise ConfigurationError("knots are not uniformly spaced")
    return t


@functools.lru_cache(maxsize=None)
def _span_matrices(k: int) -> Array:
    """Matrix form (Qin 2000, *The Visual Computer* 16:177) of the k + 1
    uniform B-splines non-zero on a knot span: ``sum_p M[d, r, p] u**p`` is
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
        M[d] = D.T
    M.flags.writeable = False  # shared by every caller through the cache
    return M


def _local_values(x, t, k: int, orders):
    """The k + 1 B-splines non-zero on each point's knot span ``[t_mu,
    t_mu+1)``, half-open as in the Cox-de Boor recursion (so a derivative
    that jumps at a knot takes its right-hand value): their derivatives of
    the given ``orders`` at ``x`` on the uniform knots ``t``.

    ``x`` is ``(..., N)`` and ``t`` is ``(..., m_b)``; their leading axes
    broadcast, so one call evaluates many point sets, each on its own knots.
    Returns the spans ``mu`` ``(..., N)`` and the values ``(len(orders),
    ..., k + 1, N)``, row ``r`` for ``B_{mu-k+r}``, each a polynomial in the
    point's offset into its span summed by Horner's rule in elementwise
    operations, not by BLAS: a point gets the same bits alone or among any
    others.  Points off ``[t_1, t_{m_b})`` get zeros, points in the outer
    spans the partial values of the functions defined there.
    """
    x, t, orders = np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64), list(orders)
    if k < max(orders):
        raise ConfigurationError(
            f"order-{max(orders)} derivative needs spline order k >= {max(orders)}, got k={k}"
        )
    m_b = t.shape[-1]
    t = t.reshape((1,) * (x.ndim - t.ndim) + t.shape)
    # the span from the spacing, settled against the knots themselves: the
    # estimate is off by at most one
    flat = t.ravel()
    first = np.arange(0, flat.size, m_b).reshape(t.shape[:-1] + (1,))
    s = t[..., 1:2] - t[..., :1]
    mu = np.floor((x - t[..., :1]) / s)  # of the broadcast shape
    shape = mu.shape
    mu = np.minimum(np.maximum(mu, 0, out=mu), m_b - 2, out=mu).astype(np.intp)
    at = first + mu
    mu += flat[at + 1] <= x
    mu -= flat[at] > x
    np.minimum(np.maximum(mu, 0, out=mu), m_b - 2, out=mu)  # x past the first or last knot
    u = np.repeat(((x - flat[first + mu]) / s)[..., None, :], k + 1, axis=-2)  # (..., k + 1, N)
    # each order's matrices scaled by s**d, (len(orders), ..., k + 1, k + 1)
    lead = (1,) * (len(shape) - 1)
    d = np.array(orders, dtype=np.float64).reshape((-1,) + lead + (1, 1))
    M = _span_matrices(k)[orders].reshape(d.shape[:-2] + (k + 1, k + 1)) / s[..., None] ** d
    vals = np.empty(M.shape[:1] + u.shape)
    vals[...] = M[..., k, None]
    for p in range(k - 1, -1, -1):
        vals *= u
        vals += M[..., p, None]
    outside = (x < t[..., :1]) | (x >= t[..., -1:])
    if outside.any():
        np.copyto(vals, 0.0, where=outside[..., None, :])
    return mu, vals


def _scatter(mu, vals, k: int, n_b: int) -> Array:
    """Dense rows ``(len(vals), ..., N, n_b)`` of :func:`_local_values`, through
    a buffer only as wide as ``B_1 .. B_{n_b}`` and the windows touched."""
    lo = min(0, int(mu.min(initial=k)) - k)
    width = max(n_b, int(mu.max(initial=0)) + 1) - lo
    rows = np.zeros((len(vals), mu.size * width))
    at = ((np.arange(mu.size) * width + mu.ravel() - k - lo)[:, None] + np.arange(k + 1)).ravel()
    for order_rows, order_vals in zip(rows, vals):
        order_rows[at] = order_vals.swapaxes(-1, -2).ravel()
    return rows.reshape((len(vals),) + mu.shape + (width,))[..., -lo : n_b - lo]


def local_rows(x, t, k: int, orders=(0, 1, 2)):
    """The non-zero entries of :func:`design_rows`: spans ``mu`` ``(..., N)``
    and values ``(len(orders), ..., k + 1, N)`` such that the ``d``-th
    derivative at ``x`` of the spline with control points ``c`` is ``sum_r
    vals[d, ..., r, n] * c[mu[..., n] - k + r]``, with the linear extension
    beyond the natural domain baked in.  A point on the natural domain's right
    end reads the column ``c[n_b]`` past the last control point; take it as 0.
    """
    # in C order, so that the values and every index built from them are too
    x = np.ascontiguousarray(x, dtype=np.float64)
    t, orders = np.asarray(t, dtype=np.float64), list(orders)
    lo, hi = t[..., k : k + 1], t[..., t.shape[-1] - k - 1 : t.shape[-1] - k]
    xc = np.minimum(np.maximum(x, lo), hi)
    past = (x != xc)[..., None, :]
    extend = bool(past.any())
    # past the edge the value continues with the edge's slope
    need = orders + [1] * (extend and 0 in orders and 1 not in orders)
    mu, vals = _local_values(xc, t, k, need)
    if extend and 0 in orders:
        v0 = vals[need.index(0)]
        np.add(v0, (x - xc)[..., None, :] * vals[need.index(1)], out=v0, where=past)
    if extend and 2 in orders:
        np.copyto(vals[need.index(2)], 0.0, where=past)
    return mu, vals[: len(orders)]


def design_rows(x, t, k: int, orders=(0, 1, 2)) -> Array:
    """Rows ``b_d`` for each derivative order ``d`` in ``orders``, stacked on
    a leading axis, such that the ``d``-th derivative at ``x`` of the spline
    with control points ``c`` on the uniform knots ``t`` of order ``k`` is
    ``b_d @ c``, with the linear extension beyond the natural domain baked in.

    Shapes as in :func:`_local_values`: ``x`` is ``(..., N)``, ``t`` is
    ``(..., m_b)`` and the rows are ``(len(orders), ..., N, n_b)``.
    """
    return _scatter(*local_rows(x, t, k, orders), k, np.shape(t)[-1] - k - 1)


def reparameterize(raw) -> Array:
    """Map unconstrained parameters to convex non-decreasing control points.

    Acts along the last axis, so ``raw`` may be one parameter vector or a
    stack of them.  The first entry passes through; the rest are clamped at
    zero from below, then two cumulative sums turn non-negative increments
    into control points whose consecutive differences are non-negative and
    non-decreasing.  Each row is first rounded to multiples of a power of two
    ``q = 2**(e - 52)``, where ``2**e`` exceeds the bound on its partial sums,
    ``|h_0| + sum_i (n - i) h_i``: they are then integer multiples of q below
    ``2**53 q`` and add exactly (Higham 2002, ch. 2), so the constraint holds
    in floating point, and an entry moves by at most ``(1 + n (n - 1) / 2) q / 2``.
    """
    p = np.asarray(raw, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] < 3:
        raise ConfigurationError(f"need at least 3 parameters, got shape {p.shape}")
    h = np.maximum(p, 0.0)
    h[..., 0] = p[..., 0]
    # summed along the last axis, not by BLAS: a row gets one grid alone or in a stack
    weights = np.arange(h.shape[-1] - 1, 0, -1.0)  # the control points each h_i enters
    bound = np.abs(h[..., :1]) + np.sum(h[..., 1:] * weights, axis=-1, keepdims=True)
    q = np.ldexp(1.0, np.frexp(np.maximum(bound, np.finfo(np.float64).tiny))[1] - 52)
    h = np.rint(h / q) * q
    h[..., 1:] = np.cumsum(h[..., 1:], axis=-1)  # the slopes
    return np.cumsum(h, axis=-1)


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
    """A spline curve ``psi(x) = sum_i c_i B_i(x)`` on the uniform knots ``t``
    of order ``k``, with linear extrapolation beyond the natural domain:
    ``design_rows(x) @ c`` for control points ``c``, such as ``raw`` itself
    or ``reparameterize(raw)``."""

    t: Array
    k: int

    def design_rows(self, x) -> tuple[Array, Array, Array]:
        """Rows ``(b0, b1, b2)`` such that value/slope/curvature at ``x`` are
        ``b0 @ c``, ``b1 @ c``, ``b2 @ c``, with the linear extension baked in
        for points outside the natural domain."""
        b = design_rows(np.atleast_1d(x), self.t, self.k)
        return tuple(b[:, 0] if np.ndim(x) == 0 else b)
