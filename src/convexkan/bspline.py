"""Uniform B-splines with exact derivatives, a monotone-convex control-point
reparameterization, and linear extrapolation beyond the natural domain.

Knot and basis indices follow the usual 1-based convention in docstrings
(``t_1 .. t_{m_b}``, basis functions ``B_1 .. B_{n_b}``); arrays are 0-based.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _checked_orders(orders, k: int, extend: bool) -> list:
    """The derivative orders to evaluate for ``orders``: order 1 joins order
    0 when some point lies past the natural domain, where the value
    continues with the edge's slope."""
    orders = list(orders)
    if k < max(orders):
        raise ConfigurationError(
            f"order-{max(orders)} derivative needs spline order k >= {max(orders)}, got k={k}"
        )
    return orders + [1] * (extend and 0 in orders and 1 not in orders)


def _clamped(x, t, k: int):
    """``x`` clamped onto the natural domain of the knots ``t`` and the
    distance ``x - x_c`` past it, None when no point is past."""
    lo, hi = t[..., k : k + 1], t[..., t.shape[-1] - k - 1 : t.shape[-1] - k]
    xc = np.minimum(np.maximum(x, lo), hi)
    dx = x - xc
    return xc, (dx if dx.any() else None)


def _extend(vals, orders, dx) -> None:
    """Continue the values ``vals`` by order past the natural domain, in
    place: ``phi += dx * phi'`` and ``phi'' = 0`` where ``dx`` is not 0."""
    if dx is None:
        return
    past = dx != 0
    if 0 in orders:
        v0 = vals[orders.index(0)]
        np.add(v0, dx * vals[orders.index(1)], out=v0, where=past)
    if 2 in orders:
        np.copyto(vals[orders.index(2)], 0.0, where=past)


def _spans(x, t):
    """Each point's knot span ``[t_mu, t_mu+1)``, half-open as in the
    Cox-de Boor recursion (so a derivative that jumps at a knot takes its
    right-hand value), on the uniform knots ``t``.

    ``x`` is ``(..., N)`` and ``t`` is ``(..., m_b)``; their leading axes
    broadcast.  Returns ``mu`` ``(..., N)``, clamped onto ``[0, m_b - 2]``
    for points off the knots, the offsets ``u = (x - t_mu) / s`` into the
    spans and the spacings ``s`` ``(..., 1)``.
    """
    m_b = t.shape[-1]
    t = t.reshape((1,) * (x.ndim - t.ndim) + t.shape)
    # the span from the spacing, settled against the knots themselves: the
    # estimate is off by at most one
    flat = t.ravel()
    first = np.arange(0, flat.size, m_b).reshape(t.shape[:-1] + (1,))
    s = t[..., 1:2] - t[..., :1]
    mu = np.floor((x - t[..., :1]) / s)  # of the broadcast shape
    mu = np.minimum(np.maximum(mu, 0, out=mu), m_b - 2, out=mu).astype(np.intp)
    at = first + mu
    mu += flat[at + 1] <= x
    mu -= flat[at] > x
    np.minimum(np.maximum(mu, 0, out=mu), m_b - 2, out=mu)  # x past the first or last knot
    return mu, (x - flat[first + mu]) / s, s


def design_rows(x, t, k: int, orders=(0, 1, 2)) -> Array:
    """Rows ``b_d`` for each derivative order ``d`` in ``orders``, stacked on
    a leading axis, such that the ``d``-th derivative at ``x`` of the spline
    with control points ``c`` on the uniform knots ``t`` of order ``k`` is
    ``b_d @ c``, with the linear extension beyond the natural domain baked in.

    ``x`` is ``(..., N)`` and ``t`` is ``(..., m_b)``; their leading axes
    broadcast, so one call evaluates many point sets, each on its own knots.
    The rows are ``(len(orders), ..., N, n_b)``: :func:`power_values` of the
    unit control points, one spline per basis function.
    """
    x, t = np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64)
    n_b = t.shape[-1] - k - 1
    lead = np.broadcast_shapes(x.shape[:-1], t.shape[:-1])
    c = np.broadcast_to(np.eye(n_b), lead + (n_b, n_b))
    return power_values(x[..., None, :], t[..., None, :], k, c, orders)[0].swapaxes(-1, -2)


class Spans(NamedTuple):
    """Where :func:`power_values` found its points, for :func:`power_pull`:
    each point's window among all splines' windows ``at``, its offset ``u``
    into its span, the spacings ``s``, the distances ``dx`` past the natural
    domain (None when no point is past), and the control points' shape."""
    at: npt.NDArray[np.intp]
    u: Array
    s: Array
    dx: Array | None
    shape: tuple


def power_values(x, t, k: int, c, orders=(0, 1, 2)):
    """The derivatives of the given ``orders`` at ``x`` of the splines with
    control points ``c`` on the uniform knots ``t``, with the linear
    extension beyond the natural domain, in per-span power form.

    ``x`` is ``(..., N)``, ``t`` is ``(..., m_b)`` and ``c`` is ``(...,
    n_b)``; their leading axes broadcast, and ``c``'s are the full ones.  On
    the span ``[t_mu, t_mu+1)`` (see :func:`_spans`) the ``d``-th derivative
    is a polynomial of degree ``k - d`` in ``u = (x - t_mu) / s`` whose
    coefficients are the window ``c[mu-k .. mu]`` times the span matrix
    (de Boor's ppform): one table per spline and order, from the parameters
    alone.  Each point takes its window's row of the table and sums it by
    Horner's rule in elementwise operations, so a point gets the same bits
    alone or among any others.  A point on the natural domain's right end
    reads a column ``c[n_b]`` past the last control point, taken as 0.

    Returns the values ``(len(orders), ..., N)`` and the :class:`Spans`
    that :func:`power_pull` reads.
    """
    x, t, c = (np.asarray(a, dtype=np.float64) for a in (x, t, c))
    xc, dx = _clamped(x, t, k)
    need = _checked_orders(orders, k, dx is not None)
    mu, u, s = _spans(xc, t)
    n_win = c.shape[-1] + 1 - k  # the windows of k + 1 control points, and the padding
    # each spline's table (len(need), k + 1, n_splines * n_win), powers first
    cp = np.concatenate([c, np.zeros(c.shape[:-1] + (1,))], axis=-1)
    windows = cp[..., np.arange(n_win)[:, None] + np.arange(k + 1)]  # (..., n_win, k + 1)
    lead = (1,) * (c.ndim - 1)
    d = np.array(need, dtype=np.float64).reshape((-1,) + lead + (1, 1))
    M = _span_matrices(k)[need].reshape(d.shape[:-2] + (k + 1, k + 1))
    table = windows @ M / s[..., None] ** d
    table = np.moveaxis(table, -1, 1).reshape(len(need), k + 1, -1)
    first = np.arange(0, table.shape[-1], n_win).reshape(c.shape[:-1] + (1,))
    at = first + (mu - k)
    vals = np.empty((len(need),) + at.shape)
    for v, order_table, order in zip(vals, table, need):
        np.take(order_table[k - order], at, out=v)  # one power at a time
        for p in range(k - order - 1, -1, -1):
            v *= u
            v += np.take(order_table[p], at)
    _extend(vals, need, dx)
    return vals[: len(orders)], Spans(at, u, s, dx, c.shape)


def power_pull(spans: Spans, k: int, mb, zb=None) -> Array:
    """The gradient of ``sum(mb * phi' + zb * phi)`` over the points with
    respect to the control points ``c`` of :func:`power_values`, in ``c``'s
    shape; ``mb`` and ``zb`` (None for 0) broadcast against the values.

    Past the natural domain ``phi = phi(x_c) + dx * phi'(x_c)``, so the
    slope's seed is ``mb + zb * dx`` there.  Each order's seeds are summed
    into each window's power sums ``S[q] = sum seed * u**q``, one bincount
    per power, and ``S @ M[d]^T / s**d`` is the gradient with respect to
    the window's k + 1 control points, added onto them window by window.
    """
    at, u, s, dx, shape = spans
    n_b, n_win = shape[-1], shape[-1] + 1 - k
    size = math.prod(shape[:-1]) * n_win
    # the slope's seeds, then the value's; the slope has no power k
    seeds = np.empty((1 if zb is None else 2,) + at.shape)
    seeds[0] = mb if zb is None or dx is None else mb + zb * dx
    if zb is not None:
        seeds[1] = zb
    n_q = k + len(seeds) - 1
    bins = (at + np.arange(0, len(seeds) * size, size).reshape((-1,) + (1,) * at.ndim)).ravel()
    S = np.empty((n_q, len(seeds) * size))
    for q in range(n_q):
        S[q] = np.bincount(bins, seeds.ravel(), len(S[q]))
        if q + 1 < n_q:
            seeds *= u
    # per order d = 1, 0: (..., n_win, k + 1), the window's control points last
    S = np.moveaxis(S.reshape((n_q, len(seeds)) + shape[:-1] + (n_win,)), 0, -1)
    M = _span_matrices(k)
    win = S[0] @ M[1, :, :n_q].T / s[..., None]
    if zb is not None:
        win += S[1] @ M[0].T
    cbar = np.zeros(shape[:-1] + (n_b + 1,))
    for r in range(k + 1):
        cbar[..., r : r + n_win] += win[..., r]
    return cbar[..., :n_b]


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
