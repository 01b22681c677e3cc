"""Layered spline network mapping three strain measures to a scalar energy.

Each edge of the network carries a trainable univariate spline activation.
In constrained mode the activations are convex and non-decreasing, which makes
the scalar output convex and non-decreasing in each input; vanilla mode drops
the constraint and adds a SiLU bias path (ablation only).

All heavy entry points accept batches: ``K`` of shape ``(3,)`` or ``(N, 3)``.
"""
from __future__ import annotations

import io
import math
import numpy as np
import numpy.typing as npt

from .bspline import (design_rows, power_pull, power_values, reparameterize, reparameterize_vjp,
                      uniform_knots)
from .errors import ConfigurationError, EvaluationError
from .records import Records, _short

Array = npt.NDArray[np.float64]

CONSTRAINED = "constrained"
VANILLA = "vanilla"

GRID_INIT_RANGE = (-5.0, 25.0)
GRID_INIT_POINTS = 100
MIN_DOMAIN_WIDTH = 1e-6
INIT_SCALE = 0.1  # fresh control points are uniform in [-INIT_SCALE, INIT_SCALE]

# softplus(w_s) = 1 at this weight, so fresh constrained activations start
# with unit scaling
W_S_UNIT = math.log(math.e - 1.0)


def softplus(x, out=None, work=None):
    """log1p(exp(-|x|)) + max(x, 0): logaddexp(0, x)'s own split, as ufuncs
    numpy runs on SIMD; exp(-|x|) cannot overflow.  The result goes into
    ``out`` and the log1p term into ``work`` when they are given."""
    t = np.abs(x, out=work)
    t = np.log1p(np.exp(np.negative(t, out=work), out=work), out=work)
    return np.add(t, np.maximum(x, 0.0, out=out), out=out)


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def _silu(x):
    s = sigmoid(x)
    return x * s, s * (1.0 + x * (1.0 - s)), s * (1.0 - s) * (2.0 + x * (1.0 - 2.0 * s))


class KANModel:
    """``M`` spline networks of one architecture, dims ``(3, ..., 1)``, with
    their arrays on a leading member axis; one network is ``M = 1``.

    Layer ``r`` is one array ``params[r]`` of shape ``(M, n_out, n_in,
    width)``: per member and edge ``(i, j)`` the ``n_coef`` raw spline
    parameters, then ``w_s``, then ``w_b`` in vanilla mode.  Constrained
    edges compute ``phi(x) = softplus(w_s) * psi(x)`` with a convex
    non-decreasing spline ``psi``; vanilla edges compute ``phi(x) =
    w_b*silu(x) + w_s*psi(x)`` with unconstrained control points.  All edges
    reading input column ``j`` of layer ``r`` share one knot vector:
    ``t[r]`` is ``(M, n_in, m_b)``, or ``(1, n_in, m_b)`` when every member
    has the same knots, so that their design rows are computed once for all.
    The layers' arrays are views of one ``(M, n_edges, width)`` array
    ``raw``, edge by edge in layer order, so that maps acting edge by edge
    run once for all layers; training reads and writes ``raw`` alone.

    The layer sweep runs over every member at once; ``forward``,
    ``forward_with_input_derivatives`` and checkpoints take one network.
    """

    def __init__(self, dims, order, n_coef, mode, raw, t):
        self.dims = self._checked_dims(dims)
        self.order = int(order)
        self.n_coef = int(n_coef)
        self.mode = self._checked_mode(mode)
        self.raw = np.asarray(raw, dtype=np.float64)  # (M, n_edges, width)
        self.params = self._by_layer(self.raw)  # [layer r] -> (M, n_out, n_in, width)
        # [layer r] -> (M or 1, n_in, m_b): one row when every member has it
        self.t = [tr[:1] if np.all(tr == tr[:1]) else tr for tr in t]

    @staticmethod
    def _checked_dims(dims) -> tuple:
        if len(dims) < 2 or dims[0] != 3 or dims[-1] != 1 or min(dims) < 1:
            raise ConfigurationError(f"dims must map 3 inputs to 1 output, got {dims}")
        return tuple(int(d) for d in dims)

    @staticmethod
    def _checked_mode(mode) -> str:
        if mode not in (CONSTRAINED, VANILLA):
            raise ConfigurationError(f"unknown mode {_short(str(mode))!r}")
        return mode

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, dims=(3, 2, 1), order=5, n_coef=17, mode=CONSTRAINED, rng=None):
        """One network with random control points, grid-initialized."""
        rng = np.random.default_rng(rng)
        n_edges = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
        raw = np.full((1, n_edges, n_coef + (2 if mode == VANILLA else 1)), W_S_UNIT)
        for edge in raw[0]:  # edge by edge in layer order, as _by_layer reads them
            edge[:n_coef] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=n_coef)
            if mode == VANILLA:  # w_s, w_b
                edge[n_coef:] = rng.uniform(-0.1, 0.1, size=2)
        if mode == CONSTRAINED:
            # a negative base slope raw[1] would be clamped to 0 with zero
            # gradient, freezing the activation flat
            raw[..., 1] = np.abs(raw[..., 1])
        return cls(dims, order, n_coef, mode, raw, []).grid_initialize()

    @classmethod
    def stack(cls, models) -> "KANModel":
        """``models`` of one architecture as the members of one, in copies."""
        a = models[0]
        spec = (a.dims, a.order, a.n_coef, a.mode)
        if any((m.dims, m.order, m.n_coef, m.mode) != spec for m in models):
            raise ConfigurationError("stacked models must share one architecture")
        t = [np.concatenate([np.broadcast_to(m.t[r], (m.size, *m.t[r].shape[1:]))
                             for m in models]) for r in range(a.n_layers)]
        return cls(*spec, np.concatenate([m.raw for m in models]), t)

    def members(self, rows) -> "KANModel":
        """The members ``rows`` (indices or a mask) as a new model, in copies."""
        return KANModel(self.dims, self.order, self.n_coef, self.mode, self.raw[rows],
                        [t[rows] if len(t) > 1 else t.copy() for t in self.t])

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    @property
    def size(self) -> int:
        return self.raw.shape[0]

    def _by_layer(self, a) -> list:
        """Per layer, the view of ``a`` ``(M, n_edges, ...)`` on the layer's
        edges, ``(M, n_out, n_in, ...)``."""
        views, e = [], 0
        for n_in, n_out in zip(self.dims[:-1], self.dims[1:]):
            edges = a[:, e : e + n_out * n_in]
            views.append(edges.reshape(a.shape[:1] + (n_out, n_in) + a.shape[2:]))
            e += n_out * n_in
        return views

    def _control_points(self) -> list:
        """Per layer, the unscaled control points ``c`` ``(M, n_out, n_in,
        n_coef)`` and the scales ``w`` ``(M, n_out, n_in)`` of its splines."""
        raw, n = self.raw, self.n_coef
        if self.mode == CONSTRAINED:
            c, w = reparameterize(raw[..., :n]), softplus(raw[..., n])
        else:
            c, w = raw[..., :n], raw[..., n]
        return list(zip(self._by_layer(c), self._by_layer(w)))

    def domain(self, r: int, j: int) -> tuple[float, float]:
        """Layer ``r``'s natural domain on input column ``j`` (member 0's)."""
        t, k = self.t[r][0, j], self.order
        return float(t[k]), float(t[-k - 1])

    def _one(self, what: str):
        if self.size != 1:
            raise ConfigurationError(f"{what} takes one network, got {self.size} members")

    # -- grid initialization ----------------------------------------------

    def _knots(self, lo, hi) -> Array:
        """Knots ``(M, n_in, m_b)`` on the natural domains ``[lo, hi]``, ``(M, n_in)``."""
        return np.array([[uniform_knots(a, b, self.n_coef, self.order) for a, b in zip(*row)]
                         for row in zip(lo.tolist(), hi.tolist())])

    def grid_initialize(self) -> "KANModel":
        """Set each spline's natural domain, for every member at once, by
        propagating a dummy input grid layer by layer; domains are frozen
        afterwards."""
        lo, hi = (np.full((1, self.dims[0]), v) for v in GRID_INIT_RANGE)
        self.t = []
        for r, cw in enumerate(self._control_points()):
            self.t.append(self._knots(lo, hi))
            z = np.linspace(lo, hi, GRID_INIT_POINTS, axis=-1)  # (M or 1, n_in, N)
            y = self._layer(r, z, cw, orders=(0,))[0]
            lo, hi = y.min(axis=-1), y.max(axis=-1)
            mid, narrow = 0.5 * (lo + hi), hi - lo < MIN_DOMAIN_WIDTH
            lo = np.where(narrow, mid - 0.5 * MIN_DOMAIN_WIDTH, lo)
            hi = np.where(narrow, mid + 0.5 * MIN_DOMAIN_WIDTH, hi)
        return self

    # -- forward passes ----------------------------------------------------
    #
    # Every per-point array carries the point axis last: values (M, n, N),
    # input Jacobians (M, n, d0, N) and Hessians (M, n, d0, d0, N), so sums
    # over the short axes are vector multiply-adds over the points.

    def _check_input(self, K):
        K = np.asarray(K, dtype=np.float64)
        scalar = K.ndim == 1
        Kb = np.atleast_2d(K)
        if Kb.shape[1] != self.dims[0]:
            raise EvaluationError(f"expected {self.dims[0]} inputs, got shape {K.shape}")
        if not np.all(np.isfinite(Kb)):
            raise EvaluationError("non-finite network input")
        return Kb, scalar

    def _edges(self, r: int, x, cw=None, rows=None, orders=(0, 1, 2)):
        """Every edge of layer ``r`` for every member at the layer's column
        inputs ``x``, ``(M or 1, n_in, N)``, given the layer's
        :meth:`_control_points` ``cw`` (by default computed here).  Returns
        ``(phi, basis)``: ``phi`` and its derivatives of the given ``orders``,
        ``(len(orders), M, n_out, n_in, N)``, and the basis ``(spans, rows)``
        that :meth:`_pull` reads.  The scale ``w_s`` is folded into the
        control points: ``phi = b @ (w * c)``.

        Given layer ``r``'s design rows with the point axis last, ``rows``
        ``(len(orders), M or 1, n_in, n_b, N)``, each order is one product
        and ``spans`` is None.  Otherwise each edge's spline is summed in
        per-span power form (:func:`bspline.power_values`): one coefficient
        table per edge and order, from which each point takes its span's
        k + 1 coefficients, and ``spans`` says where the points fell.
        """
        p, n = self.params[r], self.n_coef
        c, w = self._control_points()[r] if cw is None else cw
        if rows is not None:  # per member and column j: (n_out, n_b) @ (n_b, N)
            spans = None
            phi = ((w[..., None] * c).transpose(0, 2, 1, 3) @ rows).transpose(0, 1, 3, 2, 4)
        else:  # each edge (i, j) reads column j's inputs and knots
            phi, spans = power_values(x[:, None], self.t[r][:, None], self.order,
                                      w[..., None] * c, orders)
        if self.mode == VANILLA:
            w_b = p[..., n + 1, None]
            phi += w_b * np.stack(_silu(x))[list(orders), :, None]
        return phi, (spans, rows)

    def _pull(self, basis, mb, zb=None) -> Array:
        """The gradient of ``sum(mb * phi' + zb * phi)`` over the points with
        respect to the scaled control points ``w * c``, ``(M, n_out, n_in,
        n_b)``, for a layer's :meth:`_edges` ``basis``; ``mb`` is ``(M,
        n_out, n_in, N)`` and ``zb`` None or ``(M, n_out, 1, N)``.  Dense
        rows, orders (0, 1), give it as one product per order; otherwise it
        is taken from each window's power sums (:func:`bspline.power_pull`)."""
        spans, rows = basis
        if spans is not None:
            return power_pull(spans, self.order, mb, zb)
        # per member and column j: (n_out, N) @ (N, n_b)
        cbar = mb.transpose(0, 2, 1, 3) @ rows[1].swapaxes(-1, -2)
        if zb is not None:
            cbar += zb.transpose(0, 2, 1, 3) @ rows[0].swapaxes(-1, -2)
        return cbar.transpose(0, 2, 1, 3)

    def _layer(self, r, z, cw, A=None, H=None, rows=None, orders=(0, 1, 2)):
        """Outputs ``y`` (M, n_out, N) of layer ``r`` with the
        :meth:`_control_points` ``cw`` at inputs ``z``
        (M or 1, n_in, N), and, given the inputs' Jacobian ``A``
        (M or 1, n_in, d0, N) and Hessian ``H`` (M or 1, n_in, d0, d0, N)
        with respect to the network input, the outputs' ones.  Returns
        ``(y, Ay, Hy, edges)``, with None for what was not asked or needs an
        order not in ``orders``, and the layer's :meth:`_edges` with ``phi``
        as a dict by order."""
        phi, basis = self._edges(r, z, cw, rows, orders)
        phi = dict(zip(orders, phi))
        y = phi[0].sum(axis=2) if 0 in phi else None
        Ay = None if A is None else (phi[1][:, :, :, None] * A[:, None]).sum(axis=2)
        Hy = None
        if H is not None:
            AA = A[:, :, :, None] * A[:, :, None]
            Hy = (phi[2][:, :, :, None, None] * AA[:, None]
                  + phi[1][:, :, :, None, None] * H[:, None]).sum(axis=2)
        return y, Ay, Hy, (phi, basis)

    def forward(self, K):
        self._one("forward")
        z, scalar = self._check_input(K)
        z = z.T[None]
        for r, cw in enumerate(self._control_points()):
            z = self._layer(r, z, cw, orders=(0,))[0]
        out = z[0, 0]
        return float(out[0]) if scalar else out

    def forward_with_input_derivatives(self, K):
        """Output plus exact gradient and Hessian with respect to the inputs."""
        self._one("forward_with_input_derivatives")
        if self.order < 3:
            raise ConfigurationError(
                f"Hessian needs spline order k >= 3, got k={self.order}"
            )
        Kb, scalar = self._check_input(K)
        N, d0 = Kb.shape
        z = Kb.T[None]
        A = np.broadcast_to(np.eye(d0)[..., None], (1, d0, d0, N))
        H = np.zeros((1, d0, d0, d0, N))
        for r, cw in enumerate(self._control_points()):
            z, A, H, _ = self._layer(r, z, cw, A, H)
        W, g, Hess = z[0, 0], A[0, 0].T, H[0, 0].transpose(2, 0, 1)
        if scalar:
            return float(W[0]), g[0], Hess[0]
        return W, g, Hess

    # -- reverse accumulation ---------------------------------------------

    def layer0_rows(self, K) -> Array:
        """Layer 0's order-(0, 1) design rows at the inputs ``K`` (N, d0),
        with the point axis last: ``(2, M or 1, d0, n_b, N)``."""
        rows = design_rows(K.T[None], self.t[0], self.order, (0, 1))
        return np.ascontiguousarray(rows.swapaxes(-1, -2))

    def _forward_cache(self, Kb, rows0=None):
        """Forward pass over every member at the shared inputs ``Kb``,
        storing what a reverse pass needs; ``rows0`` are
        :meth:`layer0_rows` at ``Kb``, if computed.  Layer 0 reads its
        design rows, the layers above sum their splines in power form.  Layers
        build only the orders read: values below the output, slopes, and
        curvatures above layer 0, where the reverse sweep stops."""
        z0 = Kb.T[None]
        if rows0 is None:
            rows0 = self.layer0_rows(Kb)
        cws = self._control_points()
        zs, As, edges = [z0], [None], []  # layer 0's inputs are K: A is the identity
        for r, cw in enumerate(cws):
            if r == 0:
                y, _, _, e = self._layer(0, z0, cw, rows=rows0, orders=(0, 1))
                Ay = e[0][1]
            else:
                y, Ay, _, e = self._layer(r, zs[-1], cw, As[-1],
                                          orders=(1, 2) if r == self.n_layers - 1 else (0, 1, 2))
            zs.append(y)
            As.append(Ay)
            edges.append(e)
        return {"z": zs, "A": As, "edges": edges, "cw": cws}

    def backward_batch(self, cache, seed_g) -> Array:
        """Per member ``m``, the gradient of ``sum_n seed_g[m, :, n] .
        grad_K W(K_n)`` with respect to its parameters ``raw[m]``: ``raw``'s
        shape ``(M, n_edges, width)``.

        ``cache`` is :meth:`_forward_cache` at the inputs ``K`` and ``seed_g``
        is (M, d0, N): force-residual training seeds the energy's input
        gradient, since the stress depends on it.
        """
        n = self.n_coef
        zbar, Abar = None, np.asarray(seed_g)[:, None]
        grad = np.empty_like(self.raw)
        cbars = np.empty(self.raw.shape[:-1] + (n,))  # like c, for every layer
        layers = zip(cache["z"], cache["A"], cache["edges"], cache["cw"],
                     self._by_layer(grad), self._by_layer(cbars))
        for r, (z, A, (phi, basis), (c, _), g, cbar) in reversed(list(enumerate(layers))):
            # per edge (i, j): the seeds of phi (None while 0) and of its slope
            # sum_k Abar[i, k] A[j, k], (M, n_out, n_in, N); layer 0's A is I
            zb = None if zbar is None else zbar[:, :, None]
            mb = Abar if r == 0 else (Abar[:, :, None] * A[:, None]).sum(axis=3)
            cbar[...] = self._pull(basis, mb, zb)
            g[..., n] = np.einsum("mijb,mijb->mij", cbar, c)  # phi is linear in w
            if self.mode == VANILLA:
                sv, sd, _ = (v[:, None] for v in _silu(z))
                gb = (sd * mb).sum(axis=-1) + (0.0 if zb is None else (sv * zb).sum(axis=-1))
                g[..., n + 1] = gb
            if r > 0:
                zbar_j = mb * phi[2] if zb is None else zb * phi[1] + mb * phi[2]
                zbar = zbar_j.sum(axis=1)
                Abar = (phi[1][:, :, :, None] * Abar[:, :, None]).sum(axis=1)
        raw = self.raw
        if self.mode == CONSTRAINED:
            grad[..., :n] = reparameterize_vjp(raw[..., :n], softplus(raw[..., n, None]) * cbars)
            grad[..., n] *= sigmoid(raw[..., n])
        else:
            grad[..., :n] = raw[..., n, None] * cbars
        return grad

    # -- checkpointing -----------------------------------------------------

    def save(self, path):
        text = self.dumps()
        with open(path, "w") as fh:
            fh.write(text)

    def dumps(self) -> str:
        self._one("a checkpoint")
        buf = io.StringIO()
        buf.write("convexkan-checkpoint v1\n")
        buf.write(f"mode {self.mode}\n")
        buf.write("dims " + " ".join(str(d) for d in self.dims) + "\n")
        buf.write(f"order {self.order}\n")
        buf.write(f"n_coef {self.n_coef}\n")
        n = self.n_coef
        for r, p in enumerate(self.params):
            for i, j in np.ndindex(p.shape[1:3]):
                lo, hi = self.domain(r, j)
                w_b = p[0, i, j, n + 1] if self.mode == VANILLA else 0.0
                buf.write(f"activation {r} {i} {j}\n")
                buf.write(f"domain {lo:.17g} {hi:.17g}\n")
                buf.write(f"w_s {p[0, i, j, n]:.17g}\n")
                buf.write(f"w_b {w_b:.17g}\n")
                buf.write("raw " + " ".join(f"{v:.17g}" for v in p[0, i, j, :n]) + "\n")
        buf.write("end\n")
        return buf.getvalue()

    @classmethod
    def load(cls, path) -> "KANModel":
        with open(path) as fh:
            return cls.loads(fh.read())

    @classmethod
    def loads(cls, text: str) -> "KANModel":
        with Records(text, "checkpoint") as records:
            records.take("convexkan-checkpoint v1")
            mode = cls._checked_mode(*records.take("mode %s"))
            dims = cls._checked_dims(records.take("dims", None, "%d"))
            (order,), (n_coef,) = records.take("order %d"), records.take("n_coef %d")
            width = n_coef + (2 if mode == VANILLA else 1)
            # arrays are built from the records read, never sized by the header
            raw, knots = [], []  # [edge] -> its record; [r][j] -> the knots of input column j
            for r, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
                domains, t = {}, []  # domains: [j] -> (lo, hi)
                for i, j in ((i, j) for i in range(b) for j in range(a)):  # np.ndindex lists them
                    name = f"activation {r},{i},{j}"
                    records.context = f"{name}: "
                    index = records.take("activation", 3, "%s")
                    if index != f"{r} {i} {j}".split():
                        raise records.error(f"expected {name}, got activation {' '.join(index)}")
                    lo, hi = records.take("domain %f %f")
                    at = records.pos - 1
                    # all activations reading one input column share its knots
                    first = domains.setdefault(j, (lo, hi))
                    if first != (lo, hi):
                        raise records.error(f"domain [{lo}, {hi}] differs from "
                                            f"{list(first)} of activation {r},0,{j}")
                    (w_s,), (w_b,) = records.take("w_s %f"), records.take("w_b %f")
                    if mode == CONSTRAINED and w_b != 0.0:
                        raise records.error(f"constrained activations have no w_b, got {w_b}")
                    raw.append((records.take("raw", n_coef) + [w_s, w_b])[:width])
                    if i == 0:  # the column's knots, once the raw record has bounded n_coef
                        try:
                            t.append(uniform_knots(lo, hi, n_coef, order))
                        except ConfigurationError as exc:
                            raise records.error(str(exc), at) from None
                knots.append(np.array(t)[None])
            records.context = ""
            records.take("end")
            return cls(dims, order, n_coef, mode, np.array(raw)[None], knots)
