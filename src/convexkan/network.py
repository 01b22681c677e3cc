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

from .bspline import KnotVector, design_rows, reparameterize, reparameterize_vjp
from .errors import ConfigurationError, DataError, EvaluationError

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
    A member's parameter vector is its layers' arrays flattened in order.

    The layer sweep runs over every member at once; ``forward``,
    ``forward_with_input_derivatives`` and checkpoints take one network.
    """

    def __init__(self, dims, order, n_coef, mode, params, t):
        if dims[0] != 3 or dims[-1] != 1:
            raise ConfigurationError(f"dims must map 3 inputs to 1 output, got {dims}")
        if mode not in (CONSTRAINED, VANILLA):
            raise ConfigurationError(f"unknown mode {mode!r}")
        self.dims = tuple(int(d) for d in dims)
        self.order = int(order)
        self.n_coef = int(n_coef)
        self.mode = mode
        self.params = params  # [layer r] -> (M, n_out, n_in, width)
        # [layer r] -> (M or 1, n_in, m_b): one row when every member has it
        self.t = [tr[:1] if np.all(tr == tr[:1]) else tr for tr in t]

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, dims=(3, 2, 1), order=5, n_coef=17, mode=CONSTRAINED, rng=None):
        """One network with random control points, grid-initialized."""
        rng = np.random.default_rng(rng)
        params = []
        for n_in, n_out in zip(dims[:-1], dims[1:]):
            p = np.full((1, n_out, n_in, n_coef + (2 if mode == VANILLA else 1)), W_S_UNIT)
            for i, j in np.ndindex(n_out, n_in):
                p[0, i, j, :n_coef] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=n_coef)
                if mode == VANILLA:  # w_s, w_b
                    p[0, i, j, n_coef:] = rng.uniform(-0.1, 0.1, size=2)
            if mode == CONSTRAINED:
                # a negative base slope raw[1] would be clamped to 0 with zero
                # gradient, freezing the activation flat
                p[..., 1] = np.abs(p[..., 1])
            params.append(p)
        return cls(dims, order, n_coef, mode, params, []).grid_initialize()

    @classmethod
    def stack(cls, models) -> "KANModel":
        """``models`` of one architecture as the members of one, in copies."""
        a = models[0]
        spec = (a.dims, a.order, a.n_coef, a.mode)
        if any((m.dims, m.order, m.n_coef, m.mode) != spec for m in models):
            raise ConfigurationError("stacked models must share one architecture")
        params = [np.concatenate(layer) for layer in zip(*(m.params for m in models))]
        t = [np.concatenate([np.broadcast_to(m.t[r], (m.size, *m.t[r].shape[1:]))
                             for m in models]) for r in range(a.n_layers)]
        return cls(*spec, params, t)

    def members(self, rows) -> "KANModel":
        """The members ``rows`` (indices or a mask) as a new model, in copies."""
        return KANModel(self.dims, self.order, self.n_coef, self.mode,
                        [p[rows] for p in self.params],
                        [t[rows] if len(t) > 1 else t.copy() for t in self.t])

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    @property
    def size(self) -> int:
        return self.params[0].shape[0]

    def parameter_vectors(self) -> Array:
        """One parameter vector per member, ``(M, n_parameters)``."""
        return np.concatenate([p.reshape(self.size, -1) for p in self.params], axis=1)

    def set_parameter_vectors(self, V: Array):
        """Write ``(M, n_parameters)`` vectors into the members in place."""
        ends = np.cumsum([p[0].size for p in self.params])
        for p, v in zip(self.params, np.split(V, ends[:-1], axis=1)):
            p[...] = v.reshape(p.shape)

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
        return np.array([[KnotVector.from_domain(a, b, self.n_coef, self.order).t
                          for a, b in zip(*row)] for row in zip(lo.tolist(), hi.tolist())])

    def grid_initialize(self) -> "KANModel":
        """Set each spline's natural domain, for every member at once, by
        propagating a dummy input grid layer by layer; domains are frozen
        afterwards."""
        lo, hi = (np.full((1, self.dims[0]), v) for v in GRID_INIT_RANGE)
        self.t = []
        for r in range(self.n_layers):
            self.t.append(self._knots(lo, hi))
            z = np.linspace(lo, hi, GRID_INIT_POINTS, axis=1)  # (M or 1, N, n_in)
            y = self._layer(r, z, orders=(0,))[0]
            lo, hi = y.min(axis=1), y.max(axis=1)
            mid, narrow = 0.5 * (lo + hi), hi - lo < MIN_DOMAIN_WIDTH
            lo = np.where(narrow, mid - 0.5 * MIN_DOMAIN_WIDTH, lo)
            hi = np.where(narrow, mid + 0.5 * MIN_DOMAIN_WIDTH, hi)
        return self

    # -- forward passes ----------------------------------------------------

    def _check_input(self, K):
        K = np.asarray(K, dtype=np.float64)
        scalar = K.ndim == 1
        Kb = np.atleast_2d(K)
        if Kb.shape[1] != self.dims[0]:
            raise EvaluationError(f"expected {self.dims[0]} inputs, got shape {K.shape}")
        if not np.all(np.isfinite(Kb)):
            raise EvaluationError("non-finite network input")
        return Kb, scalar

    def _edges(self, r: int, x, rows=None, orders=(0, 1, 2)):
        """Every edge of layer ``r`` for every member at the layer's column
        inputs ``x``, ``(M or 1, n_in, N)``.  Returns ``(phi, c, rows)``:
        ``phi`` and its derivatives of the given ``orders``, ``(len(orders),
        M, n_in, N, n_out)``, the unscaled control points ``c``, ``(M, n_out,
        n_in, n_coef)``, and the design rows ``(len(orders), M or 1, n_in, N,
        n_b)``, which may be passed in if already computed.  The scale
        ``w_s`` is folded into the control points: ``phi = rows @ (w * c)``."""
        p, n = self.params[r], self.n_coef
        x = np.ascontiguousarray(x)
        if rows is None:
            rows = design_rows(x, self.t[r], self.order, orders)
        c = reparameterize(p[..., :n]) if self.mode == CONSTRAINED else p[..., :n]
        w = softplus(p[..., n]) if self.mode == CONSTRAINED else p[..., n]
        phi = rows @ (w[..., None] * c).transpose(0, 2, 3, 1)
        if self.mode == VANILLA:
            w_b = p[..., n + 1].transpose(0, 2, 1)[:, :, None, :]
            phi += w_b * np.stack(_silu(x))[list(orders), ..., None]
        return phi, c, rows

    def _layer(self, r, z, A=None, H=None, rows=None, orders=(0, 1, 2)):
        """Outputs ``y`` (M, N, n_out) of layer ``r`` at inputs ``z``
        (M or 1, N, n_in), and, given the inputs' Jacobian ``A``
        (M or 1, N, n_in, d0) and Hessian ``H`` (M, N, n_in, d0, d0) with
        respect to the network input, the outputs' ones.  Returns
        ``(y, Ay, Hy, edges)``, with None for what was not asked or needs an
        order not in ``orders``, and the layer's :meth:`_edges` with ``phi``
        and ``rows`` as dicts by order."""
        phi, c, rows = self._edges(r, z.transpose(0, 2, 1), rows, orders)
        phi, rows = dict(zip(orders, phi)), dict(zip(orders, rows))
        y = phi[0].sum(axis=1) if 0 in phi else None
        Ay = None if A is None else phi[1].transpose(0, 2, 3, 1) @ A
        Hy = None
        if H is not None:
            Hy = np.einsum("mjni,mnjk,mnjl->mnikl", phi[2], A, A) + np.einsum(
                "mjni,mnjkl->mnikl", phi[1], H
            )
        return y, Ay, Hy, (phi, c, rows)

    def forward(self, K):
        self._one("forward")
        z, scalar = self._check_input(K)
        z = z[None]
        for r in range(self.n_layers):
            z = self._layer(r, z, orders=(0,))[0]
        out = z[0, :, 0]
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
        z = Kb[None]
        A = np.broadcast_to(np.eye(d0), (1, N, d0, d0))
        H = np.zeros((1, N, d0, d0, d0))
        for r in range(self.n_layers):
            z, A, H, _ = self._layer(r, z, A, H)
        W, g, Hess = z[0, :, 0], A[0, :, 0, :], H[0, :, 0]
        if scalar:
            return float(W[0]), g[0], Hess[0]
        return W, g, Hess

    # -- reverse accumulation ---------------------------------------------

    def _forward_cache(self, Kb, rows0=None, w_seeded=False):
        """Forward pass over every member at the shared inputs ``Kb``,
        storing what a reverse pass needs; ``rows0`` are layer 0's
        order-(0, 1) design rows at ``Kb``, if computed.  Layers build only
        the orders read: values (at the output only if ``w_seeded``), slopes,
        and curvatures above layer 0, where the reverse sweep stops."""
        N, d0 = Kb.shape
        zs = [Kb[None]]
        As = [np.broadcast_to(np.eye(d0), (1, N, d0, d0))]
        edges = []
        for r in range(self.n_layers):
            if r == 0:  # the inputs are K itself: the Jacobian is the identity
                y, _, _, e = self._layer(0, zs[0], rows=rows0, orders=(0, 1))
                Ay = e[0][1].transpose(0, 2, 3, 1)
            else:
                last = r == self.n_layers - 1 and not w_seeded
                y, Ay, _, e = self._layer(r, zs[-1], As[-1],
                                          orders=(1, 2) if last else (0, 1, 2))
            zs.append(y)
            As.append(Ay)
            edges.append(e)
        return {"z": zs, "A": As, "edges": edges}

    def backward_batch(self, cache, seed_w=None, seed_g=None) -> Array:
        """Per member ``m``, the gradient of ``sum_n [seed_w[m, n] * W(K_n) +
        seed_g[m, n] . grad_K W(K_n)]`` with respect to its parameter vector:
        ``(M, n_parameters)``.

        ``cache`` is :meth:`_forward_cache` at the inputs ``K``, built with
        ``w_seeded`` if ``seed_w`` (M, N) is given; ``seed_g`` is (M, N, d0).
        The gradient-seeded path is what force-residual training needs, since
        the stress depends on the input gradient of the energy.
        """
        N, d0 = cache["z"][0].shape[1:]
        M, n = self.size, self.n_coef
        zbar = None if seed_w is None else np.reshape(seed_w, (M, N, 1))
        Abar = np.zeros((M, N, 1, d0)) if seed_g is None else np.reshape(seed_g, (M, N, 1, d0))
        grads = []
        for r in reversed(range(self.n_layers)):
            z, A = cache["z"][r], cache["A"][r]
            phi, c, rows = cache["edges"][r]
            p = self.params[r]
            # per column j: zbar (None while 0) and its slope seed, (M, n_in, N, n_out)
            zb = None if zbar is None else zbar[:, None]
            if r == 0:  # identity A: column j's slope seed is Abar[..., j]
                m = Abar.transpose(0, 3, 1, 2)
            else:
                m = (A @ Abar.swapaxes(-1, -2)).transpose(0, 2, 1, 3)
            cbar = rows[1].swapaxes(-1, -2) @ m
            if zb is not None:
                cbar += rows[0].swapaxes(-1, -2) @ zb
            cbar = cbar.transpose(0, 3, 1, 2)  # like c: (M, n_out, n_in, n_coef)
            g = np.empty_like(p)
            if self.mode == CONSTRAINED:
                w, dw = softplus(p[..., n]), sigmoid(p[..., n])
                g[..., :n] = reparameterize_vjp(p[..., :n], w[..., None] * cbar)
            else:
                w, dw = p[..., n], 1.0
                g[..., :n] = w[..., None] * cbar
            g[..., n] = dw * np.einsum("mijb,mijb->mij", cbar, c)  # phi is linear in w
            if self.mode == VANILLA:
                sv, sd, _ = (v[..., None] for v in _silu(z.transpose(0, 2, 1)))
                gb = np.sum(sd * m, axis=2) + (0.0 if zb is None else np.sum(sv * zb, axis=2))
                g[..., n + 1] = gb.transpose(0, 2, 1)
            grads.append(g)
            if r > 0:
                zbar_j = m * phi[2] if zb is None else zb * phi[1] + m * phi[2]
                zbar = np.sum(zbar_j, axis=3).transpose(0, 2, 1)
                Abar = phi[1].transpose(0, 2, 1, 3) @ Abar
        return np.concatenate([g.reshape(M, -1) for g in reversed(grads)], axis=1)

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
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]

        def record(pos, tag, count=None, where="checkpoint"):
            """The values of line ``pos``: it must be ``tag`` and ``count`` of them."""
            key, *values = lines[pos].split()
            if key != tag or count not in (None, len(values)):
                raise DataError(f"{where}: expected a {tag} record, got {lines[pos]!r}")
            return values

        try:
            if lines[0] != "convexkan-checkpoint v1":
                raise DataError(f"unrecognized checkpoint header: {lines[0]!r}")
            (mode,) = record(1, "mode", 1)
            dims = tuple(int(v) for v in record(2, "dims"))
            if min(dims) < 1:
                raise DataError(f"layer widths must be >= 1, got {list(dims)}")
            order = int(record(3, "order", 1)[0])
            n_coef = int(record(4, "n_coef", 1)[0])
            width = n_coef + (2 if mode == VANILLA else 1)
            params = [np.empty((1, n_out, n_in, width)) for n_in, n_out in zip(dims[:-1], dims[1:])]
            domains = [{} for _ in dims[:-1]]  # [r][j] -> (lo, hi)
            pos = 5
            for r, p in enumerate(params):
                for i, j in np.ndindex(p.shape[1:3]):
                    name = f"activation {r},{i},{j}"
                    tag, *index = lines[pos].split()
                    if tag != "activation" or [int(v) for v in index] != [r, i, j]:
                        raise DataError(f"expected {name}, got {lines[pos]!r}")
                    lo, hi = (float(v) for v in record(pos + 1, "domain", 2, name))
                    w_s = float(record(pos + 2, "w_s", 1, name)[0])
                    w_b = float(record(pos + 3, "w_b", 1, name)[0])
                    raw = np.array([float(v) for v in record(pos + 4, "raw", n_coef, name)])
                    if not np.all(np.isfinite([lo, hi, w_s, w_b, *raw])):
                        raise DataError(f"{name}: non-finite value")
                    if not hi > lo:
                        raise DataError(f"{name}: empty domain [{lo}, {hi}]")
                    if mode == CONSTRAINED and w_b != 0.0:
                        raise DataError(f"{name}: constrained activations have no w_b, got {w_b}")
                    # all activations reading one input column share its knots
                    first = domains[r].setdefault(j, (lo, hi))
                    if first != (lo, hi):
                        raise DataError(f"{name}: domain [{lo}, {hi}] differs from "
                                        f"{list(first)} of activation {r},0,{j}")
                    p[0, i, j] = np.append(raw, (w_s, w_b))[:width]  # constrained: no w_b
                    pos += 5
            if lines[pos:] != ["end"]:
                raise DataError("expected the end marker as the last line")
        except (IndexError, ValueError) as exc:
            raise DataError(f"malformed checkpoint: {exc}") from exc
        model = cls(dims, order, n_coef, mode, params, [])
        model.t = [model._knots(*np.array(list(layer.values())).T[:, None]) for layer in domains]
        return model
