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

from .bspline import BSplineCurve, ConvexSpline, KnotVector
from .errors import ConfigurationError, DataError, EvaluationError

Array = npt.NDArray[np.float64]

CONSTRAINED = "constrained"
VANILLA = "vanilla"

GRID_INIT_RANGE = (-5.0, 25.0)
GRID_INIT_POINTS = 100
MIN_DOMAIN_WIDTH = 1e-6

# softplus(w_s) = 1 at this weight, so fresh constrained activations start
# with unit scaling
W_S_UNIT = math.log(math.e - 1.0)


def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def _silu(x):
    s = sigmoid(x)
    return x * s, s * (1.0 + x * (1.0 - s)), s * (1.0 - s) * (2.0 + x * (1.0 - 2.0 * s))


class KANModel:
    """Spline network with ``R`` layers; dims ``(3, ..., 1)``.

    Layer ``r`` is one array ``params[r]`` of shape ``(n_out, n_in, width)``:
    per edge ``(i, j)`` the ``n_coef`` raw spline parameters, then ``w_s``,
    then ``w_b`` in vanilla mode.  Constrained edges compute
    ``phi(x) = softplus(w_s) * psi(x)`` with a convex non-decreasing spline
    ``psi``; vanilla edges compute ``phi(x) = w_b*silu(x) + w_s*psi(x)`` with
    unconstrained control points.  All edges reading input column ``j`` of
    layer ``r`` share the knot vector ``knots[r][j]``.  The parameter vector
    is the layers' arrays flattened in order.
    """

    def __init__(self, dims, order, n_coef, mode, params, knots):
        if dims[0] != 3 or dims[-1] != 1:
            raise ConfigurationError(f"dims must map 3 inputs to 1 output, got {dims}")
        if mode not in (CONSTRAINED, VANILLA):
            raise ConfigurationError(f"unknown mode {mode!r}")
        self.dims = tuple(int(d) for d in dims)
        self.order = int(order)
        self.n_coef = int(n_coef)
        self.mode = mode
        self.params = params  # [layer r] -> (n_out, n_in, width)
        self.knots = knots  # [layer r][input column j] -> KnotVector
        self.grid_ready = False

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, dims=(3, 2, 1), order=5, n_coef=17, mode=CONSTRAINED, rng=None,
               init_scale=0.1):
        rng = np.random.default_rng(rng)
        kv = KnotVector.from_domain(*GRID_INIT_RANGE, n_coef, order)
        params = []
        for n_in, n_out in zip(dims[:-1], dims[1:]):
            p = np.full((n_out, n_in, n_coef + (2 if mode == VANILLA else 1)), W_S_UNIT)
            for i, j in np.ndindex(n_out, n_in):
                p[i, j, :n_coef] = rng.uniform(-init_scale, init_scale, size=n_coef)
                if mode == VANILLA:  # w_s, w_b
                    p[i, j, n_coef:] = rng.uniform(-0.1, 0.1, size=2)
            if mode == CONSTRAINED:
                # a negative base slope raw[1] would be clamped to 0 with zero
                # gradient, freezing the activation flat
                p[..., 1] = np.abs(p[..., 1])
            params.append(p)
        knots = [[kv] * n_in for n_in in dims[:-1]]
        return cls(dims, order, n_coef, mode, params, knots)

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    def curves(self, r: int, j: int) -> BSplineCurve:
        """The splines ``psi`` of layer ``r`` reading input column ``j``, one
        row per output."""
        spline_cls = ConvexSpline if self.mode == CONSTRAINED else BSplineCurve
        return spline_cls(knots=self.knots[r][j], raw=self.params[r][:, j, : self.n_coef])

    # -- parameter packing -------------------------------------------------

    def n_parameters(self) -> int:
        return sum(p.size for p in self.params)

    def parameter_vector(self) -> Array:
        return np.concatenate([p.ravel() for p in self.params])

    def set_parameter_vector(self, v: Array):
        v = np.asarray(v, dtype=np.float64)
        if v.size != self.n_parameters():
            raise ConfigurationError(
                f"expected {self.n_parameters()} parameters, got {v.size}"
            )
        splits = np.cumsum([p.size for p in self.params])[:-1]
        self.params = [
            part.reshape(p.shape).copy() for p, part in zip(self.params, np.split(v, splits))
        ]

    # -- grid initialization ----------------------------------------------

    def grid_initialize(self) -> "KANModel":
        """Set each spline's natural domain by propagating a dummy input grid
        layer by layer; domains are frozen afterwards."""
        ranges = [GRID_INIT_RANGE] * self.dims[0]
        for r in range(self.n_layers):
            self.knots[r] = [
                KnotVector.from_domain(lo, hi, self.n_coef, self.order) for lo, hi in ranges
            ]
            z = np.column_stack(
                [np.linspace(lo, hi, GRID_INIT_POINTS) for lo, hi in ranges]
            )
            y = self._layer(r, z)[0]
            ranges = []
            for lo, hi in zip(y.min(axis=0).tolist(), y.max(axis=0).tolist()):
                if hi - lo < MIN_DOMAIN_WIDTH:
                    mid = 0.5 * (lo + hi)
                    lo, hi = mid - 0.5 * MIN_DOMAIN_WIDTH, mid + 0.5 * MIN_DOMAIN_WIDTH
                ranges.append((lo, hi))
        self.grid_ready = True
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
        if not self.grid_ready:
            raise ConfigurationError("model must be grid-initialized before evaluation")
        return Kb, scalar

    def _column(self, r: int, j: int, x, order: int = 0, col=None) -> list:
        """``phi`` and its first ``order`` derivatives at points ``x`` for
        every edge of layer ``r`` reading input column ``j``: a list of
        ``(N, n_out)`` arrays.  ``col`` is the column's design rows at ``x``
        and control points ``(rows, c)``, if already computed."""
        curves = self.curves(r, j)
        rows, c = col or (curves.design_rows(x), curves.control_points.T)
        psi = [b @ c for b in rows[: order + 1]]
        w_s = self.params[r][:, j, self.n_coef]
        if self.mode == CONSTRAINED:
            s = softplus(w_s)
            return [s * v for v in psi]
        w_b = self.params[r][:, j, self.n_coef + 1]
        return [w_b * b[:, None] + w_s * v for b, v in zip(_silu(x), psi)]

    def _layer(self, r, z, A=None, H=None, cols=None):
        """Outputs ``y`` of layer ``r`` at inputs ``z`` (N, n_in), and, given
        the inputs' Jacobian ``A`` (N, n_in, d0) and Hessian ``H``
        (N, n_in, d0, d0) with respect to the network input, the outputs'
        ones.  Returns ``(y, Ay, Hy)``, with None for what was not asked.
        ``cols`` holds each column's ``(rows, c)``, if already computed."""
        order = 0 if A is None else 1 if H is None else 2
        shape = (z.shape[0], self.dims[r + 1])
        y = np.zeros(shape)
        Ay = None if A is None else np.zeros(shape + A.shape[2:])
        Hy = None if H is None else np.zeros(shape + H.shape[2:])
        for j in range(self.dims[r]):
            phi = self._column(r, j, z[:, j], order, None if cols is None else cols[j])
            y += phi[0]
            if order >= 1:
                Aj = A[:, None, j, :]
                Ay += phi[1][:, :, None] * Aj
            if order == 2:
                outer = Aj[:, :, :, None] * Aj[:, :, None, :]
                Hy += (
                    phi[2][:, :, None, None] * outer
                    + phi[1][:, :, None, None] * H[:, None, j]
                )
        return y, Ay, Hy

    def forward(self, K):
        z, scalar = self._check_input(K)
        for r in range(self.n_layers):
            z = self._layer(r, z)[0]
        out = z[:, 0]
        return float(out[0]) if scalar else out

    def forward_with_input_derivatives(self, K):
        """Output plus exact gradient and Hessian with respect to the inputs."""
        if self.order < 3:
            raise ConfigurationError(
                f"Hessian needs spline order k >= 3, got k={self.order}"
            )
        Kb, scalar = self._check_input(K)
        N, d0 = Kb.shape
        z = Kb
        A = np.broadcast_to(np.eye(d0), (N, d0, d0)).copy()
        H = np.zeros((N, d0, d0, d0))
        for r in range(self.n_layers):
            z, A, H = self._layer(r, z, A, H)
        W, g, Hess = z[:, 0], A[:, 0, :], H[:, 0]
        if scalar:
            return float(W[0]), g[0], Hess[0]
        return W, g, Hess

    # -- reverse accumulation ---------------------------------------------

    def _forward_cache(self, Kb, rows0=None):
        """Forward pass storing everything the reverse pass needs; ``rows0``
        are layer 0's design rows at ``Kb`` per input column, if computed."""
        N, d0 = Kb.shape
        zs = [Kb]
        As = [np.broadcast_to(np.eye(d0), (N, d0, d0)).copy()]
        cols = []  # cols[r][j] = (rows, c): design rows shared by all outputs i
        for r in range(self.n_layers):
            z, curves = zs[-1], [self.curves(r, j) for j in range(self.dims[r])]
            rows = rows0 if r == 0 and rows0 else [cv.design_rows(x) for cv, x in zip(curves, z.T)]
            cols.append([(b, cv.control_points.T) for b, cv in zip(rows, curves)])
            y, Ay, _ = self._layer(r, z, As[-1], cols=cols[-1])
            zs.append(y)
            As.append(Ay)
        return {"z": zs, "A": As, "cols": cols}

    def backward_batch(self, Kb, seed_w=None, seed_g=None, cache=None) -> Array:
        """Gradient of ``sum_n [seed_w_n * W(K_n) + seed_g_n . grad_K W(K_n)]``
        with respect to the parameter vector.

        The gradient-seeded path is what force-residual training needs, since
        the stress depends on the input gradient of the energy.  A forward
        cache from :meth:`_forward_cache` on the same inputs may be passed in
        to avoid recomputing the forward sweep.
        """
        Kb, _ = self._check_input(Kb)
        N, d0 = Kb.shape
        if seed_w is None:
            seed_w = np.zeros(N)
        if cache is None:
            cache = self._forward_cache(Kb)
        if seed_g is None:
            seed_g = np.zeros((N, d0))
        n = self.n_coef
        grads = [np.zeros_like(p) for p in self.params]
        zbar = np.asarray(seed_w, dtype=np.float64)[:, None]  # (N, n_out)
        Abar = np.asarray(seed_g, dtype=np.float64)[:, None, :]  # (N, n_out, d0)
        for r in reversed(range(self.n_layers)):
            z, A = cache["z"][r], cache["A"][r]
            new_zbar, new_Abar = np.zeros(z.shape), np.zeros(A.shape)
            for j in range(self.dims[r]):
                x = z[:, j]
                rows, c = cache["cols"][r][j]
                psi, dpsi, d2psi = (b @ c for b in rows)  # (N, n_out)
                m = np.einsum("nik,nk->ni", Abar, A[:, j, :])
                p, g = self.params[r][:, j], grads[r][:, j]
                w = softplus(p[:, n]) if self.mode == CONSTRAINED else p[:, n]
                dw = sigmoid(p[:, n]) if self.mode == CONSTRAINED else 1.0
                dphi, d2phi = w * dpsi, w * d2psi
                cbar = w[:, None] * (zbar.T @ rows[0] + m.T @ rows[1])
                g[:, :n] += self.curves(r, j).coeff_vjp(cbar)
                g[:, n] += dw * (np.sum(zbar * psi, axis=0) + np.sum(m * dpsi, axis=0))
                if self.mode == VANILLA:
                    sv, sd, sd2 = _silu(x)
                    w_b = p[:, n + 1]
                    dphi += w_b * sd[:, None]
                    d2phi += w_b * sd2[:, None]
                    g[:, n + 1] += sv @ zbar + sd @ m
                new_zbar[:, j] = np.sum(zbar * dphi + m * d2phi, axis=1)
                new_Abar[:, j, :] = np.einsum("ni,nik->nk", dphi, Abar)
            zbar, Abar = new_zbar, new_Abar
        return np.concatenate([g.ravel() for g in grads])

    # -- checkpointing -----------------------------------------------------

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    def dumps(self) -> str:
        buf = io.StringIO()
        buf.write("convexkan-checkpoint v1\n")
        buf.write(f"mode {self.mode}\n")
        buf.write("dims " + " ".join(str(d) for d in self.dims) + "\n")
        buf.write(f"order {self.order}\n")
        buf.write(f"n_coef {self.n_coef}\n")
        n = self.n_coef
        for r, p in enumerate(self.params):
            for i, j in np.ndindex(p.shape[:2]):
                lo, hi = self.knots[r][j].domain
                w_b = p[i, j, n + 1] if self.mode == VANILLA else 0.0
                buf.write(f"activation {r} {i} {j}\n")
                buf.write(f"domain {lo:.17g} {hi:.17g}\n")
                buf.write(f"w_s {p[i, j, n]:.17g}\n")
                buf.write(f"w_b {w_b:.17g}\n")
                buf.write("raw " + " ".join(f"{v:.17g}" for v in p[i, j, :n]) + "\n")
        buf.write("end\n")
        return buf.getvalue()

    @classmethod
    def load(cls, path) -> "KANModel":
        with open(path) as fh:
            return cls.loads(fh.read())

    @classmethod
    def loads(cls, text: str) -> "KANModel":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        try:
            if lines[0] != "convexkan-checkpoint v1":
                raise DataError(f"unrecognized checkpoint header: {lines[0]!r}")
            mode = lines[1].split()[1]
            dims = tuple(int(v) for v in lines[2].split()[1:])
            order = int(lines[3].split()[1])
            n_coef = int(lines[4].split()[1])
            width = n_coef + (2 if mode == VANILLA else 1)
            params = [np.empty((n_out, n_in, width)) for n_in, n_out in zip(dims[:-1], dims[1:])]
            domains = [{} for _ in dims[:-1]]  # [r][j] -> (lo, hi)
            pos = 5
            for r, p in enumerate(params):
                for i, j in np.ndindex(p.shape[:2]):
                    name = f"activation {r},{i},{j}"
                    tag, *index = lines[pos].split()
                    if tag != "activation" or [int(v) for v in index] != [r, i, j]:
                        raise DataError(f"expected {name}, got {lines[pos]!r}")
                    lo, hi = (float(v) for v in lines[pos + 1].split()[1:])
                    w_s = float(lines[pos + 2].split()[1])
                    w_b = float(lines[pos + 3].split()[1])
                    raw = np.array([float(v) for v in lines[pos + 4].split()[1:]])
                    if raw.size != n_coef:
                        raise DataError(f"{name}: expected {n_coef} values")
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
                    p[i, j] = np.append(raw, (w_s, w_b))[:width]  # constrained: no w_b
                    pos += 5
            if lines[pos] != "end":
                raise DataError("missing end marker")
        except (IndexError, ValueError) as exc:
            raise DataError(f"malformed checkpoint: {exc}") from exc
        knots = [[KnotVector.from_domain(lo, hi, n_coef, order) for lo, hi in layer.values()]
                 for layer in domains]
        model = cls(dims, order, n_coef, mode, params, knots)
        model.grid_ready = True
        return model
