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
from dataclasses import dataclass, field

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


@dataclass
class Activation:
    """One trainable edge function ``phi``.

    Constrained: ``phi(x) = softplus(w_s) * psi(x)`` with a convex
    non-decreasing spline ``psi``.  Vanilla: ``phi(x) = w_b*silu(x) +
    w_s*psi(x)`` with unconstrained control points.
    """

    spline: BSplineCurve
    w_s: float
    mode: str = CONSTRAINED
    w_b: float = 0.0

    def scale(self) -> float:
        return float(softplus(self.w_s)) if self.mode == CONSTRAINED else self.w_s

    def value_and_derivatives(self, x):
        """phi, phi', phi'' at (an array of) points x."""
        psi, dpsi, d2psi = self.spline.eval_extended(x)
        if self.mode == CONSTRAINED:
            s = self.scale()
            return s * psi, s * dpsi, s * d2psi
        b, db, d2b = _silu(np.asarray(x, dtype=np.float64))
        return (
            self.w_b * b + self.w_s * psi,
            self.w_b * db + self.w_s * dpsi,
            self.w_b * d2b + self.w_s * d2psi,
        )


@dataclass
class ActivationGradient:
    raw: Array
    w_s: float = 0.0
    w_b: float = 0.0


@dataclass
class ParameterGradient:
    """Objective gradient laid out congruently with the model's activations."""

    layers: list  # [r][i][j] -> ActivationGradient
    mode: str

    def to_vector(self) -> Array:
        parts = []
        for layer in self.layers:
            for row in layer:
                for g in row:
                    parts.append(g.raw)
                    parts.append([g.w_s])
                    if self.mode == VANILLA:
                        parts.append([g.w_b])
        return np.concatenate(parts)


class KANModel:
    """Spline network with ``R`` layers; dims ``(3, ..., 1)``."""

    def __init__(self, dims, order, n_coef, mode, acts):
        self.dims = tuple(int(d) for d in dims)
        self.order = int(order)
        self.n_coef = int(n_coef)
        self.mode = mode
        self.acts = acts  # [layer r][out i][in j] -> Activation
        self.grid_ready = False

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, dims=(3, 2, 1), order=5, n_coef=17, mode=CONSTRAINED, rng=None,
               init_scale=0.1):
        if dims[0] != 3 or dims[-1] != 1:
            raise ConfigurationError(f"dims must map 3 inputs to 1 output, got {dims}")
        if mode not in (CONSTRAINED, VANILLA):
            raise ConfigurationError(f"unknown mode {mode!r}")
        rng = np.random.default_rng(rng)
        lo, hi = GRID_INIT_RANGE
        kv = KnotVector.from_domain(lo, hi, n_coef, order)
        spline_cls = ConvexSpline if mode == CONSTRAINED else BSplineCurve
        acts = []
        for r in range(len(dims) - 1):
            layer = []
            for _ in range(dims[r + 1]):
                row = []
                for _ in range(dims[r]):
                    raw = rng.uniform(-init_scale, init_scale, size=n_coef)
                    if mode == CONSTRAINED:
                        # a negative base slope raw[1] would be clamped to 0
                        # with zero gradient, freezing the activation flat
                        raw[1] = abs(raw[1])
                    sp = spline_cls(knots=kv, raw=raw)
                    row.append(
                        Activation(
                            spline=sp,
                            w_s=W_S_UNIT if mode == CONSTRAINED else float(rng.uniform(-0.1, 0.1)),
                            mode=mode,
                            w_b=float(rng.uniform(-0.1, 0.1)) if mode == VANILLA else 0.0,
                        )
                    )
                layer.append(row)
            acts.append(layer)
        return cls(dims, order, n_coef, mode, acts)

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    def activations(self):
        """Iterate ``(r, i, j, activation)`` in parameter-packing order."""
        for r, layer in enumerate(self.acts):
            for i, row in enumerate(layer):
                for j, act in enumerate(row):
                    yield r, i, j, act

    # -- parameter packing -------------------------------------------------

    def n_parameters(self) -> int:
        per = self.n_coef + (2 if self.mode == VANILLA else 1)
        return per * sum(len(r) * len(r[0]) for r in self.acts)

    def parameter_vector(self) -> Array:
        parts = []
        for _, _, _, act in self.activations():
            parts.append(act.spline.raw)
            parts.append([act.w_s])
            if self.mode == VANILLA:
                parts.append([act.w_b])
        return np.concatenate(parts)

    def set_parameter_vector(self, v: Array):
        v = np.asarray(v, dtype=np.float64)
        if v.size != self.n_parameters():
            raise ConfigurationError(
                f"expected {self.n_parameters()} parameters, got {v.size}"
            )
        pos = 0
        for _, _, _, act in self.activations():
            act.spline.raw = v[pos : pos + self.n_coef].copy()
            pos += self.n_coef
            act.w_s = float(v[pos])
            pos += 1
            if self.mode == VANILLA:
                act.w_b = float(v[pos])
                pos += 1

    # -- grid initialization ----------------------------------------------

    def grid_initialize(self) -> "KANModel":
        """Set each spline's natural domain by propagating a dummy input grid
        layer by layer; domains are frozen afterwards."""
        ranges = [GRID_INIT_RANGE] * self.dims[0]
        for r in range(self.n_layers):
            for j, (lo, hi) in enumerate(ranges):
                kv = KnotVector.from_domain(lo, hi, self.n_coef, self.order)
                for i in range(self.dims[r + 1]):
                    self.acts[r][i][j].spline.knots = kv
            z = np.column_stack(
                [np.linspace(lo, hi, GRID_INIT_POINTS) for lo, hi in ranges]
            )
            y = self._layer_forward(r, z)
            ranges = []
            for i in range(self.dims[r + 1]):
                lo, hi = float(y[:, i].min()), float(y[:, i].max())
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

    def _layer_forward(self, r, z):
        n_out = self.dims[r + 1]
        y = np.zeros((z.shape[0], n_out))
        for j in range(self.dims[r]):
            x = z[:, j]
            for i in range(n_out):
                y[:, i] += self.acts[r][i][j].value_and_derivatives(x)[0]
        return y

    def forward(self, K):
        Kb, scalar = self._check_input(K)
        z = Kb
        for r in range(self.n_layers):
            z = self._layer_forward(r, z)
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
            n_out = self.dims[r + 1]
            y = np.zeros((N, n_out))
            Ay = np.zeros((N, n_out, d0))
            Hy = np.zeros((N, n_out, d0, d0))
            for j in range(self.dims[r]):
                x = z[:, j]
                Aj = A[:, j, :]
                outer = Aj[:, :, None] * Aj[:, None, :]
                for i in range(n_out):
                    phi, dphi, d2phi = self.acts[r][i][j].value_and_derivatives(x)
                    y[:, i] += phi
                    Ay[:, i, :] += dphi[:, None] * Aj
                    Hy[:, i, :, :] += (
                        d2phi[:, None, None] * outer + dphi[:, None, None] * H[:, j]
                    )
            z, A, H = y, Ay, Hy
        W, g, Hess = z[:, 0], A[:, 0, :], H[:, 0]
        if scalar:
            return float(W[0]), g[0], Hess[0]
        return W, g, Hess

    def forward_with_gradient(self, K):
        """Output and input gradient only (needs k >= 2)."""
        if self.order < 2:
            raise ConfigurationError(
                f"input gradient needs spline order k >= 2, got k={self.order}"
            )
        Kb, scalar = self._check_input(K)
        cache = self._forward_cache(Kb)
        W = cache["z"][-1][:, 0]
        g = cache["A"][-1][:, 0, :]
        if scalar:
            return float(W[0]), g[0]
        return W, g

    # -- reverse accumulation ---------------------------------------------

    def _forward_cache(self, Kb):
        """Forward pass storing everything the reverse pass needs."""
        N, d0 = Kb.shape
        zs = [Kb]
        As = [np.broadcast_to(np.eye(d0), (N, d0, d0)).copy()]
        rows = []  # rows[r][j] = (b0, b1, b2) shared by all outputs i
        for r in range(self.n_layers):
            z, A = zs[-1], As[-1]
            n_out = self.dims[r + 1]
            y = np.zeros((N, n_out))
            Ay = np.zeros((N, n_out, d0))
            layer_rows = []
            for j in range(self.dims[r]):
                x = z[:, j]
                b = self.acts[r][0][j].spline.design_rows(x)
                layer_rows.append(b)
                Aj = A[:, j, :]
                for i in range(n_out):
                    act = self.acts[r][i][j]
                    c = act.spline.control_points
                    psi, dpsi = b[0] @ c, b[1] @ c
                    if act.mode == CONSTRAINED:
                        s = act.scale()
                        phi, dphi = s * psi, s * dpsi
                    else:
                        sv, sd, _ = _silu(x)
                        phi = act.w_b * sv + act.w_s * psi
                        dphi = act.w_b * sd + act.w_s * dpsi
                    y[:, i] += phi
                    Ay[:, i, :] += dphi[:, None] * Aj
            rows.append(layer_rows)
            zs.append(y)
            As.append(Ay)
        return {"z": zs, "A": As, "rows": rows}

    def backward(self, K, seed: float = 1.0) -> ParameterGradient:
        """Gradient of ``seed * W(K)`` with respect to all trainable parameters."""
        Kb, _ = self._check_input(K)
        return self.backward_batch(Kb, seed_w=np.full(Kb.shape[0], float(seed)))

    def backward_batch(self, Kb, seed_w=None, seed_g=None, cache=None) -> ParameterGradient:
        """Gradient of ``sum_n [seed_w_n * W(K_n) + seed_g_n . grad_K W(K_n)]``.

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
        grads = [
            [
                [ActivationGradient(raw=np.zeros(self.n_coef)) for _ in row]
                for row in layer
            ]
            for layer in self.acts
        ]
        zbar = np.asarray(seed_w, dtype=np.float64)[:, None]  # (N, 1)
        Abar = (
            np.asarray(seed_g, dtype=np.float64)[:, None, :]
            if seed_g is not None
            else np.zeros((N, 1, d0))
        )
        for r in reversed(range(self.n_layers)):
            z, A = cache["z"][r], cache["A"][r]
            n_in, n_out = self.dims[r], self.dims[r + 1]
            new_zbar = np.zeros((N, n_in))
            new_Abar = np.zeros((N, n_in, d0))
            for j in range(n_in):
                x = z[:, j]
                b0, b1, b2 = cache["rows"][r][j]
                Aj = A[:, j, :]
                if self.mode == VANILLA:
                    sv, sd, sd2 = _silu(x)
                for i in range(n_out):
                    act = self.acts[r][i][j]
                    c = act.spline.control_points
                    psi, dpsi, d2psi = b0 @ c, b1 @ c, b2 @ c
                    yb = zbar[:, i]
                    m = np.einsum("nk,nk->n", Abar[:, i, :], Aj)
                    g = grads[r][i][j]
                    if act.mode == CONSTRAINED:
                        s = act.scale()
                        dphi, d2phi = s * dpsi, s * d2psi
                        cbar = s * (b0.T @ yb + b1.T @ m)
                        g.raw += act.spline.coeff_vjp(cbar)
                        g.w_s += float(sigmoid(act.w_s)) * (yb @ psi + m @ dpsi)
                    else:
                        dphi = act.w_b * sd + act.w_s * dpsi
                        d2phi = act.w_b * sd2 + act.w_s * d2psi
                        cbar = act.w_s * (b0.T @ yb + b1.T @ m)
                        g.raw += act.spline.coeff_vjp(cbar)
                        g.w_s += yb @ psi + m @ dpsi
                        g.w_b += yb @ sv + m @ sd
                    new_zbar[:, j] += yb * dphi + m * d2phi
                    new_Abar[:, j, :] += dphi[:, None] * Abar[:, i, :]
            zbar, Abar = new_zbar, new_Abar
        return ParameterGradient(layers=grads, mode=self.mode)

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
        for r, i, j, act in self.activations():
            lo, hi = act.spline.knots.domain
            buf.write(f"activation {r} {i} {j}\n")
            buf.write(f"domain {lo:.17g} {hi:.17g}\n")
            buf.write(f"w_s {act.w_s:.17g}\n")
            buf.write(f"w_b {act.w_b:.17g}\n")
            buf.write("raw " + " ".join(f"{v:.17g}" for v in act.spline.raw) + "\n")
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
            model = cls.create(dims=dims, order=order, n_coef=n_coef, mode=mode)
            pos = 5
            for _ in range(sum(dims[r + 1] * dims[r] for r in range(len(dims) - 1))):
                _, r, i, j = lines[pos].split()
                r, i, j = int(r), int(i), int(j)
                lo, hi = (float(v) for v in lines[pos + 1].split()[1:])
                w_s = float(lines[pos + 2].split()[1])
                w_b = float(lines[pos + 3].split()[1])
                raw = np.array([float(v) for v in lines[pos + 4].split()[1:]])
                if raw.size != n_coef:
                    raise DataError(f"activation {r},{i},{j}: expected {n_coef} values")
                if not np.all(np.isfinite([lo, hi, w_s, w_b, *raw])):
                    raise DataError(f"activation {r},{i},{j}: non-finite value")
                if not hi > lo:
                    raise DataError(f"activation {r},{i},{j}: empty domain [{lo}, {hi}]")
                act = model.acts[r][i][j]
                act.spline.knots = KnotVector.from_domain(lo, hi, n_coef, order)
                act.w_s, act.w_b, act.spline.raw = w_s, w_b, raw
                pos += 5
            if lines[pos] != "end":
                raise DataError("missing end marker")
        except (IndexError, ValueError) as exc:
            raise DataError(f"malformed checkpoint: {exc}") from exc
        model.grid_ready = True
        return model
