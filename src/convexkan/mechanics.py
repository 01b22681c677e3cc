"""Continuum layer: invariants of the deformation gradient with exact first and
second F-derivatives, the strain-energy ansatz over the polyconvex inputs
(K1, K2, K3), and the classical benchmark material models.

Every entry point takes one deformation gradient or a stack of them: shape
(2, 2), (3, 3), (N, 2, 2) or (N, 3, 3).  A stack adds a leading axis N to
every result; a single F gives float invariants and energies.

Plane-strain convention: 2x2 deformation gradients are accepted everywhere and
expanded internally to 3x3 with F33 = 1; stress and tangent are restricted back
to the in-plane components when the input was 2x2.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import numpy.typing as npt

from .errors import ConfigurationError, EvaluationError, InadmissibleDeformationError

Array = npt.NDArray[np.float64]

SQRT3 = math.sqrt(3.0)


def _embed(F) -> tuple[Array, bool, bool]:
    """(F as an (N, 3, 3) stack, whether it was 2x2, whether it was one F)."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim not in (2, 3) or F.shape[-2:] not in ((2, 2), (3, 3)):
        raise ConfigurationError(
            f"deformation gradient must be 2x2 or 3x3, or a stack of them; got {F.shape}"
        )
    single = F.ndim == 2
    Fs = F[None] if single else F
    in_plane = F.shape[-1] == 2
    if not in_plane:
        return Fs, in_plane, single
    F3 = np.zeros((Fs.shape[0], 3, 3))
    F3[:, :2, :2] = Fs
    F3[:, 2, 2] = 1.0
    return F3, in_plane, single


def _unbatch(x, single: bool):
    """The one entry of a stack computed for a single F (a float if scalar)."""
    if not single:
        return x
    x = np.asarray(x)[0]
    return float(x) if x.ndim == 0 else x


def _element(e: int, single: bool) -> str:
    """Error-message prefix naming element e of a stack."""
    return "" if single else f"element {e}: "


def _determinants(F3: Array, single: bool, n_el: int | None = None) -> Array:
    """det F over an (M, 3, 3) stack.  Raises for the first det F <= 0,
    naming its element; when the stack holds copies of an ``n_el``-element
    stack laid end to end, entry m belongs to element m % n_el."""
    J = np.linalg.det(F3)
    bad = np.flatnonzero(J <= 0.0)
    if bad.size:
        m = int(bad[0])
        e = m % (n_el or J.size)
        raise InadmissibleDeformationError(f"{_element(e, single)}det(F) = {J[m]} <= 0")
    return J


class DeformationState:
    """Invariants and ansatz inputs of one deformation gradient, or of a
    stack of them, with their first and second derivatives with respect to F.

    Derivatives go through the base invariants (I1, I2, J), indexed
    a = 0, 1, 2: ``dI[..., a, i, j]`` is dI_a/dF_ij, and ``dK_dI[..., m, a]``
    and ``d2K_dI[..., m, a, b]`` are the partials of K_m with respect to them.
    Second F-derivatives are built only when asked for.
    """

    def __init__(self, F3: Array, in_plane: bool, single: bool):
        J = _determinants(F3, single)
        C = np.swapaxes(F3, -1, -2) @ F3
        I1 = np.trace(C, axis1=-2, axis2=-1)
        I2 = 0.5 * (I1 * I1 - np.einsum("nij,nji->n", C, C))
        FinvT = np.swapaxes(np.linalg.inv(F3), -1, -2)
        I1_tilde = I1 * J ** (-2.0 / 3.0)
        I2_star = (I2 * J ** (-4.0 / 3.0)) ** 1.5  # equals I2^{3/2} / J^2

        dI = np.stack(
            [2.0 * F3, 2.0 * (I1[:, None, None] * F3 - F3 @ C), J[:, None, None] * FinvT],
            axis=1,
        )
        # K1 = I1 J^{-2/3} - 3, K2 = I2^{3/2} J^{-2} - 3 sqrt(3), K3 = (J - 1)^2
        sI2 = np.sqrt(I2)
        dK = np.zeros(J.shape + (3, 3))
        dK[:, 0, 0] = J ** (-2.0 / 3.0)
        dK[:, 0, 2] = -(2.0 / 3.0) * I1 * J ** (-5.0 / 3.0)
        dK[:, 1, 1] = 1.5 * sI2 / J**2
        dK[:, 1, 2] = -2.0 * I2 * sI2 / J**3
        dK[:, 2, 2] = 2.0 * (J - 1.0)
        d2K = np.zeros(J.shape + (3, 3, 3))
        d2K[:, 0, 0, 2] = d2K[:, 0, 2, 0] = -(2.0 / 3.0) * J ** (-5.0 / 3.0)
        d2K[:, 0, 2, 2] = (10.0 / 9.0) * I1 * J ** (-8.0 / 3.0)
        d2K[:, 1, 1, 1] = 0.75 / (sI2 * J**2)
        d2K[:, 1, 1, 2] = d2K[:, 1, 2, 1] = -3.0 * sI2 / J**3
        d2K[:, 1, 2, 2] = 6.0 * I2 * sI2 / J**4
        d2K[:, 2, 2, 2] = 2.0
        K = np.stack([I1_tilde - 3.0, I2_star - 3.0 * SQRT3, (J - 1.0) ** 2], axis=-1)

        self.single = single
        self.in_plane = in_plane
        self.F = _unbatch(F3, single)
        self.C = _unbatch(C, single)
        self.I1 = _unbatch(I1, single)
        self.I2 = _unbatch(I2, single)
        self.I3 = _unbatch(J * J, single)
        self.J = _unbatch(J, single)
        self.I1_tilde = _unbatch(I1_tilde, single)
        self.I2_star = _unbatch(I2_star, single)
        self.K = _unbatch(K, single)  # (..., 3)
        self.dI = _unbatch(dI, single)  # (..., 3, 3, 3)
        self.dK_dI = _unbatch(dK, single)  # (..., 3, 3)
        self.d2K_dI = _unbatch(d2K, single)  # (..., 3, 3, 3)
        self._FinvT = _unbatch(FinvT, single)

    @property
    def dim(self) -> int:
        """Size of the stress block returned for this input: 2 or 3."""
        return 2 if self.in_plane else 3

    def d2I(self, dim: int = 3) -> Array:
        """Second F-derivatives of (I1, I2, J) on the leading dim x dim block
        of F, shape (..., 3, dim, dim, dim, dim)."""
        s = slice(0, dim)
        F, C, G = self.F[..., s, s], self.C[..., s, s], self._FinvT[..., s, s]
        B = (self.F @ np.swapaxes(self.F, -1, -2))[..., s, s]
        eye = np.eye(dim)
        delta4 = np.einsum("ik,jl->ijkl", eye, eye)
        I1 = np.asarray(self.I1)[..., None, None, None, None]
        J = np.asarray(self.J)[..., None, None, None, None]
        d2I1 = np.broadcast_to(2.0 * delta4, np.shape(self.J) + delta4.shape)
        d2I2 = (
            4.0 * np.einsum("...kl,...ij->...ijkl", F, F)
            + 2.0 * I1 * delta4
            - 2.0
            * (
                np.einsum("ik,...lj->...ijkl", eye, C)
                + np.einsum("...il,...kj->...ijkl", F, F)
                + np.einsum("...ik,jl->...ijkl", B, eye)
            )
        )
        d2J = J * (
            np.einsum("...ij,...kl->...ijkl", G, G) - np.einsum("...il,...kj->...ijkl", G, G)
        )
        return np.stack([d2I1, d2I2, d2J], axis=-5)

    @cached_property
    def dK_dF(self) -> Array:
        """dK_m / dF_ij, shape (..., 3, 3, 3)."""
        return np.einsum("...ma,...aij->...mij", self.dK_dI, self.dI)

    @cached_property
    def d2K_dFdF(self) -> Array:
        """d2K_m / dF_ij dF_kl, shape (..., 3, 3, 3, 3, 3)."""
        return np.einsum("...ma,...aijkl->...mijkl", self.dK_dI, self.d2I()) + np.einsum(
            "...aij,...mab,...bkl->...mijkl", self.dI, self.d2K_dI, self.dI
        )

    def stress_from(self, first: Array) -> Array:
        """P = sum_a dW/dI_a dI_a/dF on the input's block, given the partials
        ``first`` (..., 3) of an energy W with respect to (I1, I2, J)."""
        d = self.dim
        return np.einsum("...a,...aij->...ij", first, self.dI[..., :d, :d])

    def tangent_from(self, first: Array, second: Array) -> Array:
        """dP/dF on the input's block from the first (..., 3) and second
        (..., 3, 3) partials of W with respect to (I1, I2, J)."""
        d = self.dim
        lead = np.shape(self.J)
        dI = self.dI[..., :d, :d].reshape(lead + (3, d * d))
        d2I = self.d2I(d).reshape(lead + (3, d**4))
        T = (first[..., None, :] @ d2I).reshape(lead + (d * d, d * d))
        T += np.swapaxes(dI, -1, -2) @ second @ dI
        return T.reshape(lead + (d, d, d, d))


def compute_state(F) -> DeformationState:
    """Invariant/derivative bundle of one deformation gradient or a stack.

    Raises :class:`InadmissibleDeformationError` for det F <= 0, naming the
    first such element of a stack.
    """
    return DeformationState(*_embed(F))


class MaterialModel:
    """Common interface: energy W(F), stress P = dW/dF and tangent modulus
    dP/dF, for one F or a stack.  2x2 inputs yield in-plane 2x2 / 2x2x2x2
    outputs.

    Subclasses either give the energy's partials with respect to the base
    invariants (I1, I2, J) through :meth:`_partials`, and stress and tangent
    follow by the chain rule (:class:`KEnergyModel` does, from W(K)), or
    override all three methods.
    """

    kind = "?"

    def _partials(self, state: DeformationState, order: int):
        """(W, dW/dI (..., 3), d2W/dI dI (..., 3, 3)); entries above
        ``order`` may be None."""
        raise NotImplementedError

    def energy(self, F):
        w = self._partials(compute_state(F), 0)[0]
        return float(w) if np.ndim(w) == 0 else w

    def stress(self, F) -> Array:
        state = compute_state(F)
        return state.stress_from(self._partials(state, 1)[1])

    def tangent(self, F) -> Array:
        state = compute_state(F)
        _, first, second = self._partials(state, 2)
        return state.tangent_from(first, second)


class Ogden(MaterialModel):
    """Principal-stretch model; stress and tangent by central finite
    differences of the energy (ground-truth data generation only).

    The differences run over the whole stack at once: stress evaluates the
    energy at 2 d^2 perturbed copies of the stack (d = 2 for in-plane input,
    else 3), and the tangent differences the stress at 2 d^2 more.
    """

    kind = "OG"
    mu = 1.3
    eta = 1.3

    def _fd_step(self, F3: Array):
        """Stress difference step of each F in an (N, 3, 3) stack: (N,) or
        one float for all."""
        return 1e-6 * np.linalg.norm(F3, axis=(-2, -1))

    def _steps(self, F3: Array) -> Array:
        return np.broadcast_to(np.asarray(self._fd_step(F3), dtype=np.float64), (len(F3),))

    def _energy(self, F3: Array, single: bool, n_el: int | None = None) -> Array:
        """Energy of an (M, 3, 3) stack from C and J alone."""
        J = _determinants(F3, single, n_el)
        lam2 = np.maximum(np.linalg.eigvalsh(np.swapaxes(F3, -1, -2) @ F3), 1e-300)
        lam_t = (J ** (-1.0 / 3.0))[:, None] * np.sqrt(lam2)
        p = lam_t**self.eta
        return self.mu / self.eta * (p[:, 0] + p[:, 1] + p[:, 2] - 3.0) + 1.5 * (J - 1.0) ** 2

    @staticmethod
    def _shifted(F3: Array, h: Array, dim: int) -> Array:
        """F3 + h e_ij and F3 - h e_ij for every (i, j) of the dim x dim
        block: shape (2, dim * dim, N, 3, 3)."""
        ij = np.arange(dim * dim)
        E = np.zeros((dim * dim, 3, 3))
        E[ij, ij // dim, ij % dim] = 1.0
        step = h[None, :, None, None] * E[:, None]
        return np.stack([F3[None] + step, F3[None] - step])

    def _stress(self, F3: Array, dim: int, single: bool, n_el: int) -> Array:
        n, h = len(F3), self._steps(F3)
        W = self._energy(self._shifted(F3, h, dim).reshape(-1, 3, 3), single, n_el)
        W = W.reshape(2, dim * dim, n)
        P = (W[0] - W[1]) / (2 * h)
        return P.T.reshape(n, dim, dim)

    def energy(self, F):
        F3, _, single = _embed(F)
        return _unbatch(self._energy(F3, single), single)

    def stress(self, F) -> Array:
        F3, in_plane, single = _embed(F)
        _determinants(F3, single)
        return _unbatch(self._stress(F3, 2 if in_plane else 3, single, len(F3)), single)

    def tangent(self, F) -> Array:
        F3, in_plane, single = _embed(F)
        _determinants(F3, single)
        n, dim = len(F3), 2 if in_plane else 3
        # larger step: second differences
        h = 10.0 * self._steps(F3)
        P = self._stress(self._shifted(F3, h, dim).reshape(-1, 3, 3), dim, single, n)
        P = P.reshape(2, dim, dim, n, dim, dim)  # (sign, k, l, element, i, j)
        T = (P[0] - P[1]) / (2 * h)[None, None, :, None, None]
        return _unbatch(T.transpose(2, 3, 4, 0, 1), single)


class KEnergyModel(MaterialModel):
    """Material whose energy is a smooth function of the ansatz inputs K.

    Subclasses supply value/gradient/Hessian with respect to K, for one K
    (3,) or a stack (N, 3); stress and tangent follow from the chain rule
    through the invariant derivatives.
    """

    subtract_reference_energy = True
    _w0 = None

    def k_value_grad_hess(self, K: Array):
        raise NotImplementedError

    def reference_energy(self) -> float:
        """Value at K = 0, subtracted so W(I) = 0.  The energy is treated as
        frozen, so the value is computed once per material."""
        if self._w0 is None:
            self._w0 = float(self.k_value_grad_hess(np.zeros(3))[0])
        return self._w0

    def _partials(self, state, order):
        w, g, H = self.k_value_grad_hess(state.K)
        if self.subtract_reference_energy:
            w = w - self.reference_energy()
        if order == 0:
            return w, None, None
        first = np.einsum("...m,...ma->...a", g, state.dK_dI)
        if order == 1:
            return w, first, None
        second = np.einsum(
            "...ma,...mn,...nb->...ab", state.dK_dI, H, state.dK_dI
        ) + np.einsum("...m,...mab->...ab", g, state.d2K_dI)
        return w, first, second


class NetworkMaterial(KEnergyModel):
    """Strain energy given by a trained spline network plus the constant
    correction that zeroes the energy at the undeformed state."""

    kind = "ICKAN"

    def __init__(self, model):
        self.model = model

    def k_value_grad_hess(self, K):
        return self.model.forward_with_input_derivatives(K)


def _i2t(K2):
    """i2t - 3 = (K2 + 3 sqrt 3)^{2/3} - 3 and its first two K2-derivatives."""
    s = K2 + 3.0 * SQRT3
    t = np.cbrt(s)
    return t * t - 3.0, (2.0 / 3.0) / t, -(2.0 / 9.0) / (t * s)


class ClosedFormMaterial(KEnergyModel):
    """Closed-form benchmark energy W = w(K1, K2) + 3/2 K3.

    Each subclass writes its isochoric part w in the ansatz inputs, through
    i1t = K1 + 3 and i2t = (K2 + 3 sqrt 3)^{2/3}; the volumetric part is
    3/2 (J - 1)^2 = 3/2 K3.
    """

    def isochoric(self, K1, K2):
        """(w, (w_1, w_2), (w_11, w_12, w_22)): w and its partials with
        respect to (K1, K2); any entry may be a scalar."""
        raise NotImplementedError

    def k_value_grad_hess(self, K):
        K = np.asarray(K, dtype=np.float64)
        w, (w1, w2), (w11, w12, w22) = self.isochoric(K[..., 0], K[..., 1])
        g = np.empty(K.shape)
        g[..., 0], g[..., 1], g[..., 2] = w1, w2, 1.5
        H = np.zeros(K.shape + (3,))
        H[..., 0, 0], H[..., 1, 1] = w11, w22
        H[..., 0, 1] = H[..., 1, 0] = w12
        return w + 1.5 * K[..., 2], g, H


class NeoHookean(ClosedFormMaterial):
    kind = "NH"

    def isochoric(self, K1, K2):
        return 0.5 * K1, (0.5, 0.0), (0.0, 0.0, 0.0)


class Isihara(ClosedFormMaterial):
    kind = "IH"

    def isochoric(self, K1, K2):
        i2, d2, dd2 = _i2t(K2)
        return 0.5 * K1 + i2 + K1 * K1, (0.5 + 2.0 * K1, d2), (2.0, 0.0, dd2)


class HainesWilson(ClosedFormMaterial):
    kind = "HW"

    def isochoric(self, K1, K2):
        i2, d2, dd2 = _i2t(K2)
        w = 0.5 * K1 + i2 + 0.7 * K1 * i2 + 0.2 * K1**3
        grad = (0.5 + 0.7 * i2 + 0.6 * K1 * K1, (1.0 + 0.7 * K1) * d2)
        return w, grad, (1.2 * K1, 0.7 * d2, (1.0 + 0.7 * K1) * dd2)


class GentThomas(ClosedFormMaterial):
    kind = "GT"

    def isochoric(self, K1, K2):
        # log(i2t / 3) = 2/3 log(1 + K2 / (3 sqrt 3))
        s = K2 + 3.0 * SQRT3
        w = 0.5 * K1 + (2.0 / 3.0) * np.log1p(K2 / (3.0 * SQRT3))
        return w, (0.5, (2.0 / 3.0) / s), (0.0, 0.0, -(2.0 / 3.0) / (s * s))


class ArrudaBoyce(ClosedFormMaterial):
    """Eight-chain model with the Pade approximant of the inverse Langevin
    function.  In the chain stretch y = lambda / sqrt(N), lambda^2 = i1t / 3,
    the chain energy is c N (beta y - log(sinh(beta) / beta)) with
    beta = y (3 - y^2) / (1 - y^2); its offset at the reference state is the
    material's reference energy, so W(I) = 0 holds exactly for this form."""

    kind = "AB"
    n_chain = 28.0
    c = 2.5

    @property
    def c_ab(self) -> float:
        return self.reference_energy()

    def isochoric(self, K1, K2):
        rN = math.sqrt(self.n_chain)
        lam = np.sqrt((K1 + 3.0) / 3.0)
        y = lam / rN
        bad = np.flatnonzero(np.ravel(np.abs(y)) >= 1.0)
        if bad.size:
            e = int(bad[0])
            raise EvaluationError(
                f"{_element(e, np.ndim(y) == 0)}chain stretch saturated: "
                f"|lambda/sqrt(N)| = {abs(np.ravel(y)[e]):.4f} >= 1"
            )
        q = 1.0 - y * y
        beta = y * (3.0 - y * y) / q
        beta_y = (3.0 + y**4) / q**2
        beta_yy = 4.0 * y * (y * y + 3.0) / q**3
        langevin = 1.0 / np.tanh(beta) - 1.0 / beta
        dlangevin = 1.0 / beta**2 - 1.0 / np.sinh(beta) ** 2
        w = self.c * self.n_chain * (beta * y - np.log(np.sinh(beta) / beta))
        # f_lambda = c sqrt(N) g and f_lambda_lambda = c g_y, with
        # dlambda/dK1 = 1 / (6 lambda) and d2lambda/dK1^2 = -1 / (36 lambda^3)
        g = beta + (y - langevin) * beta_y
        g_y = beta_y + (1.0 - dlangevin * beta_y) * beta_y + (y - langevin) * beta_yy
        w1 = self.c * rN * g / (6.0 * lam)
        w11 = self.c * (g_y - rN * g / lam) / (36.0 * lam * lam)
        return w, (w1, 0.0), (w11, 0.0, 0.0)


def random_rotation(rng) -> Array:
    """Haar-ish random rotation from the sign-fixed QR of a Gaussian matrix."""
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


BENCHMARKS = {
    "NH": NeoHookean,
    "IH": Isihara,
    "HW": HainesWilson,
    "GT": GentThomas,
    "AB": ArrudaBoyce,
    "OG": Ogden,
}


def benchmark_model(kind: str) -> MaterialModel:
    try:
        return BENCHMARKS[kind.upper()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown material kind {kind!r}; choose from {sorted(BENCHMARKS)}"
        ) from None
