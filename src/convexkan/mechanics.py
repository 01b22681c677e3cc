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


class DeformationState:
    """Invariants and ansatz inputs K of one deformation gradient, or of a
    stack of them, and the chain rule from an energy's K-derivatives to its
    stress and tangent.

    The chain runs through the base invariants (I1, I2, J) in closed form
    (Bonet, Gil & Ortigosa 2015): dI1/dF = 2F, dI2/dF = 2(I1 F - F C) and
    dJ/dF = cof F, whose rows are cross products of F's rows.  The second
    derivatives on the input's d x d block are d2I1 = 2 dd,
    d2I2 = 4 F(x)F + 2 I1 dd - 2 (d(x)C + F.F + B(x)d) and
    d2J = (cof(x)cof - cof.cof) / J, where dd_ijkl = d_ik d_jl, the dotted
    products pair indices (il)(kj) and B = F F^T.
    """

    def __init__(self, F3: Array, in_plane: bool, single: bool):
        J = np.linalg.det(F3)
        bad = np.flatnonzero(J <= 0.0)
        if bad.size:
            e = int(bad[0])
            raise InadmissibleDeformationError(f"{_element(e, single)}det(F) = {J[e]} <= 0")
        C = np.swapaxes(F3, -1, -2) @ F3
        I1 = np.trace(C, axis1=-2, axis2=-1)
        I2 = 0.5 * (I1 * I1 - np.einsum("nij,nji->n", C, C))
        I1_tilde = I1 * J ** (-2.0 / 3.0)
        I2_star = (I2 * J ** (-4.0 / 3.0)) ** 1.5  # equals I2^{3/2} / J^2

        # K1 = I1 J^{-2/3} - 3, K2 = I2^{3/2} J^{-2} - 3 sqrt(3), K3 = (J - 1)^2;
        # dK[:, m, a] and d2K[:, m, a, b] are their partials in (I1, I2, J)
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
        self.dim = 2 if in_plane else 3  # size of the stress block returned
        self._F, self._C, self._I1, self._J = F3, C, I1, J
        self._dK, self._d2K = dK, d2K
        self.I1 = _unbatch(I1, single)
        self.I2 = _unbatch(I2, single)
        self.I3 = _unbatch(J * J, single)
        self.J = _unbatch(J, single)
        self.I1_tilde = _unbatch(I1_tilde, single)
        self.I2_star = _unbatch(I2_star, single)
        self.K = _unbatch(K, single)  # (..., 3)

    @cached_property
    def _dI(self) -> Array:
        """dI_a/dF_ij for (I1, I2, J), shape (N, 3, 3, 3)."""
        F = self._F
        cof = np.cross(F[:, [1, 2, 0]], F[:, [2, 0, 1]])
        return np.stack([2.0 * F, 2.0 * (self._I1[:, None, None] * F - F @ self._C), cof], axis=1)

    def _chain(self, p: Array, S: Array, d: int) -> Array:
        """Second F-derivative, on the leading d x d block, of a function
        with first (N, 3) and second (N, 3, 3) partials p, S in (I1, I2, J):
        sum_a p_a d2I_a + sum_ab S_ab dI_a (x) dI_b, shape (N, d, d, d, d)."""
        n, s = len(p), slice(0, d)
        F, C, G = self._F[:, s, s], self._C[:, s, s], self._dI[:, 2, s, s]
        Ft, Gt = np.swapaxes(F, -1, -2), np.swapaxes(G, -1, -2)
        B = F @ Ft  # F3 is block diagonal for in-plane input
        dI = self._dI[:, :, s, s].reshape(n, 3, d * d)
        T = (np.swapaxes(dI, -1, -2) @ S @ dI).reshape(n, d, d, d, d)
        p0, p1, p2 = (p[:, a, None, None] for a in range(3))
        c0 = 2.0 * (p0 + p1 * self._I1[:, None, None])
        c1, c2 = 2.0 * p1, p2 / self._J[:, None, None]
        eye = np.eye(d)  # the terms of p . d2I in the class docstring's order
        T += c0[:, :, :, None, None] * (eye[:, None, :, None] * eye[None, :, None, :])
        T += (2.0 * c1 * F)[:, :, :, None, None] * F[:, None, None]
        T -= eye[:, None, :, None] * (c1 * C)[:, None, :, None, :]  # C_lj = C_jl
        T -= (c1 * F)[:, :, None, None, :] * Ft[:, None, :, :, None]
        T -= (c1 * B)[:, :, None, :, None] * eye[None, :, None, :]
        T += (c2 * G)[:, :, :, None, None] * G[:, None, None]
        T -= (c2 * G)[:, :, None, None, :] * Gt[:, None, :, :, None]
        return T

    @cached_property
    def dK_dF(self) -> Array:
        """dK_m / dF_ij, shape (..., 3, 3, 3)."""
        n = len(self._J)
        return _unbatch((self._dK @ self._dI.reshape(n, 3, 9)).reshape(n, 3, 3, 3), self.single)

    def _first(self, g) -> Array:
        """dW/d(I1, I2, J), (N, 3), from dW/dK."""
        return (np.reshape(g, (-1, 1, 3)) @ self._dK)[:, 0]

    def stress(self, g) -> Array:
        """P = dW/dF on the input's block, given dW/dK (..., 3)."""
        n, d = len(self._J), self.dim
        dI = self._dI[:, :, :d, :d].reshape(n, 3, d * d)
        return _unbatch((self._first(g)[:, None] @ dI).reshape(n, d, d), self.single)

    def tangent(self, g, H) -> Array:
        """dP/dF on the input's block, given dW/dK (..., 3) and
        d2W/dK dK (..., 3, 3)."""
        n, dK = len(self._J), self._dK
        S = np.swapaxes(dK, -1, -2) @ np.reshape(H, (n, 3, 3)) @ dK
        S += (np.reshape(g, (n, 1, 3)) @ self._d2K.reshape(n, 3, 9)).reshape(n, 3, 3)
        return _unbatch(self._chain(self._first(g), S, self.dim), self.single)


def compute_state(F) -> DeformationState:
    """Invariant/derivative bundle of one deformation gradient or a stack.

    Raises :class:`InadmissibleDeformationError` for det F <= 0, naming the
    first such element of a stack.
    """
    return DeformationState(*_embed(F))


class Response:
    """A material's energy W, stress P = dW/dF and tangent dP/dF at one
    deformation gradient or a stack, all from one evaluation.  The energy
    and the tangent are finished when first read, by the callables
    ``energy`` and ``tangent``: the stress alone needs neither the
    reference energy nor the tangent's chain rule."""

    def __init__(self, energy, stress: Array, tangent):
        self._energy, self.stress, self._tangent = energy, stress, tangent

    @cached_property
    def energy(self):
        return self._energy()

    @cached_property
    def tangent(self) -> Array:
        return self._tangent()


class MaterialModel:
    """Common interface: energy W(F), stress P = dW/dF and tangent modulus
    dP/dF, for one F or a stack, all read from :meth:`response`.  2x2
    inputs yield in-plane 2x2 / 2x2x2x2 outputs.

    A material states its energy as a function of the ansatz inputs K
    through :meth:`k_value_grad_hess`, and :class:`DeformationState` turns
    the K-derivatives into stress and tangent.  :meth:`response` subtracts
    the value at K = 0, so that every material's W vanishes at F = I, the
    undeformed state (Thakolkaran et al. 2022).  Ogden, whose energy is not
    a function of K, overrides :meth:`response` and reads the same
    deformation state's kinematics and chain rule; its closed form vanishes
    at F = I itself.
    """

    kind = "?"
    _w0 = None

    def k_value_grad_hess(self, K: Array):
        """(W, dW/dK, d2W/dK dK) at one K (3,) or a stack (N, 3)."""
        raise NotImplementedError

    def reference_energy(self) -> float:
        """Value at K = 0, subtracted so W(I) = 0.  The energy is treated as
        frozen, so the value is computed once per material."""
        if self._w0 is None:
            self._w0 = float(self.k_value_grad_hess(np.zeros(3))[0])
        return self._w0

    def response(self, F) -> Response:
        """W less the reference energy, P and (when read) dP/dF at F from
        one deformation state and one K-derivative evaluation."""
        state = compute_state(F)
        w, g, H = self.k_value_grad_hess(state.K)

        def energy():
            W = w - self.reference_energy()
            return float(W) if np.ndim(W) == 0 else W

        return Response(energy, state.stress(g), lambda: state.tangent(g, H))

    def energy(self, F):
        return self.response(F).energy

    def stress(self, F) -> Array:
        return self.response(F).stress

    def tangent(self, F) -> Array:
        return self.response(F).tangent


class Ogden(MaterialModel):
    """Principal-stretch model (ground-truth data generation only),
    W = mu/eta sum_i ((J^{-1/3} lambda_i)^eta - 1) + 3/2 (J - 1)^2.

    In the eigenvalues x_i = lambda_i^2 of C, with p = eta/2, T = sum x_i^p,
    a = mu/eta J^{-eta/3} and A = C^{p-1}, the stress is
    P = eta a (F A - T/(3J) cof F) + 3 (J - 1) cof F.  The tangent takes its
    J-terms from the deformation state's chain rule and differentiates A as
    a matrix function of C (Daleckii-Krein): in C's eigenbasis dA is dC
    scaled entrywise by the divided differences of x^{p-1}, which become
    (p - 1) x^{p-2} where two stretches are equal.
    """

    kind = "OG"
    mu = 1.3
    eta = 1.3

    def response(self, F) -> Response:
        state = compute_state(F)
        F3, C, J, d = state._F, state._C, state._J, state.dim
        eta, q = self.eta, 0.5 * self.eta - 1.0
        x, Q = np.linalg.eigh(C)
        x = np.maximum(x, 1e-300)
        T, a = np.sum(x ** (0.5 * eta), axis=1), self.mu / eta * J ** (-eta / 3.0)
        A = (Q * x[:, None] ** q) @ np.swapaxes(Q, -1, -2)
        FA, cof = (F3 @ A)[:, :d, :d], state._dI[:, 2, :d, :d]
        c = 3.0 * (J - 1.0) - eta * a * T / (3.0 * J)  # dW/dJ
        P = (eta * a)[:, None, None] * FA + c[:, None, None] * cof

        def energy():
            lam2 = np.maximum(np.linalg.eigvalsh(C), 1e-300)
            p = ((J ** (-1.0 / 3.0))[:, None] * np.sqrt(lam2)) ** eta
            W = self.mu / eta * (p[:, 0] + p[:, 1] + p[:, 2] - 3.0) + 1.5 * (J - 1.0) ** 2
            return _unbatch(W, state.single)

        def tangent():
            g, S = np.zeros((len(J), 3)), np.zeros((len(J), 3, 3))
            g[:, 2], S[:, 2, 2] = c, eta * (eta + 3.0) * a * T / (9.0 * J * J) + 3.0
            xa, xb = x[:, :, None], x[:, None, :]
            same = xa == xb  # divided differences of x^q over C's eigenvalues
            div = np.where(same, q * xb ** (q - 1.0),
                           xb**q * np.expm1(q * np.log(xa / xb)) / np.where(same, 1.0, xa - xb))
            # F dA for dF = e_kl is G (div * Q^T dC Q) Q^T with G = F Q, (N, k, l, i, j)
            G = F3 @ Q
            GQ = G[:, :d, None, :, None] * Q[:, None, :d, None, :]  # G_ka Q_lb
            FdA = G[:, None, None, :d] @ (div[:, None, None] * (GQ + np.swapaxes(GQ, -1, -2)))
            FdA = (FdA @ np.swapaxes(Q, -1, -2)[:, None, None, :, :d]).transpose(0, 3, 4, 1, 2)
            # d(eta a)/dJ (FA (x) cof + cof (x) FA) + eta a (d_ik A_lj + F dA)
            FAcof = FA[:, :, :, None, None] * cof[:, None, None]
            out = state._chain(g, S, d) - (eta * eta / 3.0 * a / J)[:, None, None, None, None] * (
                FAcof + FAcof.transpose(0, 3, 4, 1, 2))
            FdA += np.eye(d)[:, None, :, None] * A[:, None, :d, None, :d]
            return _unbatch(out + (eta * a)[:, None, None, None, None] * FdA, state.single)

        return Response(energy, _unbatch(P, state.single), tangent)


class NetworkMaterial(MaterialModel):
    """Strain energy given by a trained spline network, less its value at
    the undeformed state."""

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


class ClosedFormMaterial(MaterialModel):
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
