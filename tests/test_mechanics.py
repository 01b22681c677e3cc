"""Mechanics layer: invariants and F-derivatives, benchmark materials,
objectivity, network-backed energy."""
import importlib.util
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from convexkan.errors import (
    ConfigurationError,
    EvaluationError,
    InadmissibleDeformationError,
)
from convexkan.mechanics import (
    BENCHMARKS,
    ArrudaBoyce,
    DeformationState,
    NeoHookean,
    NetworkMaterial,
    Ogden,
    benchmark_model,
    compute_state,
)
from convexkan.network import KANModel
from convexkan.symbolic import SymbolicMaterial, distill

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "make_mechanics_reference", DATA / "make_mechanics_reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def random_rotation(rng):
    """Haar-ish random rotation from the sign-fixed QR of a Gaussian matrix."""
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def objectivity_check(model, F, R):
    """|W(R F) - W(F)| for a proper rotation R."""
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3) or not np.allclose(R.T @ R, np.eye(3), atol=1e-10) or np.linalg.det(R) < 0:
        raise ConfigurationError("R must be a proper rotation matrix")
    F = np.asarray(F, dtype=np.float64)
    return abs(model.energy(R @ F) - model.energy(F))


def random_admissible_F(rng, scale=0.3):
    """Random F = I + perturbation, redrawn until comfortably invertible."""
    while True:
        F = np.eye(3) + rng.uniform(-scale, scale, size=(3, 3))
        if np.linalg.det(F) > 0.3:
            return F


class TestComputeState:
    def test_identity(self):
        st = compute_state(np.eye(3))
        assert st.I1 == 3.0 and st.I2 == 3.0 and st.J == 1.0
        npt.assert_allclose(st.K, 0.0, atol=1e-15)
        npt.assert_allclose(st.dK_dF, 0.0, atol=1e-15)

    def test_uniaxial_stretch_values(self):
        st = compute_state(np.diag([2.0, 1.0, 1.0]))
        assert st.I1 == 6.0 and st.I2 == 9.0 and st.J == 2.0
        npt.assert_allclose(st.I1_tilde, 6.0 * 2.0 ** (-2.0 / 3.0), rtol=1e-12)
        npt.assert_allclose(st.I2_star, 6.75, rtol=1e-12)
        npt.assert_allclose(st.K, [0.77976315, 1.55384757, 1.0], atol=2e-4)

    def test_simple_shear_values(self):
        st = compute_state(np.array([[1.0, 1, 0], [0, 1, 0], [0, 0, 1]]))
        assert st.I1 == 4.0 and st.I2 == 4.0 and st.J == 1.0
        npt.assert_allclose(st.K, [1.0, 8.0 - 3.0 * math.sqrt(3.0), 0.0], rtol=1e-12)

    def test_j_squared_is_i3(self):
        st = compute_state(random_admissible_F(np.random.default_rng(0)))
        npt.assert_allclose(st.J**2, st.I3, rtol=1e-12)

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleDeformationError):
            compute_state(np.diag([-1.0, 1.0, 1.0]))

    def test_plane_strain_embedding(self):
        st2 = compute_state(np.array([[1.2, 0.1], [0.0, 0.9]]))
        F3 = np.eye(3)
        F3[:2, :2] = [[1.2, 0.1], [0.0, 0.9]]
        st3 = compute_state(F3)
        npt.assert_array_equal(st2.K, st3.K)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_dK_matches_fd(self, m):
        rng = np.random.default_rng(1)
        F = random_admissible_F(rng)
        st = compute_state(F)
        h = 1e-6
        for i in range(3):
            for j in range(3):
                Fp, Fm = F.copy(), F.copy()
                Fp[i, j] += h
                Fm[i, j] -= h
                fd = (compute_state(Fp).K[m] - compute_state(Fm).K[m]) / (2 * h)
                npt.assert_allclose(st.dK_dF[m, i, j], fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_d2K_matches_fd_of_dK(self, m):
        rng = np.random.default_rng(2)
        F = random_admissible_F(rng)
        d2K = reference.d2K_dFdF(F[None])[0]
        h = 1e-6
        for k in range(3):
            for l in range(3):
                Fp, Fm = F.copy(), F.copy()
                Fp[k, l] += h
                Fm[k, l] -= h
                fd = (compute_state(Fp).dK_dF[m] - compute_state(Fm).dK_dF[m]) / (2 * h)
                npt.assert_allclose(d2K[m, :, :, k, l], fd, rtol=1e-5, atol=1e-6)


class TestBenchmarkModels:
    @pytest.mark.parametrize("kind", sorted(BENCHMARKS))
    def test_energy_and_stress_vanish_at_identity(self, kind):
        model = benchmark_model(kind)
        assert abs(model.energy(np.eye(3))) < 1e-6
        npt.assert_allclose(model.stress(np.eye(3)), 0.0, atol=1e-10)

    def test_nh_closed_form_value(self):
        w = NeoHookean().energy(np.diag([1.5, 1.0, 1.0]))
        i1t = 4.25 * 1.5 ** (-2.0 / 3.0)
        npt.assert_allclose(w, 0.5 * (i1t - 3.0) + 1.5 * 0.25, rtol=1e-12)
        npt.assert_allclose(w, 0.4966, atol=5e-4)

    @pytest.mark.parametrize("kind", sorted(BENCHMARKS))
    def test_stress_matches_fd_of_energy(self, kind):
        model = benchmark_model(kind)
        rng = np.random.default_rng(sorted(BENCHMARKS).index(kind))
        for _ in range(5):
            F = random_admissible_F(rng, scale=0.2)
            P = model.stress(F)
            h = 1e-6
            for i in range(3):
                for j in range(3):
                    Fp, Fm = F.copy(), F.copy()
                    Fp[i, j] += h
                    Fm[i, j] -= h
                    fd = (model.energy(Fp) - model.energy(Fm)) / (2 * h)
                    npt.assert_allclose(P[i, j], fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("kind", sorted(BENCHMARKS))
    def test_tangent_matches_fd_of_stress(self, kind):
        model = benchmark_model(kind)
        F = random_admissible_F(np.random.default_rng(5), scale=0.15)
        T = model.tangent(F)
        h = 1e-6
        for k in range(3):
            for l in range(3):
                Fp, Fm = F.copy(), F.copy()
                Fp[k, l] += h
                Fm[k, l] -= h
                fd = (model.stress(Fp) - model.stress(Fm)) / (2 * h)
                npt.assert_allclose(T[:, :, k, l], fd, rtol=1e-4, atol=1e-6)

    def test_ab_offset_zeroes_identity_energy(self):
        model = ArrudaBoyce()
        assert abs(model.energy(np.eye(3))) < 1e-12
        # exact inverse Langevin would give 3.7910; the Pade form shifts the
        # offset slightly
        npt.assert_allclose(model.reference_energy(), 3.791, atol=5e-3)

    @pytest.mark.parametrize("kind", ["NH", "IH", "HW", "GT", "AB"])
    def test_matches_recorded_values(self, kind):
        # W, P and dP/dF at fixed 2x2 and 3x3 F, written by the former
        # sympy-generated forms of these energies
        data = np.load(DATA / "benchmark_materials_v1.npz")
        model = benchmark_model(kind)
        for dim in "23":
            F = data[f"F{dim}"]
            for q, fn in (("W", model.energy), ("P", model.stress), ("T", model.tangent)):
                ref = data[f"{kind}_{q}{dim}"]
                npt.assert_allclose(fn(F), ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_ab_saturation_error(self):
        with pytest.raises(EvaluationError):
            # lambda_chain > sqrt(28) needs I1_tilde > 3*28
            ArrudaBoyce().energy(np.diag([80.0, 0.5, 0.5]))

    @pytest.mark.parametrize("kind", sorted(BENCHMARKS))
    def test_objectivity(self, kind):
        model = benchmark_model(kind)
        rng = np.random.default_rng(6)
        for _ in range(3):
            F = random_admissible_F(rng, scale=0.2)
            assert objectivity_check(model, F, random_rotation(rng)) < 1e-10

    def test_objectivity_90deg_rotation(self):
        Rz = np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 1]])
        assert objectivity_check(NeoHookean(), np.diag([2.0, 1.0, 1.0]), Rz) < 1e-12

    def test_isotropy_right_rotation(self):
        model = benchmark_model("HW")
        rng = np.random.default_rng(7)
        F = random_admissible_F(rng, scale=0.2)
        Q = random_rotation(rng)
        assert abs(model.energy(F @ Q) - model.energy(F)) < 1e-10

    def test_bad_rotation_rejected(self):
        with pytest.raises(ConfigurationError):
            objectivity_check(NeoHookean(), np.eye(3), 2.0 * np.eye(3))

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            benchmark_model("XX")

    def test_plane_strain_restriction(self):
        model = NeoHookean()
        F2 = np.array([[1.3, 0.1], [0.05, 0.9]])
        P2 = model.stress(F2)
        assert P2.shape == (2, 2)
        F3 = np.eye(3)
        F3[:2, :2] = F2
        npt.assert_array_equal(P2, model.stress(F3)[:2, :2])
        assert model.tangent(F2).shape == (2, 2, 2, 2)


def fourth_order_fd(f, F, h=1e-3):
    """d f / dF_kl by fourth-order central differences, with (k, l) as the
    last two axes."""
    d = F.shape[-1]
    cols = []
    for k, l in np.ndindex(d, d):
        E = np.zeros_like(F)
        E[k, l] = h
        cols.append((f(F - 2 * E) - 8 * f(F - E) + 8 * f(F + E) - f(F + 2 * E)) / (12 * h))
    return np.moveaxis(np.reshape(cols, (d, d) + np.shape(cols[0])), (0, 1), (-2, -1))


def ogden_cases():
    """F = I, uniaxial tension, equibiaxial tension and compression (each
    with exactly equal stretches) and a random F, in 2D and 3D."""
    t, b, c = 1.3, 1.2, 0.8
    paths = {"I": [1.0, 1.0, 1.0], "UT": [t, t**-0.5, t**-0.5], "BT": [b, b, b**-2],
             "BC": [c, c, c**-2]}
    rng = np.random.default_rng(47)
    cases = []
    for dim in (2, 3):
        cases += [pytest.param(np.diag(lam)[:dim, :dim], id=f"{name}-{dim}d")
                  for name, lam in paths.items()]
        cases.append(pytest.param(random_admissible_F(rng, scale=0.25)[:dim, :dim],
                                  id=f"random-{dim}d"))
    return cases


class TestOgden:
    """Ogden's closed-form stress and tangent against fourth-order
    differences of its energy and stress."""

    @pytest.mark.parametrize("F", ogden_cases())
    def test_stress_matches_fd_of_energy(self, F):
        model = Ogden()
        fd = fourth_order_fd(model.energy, F)
        npt.assert_allclose(model.stress(F), fd, rtol=0, atol=1e-9 * max(np.abs(fd).max(), 1.0))

    @pytest.mark.parametrize("F", ogden_cases())
    def test_tangent_matches_fd_of_stress(self, F):
        model = Ogden()
        T = model.tangent(F)
        assert_close_to(T, fourth_order_fd(model.stress, F), rtol=1e-9)
        npt.assert_allclose(T, T.transpose(2, 3, 0, 1), rtol=0, atol=1e-14 * np.abs(T).max())

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stress_vanishes_at_identity(self, dim):
        npt.assert_allclose(Ogden().stress(np.eye(dim)), 0.0, rtol=0, atol=1e-14)


@pytest.fixture(scope="module")
def material():
    net = KANModel.create(rng=30)
    return NetworkMaterial(net)


class TestNetworkMaterial:

    def test_energy_and_stress_vanish_at_identity(self, material):
        assert abs(material.energy(np.eye(3))) < 1e-12
        npt.assert_allclose(material.stress(np.eye(3)), 0.0, atol=1e-10)

    def test_stress_matches_fd(self, material):
        rng = np.random.default_rng(31)
        for _ in range(5):
            F = random_admissible_F(rng, scale=0.2)
            P = material.stress(F)
            h = 1e-6
            fd = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    Fp, Fm = F.copy(), F.copy()
                    Fp[i, j] += h
                    Fm[i, j] -= h
                    fd[i, j] = (material.energy(Fp) - material.energy(Fm)) / (2 * h)
            npt.assert_allclose(P, fd, rtol=1e-5, atol=1e-7)

    def test_tangent_matches_fd_of_stress(self, material):
        F = random_admissible_F(np.random.default_rng(32), scale=0.15)
        T = material.tangent(F)
        h = 1e-6
        for k in range(3):
            for l in range(3):
                Fp, Fm = F.copy(), F.copy()
                Fp[k, l] += h
                Fm[k, l] -= h
                fd = (material.stress(Fp) - material.stress(Fm)) / (2 * h)
                npt.assert_allclose(T[:, :, k, l], fd, rtol=1e-4, atol=1e-6)

    def test_polyconvexity_witness(self, material):
        rng = np.random.default_rng(33)
        for _ in range(200):
            F = random_admissible_F(rng, scale=0.3)
            st = compute_state(F)
            _, g, H = material.model.forward_with_input_derivatives(st.K)
            assert g.min() >= -1e-12
            assert np.linalg.eigvalsh(H).min() >= -1e-8

    def test_objectivity(self, material):
        rng = np.random.default_rng(34)
        F = random_admissible_F(rng, scale=0.2)
        assert objectivity_check(material, F, random_rotation(rng)) < 1e-10


@pytest.fixture(scope="module")
def all_materials():
    models = {kind: benchmark_model(kind) for kind in sorted(BENCHMARKS)}
    models["ICKAN"] = NetworkMaterial(KANModel.create(rng=35))
    models["SYM"] = SymbolicMaterial(distill(KANModel.create(rng=36)))
    return models


def assert_close_to(got, want, rtol=1e-12):
    """Agreement relative to the largest entry of ``want``."""
    want = np.asarray(want)
    npt.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


def random_stack(rng, n, dim):
    F = np.empty((n, 3, 3))
    for e in range(n):
        F[e] = random_admissible_F(rng, scale=0.2)
    if dim == 2:
        return F[:, :2, :2]
    return F


class TestBatchedEquivalence:
    """A stack of deformation gradients gives what one call per F gives."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_compute_state_stack(self, dim):
        Fs = random_stack(np.random.default_rng(40), 6, dim)
        st = compute_state(Fs)
        singles = [compute_state(F) for F in Fs]
        for name in ("I1", "I2", "I3", "J", "I1_tilde", "I2_star", "K", "dK_dF"):
            got = getattr(st, name)
            assert got.shape[0] == 6, name
            assert_close_to(got, [getattr(s, name) for s in singles])
        assert_close_to(reference.d2K_dFdF(Fs), [reference.d2K_dFdF(F[None])[0] for F in Fs])

    def test_single_shapes_unchanged(self):
        st = compute_state(np.eye(2))
        assert isinstance(st.J, float) and isinstance(st.I1_tilde, float)
        assert st.K.shape == (3,) and st.dK_dF.shape == (3, 3, 3)
        assert compute_state(np.eye(2)[None]).K.shape == (1, 3)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["NH", "IH", "HW", "GT", "AB", "OG", "ICKAN", "SYM"])
    def test_material_stack(self, all_materials, kind, dim):
        model = all_materials[kind]
        Fs = random_stack(np.random.default_rng(41), 5, dim)
        W, P, T = model.energy(Fs), model.stress(Fs), model.tangent(Fs)
        assert W.shape == (5,)
        assert P.shape == (5, dim, dim) and T.shape == (5, dim, dim, dim, dim)
        assert_close_to(W, [model.energy(F) for F in Fs])
        assert_close_to(P, [model.stress(F) for F in Fs])
        assert_close_to(T, [model.tangent(F) for F in Fs])
        # a stack of one is a stack, not a single F
        one = Fs[:1]
        assert np.shape(model.energy(one)) == (1,)
        assert_close_to(model.stress(one)[0], model.stress(Fs[0]))
        assert_close_to(model.tangent(one)[0], model.tangent(Fs[0]))
        assert isinstance(model.energy(Fs[0]), float)

    @pytest.mark.parametrize("kind", ["NH", "OG", "ICKAN"])
    def test_inadmissible_element_named(self, all_materials, kind):
        model = all_materials[kind]
        Fs = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
        Fs[2] = np.diag([-0.5, 1.0])
        Fs[3] = np.diag([-0.5, 1.0])
        for call in (model.energy, model.stress, model.tangent):
            with pytest.raises(InadmissibleDeformationError, match=r"^element 2: det\(F\) = -0.5"):
                call(Fs)
        with pytest.raises(InadmissibleDeformationError, match=r"^det\(F\)"):
            model.stress(Fs[2])

    def test_ab_saturated_element_named(self):
        Fs = np.broadcast_to(np.eye(3), (3, 3, 3)).copy()
        Fs[1] = np.diag([80.0, 0.5, 0.5])
        for call in (ArrudaBoyce().energy, ArrudaBoyce().stress, ArrudaBoyce().tangent):
            with pytest.raises(EvaluationError, match="^element 1: chain stretch saturated"):
                call(Fs)

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_state(np.eye(4))
        with pytest.raises(ConfigurationError):
            NeoHookean().stress(np.ones((2, 3, 2)))


def separate_calls(model, F):
    """W, P and dP/dF of ``model`` at F, each from its own evaluation: for a
    K-material a deformation state and a K-derivative call per quantity,
    for Ogden one response per quantity."""
    if isinstance(model, Ogden):
        return model.response(F).energy, model.response(F).stress, model.response(F).tangent
    state = compute_state(F)
    W = model.k_value_grad_hess(state.K)[0] - model.reference_energy()
    state = compute_state(F)
    P = state.stress(model.k_value_grad_hess(state.K)[1])
    state = compute_state(F)
    T = state.tangent(*model.k_value_grad_hess(state.K)[1:])
    return (float(W) if np.ndim(W) == 0 else W), P, T


class TestResponse:
    """One material evaluation gives W, P and dP/dF bit for bit as one
    evaluation per quantity does, and finishes the energy and tangent only
    when they are read."""

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["NH", "IH", "AB", "OG", "ICKAN", "SYM"])
    def test_response_equals_separate_calls(self, all_materials, kind, dim, stacked):
        model = all_materials[kind]
        Fs = random_stack(np.random.default_rng(43), 4, dim)
        F = Fs if stacked else Fs[1]
        r = model.response(F)
        W, P, T = separate_calls(model, F)
        assert isinstance(r.energy, np.ndarray if stacked else float)
        npt.assert_array_equal(r.energy, W)
        npt.assert_array_equal(r.stress, P)
        npt.assert_array_equal(r.tangent, T)
        for got, want in ((model.energy(F), W), (model.stress(F), P), (model.tangent(F), T)):
            npt.assert_array_equal(got, want)

    def test_tangent_and_energy_finished_when_read(self, monkeypatch):
        model = SymbolicMaterial(distill(KANModel.create(rng=44)))
        calls = []
        real_tangent = DeformationState.tangent
        monkeypatch.setattr(DeformationState, "tangent",
                            lambda self, *a: calls.append("tangent") or real_tangent(self, *a))
        monkeypatch.setattr(model, "reference_energy", lambda: calls.append("w0") or 0.25)
        r = model.response(random_stack(np.random.default_rng(45), 3, 2))
        assert calls == []
        r.stress
        assert calls == []
        T = r.tangent
        assert r.tangent is T and calls == ["tangent"]
        r.energy
        r.energy
        assert calls == ["tangent", "w0"]


class TestAgainstMechanicsReference:
    """``mechanics_reference_v1.npz`` (see ``make_mechanics_reference.py``)
    was written by the kinematics that chained (I1, I2, J)-partials through
    an F^{-T} from ``np.linalg.inv``, and its Ogden stress and tangent are
    central differences.  K, the invariants and every energy but the
    network's are bit-identical; the F-derivatives, stresses and tangents,
    and the network's energy, whose control points were nudged up by ulps
    where they are now rounded onto one grid per row, may move by rounding
    only, except Ogden's, which move by the difference error: P by up to
    1e-9 and dP/dF by up to 1e-5 of the largest entry."""

    REF = np.load(DATA / "mechanics_reference_v1.npz")

    @pytest.fixture(scope="class")
    def materials(self):
        return reference.materials()

    @pytest.mark.parametrize("dim", reference.DIMS)
    def test_state(self, dim):
        st = compute_state(self.REF[f"F{dim}"])
        for name in ("K",) + reference.INVARIANTS:
            npt.assert_array_equal(getattr(st, name), self.REF[f"{dim}_{name}"], err_msg=name)
        assert_close_to(st.dK_dF, self.REF[f"{dim}_dK_dF"], rtol=1e-13)
        assert_close_to(reference.d2K_dFdF(self.REF[f"F{dim}"]), self.REF[f"{dim}_d2K_dFdF"],
                        rtol=1e-13)

    @pytest.mark.parametrize("dim", reference.DIMS)
    @pytest.mark.parametrize("kind", reference.MATERIALS)
    def test_material(self, materials, kind, dim):
        model, F = materials[kind], self.REF[f"F{dim}"]
        want = {q: self.REF[f"{dim}_{kind}_{q}"] for q in "WPT"}
        if kind == "ICKAN":
            assert_close_to(model.energy(F), want["W"], rtol=1e-13)
        else:
            npt.assert_array_equal(model.energy(F), want["W"])
        tol = {"P": 1e-9, "T": 1e-5} if kind == "OG" else {"P": 1e-13, "T": 1e-13}
        for q, got in (("P", model.stress(F)), ("T", model.tangent(F))):
            assert_close_to(got, want[q], rtol=tol[q])

    def test_no_matrix_inverse(self, materials, monkeypatch):
        def inv(_):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(np.linalg, "inv", inv)
        for dim in reference.DIMS:
            F = self.REF[f"F{dim}"]
            assert np.isfinite(compute_state(F).dK_dF).all()
            assert np.isfinite(reference.d2K_dFdF(F)).all()
            for model in materials.values():
                model.stress(F)
                model.tangent(F)
