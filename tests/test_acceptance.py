"""End-to-end gates for the whole pipeline.

These are the slow, integrative checks: spline guarantees at scale, material
consistency across every model kind, FEM exactness, and the headline
experiment — recovering a hidden Neo-Hookean law from one virtual full-field
test, distilling it to a formula, and redeploying it on an unseen geometry.

Run with ``pytest tests/test_acceptance.py -v``; the training-based tests
take several minutes each.
"""
import time

import numpy as np
import numpy.testing as npt
import pytest

from convexkan.bspline import KnotVector, design_rows, reparameterize
from convexkan.cli import evaluation_paths, main, r2_score, rel_rms
from convexkan.fem import (
    Mesh,
    biaxial_partition,
    deformation_gradients,
    generate_dataset,
    solve,
    two_hole_mesh,
    uniaxial_partition,
    unit_square_hole_mesh,
)
from convexkan.mechanics import (
    BENCHMARKS,
    NetworkMaterial,
    benchmark_model,
    compute_state,
)
from convexkan.network import CONSTRAINED, VANILLA, KANModel
from convexkan.symbolic import distill
from convexkan.training import TrainConfig, train_ensemble
from test_mechanics import random_rotation


def random_admissible_F(rng, scale=0.3):
    while True:
        F = np.eye(3) + scale * rng.normal(size=(3, 3))
        if np.linalg.det(F) > 0.05:
            return F


# ---------------------------------------------------------------------------
# spline soundness
# ---------------------------------------------------------------------------


class TestSplineSoundness:
    def test_partition_of_unity_and_constraints_at_scale(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        knots = KnotVector.from_domain(-5.0, 25.0, n_coef=17, k=5)

        x = rng.uniform(-5.0, 25.0, size=2000)
        sums = design_rows(x, knots.t, knots.k, (0,))[0].sum(axis=1)
        npt.assert_allclose(sums, 1.0, atol=1e-12)

        # the reparameterization must emit valid control points for any raw
        # input, exactly in float arithmetic
        raws = rng.normal(scale=3.0, size=(10_000, 17))
        for raw in raws:
            c = reparameterize(raw)
            d1 = np.diff(c)
            assert d1.min() >= 0.0
            assert np.diff(d1).min() >= 0.0

        # analytic spline derivatives against central differences
        from convexkan.bspline import ConvexSpline

        sp = ConvexSpline(knots=knots, raw=rng.normal(size=17))
        xs = rng.uniform(-4.0, 24.0, size=200)
        h = 1e-6
        _, d1, d2 = sp.eval_extended(xs)
        vp = sp.eval_extended(xs + h)[0]
        vm = sp.eval_extended(xs - h)[0]
        npt.assert_allclose(d1, (vp - vm) / (2 * h), rtol=1e-5, atol=1e-8)
        gp = sp.eval_extended(xs + h)[1]
        gm = sp.eval_extended(xs - h)[1]
        npt.assert_allclose(d2, (gp - gm) / (2 * h), rtol=1e-5, atol=1e-6)

        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# convexity and monotonicity of the constrained network
# ---------------------------------------------------------------------------


class TestNetworkGuarantees:
    def test_gradient_hessian_and_jensen_over_many_models(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        for trial in range(100):
            model = KANModel.create(rng=1000 + trial)
            K = rng.uniform(-5.0, 25.0, size=(1000, 3))
            _, g, H = model.forward_with_input_derivatives(K)
            assert g.min() >= -1e-12
            assert np.linalg.eigvalsh(H).min() >= -1e-8

            Ka = rng.uniform(-5.0, 25.0, size=(50, 3))
            Kb = rng.uniform(-5.0, 25.0, size=(50, 3))
            lam = rng.uniform(size=(50, 1))
            mid = model.forward(lam * Ka + (1 - lam) * Kb)
            chord = (
                lam[:, 0] * model.forward(Ka) + (1 - lam[:, 0]) * model.forward(Kb)
            )
            assert np.all(mid <= chord + 1e-10)
        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# material-model consistency (all kinds)
# ---------------------------------------------------------------------------


def all_material_kinds():
    models = {kind: benchmark_model(kind) for kind in sorted(BENCHMARKS)}
    models["ICKAN"] = NetworkMaterial(KANModel.create(rng=42))
    return models


class TestMechanicsConsistency:
    def test_stress_objectivity_and_reference_state(self):
        start = time.perf_counter()
        h = 1e-6
        for kind, model in all_material_kinds().items():
            rng = np.random.default_rng(abs(hash(kind)) % 2**31)
            for _ in range(100):
                F = random_admissible_F(rng, scale=0.2)
                # objectivity: rotations do not change the energy
                Q = random_rotation(rng)
                assert abs(model.energy(Q @ F) - model.energy(F)) < 1e-10 * (
                    1.0 + abs(model.energy(F))
                )
                if kind == "OG":
                    continue  # stress is itself defined by differencing
                P = model.stress(F)
                fd = np.empty((3, 3))
                for i in range(3):
                    for j in range(3):
                        Fp, Fm = F.copy(), F.copy()
                        Fp[i, j] += h
                        Fm[i, j] -= h
                        fd[i, j] = (model.energy(Fp) - model.energy(Fm)) / (2 * h)
                denom = np.abs(fd).max() + 1e-12
                assert np.abs(P - fd).max() / denom < 1e-5, kind

            # reference configuration is stress-free
            P0 = np.abs(model.stress(np.eye(3))).max()
            assert P0 < (1e-8 if kind == "OG" else 1e-10), kind
        assert time.perf_counter() - start < 60.0

    def test_og_differencing_has_quadratic_convergence(self):
        # the Ogden stress is produced by central differences; halving the
        # step must shrink the error by ~4 (second-order accuracy)
        og = benchmark_model("OG")
        og2 = benchmark_model("OG")
        og2._fd_step = lambda F3: 2e-6 * float(np.linalg.norm(F3))
        rng = np.random.default_rng(9)
        ratios = []
        for _ in range(10):
            F = random_admissible_F(rng, scale=0.2)
            P_h = og.stress(F)
            P_2h = og2.stress(F)
            P_star = (4.0 * P_h - P_2h) / 3.0  # Richardson extrapolation
            e_h = np.linalg.norm(P_h - P_star)
            e_2h = np.linalg.norm(P_2h - P_star)
            if e_h > 1e-12:
                ratios.append(e_2h / e_h)
        assert 3.0 < np.median(ratios) < 5.0

    def test_arruda_boyce_reference_energy(self):
        assert abs(benchmark_model("AB").energy(np.eye(3))) < 1e-6


# ---------------------------------------------------------------------------
# FEM exactness
# ---------------------------------------------------------------------------


class TestPatchTest:
    @staticmethod
    def _run_patch(mesh):
        from convexkan import fem
        from convexkan.fem import DofPartition, FixedGroup, nodal_forces
        from convexkan.mechanics import NeoHookean

        # clamp every boundary node to an affine field; interior nodes must
        # reproduce it exactly (P1 completeness), starting from a perturbed
        # predictor so Newton actually has corrections to make
        A = np.array([[1.08, 0.03], [-0.02, 1.05]])
        exact = mesh.nodes @ (A - np.eye(2)).T
        on_edge = np.any(
            (np.abs(mesh.nodes) < 1e-12) | (np.abs(mesh.nodes - 1.0) < 1e-12),
            axis=1,
        )
        bnd = np.flatnonzero(on_edge)
        groups = []
        for comp in (0, 1):
            dofs = np.column_stack([bnd, np.full(bnd.size, comp)])
            groups.append(FixedGroup(f"edge{comp}", dofs, 0.0))
        part = DofPartition(n_nodes=mesh.n_nodes, groups=tuple(groups))
        u0 = exact.copy()
        u0[~on_edge] += 1e-3
        f0 = nodal_forces(mesh, u0, NeoHookean())
        u, _, hist = fem._newton(mesh, part, NeoHookean(), u0, f0, u0, 1e-9)
        npt.assert_allclose(u[~on_edge], exact[~on_edge], atol=1e-10)
        assert len(hist) <= 4  # initial residual + at most 3 corrections

    def test_affine_field_reproduced_exactly(self):
        start = time.perf_counter()
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2], [0, 2, 3]])
        self._run_patch(Mesh(nodes=nodes, triangles=tris))

        n = 11  # 200-element structured grid
        xs = np.linspace(0.0, 1.0, n)
        nodes = np.column_stack([np.repeat(xs, n), np.tile(xs, n)])
        cells = []
        for i in range(n - 1):
            for j in range(n - 1):
                a, b = i * n + j, (i + 1) * n + j
                cells.append((a, b, b + 1))
                cells.append((a, b + 1, a + 1))
        self._run_patch(Mesh(nodes=nodes, triangles=np.array(cells)))
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# hidden-model rediscovery (the headline experiment, desk scale)
# ---------------------------------------------------------------------------

_REDISCOVERY_SEED = 0
_DELTAS = [0.1, 0.2, 0.3]


@pytest.fixture(scope="module")
def hole_mesh():
    return unit_square_hole_mesh(n=21)


@pytest.fixture(scope="module")
def nh_datasets(hole_mesh):
    from convexkan.mechanics import NeoHookean

    part = biaxial_partition(hole_mesh)
    clean = generate_dataset(hole_mesh, part, NeoHookean(), _DELTAS)
    noisy = generate_dataset(
        hole_mesh, part, NeoHookean(), _DELTAS, noise_sigma=1e-4, seed=7
    )
    return clean, noisy


@pytest.fixture(scope="module")
def nh_trained(nh_datasets):
    clean, noisy = nh_datasets
    config = TrainConfig(epochs=1000, ensemble_size=3, seed=_REDISCOVERY_SEED)
    start = time.perf_counter()
    model_clean, _ = train_ensemble(config, clean)
    model_noisy, _ = train_ensemble(config, noisy)
    wall = time.perf_counter() - start
    return model_clean, model_noisy, wall


def _path_errors(material, gamma_cap=1.0, samples=21):
    """Relative RMS of all P components per path, truth = Neo-Hookean."""
    from convexkan.mechanics import NeoHookean

    truth = NeoHookean()
    errors = {}
    for path in evaluation_paths():
        gammas = np.linspace(0.0, min(gamma_cap, path.gamma_max), samples)
        P_true = np.array([truth.stress(path.deformation(g)) for g in gammas])
        P_hat = np.array([material.stress(path.deformation(g)) for g in gammas])
        errors[path.kind] = rel_rms(P_hat.ravel(), P_true.ravel())
    return errors


def _assert_paths_within(errors, bound):
    """Fail listing every path whose rel-RMS is not below ``bound``."""
    over = [f"{kind}: rel-RMS {err:.4f}" for kind, err in sorted(errors.items())
            if not err < bound]
    assert not over, f"{len(over)} path(s) over {bound}: " + "; ".join(over)


class TestRediscovery:
    def test_mesh_is_desk_scale(self, hole_mesh):
        assert 350 <= hole_mesh.n_nodes <= 450

    def test_training_runtime(self, nh_trained):
        assert nh_trained[2] < 30 * 60.0

    def test_stress_paths_noiseless(self, nh_trained):
        _assert_paths_within(_path_errors(NetworkMaterial(nh_trained[0])), 0.05)

    def test_stress_paths_noisy(self, nh_trained):
        _assert_paths_within(_path_errors(NetworkMaterial(nh_trained[1])), 0.10)

    def test_distilled_coefficients(self, nh_trained):
        energy = distill(nh_trained[0])
        k1, _, k3 = energy.coeffs
        assert 0.4 <= k1 <= 0.6, f"K1 coefficient {k1:.4f}"
        assert 1.35 <= k3 <= 1.65, f"K3 coefficient {k3:.4f}"


# ---------------------------------------------------------------------------
# redeployment on an unseen geometry
# ---------------------------------------------------------------------------


class TestValidationSolve:
    def test_invariant_parity_on_two_hole_specimen(self, nh_trained):
        from convexkan.mechanics import NeoHookean

        start = time.perf_counter()
        mesh = two_hole_mesh(n=13)
        part = uniaxial_partition(mesh)
        deltas = np.linspace(0.0, 0.5, 11)[1:]
        u_true = solve(mesh, part, NeoHookean(), deltas).displacements[-1]
        u_hat = solve(mesh, part, NetworkMaterial(nh_trained[0]), deltas).displacements[-1]

        def invariants(u):
            Fs = deformation_gradients(mesh, u)
            states = [compute_state(F) for F in Fs]
            return (
                np.array([s.I1_tilde for s in states]),
                np.array([s.J for s in states]),
            )

        i1_t, j_t = invariants(u_true)
        i1_h, j_h = invariants(u_hat)
        assert r2_score(i1_h, i1_t) > 0.95
        assert r2_score(j_h, j_t) > 0.95
        assert time.perf_counter() - start < 10 * 60.0


# ---------------------------------------------------------------------------
# the constraint matters: unconstrained ablation loses convexity
# ---------------------------------------------------------------------------


class TestAblationWitness:
    def test_vanilla_training_breaks_convexity_somewhere(self, nh_datasets):
        clean, _ = nh_datasets
        config = TrainConfig(epochs=1000, ensemble_size=1, seed=_REDISCOVERY_SEED)
        model, _ = train_ensemble(config, clean, mode=VANILLA)
        rng = np.random.default_rng(3)
        worst = np.inf
        h = 0.5
        for _ in range(500):
            K = rng.uniform(-5.0, 25.0, size=3)
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            second = (
                model.forward(K + h * d) - 2.0 * model.forward(K) + model.forward(K - h * d)
            )
            worst = min(worst, float(second))
        assert worst < -1e-8, f"no convexity violation found (min {worst:.2e})"


# ---------------------------------------------------------------------------
# full-scale profile is wired through the same code paths
# ---------------------------------------------------------------------------


class TestPaperScaleProfile:
    def test_generate_accepts_paper_scale(self, tmp_path):
        out = tmp_path / "full.txt"
        code = main(
            ["generate", "--model", "NH", "--steps", "1", "--paper-scale",
             "--out", str(out)]
        )
        assert code == 0
        from convexkan.fem import SpecimenDataset

        ds = SpecimenDataset.load(out)
        assert ds.mesh.n_nodes > 1400  # full-resolution training specimen

    def test_simulate_flag_is_wired(self):
        from convexkan.cli import build_parser

        args = build_parser().parse_args(
            ["simulate", "--model", "NH", "--symbolic", "x.sym", "--paper-scale",
             "--out", "s"]
        )
        assert args.paper_scale
