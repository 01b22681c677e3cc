"""Finite element layer: meshes and meshers, deformation gradients, force
assembly, reactions, Newton solves, and dataset generation/IO."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import convexkan
import convexkan.fem as fem
from convexkan.errors import (
    ConfigurationError,
    DataError,
    InadmissibleDeformationError,
    SolverError,
)
from convexkan.fem import (
    DofPartition,
    FixedGroup,
    Mesh,
    SpecimenDataset,
    biaxial_partition,
    deformation_gradients,
    generate_dataset,
    nodal_forces,
    reaction,
    solve,
    tangent_matrix,
    two_hole_mesh,
    uniaxial_partition,
    unit_square_hole_mesh,
)
from convexkan.mechanics import NeoHookean, NetworkMaterial, benchmark_model
from convexkan.network import KANModel


def unit_square_two_tri():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(nodes=nodes, triangles=tris)


def square_grid_mesh(n):
    xs = np.linspace(0.0, 1.0, n)
    nodes = np.column_stack([np.repeat(xs, n), np.tile(xs, n)])
    tris = []
    for i in range(n - 1):
        for j in range(n - 1):
            a, b = i * n + j, (i + 1) * n + j
            tris.append((a, b, b + 1))
            tris.append((a, b + 1, a + 1))
    return Mesh(nodes=nodes, triangles=np.array(tris))


def affine_displacement(mesh, A):
    return mesh.nodes @ (A - np.eye(2)).T


class TestMesh:
    def test_areas_and_gradients_sum(self):
        m = unit_square_two_tri()
        npt.assert_allclose(m.area, [0.5, 0.5])
        # shape-function gradients of each element sum to zero
        npt.assert_allclose(m.grad_N.sum(axis=1), 0.0, atol=1e-14)

    def test_gradient_interpolates_linear_field(self):
        # nabla of the P1 interpolant of a linear field is exact
        m = unit_square_two_tri()
        coef = np.array([2.0, -3.0])
        vals = m.nodes @ coef
        for e in range(m.n_elements):
            grad = vals[m.triangles[e]] @ m.grad_N[e]
            npt.assert_allclose(grad, coef, rtol=1e-14)

    def test_orientation_repair(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = Mesh(nodes=nodes, triangles=np.array([[0, 2, 1]]))  # clockwise
        assert m.area[0] > 0.0

    def test_degenerate_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DataError):
            Mesh(nodes=nodes, triangles=np.array([[0, 1, 2]]))

    def test_index_out_of_range(self):
        with pytest.raises(DataError):
            Mesh(nodes=np.zeros((2, 2)), triangles=np.array([[0, 1, 2]]))

    def test_file_round_trip(self, tmp_path):
        m = unit_square_hole_mesh(n=11)
        path = tmp_path / "m.mesh"
        m.save(path)
        m2 = Mesh.load(path)
        npt.assert_array_equal(m.nodes, m2.nodes)
        npt.assert_array_equal(m.triangles, m2.triangles)

    def test_bad_header(self):
        with pytest.raises(DataError):
            Mesh.loads("vertices 3 cells 1\n")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_node_rejected(self, bad):
        text = unit_square_two_tri().dumps().replace("1 1", f"1 {bad}", 1)
        assert bad in text
        with pytest.raises(DataError):
            Mesh.loads(text)


class TestMeshers:
    def test_hole_mesh_quality(self):
        m = unit_square_hole_mesh(n=21, radius=0.2)
        assert m.area.min() > 0.0
        r = np.hypot(m.nodes[:, 0], m.nodes[:, 1])
        assert r.min() >= 0.2 - 1e-12  # nothing inside the hole
        assert np.any(np.abs(r - 0.2) < 1e-9)  # rim snapped onto the circle
        # corners of the unit square survive except the cut one
        for corner in ([1, 0], [1, 1], [0, 1]):
            assert np.any(np.all(np.abs(m.nodes - corner) < 1e-12, axis=1))
        assert 350 <= m.n_nodes <= 441

    def test_hole_mesh_area_consistency(self):
        m = unit_square_hole_mesh(n=31, radius=0.2)
        want = 1.0 - 0.25 * np.pi * 0.2**2
        npt.assert_allclose(m.area.sum(), want, rtol=0.01)

    def test_two_hole_mesh_quality(self):
        m = two_hole_mesh(n=25)
        assert m.area.min() > 0.0
        assert m.n_nodes < 25 * 25

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            unit_square_hole_mesh(n=3)
        with pytest.raises(ConfigurationError):
            unit_square_hole_mesh(radius=0.7)


def loop_triangulation(n):
    """The per-cell loop that the array code replaced: two triangles per
    cell, the diagonal alternating between neighbouring cells."""
    tris = []
    for i in range(n - 1):
        for j in range(n - 1):
            a, b = i * n + j, (i + 1) * n + j
            if (i + j) % 2 == 0:
                tris += [(a, b, b + 1), (a, b + 1, a + 1)]
            else:
                tris += [(a, b, a + 1), (b, b + 1, a + 1)]
    return np.array(tris, dtype=np.int64)


class TestGridTriangulation:
    @pytest.mark.parametrize("n", [2, 5, 21, 39])
    def test_matches_cell_loop(self, n):
        npt.assert_array_equal(fem._grid_triangulation(n)[1], loop_triangulation(n))

    def test_cells_split_with_alternating_diagonals(self):
        nodes, tris = fem._grid_triangulation(3)
        npt.assert_array_equal(nodes[:, 0], np.repeat([0.0, 0.5, 1.0], 3))
        npt.assert_array_equal(nodes[:, 1], np.tile([0.0, 0.5, 1.0], 3))
        assert tris.dtype == np.int64
        npt.assert_array_equal(tris, [
            [0, 3, 4], [0, 4, 1],  # cell (0, 0): diagonal 0-4
            [1, 4, 2], [4, 5, 2],  # cell (0, 1): diagonal 4-2
            [3, 6, 4], [6, 7, 4],  # cell (1, 0): diagonal 6-4
            [4, 7, 8], [4, 8, 5],  # cell (1, 1): diagonal 4-8
        ])


class TestPartition:
    def test_biaxial_groups(self):
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        assert [g.name for g in part.groups] == ["left", "bottom", "right", "top"]
        assert part.n_reactions == 4
        u = part.prescribed(0.2)
        right = part.groups[2]
        npt.assert_allclose(u[right.dofs[:, 0], 0], 0.2)
        top = part.groups[3]
        npt.assert_allclose(u[top.dofs[:, 0], 1], 0.1)

    def test_free_and_fixed_disjoint_cover(self):
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        n_fixed = sum(g.dofs.shape[0] for g in part.groups)
        assert part.free_flat_indices().size == 2 * m.n_nodes - n_fixed

    def test_duplicate_dof_rejected(self):
        g1 = FixedGroup("a", np.array([[0, 0]]), 0.0)
        g2 = FixedGroup("b", np.array([[0, 0]]), 1.0)
        with pytest.raises(ConfigurationError):
            DofPartition(n_nodes=2, groups=(g1, g2))
        g3 = FixedGroup("c", np.array([[3, 0], [1, 1], [0, 1]]), 0.0)
        g4 = FixedGroup("d", np.array([[2, 1], [1, 0], [1, 1]]), 1.0)
        with pytest.raises(ConfigurationError,
                           match=r"^DOF \(1, 1\) appears in more than one fixed group$"):
            DofPartition(n_nodes=4, groups=(g3, g4))
        # the same node in another component, and no groups at all
        assert DofPartition(n_nodes=4, groups=(g3, g1)).n_reactions == 2
        assert DofPartition(n_nodes=4, groups=()).free_flat_indices().size == 8


class TestDeformationGradient:
    def test_zero_displacement(self):
        m = unit_square_two_tri()
        npt.assert_array_equal(deformation_gradients(m, np.zeros((4, 2)))[0], np.eye(2))

    def test_affine_exact_on_every_element(self):
        m = square_grid_mesh(5)
        A = np.array([[1.2, 0.3], [-0.1, 0.9]])
        Fs = deformation_gradients(m, affine_displacement(m, A))
        npt.assert_allclose(Fs, np.broadcast_to(A, Fs.shape), rtol=1e-13, atol=1e-13)

    def test_single_triangle_hand_assembly(self):
        # nabla N from explicit inversion of the vertex-coordinate system
        nodes = np.array([[0.2, 0.1], [1.1, 0.3], [0.4, 0.9]])
        m = Mesh(nodes=nodes, triangles=np.array([[0, 1, 2]]))
        rng = np.random.default_rng(3)
        u = rng.normal(size=(3, 2))
        X = np.column_stack([np.ones(3), nodes])
        grads = np.linalg.inv(X)[1:].T  # rows: nabla N^a
        want = np.eye(2) + u.T @ grads
        npt.assert_allclose(deformation_gradients(m, u)[0], want, rtol=1e-12)


class TestBatchedAssembly:
    """One material call per assembly gives what one call per element gives."""

    @staticmethod
    def case(kind):
        m = unit_square_hole_mesh(n=7)
        u = 0.03 * np.random.default_rng(7).normal(size=(m.n_nodes, 2))
        if kind == "ICKAN":
            return m, u, NetworkMaterial(KANModel.create(rng=8))
        return m, u, benchmark_model(kind)

    @pytest.mark.parametrize("kind", ["NH", "AB", "OG", "ICKAN"])
    def test_nodal_forces_match_per_element_loop(self, kind):
        m, u, model = self.case(kind)
        want = np.zeros((m.n_nodes, 2))
        for e, F in enumerate(deformation_gradients(m, u)):
            P = model.stress(F)
            for a, node in enumerate(m.triangles[e]):
                want[node] += m.area[e] * P @ m.grad_N[e, a]
        got = nodal_forces(m, u, model)
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("kind", ["NH", "AB", "OG", "ICKAN"])
    def test_tangent_matrix_matches_per_element_loop(self, kind):
        m, u, model = self.case(kind)
        want = np.zeros((2 * m.n_nodes, 2 * m.n_nodes))
        for e, F in enumerate(deformation_gradients(m, u)):
            C = model.tangent(F)
            G = m.grad_N[e]
            for a, na in enumerate(m.triangles[e]):
                for b, nb in enumerate(m.triangles[e]):
                    blk = m.area[e] * np.einsum("ijkl,j,l->ik", C, G[a], G[b])
                    want[2 * na : 2 * na + 2, 2 * nb : 2 * nb + 2] += blk
        got = tangent_matrix(m, u, model).toarray()
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestForcesAndReactions:
    def test_zero_displacement_zero_forces(self):
        m = unit_square_two_tri()
        f = nodal_forces(m, np.zeros((4, 2)), NeoHookean())
        npt.assert_allclose(f, 0.0, atol=1e-12)

    def test_uniform_stretch_matches_hand_quadrature(self):
        m = unit_square_two_tri()
        model = NeoHookean()
        A = np.diag([1.2, 1.0])
        u = affine_displacement(m, A)
        f = nodal_forces(m, u, model)
        P = model.stress(A)
        want = np.zeros((4, 2))
        for e in range(m.n_elements):
            for a, node in enumerate(m.triangles[e]):
                want[node] += m.area[e] * P @ m.grad_N[e, a]
        npt.assert_allclose(f, want, rtol=1e-12)

    def test_uniform_stretch_reactions_equal_P_times_edge(self):
        m = square_grid_mesh(6)
        part = biaxial_partition(m)
        model = NeoHookean()
        A = np.diag([1.3, 1.0])
        f = nodal_forces(m, affine_displacement(m, A), model)
        P = model.stress(A)
        R = reaction(part, f)
        npt.assert_allclose(R[2], P[0, 0], rtol=1e-10)  # right edge, unit length
        npt.assert_allclose(R[3], P[1, 1], rtol=1e-10)  # top edge
        npt.assert_allclose(R[0], -P[0, 0], rtol=1e-10)
        npt.assert_allclose(R[1], -P[1, 1], rtol=1e-10)

    def test_inadmissible_element_reported(self):
        m = unit_square_two_tri()
        u = affine_displacement(m, np.diag([-0.5, 1.0]))
        with pytest.raises(InadmissibleDeformationError, match="element 0"):
            nodal_forces(m, u, NeoHookean())

    def test_tangent_matches_fd_of_forces(self):
        m = unit_square_two_tri()
        model = NeoHookean()
        rng = np.random.default_rng(7)
        u = 0.05 * rng.normal(size=(4, 2))
        K = tangent_matrix(m, u, model).toarray()
        h = 1e-6
        for col in range(8):
            up, um = u.ravel().copy(), u.ravel().copy()
            up[col] += h
            um[col] -= h
            fd = (
                nodal_forces(m, up.reshape(-1, 2), model)
                - nodal_forces(m, um.reshape(-1, 2), model)
            ).ravel() / (2 * h)
            npt.assert_allclose(K[:, col], fd, rtol=1e-5, atol=1e-7)


def newton_from(mesh, part, model, u0, prescribed, tol=1e-9):
    """Newton iteration from the field u0: (u, forces, residual history)."""
    return fem._newton(mesh, part, model, u0, nodal_forces(mesh, u0, model), prescribed, tol)


class TestSolve:
    def test_zero_load_is_identity(self):
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        u, _, hist = newton_from(m, part, NeoHookean(), np.zeros((m.n_nodes, 2)),
                                 part.prescribed(0.0))
        npt.assert_array_equal(u, 0.0)
        assert len(hist) == 1

    def test_patch_test_two_elements(self):
        self._patch(unit_square_two_tri())

    def test_patch_test_grid(self):
        self._patch(square_grid_mesh(11))  # 200 elements

    @staticmethod
    def _patch(mesh):
        # clamp every boundary node to an affine field; the interior must
        # reproduce it exactly (P1 completeness)
        A = np.array([[1.15, 0.05], [0.02, 0.95]])
        exact = affine_displacement(mesh, A)
        on_edge = np.any(
            (np.abs(mesh.nodes) < 1e-12) | (np.abs(mesh.nodes - 1.0) < 1e-12), axis=1
        )
        bnd = np.flatnonzero(on_edge)
        groups = []
        for comp in (0, 1):
            dofs = np.column_stack([bnd, np.full(bnd.size, comp)])
            groups.append(FixedGroup(f"edge{comp}", dofs, 0.0))
        part = DofPartition(n_nodes=mesh.n_nodes, groups=tuple(groups))
        u0 = exact.copy()
        u0[~on_edge] += 1e-3  # perturb interior so Newton has work to do
        u0[bnd] = exact[bnd]
        u, _, hist = newton_from(mesh, part, NeoHookean(), u0, u0)
        # prescribed values are all zero-scale here, so pin them by hand
        u_fix = u.copy()
        u_fix[bnd] = exact[bnd]
        npt.assert_allclose(u_fix, exact, atol=1e-10)
        assert len(hist) <= 4  # affine predictor: converges in <= 3 iterations

    def test_newton_quadratic_convergence(self):
        # homogeneous biaxial stretch: the first update carries the prescribed
        # increment through the tangent and lands on the affine solution
        m = square_grid_mesh(6)
        part = biaxial_partition(m)
        zero = np.zeros((m.n_nodes, 2))
        _, _, hist = newton_from(m, part, NeoHookean(), zero, part.prescribed(0.2), tol=1e-12)
        assert len(hist) == 1 and hist[0] < 1e-14
        # heterogeneous field around the hole; rates are read on the residuals
        # above round-off
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        zero = np.zeros((m.n_nodes, 2))
        _, _, hist = newton_from(m, part, NeoHookean(), zero, part.prescribed(0.2), tol=1e-12)
        r = np.array(hist)
        r = r[r > 1e-13]
        assert len(r) >= 3 and r[-2] > 0.0
        # quadratic contraction: r_{n+1} <= C r_n^2 with a modest constant
        C = r[-1] / r[-2] ** 2
        assert np.isfinite(C) and C < 1e4

    def test_converged_forces_below_tolerance(self):
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        model = NeoHookean()
        u = solve(m, part, model, [0.1]).displacements[0]
        f = nodal_forces(m, u, model)
        free = part.free_flat_indices()
        R = reaction(part, f)
        assert np.abs(f.ravel()[free]).max() < 1e-9 * (1.0 + np.linalg.norm(R))

    def test_global_equilibrium(self):
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        model = NeoHookean()
        u = solve(m, part, model, [0.1, 0.2]).displacements[-1]
        R = reaction(part, nodal_forces(m, u, model))
        # no applied tractions: the four reaction groups carry all the load,
        # and with all free residuals ~0 their components balance per axis
        assert abs(R[0] + R[2]) < 1e-8
        assert abs(R[1] + R[3]) < 1e-8

    def test_heterogeneous_strain_field(self):
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        u = solve(m, part, NeoHookean(), [0.1]).displacements[0]
        from convexkan.mechanics import compute_state

        i1t = [compute_state(F).I1_tilde for F in deformation_gradients(m, u)]
        assert max(i1t) - min(i1t) > 1e-3

    def test_load_step_halving_reaches_large_load(self):
        m = square_grid_mesh(5)
        part = biaxial_partition(m)
        u = solve(m, part, NeoHookean(), [0.4, 0.8]).displacements[-1]
        assert np.all(np.isfinite(u))

    def test_failed_step_halves_from_the_start_load(self, monkeypatch):
        # the field is in equilibrium at 0.1; when the full step to 0.2
        # fails, the retry goes halfway from there, to 0.15, not to 0.1
        m = square_grid_mesh(4)
        part = biaxial_partition(m)
        model = NeoHookean()
        right = part.groups[2]  # scale 1: its prescribed value is the target
        targets, real_newton = [], fem._newton

        def newton(mesh, partition, model, u, f, prescribed, tol):
            targets.append(float(prescribed[right.dofs[0, 0], right.dofs[0, 1]]))
            if len(targets) == 2:
                raise SolverError("forced failure", residual=1.0)
            return real_newton(mesh, partition, model, u, f, prescribed, tol)

        monkeypatch.setattr(fem, "_newton", newton)
        u = solve(m, part, model, [0.1, 0.2]).displacements[-1]
        assert targets == pytest.approx([0.1, 0.2, 0.15, 0.2], rel=1e-15)
        assert targets[-1] == 0.2
        monkeypatch.undo()
        npt.assert_allclose(u, solve(m, part, model, [0.2]).displacements[0], rtol=0, atol=1e-9)

    def test_nonconvergence_reported(self, monkeypatch):
        m = square_grid_mesh(4)
        part = biaxial_partition(m)
        monkeypatch.setattr(fem, "MAX_ITER", 1)
        monkeypatch.setattr(fem, "MAX_HALVINGS", 0)
        with pytest.raises(SolverError):
            solve(m, part, NeoHookean(), [0.5])

    @pytest.mark.parametrize("deltas", [[], [0.1, np.nan], [np.inf], [0.1, -np.inf, 0.2]],
                             ids=["empty", "nan", "inf", "minus_inf"])
    def test_bad_schedule_rejected_before_any_newton_step(self, monkeypatch, deltas):
        m = square_grid_mesh(4)

        def newton(*args):
            raise AssertionError("Newton ran on a bad schedule")

        monkeypatch.setattr(fem, "_newton", newton)
        with pytest.raises(ConfigurationError):
            solve(m, biaxial_partition(m), NeoHookean(), deltas)


# one corruption of each header line and value the dataset parser checks
MALFORMED = {
    "noise_sigma": ("noise_sigma ", "noise "),
    "partition": ("partition groups", "partition sets"),
    "group": ("group left scale", "group left factor"),
    "snapshots": ("snapshots ", "frames "),
    "no_snapshots": ("snapshots 1", "snapshots 0"),  # with the snapshot block cut
    "snapshot": ("snapshot delta", "snapshot load"),
    "reactions": ("reactions ", "forces "),
    "reaction_count": ("reactions 0", "reactions 0 0 0 0 0 0"),
    "trailing": ("\nreactions", "\nreactions"),
    "delta_nan": ("snapshot delta 0", "snapshot delta nan"),
    "reaction_nan": ("reactions 0 ", "reactions nan "),
    "noise_negative": ("noise_sigma 0", "noise_sigma -1"),
    "noise_inf": ("noise_sigma 0", "noise_sigma inf"),
}


def malformed_dataset(case):
    m = square_grid_mesh(3)
    part = biaxial_partition(m)
    text = SpecimenDataset(
        mesh=m, partition=part, deltas=[0.0], displacements=np.zeros((1, m.n_nodes, 2)),
        reactions=np.zeros((1, part.n_reactions)),
    ).dumps()
    old, new = MALFORMED[case]
    assert old in text
    text = text.replace(old, new, 1)
    if case == "no_snapshots":
        return text.partition("snapshot delta")[0]
    return text + "0 0\n" if case == "trailing" else text


class TestDataset:
    def test_noiseless_matches_solver(self):
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        model = NeoHookean()
        ds = generate_dataset(m, part, model, [0.05, 0.1], noise_sigma=0.0)
        u = solve(m, part, model, [0.05, 0.1]).displacements[1]
        npt.assert_array_equal(ds.displacements[1], u)
        assert ds.reactions.shape == (2, 4)
        # the reactions reused from Newton's last check are those of the field
        for t in range(2):
            f = nodal_forces(m, ds.displacements[t], model)
            npt.assert_array_equal(ds.reactions[t], reaction(part, f))

    def test_no_field_forces_evaluated_twice(self, monkeypatch):
        # the forces from each convergence check give that field's reactions
        # and start the next target: one evaluation per tangent assembly,
        # plus one for the undeformed state
        m = unit_square_hole_mesh(n=21)
        part = biaxial_partition(m)
        calls = {"nodal_forces": 0, "tangent_matrix": 0}
        for name in calls:

            def counted(*args, real=getattr(fem, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(fem, name, counted)
        generate_dataset(m, part, NeoHookean(), [0.1, 0.2, 0.3])
        assert calls["nodal_forces"] == calls["tangent_matrix"] + 1

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_bad_noise_rejected_before_the_solve(self, monkeypatch, sigma):
        m = square_grid_mesh(4)

        def newton(*args):
            raise AssertionError("Newton ran with a bad noise_sigma")

        monkeypatch.setattr(fem, "_newton", newton)
        with pytest.raises(ConfigurationError):
            generate_dataset(m, biaxial_partition(m), NeoHookean(), [0.1], noise_sigma=sigma)

    def test_seeded_noise_reproducible(self):
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        kw = dict(noise_sigma=1e-3, seed=42)
        d1 = generate_dataset(m, part, NeoHookean(), [0.1], **kw)
        d2 = generate_dataset(m, part, NeoHookean(), [0.1], **kw)
        npt.assert_array_equal(d1.displacements, d2.displacements)
        assert d1.dumps() == d2.dumps()

    def test_noise_per_dof_constant_mode(self):
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        clean = generate_dataset(m, part, NeoHookean(), [0.05, 0.1])
        noisy = generate_dataset(
            m, part, NeoHookean(), [0.05, 0.1], noise_sigma=1e-3, seed=1,
            noise_per_dof_constant=True,
        )
        eps = noisy.displacements - clean.displacements
        npt.assert_allclose(eps[0], eps[1], rtol=0, atol=1e-15)

    def test_reactions_noiseless(self):
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        clean = generate_dataset(m, part, NeoHookean(), [0.1])
        noisy = generate_dataset(m, part, NeoHookean(), [0.1], noise_sigma=1e-3, seed=2)
        npt.assert_array_equal(clean.reactions, noisy.reactions)

    def test_file_round_trip(self, tmp_path):
        m = unit_square_hole_mesh(n=11)
        part = biaxial_partition(m)
        ds = generate_dataset(m, part, NeoHookean(), [0.1], noise_sigma=1e-4, seed=3)
        path = tmp_path / "ds.txt"
        ds.save(path)
        ds2 = SpecimenDataset.load(path)
        npt.assert_array_equal(ds.displacements, ds2.displacements)
        npt.assert_array_equal(ds.reactions, ds2.reactions)
        npt.assert_array_equal(ds.deltas, ds2.deltas)
        assert ds2.noise_sigma == 1e-4
        assert [g.name for g in ds2.partition.groups] == [g.name for g in part.groups]
        npt.assert_array_equal(ds2.mesh.nodes, m.nodes)

    def test_bad_dataset_header(self):
        with pytest.raises(DataError):
            SpecimenDataset.loads("garbage\n")

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_dataset_rejected(self, case):
        with pytest.raises(DataError):
            SpecimenDataset.loads(malformed_dataset(case))

    def test_malformed_dataset_rejected_without_asserts(self):
        # python -O strips assert statements; the parser must not rely on them
        code = (
            "import sys\n"
            "from convexkan.errors import DataError\n"
            "from convexkan.fem import SpecimenDataset\n"
            "for text in sys.stdin.read().split('\\0'):\n"
            "    try:\n"
            "        SpecimenDataset.loads(text)\n"
            "    except DataError:\n"
            "        continue\n"
            "    sys.exit('accepted a malformed file')\n"
        )
        src = str(Path(convexkan.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            input="\0".join(malformed_dataset(c) for c in sorted(MALFORMED)),
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr

    def test_uniaxial_partition_on_two_hole_mesh(self):
        m = two_hole_mesh(n=17)
        part = uniaxial_partition(m)
        assert part.n_reactions == 3
        u = solve(m, part, NeoHookean(), [0.05]).displacements[0]
        top = part.groups[1]
        npt.assert_allclose(u[top.dofs[:, 0], 1], 0.05)
