"""Plane-strain finite elements on linear triangles.

Covers the full data pipeline: built-in meshers for the training and
validation specimens, Dirichlet partitions with reaction-force groups,
internal-force assembly, Newton continuation over a load schedule, and
synthetic full-field dataset generation with optional displacement noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConfigurationError,
    DataError,
    EvaluationError,
    InadmissibleDeformationError,
    SolverError,
)
from .mechanics import MaterialModel
from .records import Records

Array = npt.NDArray[np.float64]

_EDGE_TOL = 1e-9
MAX_ITER = 25  # Newton iterations per load increment
MAX_HALVINGS = 4  # halvings of a failed load increment before solve gives up


@dataclass
class Mesh:
    """Triangulated plane-strain domain.

    ``nodes`` are reference coordinates (n_n, 2); ``triangles`` are 0-based
    node index triples (n_el, 3).  Negatively oriented triangles are repaired
    by swapping two vertices.  Shape-function gradients are constant per
    element (single barycenter quadrature point).

    ``D`` is the discrete gradient, the (4 n_el, 2 n_n) map from flat nodal
    displacements (2*node + comp) to each element's displacement gradient
    flattened row-major, so that ``F_e = I + (D u)_e``; ``DT`` is its
    transpose, which scatters element quantities to the nodes.
    """

    nodes: Array
    triangles: npt.NDArray[np.int64]
    area: Array = field(init=False, repr=False)
    grad_N: Array = field(init=False, repr=False)  # (n_el, 3, 2)
    D: sp.csr_matrix = field(init=False, repr=False)
    DT: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=np.float64)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise DataError(f"nodes must be (n_n, 2), got {self.nodes.shape}")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise DataError(f"triangles must be (n_el, 3), got {self.triangles.shape}")
        if not np.all(np.isfinite(self.nodes)):
            raise DataError("non-finite node coordinate in mesh")
        if self.n_elements == 0:
            raise DataError("mesh has no triangles", row=-1)
        out = np.argwhere((self.triangles < 0) | (self.triangles >= self.n_nodes))
        if out.size:
            e, k = out[0]
            raise DataError(f"triangle node index {self.triangles[e, k]} out of range "
                            f"for {self.n_nodes} nodes", row=self.n_nodes + e)
        unused = np.flatnonzero(np.bincount(self.triangles.ravel(), minlength=self.n_nodes) == 0)
        if unused.size:
            raise DataError(f"node {unused[0]} belongs to no triangle", row=unused[0])
        self._setup_geometry()

    def _setup_geometry(self):
        def signed_area(tris):
            X = self.nodes[tris]  # (n_el, 3, 2)
            u, v = X[:, 1] - X[:, 0], X[:, 2] - X[:, 0]
            return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

        signed = signed_area(self.triangles)
        flipped = signed < 0.0
        if np.any(flipped):
            self.triangles[flipped] = self.triangles[flipped][:, [0, 2, 1]]
            signed = signed_area(self.triangles)
        X = self.nodes[self.triangles]
        degenerate = np.flatnonzero(signed <= 0.0)
        if degenerate.size:  # row: nodes, then triangles
            raise DataError("degenerate (zero-area) triangle in mesh",
                            row=self.n_nodes + degenerate[0])
        self.area = signed
        # gradient of the barycentric shape function N^a: rotate the opposite
        # edge by 90 degrees and scale by 1/(2A)
        e0 = X[:, 2] - X[:, 1]
        e1 = X[:, 0] - X[:, 2]
        e2 = X[:, 1] - X[:, 0]
        g = np.stack([e0, e1, e2], axis=1)  # (n_el, 3, 2) edge vectors
        grad = np.empty_like(g)
        grad[:, :, 0] = -g[:, :, 1]
        grad[:, :, 1] = g[:, :, 0]
        self.grad_N = grad / (2.0 * self.area)[:, None, None]
        # row (e, i, j) reads u^a_i at the element's nodes a, times dN^a/dX_j
        n_el = self.n_elements
        shape = (n_el, 2, 2, 3)
        cols = 2 * self.triangles[:, None, None, :] + np.arange(2)[:, None, None]
        vals = np.broadcast_to(self.grad_N.transpose(0, 2, 1)[:, None], shape)
        self.D = sp.csr_matrix((vals.ravel(), np.broadcast_to(cols, shape).ravel(),
                                np.arange(0, 12 * n_el + 1, 3)), shape=(4 * n_el, 2 * self.n_nodes))
        self.DT = self.D.T.tocsr()

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    def dumps(self) -> str:
        lines = [f"nodes {self.n_nodes} triangles {self.n_elements}"]
        lines += [f"{x:.17g} {y:.17g}" for x, y in self.nodes]
        lines += [f"{i} {j} {k}" for i, j, k in self.triangles]
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "Mesh":
        with Records(text, "mesh") as records:
            return cls.read(records)

    @classmethod
    def read(cls, records: Records) -> "Mesh":
        """The mesh block at the cursor: its header, node rows, triangle rows.
        A refused node or triangle is named at its row, an empty mesh at the header."""
        with records.block("nodes %d triangles %d") as (n_n, n_el):
            return cls(records.rows(n_n, 2), records.rows(n_el, 3, "%d"))

    @classmethod
    def load(cls, path) -> "Mesh":
        with open(path) as fh:
            return cls.loads(fh.read())


def _grid_triangulation(n: int):
    """Structured 2-triangles-per-cell split of an n x n node grid on [0,1]^2."""
    xs = np.linspace(0.0, 1.0, n)
    nodes = np.column_stack([np.repeat(xs, n), np.tile(xs, n)])  # row-major in x
    i, j = np.divmod(np.arange((n - 1) ** 2), n - 1)  # cells, row-major
    corners = (i * n + j)[:, None] + np.array([0, n, n + 1, 1])  # a, b, b + 1, a + 1
    # alternate the diagonal to avoid a preferred shear direction
    split = np.array([[[0, 1, 2], [0, 2, 3]], [[0, 1, 3], [1, 2, 3]]])[(i + j) % 2]
    return nodes, np.take_along_axis(corners[:, None], split, axis=2).reshape(-1, 3)


def _cut_hole(nodes, tris, inside, project):
    """Remove nodes flagged inside, snap the surviving rim via ``project``,
    drop dangling triangles, and compact node numbering."""
    keep_tri = ~np.any(inside[tris], axis=1)
    tris = tris[keep_tri]
    used = np.zeros(nodes.shape[0], dtype=bool)
    used[tris] = True
    remap = -np.ones(nodes.shape[0], dtype=np.int64)
    remap[used] = np.arange(used.sum())
    nodes = project(nodes.copy(), used)
    return nodes[used], remap[tris]


def unit_square_hole_mesh(n: int = 21, radius: float = 0.2) -> Mesh:
    """Training specimen: unit square with a quarter-circle hole of the given
    radius at the bottom-left corner, structured triangulation (~n^2 nodes)."""
    if n < 5:
        raise ConfigurationError(f"mesh resolution n must be >= 5, got {n}")
    if not 0.0 < radius < 0.5:
        raise ConfigurationError(f"hole radius must lie in (0, 0.5), got {radius}")
    nodes, tris = _grid_triangulation(n)
    h = 1.0 / (n - 1)
    r = np.hypot(nodes[:, 0], nodes[:, 1])
    inside = r < radius - 0.5 * h

    def project(nd, used):
        rr = np.hypot(nd[:, 0], nd[:, 1])
        snap = used & (rr < radius + 0.35 * h)
        origin = snap & (rr < 1e-12)
        nd[origin] = radius / np.sqrt(2.0)
        move = snap & ~origin
        nd[move] *= (radius / rr[move])[:, None]
        return nd

    nodes, tris = _cut_hole(nodes, tris, inside, project)
    mesh = Mesh(nodes=nodes, triangles=tris)
    if mesh.area.min() < 1e-3 * h * h:
        raise ConfigurationError("hole cut produced a near-degenerate element")
    return mesh


def two_hole_mesh(n: int = 25) -> Mesh:
    """Validation specimen: unit square with two asymmetric elliptical holes,
    used only for cross-geometry validation solves."""
    if n < 9:
        raise ConfigurationError(f"mesh resolution n must be >= 9, got {n}")
    nodes, tris = _grid_triangulation(n)
    h = 1.0 / (n - 1)
    # (center, semi-axes) of the two holes
    ellipses = (((0.30, 0.68), (0.16, 0.09)), ((0.72, 0.28), (0.10, 0.17)))

    for (cx, cy), (ax, ay) in ellipses:
        # normalized elliptical radius: 1 on the hole boundary
        def rho(nd):
            return np.hypot((nd[:, 0] - cx) / ax, (nd[:, 1] - cy) / ay)

        band = 0.5 * h / min(ax, ay)
        inside = rho(nodes) < 1.0 - band

        def project(nd, used, cx=cx, cy=cy, ax=ax, ay=ay, band=band):
            rr = np.hypot((nd[:, 0] - cx) / ax, (nd[:, 1] - cy) / ay)
            snap = used & (rr < 1.0 + 0.7 * band) & (rr > 1e-12)
            s = (1.0 / rr[snap])[:, None]
            nd[snap] = [cx, cy] + ([ax, ay] * ((nd[snap] - [cx, cy]) / [ax, ay]) * s)
            return nd

        nodes, tris = _cut_hole(nodes, tris, inside, project)
    mesh = Mesh(nodes=nodes, triangles=tris)
    if mesh.area.min() < 1e-3 * h * h:
        raise ConfigurationError("hole cut produced a near-degenerate element")
    return mesh


@dataclass(frozen=True)
class FixedGroup:
    """One Dirichlet constraint group tied to a single measured reaction.

    All DOFs in the group carry the prescribed value ``scale * delta``.
    """

    name: str
    dofs: npt.NDArray[np.int64]  # (m, 2) rows of (node, component)
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "dofs", np.asarray(self.dofs, dtype=np.int64).reshape(-1, 2))
        if self.dofs.shape[0] == 0:
            raise ConfigurationError(f"fixed group {self.name!r} has no DOFs")


@dataclass(frozen=True)
class DofPartition:
    """Split of the (node, component) DOFs into free DOFs and disjoint fixed
    groups, each fixed group reporting one reaction force.

    ``balance`` maps flat nodal forces to the force balance: one row per free
    DOF reading its force, then one row per group summing its DOFs' forces.
    """

    n_nodes: int
    groups: tuple[FixedGroup, ...]
    balance: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        dofs = np.concatenate([g.dofs for g in self.groups] or [np.zeros((0, 2), np.int64)])
        owner = np.repeat(np.arange(len(self.groups)), [g.dofs.shape[0] for g in self.groups])
        # a refusal names the first offending DOF's row: a group's record, then its DOFs
        rows = np.arange(owner.size) + owner + 1
        unknown = (dofs[:, 0] < 0) | (dofs[:, 0] >= self.n_nodes)
        bad = unknown | (dofs[:, 1] < 0) | (dofs[:, 1] > 1)
        if bad.any():
            j = np.argmax(bad)
            what = "references unknown node" if unknown[j] else "has a bad component index"
            raise ConfigurationError(f"group {self.groups[owner[j]].name!r} {what}", row=rows[j])
        flat = 2 * dofs[:, 0] + dofs[:, 1]
        fixed, first = np.unique(flat, return_index=True)
        if fixed.size < flat.size:
            j = np.setdiff1d(np.arange(flat.size), first)[0]  # the first DOF listed again
            node, comp = divmod(int(flat[j]), 2)
            raise ConfigurationError(f"DOF {(node, comp)} appears in more than one fixed group",
                                     row=rows[j])
        free = np.setdiff1d(np.arange(2 * self.n_nodes), fixed)
        sizes = np.r_[np.ones(free.size, np.int64), np.bincount(owner, minlength=len(self.groups))]
        object.__setattr__(self, "balance", sp.csr_matrix(
            (np.ones(sizes.sum()), np.concatenate([free, flat]), np.r_[0, np.cumsum(sizes)]),
            shape=(sizes.size, 2 * self.n_nodes)))

    @property
    def n_reactions(self) -> int:
        return len(self.groups)

    def free_flat_indices(self) -> npt.NDArray[np.int64]:
        """Flattened indices (2*node + comp) of the unconstrained DOFs."""
        return self.balance.indices[: self.balance.shape[0] - self.n_reactions]

    def prescribed(self, delta: float) -> Array:
        """Displacement field carrying the Dirichlet values, zero elsewhere."""
        u = np.zeros((self.n_nodes, 2))
        for g in self.groups:
            u[g.dofs[:, 0], g.dofs[:, 1]] = g.scale * delta
        return u


def _edge_nodes(mesh: Mesh, comp: int, value: float) -> Array:
    idx = np.flatnonzero(np.abs(mesh.nodes[:, comp] - value) < _EDGE_TOL)
    if idx.size == 0:
        raise ConfigurationError(f"no nodes found on boundary x_{comp} = {value}")
    return idx


def _group(name, nodes, comp, scale) -> FixedGroup:
    dofs = np.column_stack([nodes, np.full(nodes.size, comp, dtype=np.int64)])
    return FixedGroup(name=name, dofs=dofs, scale=scale)


def biaxial_partition(mesh: Mesh) -> DofPartition:
    """Asymmetric biaxial tension on the unit square: symmetry on the left
    (u_x = 0) and bottom (u_y = 0), pulled right edge u_x = delta and top edge
    u_y = delta / 2.  Four reaction groups."""
    return DofPartition(
        n_nodes=mesh.n_nodes,
        groups=(
            _group("left", _edge_nodes(mesh, 0, 0.0), 0, 0.0),
            _group("bottom", _edge_nodes(mesh, 1, 0.0), 1, 0.0),
            _group("right", _edge_nodes(mesh, 0, 1.0), 0, 1.0),
            _group("top", _edge_nodes(mesh, 1, 1.0), 1, 0.5),
        ),
    )


def uniaxial_partition(mesh: Mesh) -> DofPartition:
    """Displacement-controlled uniaxial tension: bottom edge held (u_y = 0),
    top edge pulled to u_y = delta, with the bottom edge also pinned laterally
    to remove the rigid x-translation."""
    bottom = _edge_nodes(mesh, 1, 0.0)
    return DofPartition(
        n_nodes=mesh.n_nodes,
        groups=(
            _group("bottom", bottom, 1, 0.0),
            _group("top", _edge_nodes(mesh, 1, 1.0), 1, 1.0),
            _group("pin", bottom, 0, 0.0),
        ),
    )


def deformation_gradients(mesh: Mesh, u) -> Array:
    """Per-element deformation gradients F = I + sum_a u^a (x) grad N^a,
    constant over each element; shape (n_el, 2, 2)."""
    return np.eye(2) + (mesh.D @ np.ravel(u)).reshape(-1, 2, 2)


def nodal_forces(mesh: Mesh, u, model: MaterialModel) -> Array:
    """Internal nodal force array f_i^a, shape (n_n, 2).

    Single barycenter quadrature: f^a = sum_e area_e P(F_e) grad N^a.  The
    displacement-controlled benchmarks carry no applied tractions, so this is
    the complete weak-form residual.  An element with det F <= 0 raises
    :class:`InadmissibleDeformationError` naming it.
    """
    return scatter_forces(mesh, model.stress(deformation_gradients(mesh, u)))


def scatter_forces(mesh: Mesh, P: Array) -> Array:
    """Assemble nodal forces from per-element first Piola-Kirchhoff stresses:
    f = D^T (area P)."""
    return (mesh.DT @ (mesh.area[:, None, None] * P).ravel()).reshape(-1, 2)


def area_blocks(mesh: Mesh, blocks: Array) -> sp.csr_matrix:
    """The block diagonal of ``area_e * blocks_e`` for per-element blocks
    (n_el, 4, m): maps m values per element to area-weighted stresses that
    D^T scatters to the nodes."""
    n_el = mesh.n_elements
    return sp.bsr_matrix((mesh.area[:, None, None] * blocks, np.arange(n_el),
                          np.arange(n_el + 1))).tocsr()


def reaction(partition: DofPartition, f: Array) -> Array:
    """Per-group reaction forces: sum of nodal forces over each fixed group."""
    return (partition.balance @ np.ravel(f))[partition.balance.shape[0] - partition.n_reactions:]


def tangent_matrix(mesh: Mesh, T: Array, D: sp.csr_matrix, DT: sp.csr_matrix) -> sp.csr_matrix:
    """Assembled tangent stiffness DT blockdiag(area T) D (sparse) from the
    per-element tangents T = dP/dF, each a 4 x 4 matrix over the (i, j)
    pairs of F.  ``D`` holds columns of the mesh's discrete gradient and
    ``DT`` is its transpose: all of them give the stiffness over every DOF,
    the free ones its free-free block K_ff."""
    return DT @ (area_blocks(mesh, np.reshape(T, (-1, 4, 4))) @ D)


def _newton(mesh, partition, model, u, r, f, prescribed, tol):
    """Newton iteration from the field ``u``, whose element F give the
    material response ``r`` and the nodal forces ``f``, to equilibrium with
    the fixed DOFs at their values in the field ``prescribed``.

    Each field visited is evaluated once: its response gives the forces,
    and its tangent the free-DOF stiffness K_ff = D_f^T blockdiag(area T)
    D_f, with D_f the free columns of the discrete gradient.  The first
    update solves K_ff du_f = -f_f - K_fc du_c at ``u``, where
    du_c = prescribed_c - u_c, so the increment enters through the tangent;
    convergence is checked only once it is applied.  Returns (u, its
    response, its nodal forces, residual history of the iterates that carry
    the increment).
    Raises SolverError on stagnation.
    """
    free = partition.free_flat_indices()
    D_f, D_fT = mesh.D[:, free], mesh.DT[free]
    fixed = np.ones(2 * mesh.n_nodes, dtype=bool)
    fixed[free] = False
    u = np.array(u, dtype=np.float64)
    flat = u.reshape(-1)  # a view: updates to it land in u
    prescribed = np.asarray(prescribed, dtype=np.float64).ravel()
    du = np.where(fixed, prescribed - flat, 0.0)
    loaded = not np.any(du)
    history = []
    for _ in range(MAX_ITER):
        rhs = -f.ravel()[free]
        res = np.abs(rhs).max() if free.size else 0.0
        if loaded:
            history.append(res)
            if res < tol * (1.0 + np.linalg.norm(reaction(partition, f))):
                return u, r, f, history
        T = np.reshape(r.tangent, (-1, 4, 4))
        K = tangent_matrix(mesh, T, D_f, D_fT)
        if not loaded:  # K_fc du_c: the forces of the stress increment T : D du
            rhs -= scatter_forces(mesh, T @ (mesh.D @ du).reshape(-1, 4, 1)).ravel()[free]
        try:
            step = spla.spsolve(K.tocsc(), rhs, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(f"singular tangent stiffness: {exc}", residual=res)
        if not np.all(np.isfinite(step)):
            raise SolverError("singular tangent stiffness", residual=res)
        flat[free] += step
        if not loaded:
            flat[fixed] = prescribed[fixed]
            loaded = True
        r = model.response(deformation_gradients(mesh, u))
        f = scatter_forces(mesh, r.stress)
    raise SolverError(
        f"Newton did not converge in {MAX_ITER} iterations",
        residual=history[-1] if history else None,
    )


@dataclass
class SpecimenDataset:
    """Full-field snapshots for one specimen: mesh, Dirichlet partition, one
    displacement field and one reaction vector per load parameter value."""

    mesh: Mesh
    partition: DofPartition
    deltas: Array  # (n_t,)
    displacements: Array  # (n_t, n_n, 2)
    reactions: Array  # (n_t, n_beta)
    noise_sigma: float = 0.0

    def __post_init__(self):
        self.deltas = np.atleast_1d(np.asarray(self.deltas, dtype=np.float64))
        self.displacements = np.asarray(self.displacements, dtype=np.float64)
        self.reactions = np.asarray(self.reactions, dtype=np.float64)
        n_t = self.deltas.size
        if n_t == 0:
            raise DataError("dataset has no snapshots")
        if self.displacements.shape != (n_t, self.mesh.n_nodes, 2):
            raise DataError(
                f"displacements shape {self.displacements.shape} does not match "
                f"{n_t} snapshots on {self.mesh.n_nodes} nodes"
            )
        if self.reactions.shape != (n_t, self.partition.n_reactions):
            raise DataError(
                f"reactions shape {self.reactions.shape} does not match "
                f"{n_t} snapshots with {self.partition.n_reactions} groups"
            )
        if not all(np.isfinite(a).all() for a in (self.deltas, self.displacements, self.reactions)):
            raise DataError("non-finite load parameter, displacement or reaction in dataset")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise DataError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")

    @property
    def n_snapshots(self) -> int:
        return self.deltas.size

    def dumps(self) -> str:
        out = ["convexkan-dataset v1", f"noise_sigma {self.noise_sigma:.17g}"]
        out.append(self.mesh.dumps().rstrip("\n"))
        out.append(f"partition groups {self.partition.n_reactions}")
        for g in self.partition.groups:
            out.append(f"group {g.name} scale {g.scale:.17g} dofs {g.dofs.shape[0]}")
            out += [f"{a} {i}" for a, i in g.dofs]
        out.append(f"snapshots {self.n_snapshots}")
        for t in range(self.n_snapshots):
            out.append(f"snapshot delta {self.deltas[t]:.17g}")
            out += [f"{x:.17g} {y:.17g}" for x, y in self.displacements[t]]
            out.append("reactions " + " ".join(f"{r:.17g}" for r in self.reactions[t]))
        return "\n".join(out) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "SpecimenDataset":
        with Records(text, "dataset") as records:
            records.take("convexkan-dataset v1")
            (sigma,) = records.take("noise_sigma %f")
            if sigma < 0.0:
                raise records.error(f"noise_sigma must be finite and >= 0, got {sigma}")
            mesh, groups = Mesh.read(records), []
            with records.block("partition groups %d") as (n_g,):
                for _ in range(n_g):
                    name, scale, m = records.take("group %s scale %f dofs %d")
                    groups.append(FixedGroup(name, records.rows(m, 2, "%d"), scale))
                partition, deltas, disp, reac = DofPartition(mesh.n_nodes, groups), [], [], []
            (n_t,) = records.take("snapshots %d")
            if n_t == 0:
                raise records.error("dataset has no snapshots")
            for _ in range(n_t):
                deltas += records.take("snapshot delta %f")
                disp.append(records.rows(mesh.n_nodes, 2))
                reac.append(records.take("reactions", partition.n_reactions))
            return cls(mesh, partition, deltas, disp, reac, sigma)

    @classmethod
    def load(cls, path) -> "SpecimenDataset":
        with open(path) as fh:
            return cls.loads(fh.read())


def solve(mesh: Mesh, partition: DofPartition, model: MaterialModel, deltas,
          tol: float = 1e-9) -> SpecimenDataset:
    """Quasi-static continuation over the load schedule ``deltas``.

    Starts from the undeformed state and reaches each target from the
    previous converged field; every target is attempted at least once, so a
    target equal to the current load is an equilibrium check.  Each Newton
    iteration carries the prescribed increment through the tangent; a failed
    increment (no convergence, or an iterate with det F <= 0 or where the
    material cannot be evaluated) is halved, up to ``MAX_HALVINGS`` times,
    from the last converged load.  Returns the noiseless dataset: one
    converged field and its reactions per target.
    """
    deltas = np.atleast_1d(np.asarray(deltas, dtype=np.float64))
    if deltas.size == 0 or not np.all(np.isfinite(deltas)):
        raise ConfigurationError(f"load schedule must be non-empty and finite, got {deltas}")
    u = np.zeros((mesh.n_nodes, 2))
    r = model.response(deformation_gradients(mesh, u))
    f = scatter_forces(mesh, r.stress)
    disp = np.empty((deltas.size, mesh.n_nodes, 2))
    reac = np.empty((deltas.size, partition.n_reactions))
    reached = 0.0
    for t, delta in enumerate(deltas):
        inc, halvings = delta - reached, 0
        while True:
            # land on delta exactly once the increment covers the rest
            land = abs(inc) >= abs(delta - reached) - 1e-15 * (1.0 + abs(delta))
            target = delta if land else reached + inc
            try:
                u, r, f, _ = _newton(mesh, partition, model, u, r, f,
                                     partition.prescribed(target), tol)
            except (SolverError, InadmissibleDeformationError, EvaluationError) as exc:
                halvings += 1
                if halvings > MAX_HALVINGS:
                    raise SolverError(
                        f"load step to delta={target:g} failed after "
                        f"{MAX_HALVINGS} halvings: {exc}",
                        residual=getattr(exc, "residual", None),
                    ) from exc
                inc *= 0.5
                continue
            reached, halvings = target, 0
            if land:
                break
        disp[t] = u
        reac[t] = reaction(partition, f)
    return SpecimenDataset(mesh=mesh, partition=partition, deltas=deltas,
                           displacements=disp, reactions=reac)


def generate_dataset(
    mesh: Mesh,
    partition: DofPartition,
    model: MaterialModel,
    deltas,
    noise_sigma: float = 0.0,
    seed: int = 0,
    noise_per_dof_constant: bool = False,
) -> SpecimenDataset:
    """Ground-truth :func:`solve` over a load schedule, with (optionally)
    noisy displacement fields and the noiseless reactions.

    Noise is one independent normal draw per displacement DOF per snapshot;
    with ``noise_per_dof_constant`` a single per-DOF draw is reused across
    all snapshots.
    """
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ConfigurationError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    ds = solve(mesh, partition, model, deltas)
    disp = ds.displacements
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        size = (1, mesh.n_nodes, 2) if noise_per_dof_constant else disp.shape
        disp = disp + rng.normal(0.0, noise_sigma, size=size)
    return replace(ds, displacements=disp, noise_sigma=noise_sigma)
