"""Write ``loss_grad_reference_v1.npz``, the training-sweep regression fixture.

    PYTHONPATH=src python tests/data/make_loss_grad_reference.py

The dataset is solver-free: a 7-grid holed square whose two displacement
snapshots are an analytic field (stretch plus a smooth bump) with fixed
reactions; its nodes, triangles, displacements and reactions are stored so
the fixture does not depend on the mesh generator or the FEM solve.

For each mode (constrained, vanilla), architecture (3-2-1, 3-3-2-1) and
stack size (1, 3) it records ``loss_and_grad`` of grid-initialized models
whose ``w_s`` are drawn away from ``W_S_UNIT`` and whose layer-0 domains
cover only the middle of the data's K range, one domain per member, so that
points on both sides run on the linear extension.  For each (mode,
architecture) it also records, for one such model on its grid-initialized
knots, ``forward`` and ``forward_with_input_derivatives`` at a fixed K set
over and past the knot box, and ``backward_batch`` there with both a W seed
and a gradient seed.

The committed file was written by the layer sweep that built all three
derivative orders of design rows at every layer and scaled the splines
``psi`` by ``softplus(w_s)`` after the product; ``tests/test_training.py``
checks the current sweep against it.  Rewrite it only to record a
deliberate change of the sweep.
"""
from pathlib import Path

import numpy as np

from convexkan.bspline import KnotVector
from convexkan.fem import Mesh, SpecimenDataset, biaxial_partition, unit_square_hole_mesh
from convexkan.network import CONSTRAINED, VANILLA, KANModel
from convexkan.training import ElementStates, loss_and_grad

MODES = (CONSTRAINED, VANILLA)
ARCHS = ((3, 2, 1), (3, 3, 2, 1))
SIZES = (1, 3)
K_FIXED = np.stack(
    np.meshgrid(*[np.linspace(-8.0, 28.0, 4)] * 3, indexing="ij"), axis=-1
).reshape(-1, 3)


def dataset_arrays():
    mesh = unit_square_hole_mesh(n=7)
    x, y = mesh.nodes.T
    deltas = np.array([0.1, 0.2])
    bump = np.sin(np.pi * x) * np.sin(np.pi * y)
    disp = np.stack([np.column_stack((d * x + 0.3 * d * bump, -0.3 * d * y + 0.2 * d * bump))
                     for d in deltas])
    reactions = np.array([[0.4, -0.1, 0.3, 0.05], [0.7, -0.2, 0.5, 0.1]])
    return mesh.nodes, mesh.triangles, deltas, disp, reactions


def states_from(nodes, triangles, deltas, disp, reactions) -> ElementStates:
    mesh = Mesh(nodes=nodes, triangles=triangles)
    return ElementStates(SpecimenDataset(mesh=mesh, partition=biaxial_partition(mesh),
                                         deltas=deltas, displacements=disp,
                                         reactions=reactions))


def reference_model(mode, dims, seed, K=None) -> KANModel:
    """A grid-initialized model with w_s away from unit scale; given data
    ``K``, with layer-0 domains on the middle of each K column (a little
    wider for each later seed)."""
    rng = np.random.default_rng(1000 + seed)
    model = KANModel.create(dims=dims, mode=mode, rng=seed)
    for p in model.params:
        p[..., model.n_coef] = rng.uniform(-1.0, 1.5, size=p.shape[:3])
    if K is not None:
        lo, hi = np.quantile(K, [0.25 - 0.05 * seed, 0.75 + 0.05 * seed], axis=0)
        model.t[0] = np.array([[KnotVector.from_domain(a, b, model.n_coef, model.order).t
                                for a, b in zip(lo, hi)]])
    return model


def main(path=Path(__file__).with_name("loss_grad_reference_v1.npz")):
    arrays = dataset_arrays()
    states = states_from(*arrays)
    out = dict(zip(("nodes", "triangles", "deltas", "displacements", "reactions"), arrays))
    out["K_fixed"] = K_FIXED
    rng = np.random.default_rng(7)
    seed_w = rng.normal(size=K_FIXED.shape[0])
    seed_g = rng.normal(size=K_FIXED.shape)
    out["seed_w"], out["seed_g"] = seed_w, seed_g
    for mode in MODES:
        for dims in ARCHS:
            tag = f"{mode}_{''.join(map(str, dims))}"
            for M in SIZES:
                models = [reference_model(mode, dims, s, states.K) for s in range(M)]
                value, grad = loss_and_grad(KANModel.stack(models), states)
                out[f"{tag}_M{M}_loss"], out[f"{tag}_M{M}_grad"] = value, grad
            model = reference_model(mode, dims, 0)
            W, G, H = model.forward_with_input_derivatives(K_FIXED)
            out[f"{tag}_forward"] = model.forward(K_FIXED)
            out[f"{tag}_W"], out[f"{tag}_G"], out[f"{tag}_H"] = W, G, H
            cache = model._forward_cache(K_FIXED, w_seeded=True)
            out[f"{tag}_seeded"] = model.backward_batch(cache, seed_w[None], seed_g[None])[0]
    np.savez_compressed(path, **out)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
