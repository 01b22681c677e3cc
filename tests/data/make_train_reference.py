"""Write ``train_reference_v1.npz``, the regression fixture of the trainer.

    PYTHONPATH=src python tests/data/make_train_reference.py

The dataset is the solver-free one of ``make_loss_grad_reference.py``, read
from the arrays stored in ``loss_grad_reference_v1.npz`` (a 7-grid holed
square, two analytic displacement snapshots, fixed reactions), so the
fixture depends on neither the mesh generator nor the FEM solve.

It records ``train(TrainConfig(epochs=5, ensemble_size=3, seed=0))``: the
selected member's parameters ``raw``, flattened, every member's per-epoch
losses and every member's final loss.  This pins Adam's trajectory on the
cyclic learning rate, the curvature prior and the selection.

The committed file was re-recorded in ``d142c8e``, when the spline layers
whose inputs move changed to the per-span power form;
``tests/test_reference_generators.py`` checks the current trainer against
it.  Rewrite it only to record a deliberate change of the trainer.
"""
from pathlib import Path

import numpy as np

from convexkan.fem import Mesh, SpecimenDataset, biaxial_partition
from convexkan.training import TrainConfig, train

DATA = Path(__file__).parent
CONFIG = TrainConfig(epochs=5, ensemble_size=3, seed=0)


def dataset() -> SpecimenDataset:
    arrays = np.load(DATA / "loss_grad_reference_v1.npz")
    mesh = Mesh(nodes=arrays["nodes"], triangles=arrays["triangles"])
    return SpecimenDataset(mesh=mesh, partition=biaxial_partition(mesh),
                           deltas=arrays["deltas"], displacements=arrays["displacements"],
                           reactions=arrays["reactions"])


def main(path=DATA / "train_reference_v1.npz"):
    model, report = train(CONFIG, dataset())
    np.savez_compressed(path, parameters=model.raw.reshape(1, -1), losses=report.losses,
                        final_loss=report.final_loss)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
