"""End-to-end learning on a small synthetic experiment: simulate a
plate-with-hole specimen under biaxial tension, then recover the hidden
material model from displacement snapshots and four reaction forces only.

This is a scaled-down run (coarse mesh, short training) so it finishes in
about a minute.  The command line exposes the full-size version:

    convexkan generate --model NH --steps 3 --out data.txt
    convexkan train --dataset data.txt --out model.ckpt

Run:  python3 demos/03_learn_from_full_field_data.py
"""
import numpy as np

from convexkan.cli import evaluation_paths, rel_rms
from convexkan.fem import biaxial_partition, generate_dataset, unit_square_hole_mesh
from convexkan.mechanics import NeoHookean, NetworkMaterial
from convexkan.training import TrainConfig, train

hidden = NeoHookean()  # the "material" of the virtual experiment

mesh = unit_square_hole_mesh(n=11)
partition = biaxial_partition(mesh)
print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements")

dataset = generate_dataset(mesh, partition, hidden, deltas=[0.1, 0.2, 0.3])
print(f"dataset: {dataset.n_snapshots} snapshots, "
      f"{dataset.partition.n_reactions} reactions per snapshot")

config = TrainConfig(epochs=300, ensemble_size=2, seed=0)
model, report = train(config, dataset)  # one report, one row per member
for member, (seed, final) in enumerate(zip(report.seeds, report.final_loss)):
    tag = "*" if member == report.selected else " "
    print(f" {tag} seed {seed}: final loss {final:.3e}")
print(f"   all members in one stacked pass: {report.wall_time:.1f}s")

# How close is the learned energy to the hidden one along unseen paths?
learned = NetworkMaterial(model)
print("\nrelative RMS error of P along the six evaluation paths (gamma <= 0.5):")
for path in evaluation_paths():
    gammas = np.linspace(0.0, 0.5, 11)
    P_true = np.array([hidden.stress(path.deformation(g)) for g in gammas])
    P_hat = np.array([learned.stress(path.deformation(g)) for g in gammas])
    print(f"  {path.kind}: {rel_rms(P_hat.ravel(), P_true.ravel()):.4f}")
