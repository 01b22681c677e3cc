"""From network to formula and back into simulation: distill a trained
energy network to a closed-form expression, then use both as material
models inside the finite element solver on an unseen geometry.

Run:  python3 demos/04_distill_and_redeploy.py
"""
import numpy as np

from convexkan.cli import r2_score
from convexkan.fem import solve, two_hole_mesh, uniaxial_partition
from convexkan.mechanics import NeoHookean, NetworkMaterial, compute_state
from convexkan.symbolic import SymbolicEnergy, SymbolicMaterial, distill
from convexkan.network import KANModel

# Stand-in for a trained network: any constrained model distills the same
# way.  (demo 03 shows actual training; here the point is the tooling.)
model = KANModel.create(rng=7)

energy = distill(model)
print("distilled expression:")
print("  W =", energy.infix())
print("parity R^2 vs the network:", f"{energy.parity_r2:.5f}")

# The expression survives a serialization round trip.
reloaded = SymbolicEnergy.loads(energy.dumps())
K_check = np.random.default_rng(0).uniform(-2.0, 10.0, size=(20, 3))
assert np.allclose(reloaded.value(K_check), energy.value(K_check))

# Redeploy: solve a two-hole specimen under uniaxial tension with the
# network and with its symbolic twin, then compare element invariants.
mesh = two_hole_mesh(n=13)
partition = uniaxial_partition(mesh)
print(f"\nvalidation mesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements")

# one continuation over five load steps per material; the last field is kept
deltas = np.linspace(0.0, 0.05, 6)[1:]
u_net = solve(mesh, partition, NetworkMaterial(model), deltas).displacements[-1]
u_sym = solve(mesh, partition, SymbolicMaterial(energy), deltas).displacements[-1]

from convexkan.fem import deformation_gradients

F_net = deformation_gradients(mesh, u_net)
F_sym = deformation_gradients(mesh, u_sym)
j_net = np.array([compute_state(F).J for F in F_net])
j_sym = np.array([compute_state(F).J for F in F_sym])
print("per-element J parity R^2 (network vs symbolic):",
      f"{r2_score(j_sym, j_net):.6f}")
