"""Write ``mechanics_reference_v1.npz``, the kinematics and material fixture.

    PYTHONPATH=src python tests/data/make_mechanics_reference.py

For a stack of 2x2 and a stack of 3x3 deformation gradients (the identity
and seeded random admissible F) it records ``compute_state``'s K, scalar
invariants and dK/dF, d2K/dFdF (the tangent of the energy W = K_m), and
energy, stress and tangent of every benchmark material, of a
grid-initialized ``NetworkMaterial`` and of a ``SymbolicMaterial`` read from
``distilled_v1.sym`` with its energy zeroed at the identity.

The committed file was written by the kinematics that chained the partials
of W with respect to (I1, I2, J) through an F^{-T} from ``np.linalg.inv``,
and by an Ogden model whose stress and tangent were central differences of
its energy and stress; ``tests/test_mechanics.py`` checks the current path
against it.  The Ogden stress and tangent are now closed forms, so they are
compared at that difference method's error: P within 1e-9 and dP/dF within
1e-5 of the largest entry (measured: 4.5e-10 and 3.3e-6); every energy,
Ogden's included, is still bit-identical.  Rewrite the file only to record a
deliberate change of the kinematics or of a material.
"""
from pathlib import Path

import numpy as np

from convexkan.mechanics import BENCHMARKS, NetworkMaterial, benchmark_model, compute_state
from convexkan.network import KANModel
from convexkan.symbolic import SymbolicEnergy, SymbolicMaterial

DATA = Path(__file__).parent
DIMS = (2, 3)
STACK = 7
INVARIANTS = ("I1", "I2", "I3", "J", "I1_tilde", "I2_star")
MATERIALS = tuple(sorted(BENCHMARKS)) + ("ICKAN", "SYM")


def stack(dim: int) -> np.ndarray:
    """The identity and STACK - 1 seeded admissible F, dim x dim."""
    rng = np.random.default_rng(100 + dim)
    F = [np.eye(3)]
    while len(F) < STACK:
        G = np.eye(3) + rng.uniform(-0.25, 0.25, size=(3, 3))
        if np.linalg.det(G) > 0.3:
            F.append(G)
    return np.array(F)[:, :dim, :dim]


def d2K_dFdF(F: np.ndarray) -> np.ndarray:
    """d2K_m / dF_ij dF_kl on the whole 3 x 3 block of each F of a 2x2 or
    3x3 stack, shape (N, 3, 3, 3, 3, 3): the tangent of the energy W = K_m,
    whose K-gradient is e_m and K-Hessian 0."""
    n, dim = F.shape[0], F.shape[-1]
    F3 = np.tile(np.eye(3), (n, 1, 1))
    F3[:, :dim, :dim] = F
    st, e = compute_state(F3), np.eye(3)
    return np.stack([st.tangent(np.tile(e[m], (n, 1)), np.zeros((n, 3, 3))) for m in range(3)],
                    axis=1)


def materials() -> dict:
    models = {kind: benchmark_model(kind) for kind in sorted(BENCHMARKS)}
    models["ICKAN"] = NetworkMaterial(KANModel.create(rng=35))
    models["SYM"] = SymbolicMaterial(SymbolicEnergy.load(DATA / "distilled_v1.sym"))
    return models


def main(path=DATA / "mechanics_reference_v1.npz"):
    out = {}
    models = materials()
    for dim in DIMS:
        F = stack(dim)
        st = compute_state(F)
        out[f"F{dim}"] = F
        for name in ("K",) + INVARIANTS + ("dK_dF",):
            out[f"{dim}_{name}"] = getattr(st, name)
        out[f"{dim}_d2K_dFdF"] = d2K_dFdF(F)
        for kind in MATERIALS:
            m = models[kind]
            out[f"{dim}_{kind}_W"] = m.energy(F)
            out[f"{dim}_{kind}_P"] = m.stress(F)
            out[f"{dim}_{kind}_T"] = m.tangent(F)
    np.savez_compressed(path, **out)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
