"""Write ``distill_reference_v1.npz``, the distill regression fixture.

    PYTHONPATH=src python tests/data/make_distill_reference.py

For each grid-initialized ``KANModel.create(rng=seed)`` of ``SEEDS`` it
records, per activation in (layer, out, in) order: the selected
candidate's library index, its R^2, (a, b, c, d) and its residual sum on the
fit samples; and, per model, the distilled W, dW/dK and d2W/dK2 (upper
triangle) on a 4^3 grid over the knot box, and the parity R^2.

The committed file was written by the fit that evaluated softplus as
``np.logaddexp(0, x)``, formed softplus powers with ``**`` and sampled each
activation once per candidate; ``tests/test_symbolic.py`` checks the current
fit against it.  Rewrite it only to record a deliberate change of the fit.
"""
from pathlib import Path

import numpy as np

from convexkan.network import GRID_INIT_RANGE, KANModel
from convexkan.symbolic import FIT_POINTS, LIBRARY, distill

SEEDS = range(10)
K_GRID = np.stack(
    np.meshgrid(*[np.linspace(*GRID_INIT_RANGE, 4)] * 3, indexing="ij"), axis=-1
).reshape(-1, 3)


def activation_samples(model, r, i, j):
    """The fit samples of activation (r, i, j): x on its knot domain and
    the spline network's phi there."""
    x = np.linspace(*model.domain(r, j), FIT_POINTS)
    z = np.broadcast_to(x, (1, model.dims[r], FIT_POINTS))
    return x, model._edges(r, z)[0][0, 0, i, j]


def main(path=Path(__file__).with_name("distill_reference_v1.npz")):
    names = [c.name for c in LIBRARY]
    rec = {k: [] for k in ("candidate", "r2", "abcd", "resid", "W", "G", "H_upper", "parity_r2")}
    iu = np.triu_indices(3)
    for seed in SEEDS:
        model = KANModel.create(rng=seed)
        energy = distill(model)
        keys = sorted(energy.activation_fits)
        fits = [energy.activation_fits[k] for k in keys]
        rec["candidate"].append([names.index(f.candidate.name) for f in fits])
        rec["r2"].append([f.r2 for f in fits])
        rec["abcd"].append([(f.a, f.b, f.c, f.d) for f in fits])
        resid = []
        for k, f in zip(keys, fits):
            x, y = activation_samples(model, *k)
            fx = f.c * f.candidate.derivatives(f.a * x + f.b)[0] + f.d
            resid.append(float(np.sum((fx - y) ** 2)))
        rec["resid"].append(resid)
        v, g, h = energy.vgh(K_GRID)
        rec["W"].append(v)
        rec["G"].append(g)
        rec["H_upper"].append(h[:, iu[0], iu[1]])
        rec["parity_r2"].append(energy.parity_r2)
    np.savez_compressed(
        path,
        seeds=np.array(SEEDS),
        K=K_GRID,
        **{k: np.array(v) for k, v in rec.items()},
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
