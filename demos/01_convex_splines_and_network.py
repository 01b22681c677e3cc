"""Walk through the building blocks: monotone convex B-splines and the
small spline network that maps invariants to an energy value.

Run:  python3 demos/01_convex_splines_and_network.py
"""
import numpy as np

from convexkan.bspline import ConvexSpline, KnotVector
from convexkan.network import KANModel

# --- a single constrained spline -------------------------------------------
# Raw parameters are free reals; the reparameterization turns them into
# control points whose second differences are non-negative, so the curve is
# convex and non-decreasing on its natural domain no matter what we feed in.
rng = np.random.default_rng(0)
knots = KnotVector.from_domain(-5.0, 25.0, n_coef=17, k=5)
spline = ConvexSpline(knots=knots, raw=rng.normal(size=17))

x = np.linspace(-5.0, 25.0, 400)
y, dy, d2y = spline.eval_extended(x)
print("spline slope range:", dy.min(), "->", dy.max())
print("monotone:", bool(dy.min() >= 0.0))
print("convex:  ", bool(d2y.min() >= -1e-10))

# Outside the natural domain the curve continues linearly with the endpoint
# slope, so the guarantees survive arbitrary extrapolation.
left_val, left_slope, _ = spline.eval_extended(np.array([-40.0, -30.0]))
edge_slope = spline.eval_extended(-5.0)[1]
print("left extension is affine:", np.allclose(np.diff(left_val), 10 * edge_slope))

# --- the full network -------------------------------------------------------
# Three invariant inputs, one hidden layer of width two, scalar energy out.
model = KANModel.create(dims=(3, 2, 1), rng=3)
K = rng.uniform(0.0, 5.0, size=(5, 3))
print("\nW(K) for a few random invariant triples:")
print(model.forward(K))

# Convexity in K survives the composition: check Jensen's inequality on
# random pairs.
Ka, Kb = rng.uniform(0.0, 5.0, size=(2, 200, 3))
lam = 0.3
mid = model.forward(lam * Ka + (1 - lam) * Kb)
chord = lam * model.forward(Ka) + (1 - lam) * model.forward(Kb)
print("Jensen violations:", int(np.sum(mid > chord + 1e-10)), "of 200")
