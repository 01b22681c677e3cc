"""Unsupervised training of the spline-network energy from full-field data.

The loss is the force-balance residual: squared nodal forces at free DOFs
plus squared mismatch between measured reactions and the summed forces of
each Dirichlet group.  Optimized full-batch with hand-rolled Adam and a
triangular cyclic learning rate; ensembling picks the lowest-loss member.

Constrained networks are also pulled towards zero spline curvature by an L1
prior on the curvature increments (a P-spline difference penalty used as a
sparsity prior), so the energy keeps only the curvature the data support.
The prior shapes the optimization only: every reported loss is the pure
force-balance loss.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np
import numpy.typing as npt

from .errors import ConfigurationError, InadmissibleDeformationError, TrainingError
from .fem import SpecimenDataset, deformation_gradients, nodal_forces, scatter_forces
from .mechanics import MaterialModel, NetworkMaterial, compute_state
from .network import CONSTRAINED, KANModel

Array = npt.NDArray[np.float64]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    base_lr: float = 0.001
    max_lr: float = 0.1
    cycle_step: int = 50
    ensemble_size: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    curvature_penalty: float = 1e-2  # weight of curvature_prior in train()

    def __post_init__(self):
        if self.epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if not 0.0 < self.base_lr <= self.max_lr:
            raise ConfigurationError(
                f"need 0 < base_lr <= max_lr, got {self.base_lr}, {self.max_lr}"
            )
        if self.cycle_step <= 0:
            raise ConfigurationError(f"cycle_step must be positive, got {self.cycle_step}")
        if self.ensemble_size < 1:
            raise ConfigurationError(
                f"ensemble_size must be >= 1, got {self.ensemble_size}"
            )
        if not (math.isfinite(self.curvature_penalty) and self.curvature_penalty >= 0.0):
            raise ConfigurationError(
                f"curvature_penalty must be finite and >= 0, got {self.curvature_penalty}"
            )

    def with_overrides(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)

    def save(self, path):
        with open(path, "w") as fh:
            for f in fields(self):
                fh.write(f"{f.name}={getattr(self, f.name)}\n")

    @classmethod
    def load(cls, path) -> "TrainConfig":
        values = {}
        types = {f.name: f.type for f in fields(cls)}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(f"line {lineno}: expected key=value")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in types:
                    raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
                caster = int if types[key] == "int" else float
                try:
                    values[key] = caster(val)
                except ValueError:
                    raise ConfigurationError(
                        f"line {lineno}: bad value {val!r} for {key}"
                    ) from None
        return cls(**values)


def cyclic_learning_rate(epoch: int, config: TrainConfig) -> float:
    """Triangular schedule: base_lr at epoch 0, peaking at max_lr every
    ``cycle_step`` epochs, then descending symmetrically."""
    x = (epoch % (2 * config.cycle_step)) / config.cycle_step
    frac = x if x <= 1.0 else 2.0 - x
    return config.base_lr + (config.max_lr - config.base_lr) * frac


@dataclass
class TrainReport:
    losses: Array
    lrs: Array
    final_loss: float
    wall_time: float
    seed: int
    selected: bool = False

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "lr", "loss"])
            for e, (lr, lo) in enumerate(zip(self.lrs, self.losses)):
                w.writerow([e, f"{lr:.10g}", f"{lo:.17g}"])


class _Adam:
    """Plain Adam with bias correction."""

    def __init__(self, n: int, config: TrainConfig):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0
        self.cfg = config

    def step(self, params: Array, grad: Array, lr: float) -> Array:
        c = self.cfg
        self.t += 1
        self.m = c.beta1 * self.m + (1.0 - c.beta1) * grad
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * grad * grad
        mhat = self.m / (1.0 - c.beta1**self.t)
        vhat = self.v / (1.0 - c.beta2**self.t)
        return params - lr * mhat / (np.sqrt(vhat) + c.epsilon)


class ElementStates:
    """Kinematic quantities of every (snapshot, element) pair, computed once.

    The measured displacements are fixed during training, so the ansatz
    inputs K and their in-plane F-derivatives never change; only the energy
    network does.
    """

    def __init__(self, dataset: SpecimenDataset):
        mesh = dataset.mesh
        n_t, n_el = dataset.n_snapshots, mesh.n_elements
        self.K = np.empty((n_t * n_el, 3))
        self.dK2 = np.empty((n_t * n_el, 3, 2, 2))  # in-plane block of dK/dF
        for t in range(n_t):
            try:
                st = compute_state(deformation_gradients(mesh, dataset.displacements[t]))
            except InadmissibleDeformationError as exc:  # names the element
                raise TrainingError(f"snapshot {t}, {exc}") from exc
            rows = slice(t * n_el, (t + 1) * n_el)
            self.K[rows] = st.K
            self.dK2[rows] = st.dK_dF[:, :, :2, :2]
        self.n_t = n_t
        self.n_el = n_el
        self.mesh = mesh
        self.partition = dataset.partition
        self.reactions = dataset.reactions
        self.free = dataset.partition.free_flat_indices()


def _residual_loss(partition, f: Array, R_obs: Array):
    """Loss contribution of one snapshot and its force adjoint dL/df."""
    free = partition.free_flat_indices()
    f_flat = f.ravel()
    fbar = np.zeros_like(f)
    value = float(np.sum(f_flat[free] ** 2))
    fbar.ravel()[free] = 2.0 * f_flat[free]
    for beta, g in enumerate(partition.groups):
        r = f[g.dofs[:, 0], g.dofs[:, 1]].sum()
        gap = R_obs[beta] - r
        value += float(gap**2)
        fbar[g.dofs[:, 0], g.dofs[:, 1]] = -2.0 * gap
    return value, fbar


def loss(model, dataset: SpecimenDataset) -> float:
    """Force-balance residual loss of a model on a full-field dataset.

    Accepts either a spline network or any material model.  The constant
    energy shift W0 does not enter (forces depend only on derivatives).
    """
    material = NetworkMaterial(model) if isinstance(model, KANModel) else model
    if not isinstance(material, MaterialModel):
        raise ConfigurationError(f"cannot evaluate loss for {type(model).__name__}")
    total = 0.0
    for t in range(dataset.n_snapshots):
        try:
            f = nodal_forces(dataset.mesh, dataset.displacements[t], material)
        except InadmissibleDeformationError as exc:
            raise TrainingError(f"snapshot {t}: {exc}") from exc
        value, _ = _residual_loss(dataset.partition, f, dataset.reactions[t])
        total += value
    return total


def loss_and_grad(model: KANModel, states: ElementStates):
    """Loss and its gradient w.r.t. the network parameter vector.

    One batched forward pass gives the per-element stresses; the loss adjoint
    is pushed back through the assembly to gradient seeds on the energy's
    K-gradient, then through the network in one batched reverse pass.
    """
    Kb, _ = model._check_input(states.K)
    cache = model._forward_cache(Kb)
    g = cache["A"][-1][:, 0, :]
    P2 = np.einsum("nm,nmij->nij", g, states.dK2)  # per-element 2x2 stress
    n_el = states.n_el
    total = 0.0
    Pbar = np.empty_like(P2)
    area = states.mesh.area
    tris = states.mesh.triangles
    grad_N = states.mesh.grad_N
    for t in range(states.n_t):
        rows = slice(t * n_el, (t + 1) * n_el)
        f = scatter_forces(states.mesh, P2[rows])
        value, fbar = _residual_loss(states.partition, f, states.reactions[t])
        total += value
        Pbar[rows] = area[:, None, None] * np.einsum(
            "eai,eaj->eij", fbar[tris], grad_N
        )
    seed_g = np.einsum("nij,nmij->nm", Pbar, states.dK2)
    grad = model.backward_batch(Kb, seed_g=seed_g, cache=cache)
    return total, grad


def curvature_prior(model: KANModel, weight: float):
    """Value and gradient of ``weight * sum max(raw[2:], 0)`` over all
    activations of a constrained model.

    ``raw[2:]`` are the curvature increments of each convex spline (see
    :func:`bspline.reparameterize`); the gradient uses the same subgradient of
    the clamp as :func:`bspline.reparameterize_vjp`.  Vanilla models carry no
    prior.
    """
    grad = np.zeros(model.n_parameters())
    if model.mode != CONSTRAINED:
        return 0.0, grad
    n = model.n_coef
    # constrained packing: per activation the n raw entries, then w_s
    h = model.parameter_vector().reshape(-1, n + 1)[:, 2:n]
    grad.reshape(-1, n + 1)[:, 2:n] = weight * (h >= 0.0)
    return weight * float(np.maximum(h, 0.0).sum()), grad


def train(
    config: TrainConfig,
    dataset: SpecimenDataset,
    dims=(3, 2, 1),
    order: int = 5,
    n_coef: int = 17,
    mode: str = CONSTRAINED,
    seed: int | None = None,
    states: ElementStates | None = None,
):
    """Train one network on a dataset; returns (model, report).

    Adam descends the force-balance loss plus
    ``curvature_prior(model, config.curvature_penalty)``; the report records
    the force-balance loss alone.
    """
    if states is None:
        states = ElementStates(dataset)
    seed = config.seed if seed is None else seed
    model = KANModel.create(
        dims=dims, order=order, n_coef=n_coef, mode=mode, rng=seed
    ).grid_initialize()
    params = model.parameter_vector()
    adam = _Adam(params.size, config)
    losses = np.empty(config.epochs)
    lrs = np.empty(config.epochs)
    start = time.perf_counter()
    for epoch in range(config.epochs):
        value, grad = loss_and_grad(model, states)
        grad += curvature_prior(model, config.curvature_penalty)[1]
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            raise TrainingError(f"non-finite loss or gradient at epoch {epoch}")
        lr = cyclic_learning_rate(epoch, config)
        losses[epoch] = value
        lrs[epoch] = lr
        params = adam.step(params, grad, lr)
        model.set_parameter_vector(params)
    final = loss_and_grad(model, states)[0]
    report = TrainReport(
        losses=losses,
        lrs=lrs,
        final_loss=float(final),
        wall_time=time.perf_counter() - start,
        seed=seed,
    )
    return model, report


def train_ensemble(
    config: TrainConfig,
    dataset: SpecimenDataset,
    dims=(3, 2, 1),
    order: int = 5,
    n_coef: int = 17,
    mode: str = CONSTRAINED,
):
    """Train ``ensemble_size`` independently seeded networks and return the
    one with the lowest final loss, along with every member's report."""
    states = ElementStates(dataset)
    models, reports, errors = [], [], []
    for member in range(config.ensemble_size):
        try:
            model, report = train(
                config,
                dataset,
                dims=dims,
                order=order,
                n_coef=n_coef,
                mode=mode,
                seed=config.seed + member,
                states=states,
            )
        except TrainingError as exc:
            errors.append(f"member {member}: {exc}")
            continue
        models.append(model)
        reports.append(report)
    if not models:
        raise TrainingError("all ensemble members failed: " + "; ".join(errors))
    best = int(np.argmin([r.final_loss for r in reports]))
    reports[best].selected = True
    return models[best], reports
