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
from dataclasses import dataclass, fields

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from .bspline import design_rows
from .errors import ConfigurationError, InadmissibleDeformationError, TrainingError
from .fem import SpecimenDataset, deformation_gradients, nodal_forces
from .mechanics import MaterialModel, NetworkMaterial, compute_state
from .network import CONSTRAINED, KANModel, KANStack

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
        if not (0.0 < self.base_lr <= self.max_lr and math.isfinite(self.max_lr)):
            raise ConfigurationError(
                f"need 0 < base_lr <= max_lr < inf, got {self.base_lr}, {self.max_lr}"
            )
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigurationError(
                f"need 0 <= beta1, beta2 < 1, got {self.beta1}, {self.beta2}"
            )
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ConfigurationError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.cycle_step <= 0:
            raise ConfigurationError(f"cycle_step must be positive, got {self.cycle_step}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.ensemble_size < 1:
            raise ConfigurationError(
                f"ensemble_size must be >= 1, got {self.ensemble_size}"
            )
        if not (math.isfinite(self.curvature_penalty) and self.curvature_penalty >= 0.0):
            raise ConfigurationError(
                f"curvature_penalty must be finite and >= 0, got {self.curvature_penalty}"
            )

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
    member: int = 0
    selected: bool = False

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "lr", "loss"])
            for e, (lr, lo) in enumerate(zip(self.lrs, self.losses)):
                w.writerow([e, f"{lr:.10g}", f"{lo:.17g}"])


class _Adam:
    """Plain Adam with bias correction, elementwise on parameter arrays of
    any shape: a stack of members steps each member exactly as alone."""

    def __init__(self, shape, config: TrainConfig):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
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

    def keep(self, rows):
        """Keep the moments of the selected members only."""
        self.m, self.v = self.m[rows], self.v[rows]


def _balance_rows(partition) -> sp.csr_matrix:
    """The rows of one snapshot's force-balance residual as a map of its
    flat nodal forces: the free DOFs first, then one row per reaction group
    summing the forces on its DOFs."""
    free = partition.free_flat_indices()
    rows = [np.arange(free.size)]
    cols = [free]
    for beta, g in enumerate(partition.groups):
        rows.append(np.full(g.dofs.shape[0], free.size + beta))
        cols.append(2 * g.dofs[:, 0] + g.dofs[:, 1])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    shape = (free.size + partition.n_reactions, 2 * partition.n_nodes)
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=shape)


def _balance_target(partition, R_obs: Array) -> Array:
    """What the residual rows should read: zero free forces, then the
    measured reactions."""
    return np.concatenate((np.zeros(partition.free_flat_indices().size), R_obs))


class ElementStates:
    """The force balance of a full-field dataset as one fixed linear map,
    built once.

    The measured displacements are fixed during training, so the ansatz
    inputs ``K`` (N, 3) of every (snapshot, element) pair never change, and
    the nodal forces are linear in the energy's K-gradients ``g`` (N, 3):
    ``f^a_i = area * sum_m g_m dK_m/dF_ij grad N^a_j``.  Stacking every
    snapshot's residual rows (see :func:`_balance_rows`) gives the sparse
    operator ``L`` and target ``y`` with loss ``|L g - y|^2`` for ``g``
    flattened row by row.  Only the energy network changes, and its layer-0
    design rows only with its layer-0 knots.
    """

    def __init__(self, dataset: SpecimenDataset):
        mesh, partition = dataset.mesh, dataset.partition
        n_t, n_el = dataset.n_snapshots, mesh.n_elements
        K, dK2 = [], []
        for t in range(n_t):
            try:
                st = compute_state(deformation_gradients(mesh, dataset.displacements[t]))
            except InadmissibleDeformationError as exc:  # names the element
                raise TrainingError(f"snapshot {t}, {exc}") from exc
            K.append(st.K)
            dK2.append(st.dK_dF[:, :, :2, :2])  # in-plane block of dK/dF
        self.K = np.concatenate(K)
        N, n_dof = self.K.shape[0], 2 * mesh.n_nodes
        # force on DOF (node a, component i) of each element per unit g_m
        C = np.einsum("tenij,eaj->tenai", np.reshape(dK2, (n_t, n_el, 3, 2, 2)),
                      mesh.area[:, None, None] * mesh.grad_N)
        dof = 2 * mesh.triangles[:, None, :, None] + np.arange(2)  # (n_el, 1, 3, 2)
        rows = np.arange(n_t)[:, None, None, None, None] * n_dof + dof
        cols = np.arange(N * 3).reshape(n_t, n_el, 3, 1, 1)
        rows, cols = np.broadcast_arrays(rows, cols)
        forces = sp.csr_matrix((C.ravel(), (rows.ravel(), cols.ravel())),
                               shape=(n_t * n_dof, N * 3))
        S = sp.block_diag([_balance_rows(partition)] * n_t, format="csr")
        self.L = (S @ forces).tocsr()
        self.LT = self.L.T.tocsr()
        self.y = np.concatenate([_balance_target(partition, R) for R in dataset.reactions])
        self._rows0_key = None

    def layer0_rows(self, stack: KANStack) -> Array:
        """The layer-0 value and slope rows at K of a stack (what a training
        sweep reads there), recomputed when its layer-0 knots change."""
        t0, k = stack.t[0], stack.arch.order
        key = (k, t0.shape, t0.tobytes())
        if key != self._rows0_key:
            self._rows0_key = key
            self._rows0 = design_rows(self.K.T[None], t0, k, (0, 1))
        return self._rows0


def loss(model, dataset: SpecimenDataset) -> float:
    """Force-balance residual loss of a model on a full-field dataset.

    Accepts either a spline network or any material model.  The constant
    energy shift W0 does not enter (forces depend only on derivatives).
    """
    material = NetworkMaterial(model) if isinstance(model, KANModel) else model
    if not isinstance(material, MaterialModel):
        raise ConfigurationError(f"cannot evaluate loss for {type(model).__name__}")
    S = _balance_rows(dataset.partition)
    total = 0.0
    for t in range(dataset.n_snapshots):
        try:
            f = nodal_forces(dataset.mesh, dataset.displacements[t], material)
        except InadmissibleDeformationError as exc:
            raise TrainingError(f"snapshot {t}: {exc}") from exc
        res = S @ f.ravel() - _balance_target(dataset.partition, dataset.reactions[t])
        total += float(res @ res)
    return total


def loss_and_grad(stack: KANStack, states: ElementStates):
    """Loss and its gradient w.r.t. the network parameter vector of each
    member of a stack of M: ``(M,)`` and ``(M, n_parameters)``.

    One forward sweep gives every member's energy K-gradients g; the
    residuals are ``L g - y``, and their adjoint ``2 L^T (L g - y)`` seeds
    one reverse sweep through all members.
    """
    arch = stack.arch
    Kb, _ = arch._check_input(states.K)
    cache = arch._forward_cache(Kb, states.layer0_rows(stack), stack)
    M, N = stack.size, Kb.shape[0]
    g = cache["A"][-1][:, :, 0, :].reshape(M, 3 * N).T  # one column per member
    res = states.L @ g - states.y[:, None]
    value = np.sum(res * res, axis=0)
    seed_g = (states.LT @ (2.0 * res)).T.reshape(M, N, 3)
    return value, arch.backward_batch(Kb, seed_g=seed_g, cache=cache)


def curvature_prior(stack: KANStack, weight: float):
    """Value and gradient of ``weight * sum max(raw[2:], 0)`` over all
    activations of each member of a constrained stack: ``(M,)`` and
    ``(M, n_parameters)``.

    ``raw[2:]`` are the curvature increments of each convex spline (see
    :func:`bspline.reparameterize`); the gradient uses the same subgradient of
    the clamp as :func:`bspline.reparameterize_vjp`.  Vanilla models carry no
    prior.
    """
    arch, v = stack.arch, stack.parameter_vectors()
    value, grad = np.zeros(len(v)), np.zeros_like(v)
    if arch.mode == CONSTRAINED:
        n = arch.n_coef
        # constrained packing: per activation the n raw entries, then w_s
        h = v.reshape(len(v), -1, n + 1)[..., 2:n]
        grad.reshape(h.shape[:-1] + (n + 1,))[..., 2:n] = weight * (h >= 0.0)
        value = weight * np.maximum(h, 0.0).sum(axis=(1, 2))
    return value, grad


def _train_members(config: TrainConfig, states: ElementStates, seeds, dims, order,
                   n_coef, mode):
    """Train one network per seed, all in one stacked pass.

    Returns ``(models, reports, errors)``: the members that finished with
    their reports, and by member index the message of each member that left
    the stack on a non-finite loss or gradient.  Every report's wall time is
    the stacked pass's.
    """
    models = [
        KANModel.create(dims=dims, order=order, n_coef=n_coef, mode=mode, rng=s).grid_initialize()
        for s in seeds
    ]
    alive = list(range(len(models)))
    stack = KANStack.of(models)
    params = stack.parameter_vectors()
    adam = _Adam(params.shape, config)
    losses = np.empty((len(models), config.epochs))
    lrs = np.empty(config.epochs)
    errors = {}
    start = time.perf_counter()
    for epoch in range(config.epochs):
        value, grad = loss_and_grad(stack, states)
        grad += curvature_prior(stack, config.curvature_penalty)[1]
        ok = np.isfinite(value) & np.all(np.isfinite(grad), axis=1)
        if not ok.all():
            for k in np.flatnonzero(~ok):
                errors[alive[k]] = f"non-finite loss or gradient at epoch {epoch}"
            alive = [a for a, keep in zip(alive, ok) if keep]
            if not alive:
                break
            value, grad, params = value[ok], grad[ok], params[ok]
            adam.keep(ok)
            stack = KANStack.of([models[a] for a in alive])
        lr = cyclic_learning_rate(epoch, config)
        losses[alive, epoch] = value
        lrs[epoch] = lr
        params = adam.step(params, grad, lr)
        stack.set_parameter_vectors(params)
    final = loss_and_grad(stack, states)[0] if alive else []
    wall_time = time.perf_counter() - start
    reports = [
        TrainReport(losses=losses[a], lrs=lrs, final_loss=float(f), wall_time=wall_time,
                    seed=seeds[a], member=a)
        for a, f in zip(alive, final)
    ]
    return [models[a] for a in alive], reports, errors


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
    models, reports, errors = _train_members(config, states, [seed], dims, order, n_coef, mode)
    if errors:
        raise TrainingError(errors[0])
    return models[0], reports[0]


def train_ensemble(
    config: TrainConfig,
    dataset: SpecimenDataset,
    dims=(3, 2, 1),
    order: int = 5,
    n_coef: int = 17,
    mode: str = CONSTRAINED,
    failures: dict | None = None,
):
    """Train ``ensemble_size`` independently seeded networks in one stacked
    pass and return the one with the lowest final loss, along with every
    finished member's report.  ``failures``, when given, receives by member
    index the message of each member that left the stack."""
    seeds = [config.seed + member for member in range(config.ensemble_size)]
    models, reports, errors = _train_members(config, ElementStates(dataset), seeds, dims,
                                             order, n_coef, mode)
    if failures is not None:
        failures.update(errors)
    if not models:
        raise TrainingError("all ensemble members failed: " + "; ".join(
            f"member {m}: {msg}" for m, msg in sorted(errors.items())))
    best = int(np.argmin([r.final_loss for r in reports]))
    reports[best].selected = True
    return models[best], reports
