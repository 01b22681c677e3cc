"""Unsupervised training of the spline-network energy from full-field data.

The loss is the force-balance residual: squared nodal forces at free DOFs
plus squared mismatch between measured reactions and the summed forces of
each Dirichlet group.  :func:`train` optimizes
``TrainConfig.ensemble_size`` seeded members together, full-batch with
hand-rolled Adam on a triangular cyclic learning rate, and keeps the member
with the lowest final loss (one member is ``ensemble_size=1``).

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
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from .errors import ConfigurationError, InadmissibleDeformationError, TrainingError
from .fem import SpecimenDataset, area_blocks, deformation_gradients, nodal_forces
from .mechanics import MaterialModel, NetworkMaterial, compute_state
from .network import CONSTRAINED, KANModel

Array = npt.NDArray[np.float64]


# Adam (Kingma & Ba 2015) on a triangular cyclic learning rate (Smith 2017),
# as the paper trains: moment decays, denominator guard, and a rate rising
# from BASE_LR to MAX_LR over CYCLE_STEP epochs and falling back over as many
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
BASE_LR, MAX_LR, CYCLE_STEP = 0.001, 0.1, 50


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    ensemble_size: int = 10
    seed: int = 0
    curvature_penalty: float = 1e-2  # weight of curvature_prior in train()

    def __post_init__(self):
        if self.epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.ensemble_size < 1:
            raise ConfigurationError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if self.seed + self.ensemble_size > 2**63:  # the last member's seed is an int64
            raise ConfigurationError(f"seed + ensemble_size must be <= 2**63, got "
                                     f"{self.seed} + {self.ensemble_size}")
        if not (math.isfinite(self.curvature_penalty) and self.curvature_penalty >= 0.0):
            raise ConfigurationError(
                f"curvature_penalty must be finite and >= 0, got {self.curvature_penalty}"
            )


def cyclic_learning_rate(epochs: int) -> Array:
    """The learning rate of each of ``epochs`` epochs: linear from BASE_LR at
    epoch 0 to MAX_LR at CYCLE_STEP and back at 2 * CYCLE_STEP, repeated."""
    x = (np.arange(epochs) % (2 * CYCLE_STEP)) / CYCLE_STEP
    return BASE_LR + (MAX_LR - BASE_LR) * np.where(x <= 1.0, x, 2.0 - x)


@dataclass
class TrainReport:
    """One training run, one row per member: ``losses`` (M, epochs) and
    ``final_loss`` (M,) are NaN for a member that failed, from its failure
    epoch on; ``failures`` gives its message by member index, and
    ``selected`` is the member returned.

    ``explained`` (M,) is ``1 - final_loss / |y|^2`` for the force data
    ``y`` (:class:`ElementStates`): 0 at the zero-force model, NaN for a
    failed member or when ``y`` is 0.  ``dead`` (M,) counts the constrained
    activations whose ``raw[1:n_coef]`` are all negative: those splines are
    flat and get zero gradient for good (0 in vanilla mode)."""
    seeds: npt.NDArray[np.int64]
    losses: Array
    lrs: Array
    final_loss: Array
    explained: Array
    dead: npt.NDArray[np.int64]
    failures: dict[int, str]
    selected: int
    wall_time: float

    def write_csv(self, path, member: int):
        """Write one member's loss log."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "lr", "loss"])
            for e, (lr, lo) in enumerate(zip(self.lrs, self.losses[member])):
                w.writerow([e, f"{lr:.10g}", f"{lo:.17g}"])


class ElementStates:
    """The force balance of a full-field dataset as one fixed linear map,
    built once.

    The measured displacements are fixed during training, so the ansatz
    inputs ``K`` (N, 3) of every (snapshot, element) pair never change, and
    the nodal forces are linear in the energy's K-gradients ``g`` (N, 3):
    ``f = D^T (area dK/dF^T g)`` per element.  Stacking every snapshot's
    force balance (see :class:`DofPartition`) gives the sparse operator ``L``
    and target ``y`` with loss ``|L g - y|^2`` for ``g`` flattened row by row.
    Only the energy network changes.
    """

    def __init__(self, dataset: SpecimenDataset):
        mesh, S = dataset.mesh, dataset.partition.balance
        SDT = S @ mesh.DT
        K, L = [], []
        for t in range(dataset.n_snapshots):
            try:
                st = compute_state(deformation_gradients(mesh, dataset.displacements[t]))
            except InadmissibleDeformationError as exc:  # names the element
                raise TrainingError(f"snapshot {t}, {exc}") from exc
            K.append(st.K)
            # in-plane block of dK/dF, as the (4, 3) map from g to P per element
            L.append(SDT @ area_blocks(mesh, st.dK_dF[:, :, :2, :2].reshape(-1, 3, 4)
                                       .transpose(0, 2, 1)))
        self.K = np.concatenate(K)
        self.L = sp.block_diag(L, format="csr")
        self.LT = self.L.T.tocsr()
        n_free = S.shape[0] - dataset.partition.n_reactions
        self.y = np.column_stack((np.zeros((len(L), n_free)), dataset.reactions)).ravel()


def loss(model, dataset: SpecimenDataset) -> float:
    """Force-balance residual loss of a model on a full-field dataset.

    Accepts either a spline network or any material model.  The constant
    energy shift W0 does not enter (forces depend only on derivatives).
    """
    material = NetworkMaterial(model) if isinstance(model, KANModel) else model
    if not isinstance(material, MaterialModel):
        raise ConfigurationError(f"cannot evaluate loss for {type(model).__name__}")
    S = dataset.partition.balance
    n_free = S.shape[0] - dataset.partition.n_reactions
    total = 0.0
    for t in range(dataset.n_snapshots):
        try:
            f = nodal_forces(dataset.mesh, dataset.displacements[t], material)
        except InadmissibleDeformationError as exc:
            raise TrainingError(f"snapshot {t}: {exc}") from exc
        res = S @ f.ravel()
        res[n_free:] -= dataset.reactions[t]
        total += float(res @ res)
    return total


def _residuals(model: KANModel, states: ElementStates, rows0=None):
    """The force residuals ``L g - y`` of each of a model's M members, one
    column per member, and the forward sweep's cache they came from;
    ``rows0`` are ``model.layer0_rows(states.K)``, if built."""
    Kb, _ = model._check_input(states.K)
    cache = model._forward_cache(Kb, rows0)
    # the energy's K-gradients (M, 1, 3, N) as one column per member, point by point
    g = cache["A"][-1][:, 0].transpose(2, 1, 0).reshape(-1, model.size)
    return states.L @ g - states.y[:, None], cache


def loss_and_grad(model: KANModel, states: ElementStates, rows0=None):
    """Loss and its gradient w.r.t. the parameters of each of a model's M
    members: ``(M,)`` and ``model.raw``'s shape ``(M, n_edges, width)``.

    One forward sweep gives every member's energy K-gradients g; the
    residuals are ``L g - y``, and their adjoint ``2 L^T (L g - y)`` seeds
    one reverse sweep through all members.  The sweep reads the layer-0
    rows ``rows0`` if given (``model.layer0_rows(states.K)``), and builds
    them from the model's knots otherwise.
    """
    res, cache = _residuals(model, states, rows0)
    N = states.K.shape[0]
    seed_g = (states.LT @ (2.0 * res)).reshape(N, 3, model.size).transpose(2, 1, 0)
    return np.sum(res * res, axis=0), model.backward_batch(cache, seed_g)


def curvature_prior(model: KANModel, weight: float):
    """Value and gradient of ``weight * sum max(raw[2:n_coef], 0)`` over all
    activations of each member of a constrained model: ``(M,)`` and
    ``model.raw``'s shape.

    ``raw[2:n_coef]`` are the curvature increments of each convex spline (see
    :func:`bspline.reparameterize`); the gradient uses the same subgradient of
    the clamp as :func:`bspline.reparameterize_vjp`.  Vanilla models carry no
    prior.
    """
    value, grad = np.zeros(model.size), np.zeros_like(model.raw)
    if model.mode == CONSTRAINED:
        h = model.raw[..., 2 : model.n_coef]
        grad[..., 2 : model.n_coef] = weight * (h >= 0.0)
        value = weight * np.maximum(h, 0.0).sum(axis=(1, 2))
    return value, grad


def train(config: TrainConfig, dataset: SpecimenDataset, mode: str = CONSTRAINED):
    """Train ``ensemble_size`` networks, seeded ``config.seed`` upwards, as
    the members of one model and return the one with the lowest final loss,
    as a model of one, with the run's :class:`TrainReport`.

    Adam descends the force-balance loss plus
    ``curvature_prior(model, config.curvature_penalty)``; the report records
    the force-balance loss alone.  A member whose loss or gradient turns
    non-finite keeps its row: its parameters freeze and its gradient counts
    as zero, so the other members step exactly as without it.
    """
    states = ElementStates(dataset)
    seeds = config.seed + np.arange(config.ensemble_size)
    model = KANModel.stack([KANModel.create(mode=mode, rng=int(s)) for s in seeds])
    m, v = np.zeros_like(model.raw), np.zeros_like(model.raw)
    alive = np.ones(len(seeds), dtype=bool)
    losses = np.full((len(seeds), config.epochs), np.nan)
    lrs = cyclic_learning_rate(config.epochs)
    failures = {}
    start = time.perf_counter()
    rows0 = model.layer0_rows(states.K)  # the knots never move
    for epoch in range(config.epochs):
        value, grad = loss_and_grad(model, states, rows0)
        grad += curvature_prior(model, config.curvature_penalty)[1]
        ok = np.isfinite(value) & np.all(np.isfinite(grad), axis=(1, 2))
        for k in np.flatnonzero(alive & ~ok):
            failures[int(k)] = f"non-finite loss or gradient at epoch {epoch}"
        alive &= ok
        if not alive.any():
            raise TrainingError("all ensemble members failed: " + "; ".join(
                f"member {k}: {msg}" for k, msg in sorted(failures.items())))
        losses[alive, epoch] = value[alive]
        grad[~alive] = 0.0
        m = BETA1 * m + (1.0 - BETA1) * grad
        v = BETA2 * v + (1.0 - BETA2) * grad * grad
        mhat = m / (1.0 - BETA1 ** (epoch + 1))
        vhat = v / (1.0 - BETA2 ** (epoch + 1))
        np.subtract(model.raw, lrs[epoch] * mhat / (np.sqrt(vhat) + EPSILON), out=model.raw,
                    where=alive[:, None, None])
    res = _residuals(model, states, rows0)[0]  # the final losses need no reverse sweep
    final = np.where(alive, np.sum(res * res, axis=0), np.nan)
    best = int(np.nanargmin(final))
    yy = states.y @ states.y
    explained = 1.0 - final / yy if yy > 0.0 else np.full_like(final, np.nan)
    flat = np.all(model.raw[..., 1 : model.n_coef] < 0.0, axis=2) & (model.mode == CONSTRAINED)
    report = TrainReport(seeds=seeds, losses=losses, lrs=lrs, final_loss=final,
                         explained=explained, dead=flat.sum(axis=1), failures=failures,
                         selected=best,
                         wall_time=time.perf_counter() - start)
    return model.members([best]), report
