"""Polyconvex hyperelastic model discovery with monotone input-convex
spline networks: unsupervised training on full-field data, symbolic
distillation, and FEM redeployment."""

from .network import KANModel
from .mechanics import BENCHMARKS, NetworkMaterial, benchmark_model, compute_state
from .fem import Mesh, SpecimenDataset, generate_dataset, solve
from .training import TrainConfig, train
from .symbolic import SymbolicEnergy, SymbolicMaterial, distill

__all__ = [
    "BENCHMARKS",
    "KANModel",
    "Mesh",
    "NetworkMaterial",
    "SpecimenDataset",
    "SymbolicEnergy",
    "SymbolicMaterial",
    "TrainConfig",
    "benchmark_model",
    "compute_state",
    "distill",
    "generate_dataset",
    "solve",
    "train",
]

__version__ = "0.1.0"
