"""Command-line pipeline: generate -> train -> evaluate / distill / simulate.

Every command is deterministic for a fixed ``--seed``.  Exit codes: 0 on
success, 2 for configuration/parse problems, 3 for numerical failures.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    ConvexKanError,
    DataError,
    EvaluationError,
    InadmissibleDeformationError,
    SolverError,
    TrainingError,
)
from .fem import (
    Mesh,
    SpecimenDataset,
    biaxial_partition,
    deformation_gradients,
    generate_dataset,
    solve,
    two_hole_mesh,
    uniaxial_partition,
    unit_square_hole_mesh,
)
from .mechanics import (
    BENCHMARKS,
    NetworkMaterial,
    benchmark_model,
    compute_state,
)
from .network import CONSTRAINED, VANILLA, KANModel
from .symbolic import (
    LAMBDA_SYM,
    SymbolicEnergy,
    SymbolicMaterial,
    distill,
    network_parity_r2,
)
from .training import TrainConfig, train_ensemble

# delta schedules of the training specimen, per material family
_DELTA_STEP = {"NH": 0.1, "GT": 0.1, "IH": 0.1, "HW": 0.1, "AB": 0.05, "OG": 0.05}

_PATH_SPECS = (
    ("UT", 2.0),
    ("UC", 1.0),
    ("BT", 2.0),
    ("BC", 1.0),
    ("SS", 1.0),
    ("PS", 1.0),
)


@dataclass(frozen=True)
class EvaluationPath:
    """One canonical homogeneous deformation path F(gamma)."""

    kind: str
    gamma_max: float
    samples: int = 41

    def __post_init__(self):
        if self.kind not in dict(_PATH_SPECS):
            raise ConfigurationError(f"unknown evaluation path {self.kind!r}")
        if self.samples < 2:
            raise ConfigurationError("need at least 2 samples per path")

    def deformation(self, gamma: float):
        F = np.eye(3)
        s = 1.0 + gamma
        if self.kind == "UT":
            F[0, 0] = s
        elif self.kind == "UC":
            F[0, 0] = 1.0 / s
        elif self.kind == "BT":
            F[0, 0] = F[1, 1] = s
        elif self.kind == "BC":
            F[0, 0] = F[1, 1] = 1.0 / s
        elif self.kind == "SS":
            F[0, 1] = gamma
        else:  # PS
            F[0, 0] = s
            F[1, 1] = 1.0 / s
        return F

    def grid(self):
        return np.linspace(0.0, self.gamma_max, self.samples)


def evaluation_paths(samples: int = 41):
    return [EvaluationPath(k, g, samples) for k, g in _PATH_SPECS]


def rel_rms(pred, truth) -> float:
    pred, truth = np.asarray(pred), np.asarray(truth)
    denom = float(np.sqrt(np.mean(truth**2)))
    return float(np.sqrt(np.mean((pred - truth) ** 2))) / (denom + 1e-30)


def r2_score(pred, truth) -> float:
    pred, truth = np.asarray(pred), np.asarray(truth)
    ss_res = float(np.sum((truth - pred) ** 2))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_res < 1e-24:
        return 1.0
    return 1.0 - ss_res / (ss_tot + 1e-30)


@dataclass
class ParityReport:
    """Element-wise invariant comparison between two solves of one mesh."""

    i1_true: np.ndarray
    i1_learned: np.ndarray
    j_true: np.ndarray
    j_learned: np.ndarray

    @property
    def r2_i1(self) -> float:
        return r2_score(self.i1_learned, self.i1_true)

    @property
    def r2_j(self) -> float:
        return r2_score(self.j_learned, self.j_true)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["element", "I1_tilde_true", "I1_tilde_learned", "J_true", "J_learned"])
            # full precision: at small strains the invariants differ only in
            # their last few of 10 digits, and the file must reproduce the R^2
            for e in range(self.i1_true.size):
                w.writerow(
                    [
                        e,
                        f"{self.i1_true[e]:.17g}",
                        f"{self.i1_learned[e]:.17g}",
                        f"{self.j_true[e]:.17g}",
                        f"{self.j_learned[e]:.17g}",
                    ]
                )


def _element_invariants(mesh, u):
    st = compute_state(deformation_gradients(mesh, u))
    return st.I1_tilde, st.J


# -- commands ---------------------------------------------------------------


def _training_mesh(args) -> Mesh:
    if getattr(args, "mesh", None):
        return Mesh.load(args.mesh)
    n = 39 if args.paper_scale else 21
    return unit_square_hole_mesh(n=n)


def cmd_generate(args) -> int:
    kind = args.model.upper()
    if kind not in BENCHMARKS:
        raise ConfigurationError(
            f"unknown material kind {args.model!r}; choose from {sorted(BENCHMARKS)}"
        )
    if args.steps < 1:
        raise ConfigurationError(f"--steps must be >= 1, got {args.steps}")
    mesh = _training_mesh(args)
    part = biaxial_partition(mesh)
    step = _DELTA_STEP[kind]
    deltas = [step * (t + 1) for t in range(args.steps)]
    ds = generate_dataset(
        mesh,
        part,
        benchmark_model(kind),
        deltas,
        noise_sigma=args.noise,
        seed=args.seed,
        noise_per_dof_constant=args.noise_per_dof_constant,
    )
    ds.save(args.out)
    print(
        f"wrote {args.out}: {ds.n_snapshots} snapshots on {mesh.n_nodes} nodes / "
        f"{mesh.n_elements} elements, {part.n_reactions} reaction groups, "
        f"delta = {deltas}, sigma_u = {args.noise:g}"
    )
    return 0


def cmd_train(args) -> int:
    dataset = SpecimenDataset.load(args.dataset)
    config = TrainConfig.load(args.config) if args.config else TrainConfig()
    if not args.config:
        config = replace(config, epochs=args.epochs, ensemble_size=args.ensemble,
                         seed=args.seed)
    mode = VANILLA if args.ablation_vanilla else CONSTRAINED
    failures = {}
    model, reports = train_ensemble(config, dataset, mode=mode, failures=failures)
    model.save(args.out)
    for member, message in sorted(failures.items()):
        print(f"member {member} failed: {message}", file=sys.stderr)
    print("member  seed  final_loss  wall_s  selected")
    for rep in reports:
        mark = "*" if rep.selected else " "
        print(f"{rep.member:6d}  {rep.seed:4d}  {rep.final_loss:.6e}  {rep.wall_time:6.1f}  {mark}")
        if args.log_prefix:
            rep.write_csv(f"{args.log_prefix}{rep.member}.csv")
    print(f"wrote checkpoint {args.out}")
    return 0


def _load_learned(args):
    """Learned materials requested on the command line, keyed for output."""
    out = {}
    if getattr(args, "checkpoint", None):
        out["ickan"] = NetworkMaterial(KANModel.load(args.checkpoint))
    if getattr(args, "symbolic", None):
        energy = SymbolicEnergy.load(args.symbolic)
        out["sym"] = SymbolicMaterial(energy, getattr(args, "shift_symbolic", False))
    return out


def cmd_evaluate(args) -> int:
    truth = benchmark_model(args.model)
    learned = _load_learned(args)
    if not learned:
        raise ConfigurationError("evaluate needs --checkpoint and/or --symbolic")
    models = {"true": truth, **learned}
    names = list(models)
    comps = ["P11", "P12", "P21", "P22"]
    header = ["path", "gamma"]
    for name in names:
        header += [f"W_{name}"] + [f"{c}_{name}" for c in comps]
    rows = []
    summary = []
    for path in evaluation_paths(args.samples):
        gammas = path.grid()
        Fs = np.array([path.deformation(g) for g in gammas])
        data = {
            name: {"W": m.energy(Fs), "P": m.stress(Fs)[:, :2, :2].reshape(-1, 4)}
            for name, m in models.items()
        }
        for k, gamma in enumerate(gammas):
            row = [path.kind, f"{gamma:.10g}"]
            for name in names:
                row += [f"{data[name]['W'][k]:.10g}"] + [f"{v:.10g}" for v in data[name]["P"][k]]
            rows.append(row)
        for name in names[1:]:
            for q in ("W", "P"):
                summary.append((path.kind, q, name, rel_rms(data[name][q], data["true"][q])))
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    summary_path = f"{args.out}.summary.csv"
    with open(summary_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path", "quantity", "model", "rel_rms"])
        for rec in summary:
            w.writerow([rec[0], rec[1], rec[2], f"{rec[3]:.6g}"])
    for kind, q, name, err in summary:
        print(f"{kind:3s} {q}  {name:6s} rel-RMS {err:.4f}")
    print(f"wrote {args.out} and {summary_path}")
    return 0


def cmd_distill(args) -> int:
    model = KANModel.load(args.checkpoint)
    energy = distill(model, lambda_sym=args.lambda_sym)
    if args.shift_symbolic:
        # the saved energy vanishes at K = 0, so its parity is against the
        # network shifted the same way
        energy.const -= energy.value(np.zeros(3))
        energy.parity_r2 = network_parity_r2(energy, model, offset=model.forward(np.zeros(3)))
    energy.save(args.out)
    text_path = f"{args.out}.txt"
    with open(text_path, "w") as fh:
        fh.write(energy.infix() + "\n")
    print("activation        candidate    R^2")
    for (r, i, j), fit in sorted(energy.activation_fits.items()):
        print(f"layer {r} ({i},{j})   {fit.candidate.name:11s}  {fit.r2:.6f}")
    print(f"parity R^2 vs network: {energy.parity_r2:.6f}")
    print(f"W = {energy.infix()}")
    print(f"wrote {args.out} and {text_path}")
    return 0


def _save_displacements(path, u):
    with open(path, "w") as fh:
        fh.write(f"displacements {u.shape[0]}\n")
        for x, y in u:
            fh.write(f"{x:.17g} {y:.17g}\n")


def cmd_simulate(args) -> int:
    steps = (100 if args.paper_scale else 10) if args.steps is None else args.steps
    if steps < 1 or not np.isfinite(args.delta):
        raise ConfigurationError(
            f"need --steps >= 1 and a finite --delta, got {steps} and {args.delta}")
    truth = benchmark_model(args.model)
    learned = _load_learned(args)
    if len(learned) != 1:
        raise ConfigurationError("simulate needs exactly one of --checkpoint / --symbolic")
    (label, material), = learned.items()
    if args.mesh:
        mesh = Mesh.load(args.mesh)
    else:
        mesh = two_hole_mesh(n=71 if args.paper_scale else 25)
    part = uniaxial_partition(mesh)
    gammas = np.linspace(0.0, args.delta, steps + 1)[1:]
    curves = []
    fields = {}
    for name, model in (("true", truth), (label, material)):
        solved = solve(mesh, part, model, gammas)
        fields[name] = solved.displacements[-1]
        curves.append(solved.reactions)
    i1_t, j_t = _element_invariants(mesh, fields["true"])
    i1_l, j_l = _element_invariants(mesh, fields[label])
    report = ParityReport(i1_true=i1_t, i1_learned=i1_l, j_true=j_t, j_learned=j_l)
    _save_displacements(f"{args.out}.true.disp", fields["true"])
    _save_displacements(f"{args.out}.{label}.disp", fields[label])
    report.write_csv(f"{args.out}.parity.csv")
    with open(f"{args.out}.reactions.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        groups = [g.name for g in part.groups]
        w.writerow(
            ["delta"]
            + [f"R_{g}_true" for g in groups]
            + [f"R_{g}_{label}" for g in groups]
        )
        for k, g in enumerate(gammas):
            w.writerow(
                [f"{g:.10g}"]
                + [f"{v:.10g}" for v in curves[0][k]]
                + [f"{v:.10g}" for v in curves[1][k]]
            )
    print(f"parity R^2: I1_tilde = {report.r2_i1:.6f}, J = {report.r2_j:.6f}")
    print(f"wrote {args.out}.{{true,{label}}}.disp, .parity.csv, .reactions.csv")
    return 0


# -- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="convexkan",
        description="Discover polyconvex hyperelastic models from full-field data.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a full-field training dataset")
    g.add_argument("--model", required=True, help="truth material kind (NH/IH/HW/GT/AB/OG)")
    g.add_argument("--noise", type=float, default=0.0, help="displacement noise sigma_u")
    g.add_argument("--steps", type=int, default=3, help="number of load snapshots")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--mesh", help="mesh file (default: built-in holed square)")
    g.add_argument("--out", default="dataset.txt")
    g.add_argument("--noise-per-dof-constant", action="store_true",
                   help="reuse one noise draw per DOF across snapshots")
    g.add_argument("--paper-scale", action="store_true",
                   help="full-resolution mesh (long-running)")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train the spline-network energy")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", default="model.ckpt")
    t.add_argument("--epochs", type=int, default=1000)
    t.add_argument("--ensemble", type=int, default=10)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--config", help="key=value config file (overrides flags)")
    t.add_argument("--log-prefix", help="write per-member CSV logs to PREFIX<k>.csv")
    t.add_argument("--ablation-vanilla", action="store_true",
                   help="unconstrained activations (convexity ablation)")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="compare models along canonical paths")
    e.add_argument("--model", required=True, help="truth material kind")
    e.add_argument("--checkpoint")
    e.add_argument("--symbolic", help="distilled expression file")
    e.add_argument("--shift-symbolic", action="store_true",
                   help="re-apply the W(I)=0 shift to the symbolic model")
    e.add_argument("--samples", type=int, default=41)
    e.add_argument("--out", default="evaluation.csv")
    e.set_defaults(func=cmd_evaluate)

    d = sub.add_parser("distill", help="extract a closed-form energy expression")
    d.add_argument("--checkpoint", required=True)
    d.add_argument("--out", default="energy.sym")
    d.add_argument("--lambda-sym", type=float, default=LAMBDA_SYM)
    d.add_argument("--shift-symbolic", action="store_true",
                   help="subtract the K=0 energy from the distilled constant")
    d.set_defaults(func=cmd_distill)

    s = sub.add_parser("simulate", help="validation solve with a learned model")
    s.add_argument("--model", required=True, help="truth material kind")
    s.add_argument("--checkpoint")
    s.add_argument("--symbolic")
    s.add_argument("--mesh", help="mesh file (default: built-in two-hole plate)")
    s.add_argument("--delta", type=float, default=0.1, help="final load parameter")
    s.add_argument("--steps", type=int, help="number of load increments")
    s.add_argument("--out", default="simulation")
    s.add_argument("--paper-scale", action="store_true")
    s.set_defaults(func=cmd_simulate)
    return p


def _check_output_dirs(args):
    """Raise before any work when the directory of an output is missing.
    Every command writes to ``--out`` (simulate: a path prefix) and next to
    it; train also writes to ``--log-prefix``."""
    for path in (args.out, getattr(args, "log_prefix", None)):
        folder = os.path.dirname(path or "") or "."
        if not os.path.isdir(folder):
            raise ConfigurationError(f"output directory {folder} does not exist (for {path})")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except (ConfigurationError, DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, TrainingError, EvaluationError, InadmissibleDeformationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ConvexKanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
