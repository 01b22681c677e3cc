"""The benchmark's workloads: what each sets up, what one job runs through
``convexkan.cli.main``, and how each job's outputs are checked.

Every job of a run repeats the same commands on the same inputs, so equal
outputs give equal evidence and :func:`run.check_jobs` checks each distinct
piece of evidence once.
"""
from __future__ import annotations

import contextlib
import csv
import inspect
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from convexkan import cli, fem, training
from convexkan.fem import SpecimenDataset, two_hole_mesh, unit_square_hole_mesh
from convexkan.mechanics import NeoHookean, NetworkMaterial, compute_state
from convexkan.network import GRID_INIT_RANGE, KANModel
from convexkan.symbolic import SymbolicEnergy


@dataclass(frozen=True)
class Sizes:
    """Problem sizes and quality gates.  ``FULL`` is what the benchmark
    measures; ``SMOKE`` only exercises every code path quickly, so it keeps
    the integrity checks and drops the quality gates."""

    discover_grid: int = 11  # holed-square resolution of the discover dataset
    snapshots: int = 3
    noise: float = 1e-4
    ensemble: int = 3
    epochs: int = 80
    forward_grid: int = 21  # the desk-scale training specimen
    redeploy_grid: int = 9
    redeploy_epochs: int = 80
    plate_grid: int = 9  # two-hole validation plate
    plate_delta: float = 0.03
    eval_samples: int = 11
    # Floors on learned-model quality, set below the worst value seen over
    # many seeds on the unmodified program: they catch broken outputs, while
    # the values themselves are reported ungated.  Distill's own parity R^2
    # has no floor: it samples the whole knot box K in [-5, 25]^3, far
    # outside the data, and the distilled expression's extrapolation there
    # gives R^2 from 0.9999 down to -3.4e4 depending on the seed.  Like the BT
    # path in discover it is reported, not gated; the distilled model is
    # gated where it is used, by the symbolic simulate's parity.
    in_box_tol: float = 0.05  # rel-RMS of P at path points inside the data's K box
    simulate_r2_min: float = 0.95  # I1~ and J parity, network material
    simulate_sym_r2_min: float = 0.8  # I1~ and J parity, distilled material


FULL = Sizes()
SMOKE = Sizes(
    discover_grid=7, snapshots=1, ensemble=2, epochs=3, forward_grid=7,
    redeploy_grid=7, redeploy_epochs=3, plate_delta=0.01, eval_samples=3,
    in_box_tol=math.inf, simulate_r2_min=-math.inf, simulate_sym_r2_min=-math.inf,
)

# Newton's convergence tolerance, the bound on a recomputed residual
SOLVER_TOL = inspect.signature(fem.solve).parameters["tol"].default


class SetupError(RuntimeError):
    pass


def run_cli(argv) -> tuple[int, str, str]:
    """One CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejections
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, sizes: Sizes = FULL):
        self.work = work
        self.seed = seed
        self.sizes = sizes

    def file(self, name: str) -> str:
        return str(self.work / name)

    def read(self, name: str) -> str:
        return Path(self.file(name)).read_text()

    def setup_cli(self, argv):
        code, _, err = run_cli(argv)
        if code != 0:
            raise SetupError(f"set-up command {argv[0]} exited {code}: {err.strip()}")

    def setup(self):
        """Write the workload's inputs under ``work`` and warm lazy state."""
        raise NotImplementedError

    def job(self) -> list[tuple[str, list]]:
        """The job's commands as (metric name, argv) pairs, run in order."""
        raise NotImplementedError

    def evidence(self, stdout: dict) -> tuple:
        """Everything the check reads from one job's outputs."""
        raise NotImplementedError

    def check(self, evidence: tuple) -> tuple[list[str], dict]:
        """(problems, ungated quality numbers) for one piece of evidence."""
        raise NotImplementedError

    def corrupt(self):
        """Damage the job's main output file; used by the smoke test."""
        raise NotImplementedError


def _rewrite(path: str, pattern: str, repl):
    text = Path(path).read_text()
    new, n = re.subn(pattern, repl, text, count=1, flags=re.M)
    if n != 1:
        raise RuntimeError(f"nothing to corrupt in {path}")
    Path(path).write_text(new)


class Discover(Workload):
    """Inverse problem: train an ensemble on force balance only."""

    name = "discover"

    def setup(self):
        s = self.sizes
        unit_square_hole_mesh(n=s.discover_grid).save(self.file("specimen.mesh"))
        self.setup_cli(["generate", "--model", "NH", "--steps", s.snapshots,
                        "--noise", s.noise, "--seed", self.seed,
                        "--mesh", self.file("specimen.mesh"),
                        "--out", self.file("dataset.txt")])
        self._dataset = None

    def job(self):
        s = self.sizes
        return [("train_s", ["train", "--dataset", self.file("dataset.txt"),
                             "--ensemble", s.ensemble, "--epochs", s.epochs,
                             "--seed", self.seed, "--out", self.file("model.ckpt")])]

    def evidence(self, stdout):
        # member table rows: index, seed, final_loss, wall_s, "*" if selected
        selected = [ln.split()[2] for ln in stdout["train_s"].splitlines()
                    if ln.rstrip().endswith("*")]
        return self.read("model.ckpt"), tuple(selected)

    def check(self, evidence):
        text, selected = evidence
        problems, quality = [], {}
        if len(selected) != 1:
            return [f"expected one selected member, found {len(selected)}"], quality
        model = KANModel.loads(text)
        if model.dumps() != text:
            problems.append("checkpoint does not round-trip through loads/dumps")
        if self._dataset is None:
            self._dataset = SpecimenDataset.load(self.file("dataset.txt"))
            K = training.ElementStates(self._dataset).K
            self._box = (K.min(axis=0), K.max(axis=0))
        reported = float(selected[0])
        value = training.loss(model, self._dataset)
        # the table prints 7 significant digits
        if not math.isclose(value, reported, rel_tol=1e-6, abs_tol=1e-300):
            problems.append(f"reloaded loss {value:.9e} != reported {reported:.6e}")
        per_path, in_box, n_in = path_errors(NetworkMaterial(model), self._box)
        quality["path_rel_rms"] = per_path
        quality["in_box_rel_rms"] = in_box
        quality["in_box_points"] = n_in
        if n_in == 0:
            problems.append("no path point lies inside the training K box")
        elif not in_box <= self.sizes.in_box_tol:
            problems.append(f"in-box stress rel-RMS {in_box:.4f} > {self.sizes.in_box_tol}")
        return problems, quality

    def corrupt(self):
        def bump(m):
            return f"raw {float(m.group(1)) + 0.5:.17g}"

        _rewrite(self.file("model.ckpt"), r"^raw (\S+)", bump)


def path_errors(material, box, samples: int = 21, gamma_cap: float = 1.0):
    """Stress rel-RMS against Neo-Hookean on the six canonical paths.

    Returns the rel-RMS of each whole path (out of the data's K box too: BT
    reaches K3 far beyond the training data) and the pooled rel-RMS over the
    path points whose K lies inside ``box``, with their count.
    """
    truth = NeoHookean()
    lo, hi = box
    per_path, inside_hat, inside_true = {}, [], []
    for path in cli.evaluation_paths():
        P_true, P_hat = [], []
        for gamma in np.linspace(0.0, min(gamma_cap, path.gamma_max), samples):
            F = path.deformation(gamma)
            P_true.append(truth.stress(F))
            P_hat.append(material.stress(F))
            K = compute_state(F).K
            if np.all(K >= lo) and np.all(K <= hi):
                inside_true.append(P_true[-1])
                inside_hat.append(P_hat[-1])
        per_path[path.kind] = cli.rel_rms(np.ravel(P_hat), np.ravel(P_true))
    n_in = len(inside_true)
    in_box = cli.rel_rms(np.ravel(inside_hat), np.ravel(inside_true)) if n_in else math.nan
    return per_path, in_box, n_in


class Forward(Workload):
    """Ground-truth forward solve of the training specimen."""

    name = "forward"

    def setup(self):
        unit_square_hole_mesh(n=self.sizes.forward_grid).save(self.file("specimen.mesh"))
        NeoHookean().stress(np.eye(2))  # lambdify the truth model once

    def job(self):
        return [("generate_s", ["generate", "--model", "NH", "--steps", 1,
                                "--seed", self.seed, "--mesh", self.file("specimen.mesh"),
                                "--out", self.file("snapshot.txt")])]

    def evidence(self, stdout):
        return (self.read("snapshot.txt"),)

    def check(self, evidence):
        ds = SpecimenDataset.loads(evidence[0])
        truth = NeoHookean()
        free = ds.partition.free_flat_indices()
        problems, worst = [], 0.0
        for t in range(ds.n_snapshots):
            f = fem.nodal_forces(ds.mesh, ds.displacements[t], truth)
            R = fem.reaction(ds.partition, f)
            scale = 1.0 + float(np.linalg.norm(R))
            res = float(np.abs(f.ravel()[free]).max()) / scale
            worst = max(worst, res)
            if not res < SOLVER_TOL:
                problems.append(f"snapshot {t}: free-DOF residual {res:.3e} >= {SOLVER_TOL}")
            if not np.allclose(R, ds.reactions[t], rtol=0.0, atol=SOLVER_TOL * scale):
                problems.append(f"snapshot {t}: stored reactions differ from recomputed")
        return problems, {"scaled_residual": worst}

    def corrupt(self):
        # shift one displacement of the first snapshot; the forces of the
        # node's free neighbours no longer balance
        text = Path(self.file("snapshot.txt")).read_text().splitlines()
        row = next(i for i, ln in enumerate(text) if ln.startswith("reactions")) - 1
        x, y = (float(v) for v in text[row].split())
        text[row] = f"{x + 1e-3:.17g} {y:.17g}"
        Path(self.file("snapshot.txt")).write_text("\n".join(text) + "\n")


_PARITY = re.compile(r"parity R\^2: I1_tilde = (\S+), J = (\S+)")
_DISTILL_PARITY = re.compile(r"parity R\^2 vs network: (\S+)")


class Redeploy(Workload):
    """Distill a trained network and redeploy both forms in FEM."""

    name = "redeploy"

    def setup(self):
        s = self.sizes
        unit_square_hole_mesh(n=s.redeploy_grid).save(self.file("specimen.mesh"))
        two_hole_mesh(n=s.plate_grid).save(self.file("plate.mesh"))
        self.setup_cli(["generate", "--model", "NH", "--steps", s.snapshots,
                        "--seed", self.seed, "--mesh", self.file("specimen.mesh"),
                        "--out", self.file("dataset.txt")])
        self.setup_cli(["train", "--dataset", self.file("dataset.txt"), "--ensemble", s.ensemble,
                        "--epochs", s.redeploy_epochs, "--seed", self.seed,
                        "--out", self.file("model.ckpt")])
        self._model = None

    def job(self):
        s = self.sizes
        ckpt, sym = self.file("model.ckpt"), self.file("energy.sym")
        plate = ["--mesh", self.file("plate.mesh"), "--steps", 1, "--delta", s.plate_delta]
        return [
            ("distill_s", ["distill", "--checkpoint", ckpt, "--out", sym]),
            ("evaluate_s", ["evaluate", "--model", "NH", "--checkpoint", ckpt,
                            "--symbolic", sym, "--samples", s.eval_samples,
                            "--out", self.file("evaluation.csv")]),
            ("simulate_s", ["simulate", "--model", "NH", "--checkpoint", ckpt, *plate,
                            "--out", self.file("sim_net")]),
            ("simulate_sym_s", ["simulate", "--model", "NH", "--symbolic", sym, *plate,
                                "--out", self.file("sim_sym")]),
        ]

    def evidence(self, stdout):
        def printed(pattern, text):
            m = pattern.search(text)
            return tuple(m.groups()) if m else None

        return (
            printed(_DISTILL_PARITY, stdout["distill_s"]),
            self.read("energy.sym"),
            self.read("evaluation.csv"),
            printed(_PARITY, stdout["simulate_s"]),
            self.read("sim_net.parity.csv"),
            printed(_PARITY, stdout["simulate_sym_s"]),
            self.read("sim_sym.parity.csv"),
        )

    def check(self, evidence):
        distill_printed, sym_text, eval_csv, net_printed, net_csv, sym_printed, sym_csv = evidence
        problems, quality = [], {}
        s = self.sizes
        if self._model is None:
            self._model = KANModel.load(self.file("model.ckpt"))
        # distill samples its parity points this way (symbolic.distill)
        K = np.random.default_rng(0).uniform(*GRID_INIT_RANGE, size=(1000, 3))
        y_net = self._model.forward(K)
        r2 = cli.r2_score(SymbolicEnergy.loads(sym_text).value(K), y_net)
        quality["distill_parity_r2"] = r2
        # no floor (see Sizes); -inf still rejects a NaN
        problems += _agree("distill parity", distill_printed, (r2,), -math.inf)

        rows = list(csv.reader(io.StringIO(eval_csv)))
        want = 1 + 6 * s.eval_samples
        if len(rows) != want or not all(
            math.isfinite(float(v)) for row in rows[1:] for v in row[1:]
        ):
            problems.append(f"evaluation.csv: expected {want} finite rows, got {len(rows)}")

        for label, printed, text, gate in (
            ("checkpoint", net_printed, net_csv, s.simulate_r2_min),
            ("symbolic", sym_printed, sym_csv, s.simulate_sym_r2_min),
        ):
            cols = np.array([[float(v) for v in row[1:]]
                             for row in list(csv.reader(io.StringIO(text)))[1:]])
            r2s = (cli.r2_score(cols[:, 1], cols[:, 0]), cli.r2_score(cols[:, 3], cols[:, 2]))
            quality[f"simulate_{label}_parity_r2"] = r2s
            problems += _agree(f"simulate {label} parity", printed, r2s, gate)
        return problems, quality

    def corrupt(self):
        def scale(m):
            return f"{m.group(1)},{float(m.group(2)) * 1.5:.10g},"

        _rewrite(self.file("sim_net.parity.csv"), r"^(\d+,[^,]+),([^,]+),", scale)


def _agree(what, printed, recomputed, gate) -> list[str]:
    """Printed R^2 values (6 decimals) must match the recomputed ones and
    meet the gate."""
    if printed is None:
        return [f"{what}: no R^2 printed"]
    out = []
    for p, r in zip(printed, recomputed):
        if abs(float(p) - r) > 1e-6:
            out.append(f"{what}: printed R^2 {p} but outputs give {r:.6f}")
        if not r >= gate:
            out.append(f"{what}: R^2 {r:.6f} below {gate}")
    return out


WORKLOADS = {w.name: w for w in (Discover, Forward, Redeploy)}
