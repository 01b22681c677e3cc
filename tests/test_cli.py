"""Command-line surface: evaluation paths, parity scoring, and end-to-end
subcommand runs on tiny meshes."""
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import convexkan
import convexkan.cli as cli
import convexkan.fem as fem
import convexkan.training as training
from convexkan.cli import (
    EvaluationPath,
    ParityReport,
    evaluation_paths,
    main,
    r2_score,
    rel_rms,
)
from convexkan.errors import ConfigurationError
from convexkan.fem import Mesh, SpecimenDataset
from convexkan.mechanics import NeoHookean, NetworkMaterial
from convexkan.network import GRID_INIT_RANGE, KANModel
from convexkan.symbolic import (
    PARITY_SAMPLES,
    PARITY_SEED,
    SymbolicEnergy,
    SymbolicMaterial,
    distill,
    settled_by_bound,
)
from convexkan.training import TrainConfig, train


def small_square_mesh(n=4):
    xs = np.linspace(0.0, 1.0, n)
    nodes = np.column_stack([np.repeat(xs, n), np.tile(xs, n)])
    tris = []
    for i in range(n - 1):
        for j in range(n - 1):
            a, b = i * n + j, (i + 1) * n + j
            tris.append((a, b, b + 1))
            tris.append((a, b + 1, a + 1))
    return Mesh(nodes=nodes, triangles=np.array(tris))


@pytest.fixture
def mesh_file(tmp_path):
    path = tmp_path / "square.mesh"
    small_square_mesh().save(path)
    return str(path)


@pytest.fixture
def dataset_file(tmp_path, mesh_file):
    out = tmp_path / "ds.txt"
    code = main(
        ["generate", "--model", "NH", "--steps", "2", "--mesh", mesh_file,
         "--out", str(out)]
    )
    assert code == 0
    return str(out)


@pytest.fixture
def checkpoint_file(tmp_path, dataset_file):
    out = tmp_path / "model.ckpt"
    code = main(
        ["train", "--dataset", dataset_file, "--epochs", "3", "--ensemble", "2",
         "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    return str(out)


class TestEvaluationPaths:
    def test_canonical_set(self):
        paths = evaluation_paths()
        assert [p.kind for p in paths] == ["UT", "UC", "BT", "BC", "SS", "PS"]
        assert [p.gamma_max for p in paths] == [2.0, 1.0, 2.0, 1.0, 1.0, 1.0]
        assert all(p.samples == 41 for p in paths)

    def test_identity_at_zero(self):
        for p in evaluation_paths():
            npt.assert_array_equal(p.deformation(0.0), np.eye(3))

    def test_admissible_over_range(self):
        for p in evaluation_paths():
            for g in p.grid():
                assert np.linalg.det(p.deformation(g)) > 0.0

    def test_known_matrices(self):
        ut = EvaluationPath("UT", 2.0).deformation(0.5)
        npt.assert_array_equal(ut, np.diag([1.5, 1.0, 1.0]))
        ss = EvaluationPath("SS", 1.0).deformation(0.3)
        assert ss[0, 1] == 0.3 and ss[0, 0] == 1.0
        ps = EvaluationPath("PS", 1.0).deformation(1.0)
        npt.assert_allclose(ps, np.diag([2.0, 0.5, 1.0]))

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            EvaluationPath("XX", 1.0)


class TestScores:
    def test_rel_rms(self):
        assert rel_rms([1.0, 1.0], [1.0, 1.0]) == 0.0
        npt.assert_allclose(rel_rms([1.1, 0.9], [1.0, 1.0]), 0.1, rtol=1e-12)

    def test_r2(self):
        assert r2_score([1.0, 2.0], [1.0, 2.0]) == 1.0
        assert r2_score([2.0, 1.0], [1.0, 2.0]) < 0.0

    def test_parity_report(self, tmp_path):
        rep = ParityReport(
            i1_true=np.array([1.0, 2.0]),
            i1_learned=np.array([1.0, 2.0]),
            j_true=np.array([1.0, 1.1]),
            j_learned=np.array([1.0, 1.2]),
        )
        assert rep.r2_i1 == 1.0
        assert rep.r2_j < 1.0
        rep.write_csv(tmp_path / "p.csv")
        lines = (tmp_path / "p.csv").read_text().strip().splitlines()
        assert lines[0].startswith("element,")
        assert len(lines) == 3

    def test_parity_csv_reproduces_r2(self, tmp_path):
        # small strains: invariants differ from 3 and 1 only in the 5th digit
        rng = np.random.default_rng(0)
        i1, j = 3.0 + 1e-5 * rng.normal(size=(2, 200)), 1.0 + 1e-5 * rng.normal(size=(2, 200))
        rep = ParityReport(i1_true=i1[0], i1_learned=i1[1], j_true=j[0], j_learned=j[1])
        rep.write_csv(tmp_path / "p.csv")
        cols = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1)
        assert r2_score(cols[:, 2], cols[:, 1]) == rep.r2_i1
        assert r2_score(cols[:, 4], cols[:, 3]) == rep.r2_j


class TestGenerate:
    def test_writes_parsable_dataset(self, dataset_file):
        ds = SpecimenDataset.load(dataset_file)
        assert ds.n_snapshots == 2
        npt.assert_allclose(ds.deltas, [0.1, 0.2])
        assert ds.partition.n_reactions == 4

    def test_deterministic_given_seed(self, tmp_path, mesh_file):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert main(
                ["generate", "--model", "NH", "--steps", "1", "--noise", "1e-3",
                 "--seed", "5", "--mesh", mesh_file, "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_ab_delta_schedule(self, tmp_path, mesh_file):
        out = tmp_path / "ab.txt"
        assert main(
            ["generate", "--model", "AB", "--steps", "2", "--mesh", mesh_file,
             "--out", str(out)]
        ) == 0
        npt.assert_allclose(SpecimenDataset.load(out).deltas, [0.05, 0.1])

    @pytest.mark.parametrize("scale", [[], ["--paper-scale"]], ids=["grid21", "grid39"])
    def test_one_newton_solve_per_snapshot(self, tmp_path, monkeypatch, scale):
        # each snapshot's Newton iteration carries the load increment through
        # the tangent, so no first attempt fails and no step halves
        calls, real_newton = [], fem._newton

        def newton(*args):
            calls.append(1)
            return real_newton(*args)

        monkeypatch.setattr(fem, "_newton", newton)
        assert main(["generate", "--model", "NH", *scale, "--out", str(tmp_path / "ds.txt")]) == 0
        assert len(calls) == 3

    def test_generate_leaves_sympy_unimported(self, tmp_path, mesh_file):
        code = (
            "import sys\n"
            "from convexkan import cli\n"
            f"code = cli.main(['generate', '--model', 'NH', '--mesh', {mesh_file!r},"
            f" '--out', {str(tmp_path / 'ds.txt')!r}])\n"
            "sys.exit(code or ('sympy' in sys.modules and 'sympy was imported'))\n"
        )
        src = str(Path(convexkan.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr

    def test_unknown_model_exits_2(self, tmp_path, mesh_file):
        assert main(
            ["generate", "--model", "ZZ", "--mesh", mesh_file,
             "--out", str(tmp_path / "x.txt")]
        ) == 2

    def test_non_finite_mesh_exits_2(self, tmp_path):
        path = tmp_path / "nan.mesh"
        path.write_text(small_square_mesh().dumps().replace("1 1", "1 nan", 1))
        assert main(
            ["generate", "--model", "NH", "--mesh", str(path), "--out", str(tmp_path / "x.txt")]
        ) == 2

    def test_missing_mesh_exits_2(self, tmp_path):
        assert main(
            ["generate", "--model", "NH", "--mesh", str(tmp_path / "nope.mesh"),
             "--out", str(tmp_path / "x.txt")]
        ) == 2

    @pytest.mark.parametrize("bad", [["--steps", "0"], ["--steps", "-1"], ["--noise", "-1"],
                                     ["--noise", "nan"]], ids=" ".join)
    def test_bad_schedule_or_noise_exits_2_before_solving(self, tmp_path, monkeypatch,
                                                          mesh_file, bad):
        calls, real_newton = [], fem._newton

        def newton(*args):
            calls.append(1)
            return real_newton(*args)

        monkeypatch.setattr(fem, "_newton", newton)
        out = tmp_path / "x.txt"
        assert main(["generate", "--model", "NH", *bad, "--mesh", mesh_file,
                     "--out", str(out)]) == 2
        assert not calls and not out.exists()

    def test_negative_seed_exits_2_before_solving(self, tmp_path, monkeypatch, mesh_file):
        calls, real_newton = [], fem._newton

        def newton(*args):
            calls.append(1)
            return real_newton(*args)

        monkeypatch.setattr(fem, "_newton", newton)
        out = tmp_path / "x.txt"
        assert main(["generate", "--model", "NH", "--seed", "-1", "--noise", "1e-3",
                     "--mesh", mesh_file, "--out", str(out)]) == 2
        assert not calls and not out.exists()

    @pytest.mark.parametrize("command", [
        ["generate", "--model", "NH"],
        ["simulate", "--model", "NH", "--symbolic", "{sym}", "--delta", "0.1"],
    ], ids=lambda c: c[0])
    def test_node_in_no_triangle_exits_2_before_solving(self, tmp_path, monkeypatch, capsys,
                                                         command):
        # a node no triangle uses has no stiffness: the tangent would be singular
        m = small_square_mesh()
        lines = m.dumps().splitlines()
        lines[0] = f"nodes {m.n_nodes + 1} triangles {m.n_elements}"
        lines.insert(1 + m.n_nodes, "0.5 0.5")  # the last node, in no triangle
        path = tmp_path / "orphan.mesh"
        path.write_text("\n".join(lines) + "\n")
        sym = tmp_path / "nh.sym"
        sym.write_text("convexkan-symbolic v1\nenergy affine 0 0.5 0 1.5\n")
        calls, real_newton = [], fem._newton

        def newton(*args):
            calls.append(1)
            return real_newton(*args)

        monkeypatch.setattr(fem, "_newton", newton)
        out = tmp_path / "x"
        args = [a.format(sym=sym) for a in command]
        assert main([*args, "--steps", "1", "--mesh", str(path), "--out", str(out)]) == 2
        assert f"node {m.n_nodes} belongs to no triangle" in capsys.readouterr().err
        assert not calls and not list(tmp_path.glob("x*"))


class TestTrain:
    def test_writes_loadable_checkpoint(self, checkpoint_file):
        model = KANModel.load(checkpoint_file)
        assert model.dims == (3, 2, 1)

    def test_member_logs(self, tmp_path, dataset_file):
        prefix = str(tmp_path / "log")
        assert main(
            ["train", "--dataset", dataset_file, "--epochs", "2", "--ensemble", "2",
             "--out", str(tmp_path / "m.ckpt"), "--log-prefix", prefix]
        ) == 0
        for k in range(2):
            lines = (tmp_path / f"log{k}.csv").read_text().strip().splitlines()
            assert lines[0] == "epoch,lr,loss" and len(lines) == 3

    def test_runs_the_one_trainer_once(self, tmp_path, dataset_file, monkeypatch):
        # cli holds training.train itself, so a wrapper of training.train (the
        # benchmark's training.train span) sees the command's one call
        assert cli.train is training.train
        configs = []

        def counted(config, *args, **kwargs):
            configs.append(config)
            return training.train(config, *args, **kwargs)

        monkeypatch.setattr(cli, "train", counted)
        assert main(["train", "--dataset", dataset_file, "--epochs", "2", "--ensemble", "2",
                     "--out", str(tmp_path / "m.ckpt")]) == 0
        assert configs == [TrainConfig(epochs=2, ensemble_size=2)]

    def test_vanilla_ablation_mode(self, tmp_path, dataset_file):
        out = tmp_path / "v.ckpt"
        assert main(
            ["train", "--dataset", dataset_file, "--epochs", "2", "--ensemble", "1",
             "--out", str(out), "--ablation-vanilla"]
        ) == 0
        assert KANModel.load(out).mode == "vanilla"

    def test_inadmissible_dataset_exits_3(self, tmp_path, mesh_file):
        from convexkan.fem import biaxial_partition

        mesh = small_square_mesh()
        part = biaxial_partition(mesh)
        bad = SpecimenDataset(
            mesh=mesh,
            partition=part,
            deltas=[0.1],
            displacements=np.array([mesh.nodes @ (np.diag([-0.7, 1.0]) - np.eye(2)).T]),
            reactions=np.zeros((1, 4)),
        )
        path = tmp_path / "bad.txt"
        bad.save(path)
        assert main(
            ["train", "--dataset", str(path), "--epochs", "1", "--ensemble", "1",
             "--out", str(tmp_path / "m.ckpt")]
        ) == 3

    def test_non_finite_reaction_exits_2(self, tmp_path, dataset_file):
        path = tmp_path / "nan.txt"
        text = re.sub(r"^reactions \S+", "reactions nan", open(dataset_file).read(),
                      count=1, flags=re.M)
        assert "reactions nan " in text
        path.write_text(text)
        assert main(
            ["train", "--dataset", str(path), "--epochs", "1", "--ensemble", "1",
             "--out", str(tmp_path / "m.ckpt")]
        ) == 2

    def test_dataset_without_snapshots_exits_2(self, tmp_path, dataset_file):
        path = tmp_path / "empty.txt"
        path.write_text(open(dataset_file).read().partition("\nsnapshots ")[0] + "\nsnapshots 0\n")
        assert main(
            ["train", "--dataset", str(path), "--epochs", "1", "--ensemble", "1",
             "--out", str(tmp_path / "m.ckpt")]
        ) == 2

    def test_crashing_adam_config_exits_2(self, tmp_path, dataset_file, capsys):
        # the config file is gone with Adam's settings: argparse refuses it
        config = tmp_path / "adam.cfg"
        config.write_text("epochs=2\nensemble_size=1\nbeta1=1.0\n")
        out = tmp_path / "m.ckpt"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", dataset_file, "--config", str(config), "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_set_the_config(self, tmp_path, dataset_file):
        # each TrainConfig field has one flag, and the command saves what
        # training.train returns for that config
        argv = ["train", "--dataset", dataset_file, "--epochs", "3", "--ensemble", "2",
                "--seed", "4"]
        out, default = tmp_path / "m.ckpt", tmp_path / "d.ckpt"
        assert main([*argv, "--curvature-penalty", "0", "--out", str(out)]) == 0
        model, _ = train(
            TrainConfig(epochs=3, ensemble_size=2, seed=4, curvature_penalty=0.0),
            SpecimenDataset.load(dataset_file))
        assert out.read_text() == model.dumps()
        # without the flag, the default prior shapes the result
        assert main([*argv, "--out", str(default)]) == 0
        assert default.read_text() != out.read_text()

    def test_defaults_are_train_configs(self):
        args = cli.build_parser().parse_args(["train", "--dataset", "d.txt"])
        assert TrainConfig(epochs=args.epochs, ensemble_size=args.ensemble, seed=args.seed,
                           curvature_penalty=args.curvature_penalty) == TrainConfig()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_curvature_penalty_exits_2(self, tmp_path, dataset_file, capsys, value):
        out = tmp_path / "m.ckpt"
        assert main(
            ["train", "--dataset", dataset_file, "--epochs", "1", "--ensemble", "1",
             "--curvature-penalty", value, "--out", str(out)]
        ) == 2
        assert "error: curvature_penalty must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, dataset_file):
        out = tmp_path / "m.ckpt"
        assert main(
            ["train", "--dataset", dataset_file, "--epochs", "1", "--ensemble", "1",
             "--seed", "-1", "--out", str(out)]
        ) == 2
        assert not out.exists()

    def test_missing_dataset_exits_2(self, tmp_path):
        assert main(
            ["train", "--dataset", str(tmp_path / "nope.txt"),
             "--out", str(tmp_path / "m.ckpt")]
        ) == 2


class TestEvaluate:
    def test_csv_schema_and_zero_row(self, tmp_path, checkpoint_file):
        out = tmp_path / "eval.csv"
        assert main(
            ["evaluate", "--model", "NH", "--checkpoint", checkpoint_file,
             "--samples", "5", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        head = lines[0].split(",")
        assert head[:2] == ["path", "gamma"]
        assert "W_true" in head and "W_ickan" in head and "P11_true" in head
        assert len(lines) == 1 + 6 * 5
        first = dict(zip(head, lines[1].split(",")))
        assert first["path"] == "UT" and float(first["gamma"]) == 0.0
        for col in ("W_true", "P11_true", "P11_ickan"):
            assert abs(float(first[col])) < 1e-9
        assert (tmp_path / "eval.csv.summary.csv").exists()

    def test_truth_matches_closed_form(self, tmp_path, checkpoint_file):
        out = tmp_path / "eval.csv"
        main(
            ["evaluate", "--model", "NH", "--checkpoint", checkpoint_file,
             "--samples", "3", "--out", str(out)]
        )
        lines = out.read_text().strip().splitlines()
        head = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(head, line.split(",")))
            if row["path"] == "UT" and abs(float(row["gamma"]) - 1.0) < 1e-12:
                F = np.diag([2.0, 1.0, 1.0])
                npt.assert_allclose(float(row["W_true"]), NeoHookean().energy(F), rtol=1e-8)
                break
        else:
            pytest.fail("UT gamma=1 row missing")

    @staticmethod
    def _evaluate(tmp_path, checkpoint_file, samples):
        sym = tmp_path / "e.sym"
        assert main(["distill", "--checkpoint", checkpoint_file, "--out", str(sym)]) == 0
        out = tmp_path / "eval.csv"
        assert main(["evaluate", "--model", "NH", "--checkpoint", checkpoint_file,
                     "--symbolic", str(sym), "--samples", str(samples), "--out", str(out)]) == 0
        return sym, out

    def test_stacked_evaluation_matches_per_path(self, tmp_path, checkpoint_file):
        sym, out = self._evaluate(tmp_path, checkpoint_file, 4)
        models = {"true": NeoHookean(), "ickan": NetworkMaterial(KANModel.load(checkpoint_file)),
                  "sym": SymbolicMaterial(SymbolicEnergy.load(sym))}
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        with open(f"{out}.summary.csv") as fh:
            summary = {(r["path"], r["quantity"], r["model"]): float(r["rel_rms"])
                       for r in csv.DictReader(fh)}

        def printed(values, digits):
            return [float(f"{v:.{digits}g}") for v in np.ravel(values)]

        assert len(rows) == 6 * 4 and len(summary) == 6 * 2 * 2
        for path in evaluation_paths(4):
            got = [r for r in rows if r["path"] == path.kind]
            Fs = np.array([path.deformation(g) for g in path.grid()])
            want = {name: {"W": m.energy(Fs), "P": m.stress(Fs)[:, :2, :2].reshape(-1, 4)}
                    for name, m in models.items()}
            for name, q in want.items():
                npt.assert_allclose([float(r[f"W_{name}"]) for r in got], printed(q["W"], 10),
                                    rtol=1e-12)
                cols = [[float(r[f"{c}_{name}"]) for c in ("P11", "P12", "P21", "P22")]
                        for r in got]
                npt.assert_allclose(np.ravel(cols), printed(q["P"], 10), rtol=1e-12)
                if name != "true":
                    for qty in ("W", "P"):
                        err = rel_rms(q[qty], want["true"][qty])
                        npt.assert_allclose(summary[path.kind, qty, name], printed(err, 6),
                                            rtol=1e-12)

    def test_one_material_evaluation_per_model(self, tmp_path, checkpoint_file, monkeypatch):
        counts = {}
        for cls in (NeoHookean, NetworkMaterial, SymbolicMaterial):

            def counted(self, K, real=cls.k_value_grad_hess, name=cls.__name__):
                key = (name, "stack" if np.ndim(K) == 2 else "reference")
                counts[key] = counts.get(key, 0) + 1
                return real(self, K)

            monkeypatch.setattr(cls, "k_value_grad_hess", counted)
        self._evaluate(tmp_path, checkpoint_file, 11)
        # every model's energy is shifted by its value at K = 0, read once
        assert counts == {("NeoHookean", "stack"): 1, ("NeoHookean", "reference"): 1,
                          ("NetworkMaterial", "stack"): 1,
                          ("NetworkMaterial", "reference"): 1,
                          ("SymbolicMaterial", "stack"): 1,
                          ("SymbolicMaterial", "reference"): 1}

    def test_every_energy_vanishes_at_the_undeformed_state(self, tmp_path, checkpoint_file):
        _, out = self._evaluate(tmp_path, checkpoint_file, 4)
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if float(r["gamma"]) == 0.0]
        assert len(rows) == 6
        for r in rows:
            assert [float(r[f"W_{name}"]) for name in ("true", "ickan", "sym")] == [0.0] * 3, r

    def test_requires_a_model_exits_2(self, tmp_path):
        assert main(["evaluate", "--model", "NH", "--out", str(tmp_path / "e.csv")]) == 2

    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert main(
            ["evaluate", "--model", "NH", "--checkpoint", str(tmp_path / "no.ckpt"),
             "--out", str(tmp_path / "e.csv")]
        ) == 2

    def test_non_finite_checkpoint_exits_2(self, tmp_path, checkpoint_file):
        text = open(checkpoint_file).read().replace("w_s ", "w_s nan #", 1)
        bad = tmp_path / "bad.ckpt"
        bad.write_text(text)
        assert main(
            ["evaluate", "--model", "NH", "--checkpoint", str(bad),
             "--out", str(tmp_path / "e.csv")]
        ) == 2

    @pytest.mark.parametrize("body, code", [
        ("scaled 1 0 " * 3000 + "var K1", 2),  # nested past the reader's limit
        ("exp " * 400 + "var K1", 3),  # W overflows
    ])
    def test_unreadable_or_overflowing_symbolic_exits(self, tmp_path, capsys, body, code):
        sym, out = tmp_path / "e.sym", tmp_path / "e.csv"
        sym.write_text(f"convexkan-symbolic v1\nenergy {body}\n")
        assert main(["evaluate", "--model", "NH", "--symbolic", str(sym),
                     "--out", str(out)]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestDistill:
    def test_writes_tree_and_text(self, tmp_path, checkpoint_file):
        out = tmp_path / "energy.sym"
        assert main(["distill", "--checkpoint", checkpoint_file, "--out", str(out)]) == 0
        energy = SymbolicEnergy.load(out)
        K = np.random.default_rng(0).uniform(-2.0, 10.0, size=(10, 3))
        assert np.all(np.isfinite(energy.value(K)))
        text = (tmp_path / "energy.sym.txt").read_text()
        assert text.strip()

    def test_printed_parity_describes_saved_energy(self, tmp_path, checkpoint_file, capsys):
        out = tmp_path / "energy.sym"
        assert main(["distill", "--checkpoint", checkpoint_file, "--out", str(out)]) == 0
        printed = re.search(r"parity R\^2 vs network: (\S+)", capsys.readouterr().out)
        energy, model = SymbolicEnergy.load(out), KANModel.load(checkpoint_file)
        # distill's parity points: PARITY_SAMPLES draws with PARITY_SEED
        K = np.random.default_rng(PARITY_SEED).uniform(
            *GRID_INIT_RANGE, size=(PARITY_SAMPLES, 3))
        y_net = model.forward(K)
        assert abs(float(printed.group(1)) - r2_score(energy.value(K), y_net)) <= 1e-6

    def test_complexity_report(self, tmp_path, checkpoint_file, capsys):
        out = tmp_path / "energy.sym"
        assert main(["distill", "--checkpoint", checkpoint_file, "--out", str(out)]) == 0
        printed = re.search(r"complexity: (\d+) terms, largest term weight (\S+), (\d+) "
                            r"activations settled by the affine bound", capsys.readouterr().out)
        energy = distill(KANModel.load(checkpoint_file))
        # the writer puts each term, at any depth, as ``scaled <weight> 0 <f>``
        tokens = SymbolicEnergy.load(out).prefix()
        weights = [float(tokens[k + 1]) for k, tok in enumerate(tokens) if tok == "scaled"]
        assert weights and int(printed.group(1)) == len(weights)
        assert float(printed.group(2)) == float(f"{max(weights):.4g}")
        assert int(printed.group(3)) == sum(
            settled_by_bound(fit) for fit in energy.activation_fits.values())

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor page faults as Linux counts them")
    def test_repeated_distill_faults_in_no_new_pages(self, checkpoint_file):
        import resource

        model = KANModel.load(checkpoint_file)
        distill(model)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        distill(model)
        # about 13k when every grid round allocated its arrays afresh
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


    @pytest.mark.parametrize("lam", ["2", "-0.5", "nan", "inf"])
    def test_lambda_sym_outside_unit_interval_exits_2(self, tmp_path, checkpoint_file, lam):
        out = tmp_path / "energy.sym"
        assert main(["distill", "--checkpoint", checkpoint_file, "--lambda-sym", lam,
                     "--out", str(out)]) == 2
        assert not out.exists()


class TestSimulate:
    def test_oracle_injection_perfect_parity(self, tmp_path, mesh_file):
        # a symbolic energy identical to NH: 0.5*K1 + 1.5*K3
        sym = tmp_path / "nh.sym"
        sym.write_text("convexkan-symbolic v1\nenergy affine 0 0.5 0 1.5\n")
        out = tmp_path / "sim"
        assert main(
            ["simulate", "--model", "NH", "--symbolic", str(sym), "--mesh", mesh_file,
             "--delta", "0.1", "--steps", "2", "--out", str(out)]
        ) == 0
        parity = (tmp_path / "sim.parity.csv").read_text().strip().splitlines()
        assert parity[0].startswith("element,")
        for line in parity[1:]:
            _, a, b, c, d = line.split(",")
            npt.assert_allclose(float(a), float(b), rtol=1e-9)
            npt.assert_allclose(float(c), float(d), rtol=1e-9)
        reacts = (tmp_path / "sim.reactions.csv").read_text().strip().splitlines()
        assert len(reacts) == 3  # header + 2 load steps
        assert (tmp_path / "sim.true.disp").exists()
        assert (tmp_path / "sim.sym.disp").exists()

    def test_symbolic_oracle_matches_truth_energy(self, tmp_path):
        sym_text = "convexkan-symbolic v1\nenergy affine 0 0.5 0 1.5\n"
        energy = SymbolicEnergy.loads(sym_text)
        from convexkan.symbolic import SymbolicMaterial

        mat = SymbolicMaterial(energy)
        F = np.diag([1.4, 0.9, 1.0])
        npt.assert_allclose(mat.energy(F), NeoHookean().energy(F), rtol=1e-10)

    @pytest.mark.parametrize("expr", ["affine 0 0.5", "softplus -2 var K1", "scaled nan 0 exp var K1",
                                      "softplus 5 affine 0 1 0 0"])
    def test_malformed_symbolic_exits_2(self, tmp_path, mesh_file, expr):
        sym = tmp_path / "bad.sym"
        sym.write_text(f"convexkan-symbolic v1\nenergy {expr}\n")
        assert main(
            ["simulate", "--model", "NH", "--symbolic", str(sym), "--mesh", mesh_file,
             "--delta", "0.1", "--steps", "1", "--out", str(tmp_path / "s")]
        ) == 2
        assert not (tmp_path / "s.parity.csv").exists()

    def test_non_monotone_symbolic_exits_2(self, tmp_path, mesh_file):
        sym = tmp_path / "decreasing.sym"
        sym.write_text("convexkan-symbolic v1\n"
                       "energy add 2 scaled -1 0 softplus 1 var K1 affine 0 -0.5 0 0\n")
        assert main(
            ["simulate", "--model", "NH", "--symbolic", str(sym), "--mesh", mesh_file,
             "--delta", "0.1", "--steps", "1", "--out", str(tmp_path / "s")]
        ) == 2
        assert not (tmp_path / "s.parity.csv").exists()

    @pytest.mark.parametrize("bad", [["--steps", "0"], ["--steps", "-1"], ["--steps", "-5"],
                                     ["--delta", "nan"], ["--delta", "inf"]], ids=" ".join)
    def test_bad_schedule_exits_2_before_solving(self, tmp_path, monkeypatch, mesh_file, bad):
        sym = tmp_path / "nh.sym"
        sym.write_text("convexkan-symbolic v1\nenergy affine 0 0.5 0 1.5\n")
        calls, real_newton = [], fem._newton

        def newton(*args):
            calls.append(1)
            return real_newton(*args)

        monkeypatch.setattr(fem, "_newton", newton)
        args = {"--delta": "0.1", "--steps": "2", bad[0]: bad[1]}
        assert main(
            ["simulate", "--model", "NH", "--symbolic", str(sym), "--mesh", mesh_file,
             *[v for kv in args.items() for v in kv], "--out", str(tmp_path / "s")]
        ) == 2
        assert not calls and not (tmp_path / "s.parity.csv").exists()

    def test_needs_exactly_one_model_exits_2(self, tmp_path, mesh_file):
        assert main(
            ["simulate", "--model", "NH", "--mesh", mesh_file,
             "--out", str(tmp_path / "s")]
        ) == 2

    @pytest.mark.parametrize("command", [
        ["simulate", "--model", "NH", "--symbolic", "x.sym"],
        ["evaluate", "--model", "NH", "--symbolic", "x.sym"],
        ["distill", "--checkpoint", "x.ckpt"],
    ], ids=lambda command: command[0])
    def test_no_shift_symbolic_option(self, tmp_path, command):
        # every material's energy vanishes at F = I: there is no shift to ask for
        with pytest.raises(SystemExit) as exc:
            main([*command, "--shift-symbolic", "--out", str(tmp_path / "s")])
        assert exc.value.code == 2


class TestOutputPaths:
    """An output into a missing directory exits 2 before the command's work."""

    CASES = {
        "generate": ("generate_dataset", ["generate", "--model", "NH", "--mesh", "{mesh}",
                                          "--out", "{missing}/x.txt"]),
        "train": ("train", ["train", "--dataset", "{dataset}",
                                     "--out", "{missing}/m.ckpt"]),
        "train-log": ("train", ["train", "--dataset", "{dataset}", "--out",
                                         "{tmp}/m.ckpt", "--log-prefix", "{missing}/log"]),
        "evaluate": ("evaluation_paths", ["evaluate", "--model", "NH", "--symbolic", "{sym}",
                                          "--out", "{missing}/e.csv"]),
        "distill": ("distill", ["distill", "--checkpoint", "{ckpt}",
                                "--out", "{missing}/e.sym"]),
        "simulate": ("solve", ["simulate", "--model", "NH", "--symbolic", "{sym}",
                               "--mesh", "{mesh}", "--steps", "1", "--out", "{missing}/s"]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_missing_directory_exits_2_before_work(self, tmp_path, monkeypatch, mesh_file,
                                                   dataset_file, case):
        sym = tmp_path / "nh.sym"
        sym.write_text("convexkan-symbolic v1\nenergy affine 0 0.5 0 1.5\n")
        ckpt = tmp_path / "m0.ckpt"
        KANModel.create(rng=0).save(ckpt)
        heavy, argv = self.CASES[case]

        def unreachable(*args, **kwargs):
            raise AssertionError(f"{heavy} reached")

        monkeypatch.setattr(cli, heavy, unreachable)
        before = sorted(tmp_path.iterdir())
        names = dict(mesh=mesh_file, dataset=dataset_file, sym=sym, ckpt=ckpt, tmp=tmp_path,
                     missing=tmp_path / "missing")
        assert main([a.format(**names) for a in argv]) == 2
        assert sorted(tmp_path.iterdir()) == before


class TestHugeCounts:
    """A count that asks for more memory than there is exits 2 with one
    error line, not a traceback.  10**17 float64 values take 8e17 bytes, more
    than any 64-bit address space maps (2**57 bytes at most), so the
    allocation is refused at once whatever the host's overcommit policy."""

    COUNT = str(10**17)
    CASES = {
        "generate": ["generate", "--model", "NH", "--mesh", "{mesh}", "--steps", COUNT,
                     "--out", "{tmp}/d.txt"],
        "train": ["train", "--dataset", "{dataset}", "--epochs", COUNT,
                  "--ensemble", "1", "--out", "{tmp}/m.ckpt"],
        "evaluate": ["evaluate", "--model", "NH", "--symbolic", "{sym}",
                     "--samples", COUNT, "--out", "{tmp}/e.csv"],
        "simulate": ["simulate", "--model", "NH", "--symbolic", "{sym}", "--mesh", "{mesh}",
                     "--steps", COUNT, "--out", "{tmp}/s"],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_with_one_line(self, tmp_path, capsys, mesh_file, dataset_file, case):
        sym = tmp_path / "nh.sym"
        sym.write_text("convexkan-symbolic v1\nenergy affine 0 0.5 0 1.5\n")
        capsys.readouterr()
        names = dict(mesh=mesh_file, dataset=dataset_file, sym=sym, tmp=tmp_path)
        assert main([a.format(**names) for a in self.CASES[case]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate ") and err.count("\n") == 1

    # past int64 numpy takes no size or seed: the argument parser refuses them
    PAST = str(10**20)
    PAST_INT64 = {
        "train_epochs": ["train", "--dataset", "{dataset}", "--epochs", PAST,
                         "--ensemble", "1", "--out", "{tmp}/m.ckpt"],
        "evaluate": ["evaluate", "--model", "NH", "--symbolic", "{sym}",
                     "--samples", PAST, "--out", "{tmp}/e.csv"],
        "simulate": ["simulate", "--model", "NH", "--symbolic", "{sym}", "--mesh", "{mesh}",
                     "--steps", PAST, "--out", "{tmp}/s"],
        "train_seed": ["train", "--dataset", "{dataset}", "--epochs", "1", "--ensemble", "1",
                       "--seed", str(2**63), "--out", "{tmp}/m.ckpt"],
    }

    @pytest.mark.parametrize("case", PAST_INT64)
    def test_past_int64_exits_2_with_one_line(self, tmp_path, capsys, mesh_file, dataset_file,
                                              case):
        sym = tmp_path / "nh.sym"
        sym.write_text("convexkan-symbolic v1\nenergy affine 0 0.5 0 1.5\n")
        capsys.readouterr()
        files = set(tmp_path.iterdir())
        names = dict(mesh=mesh_file, dataset=dataset_file, sym=sym, tmp=tmp_path)
        assert main([a.format(**names) for a in self.PAST_INT64[case]]) == 2
        value = str(2**63) if case == "train_seed" else self.PAST
        assert capsys.readouterr().err == f"error: {value} does not fit in a 64-bit integer\n"
        assert set(tmp_path.iterdir()) == files

    def test_last_member_seed_past_int64_exits_2(self, tmp_path, capsys, dataset_file):
        # each seed fits, but member 2's, seed + 2, would wrap negative
        capsys.readouterr()
        argv = ["train", "--dataset", dataset_file, "--epochs", "1", "--ensemble", "3",
                "--seed", str(2**63 - 1), "--out", str(tmp_path / "m.ckpt")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: seed + ensemble_size must be <= 2**63, got {2**63 - 1} + 3\n")
        assert not (tmp_path / "m.ckpt").exists()


class TestInputPaths:
    """An input path that cannot be opened exits 2 with a message, not a
    traceback: a directory raises IsADirectoryError, an OSError like any
    other (missing file, no permission)."""

    CASES = {
        "generate": ["generate", "--model", "NH", "--mesh", "{dir}", "--out", "{tmp}/x.txt"],
        "train": ["train", "--dataset", "{dir}", "--out", "{tmp}/m.ckpt"],
        "distill": ["distill", "--checkpoint", "{dir}", "--out", "{tmp}/e.sym"],
        "evaluate": ["evaluate", "--model", "NH", "--symbolic", "{dir}", "--out", "{tmp}/e.csv"],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_directory_exits_2(self, tmp_path, capsys, case):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main([a.format(dir=folder, tmp=tmp_path) for a in self.CASES[case]]) == 2
        assert capsys.readouterr().err.startswith(f"error: [Errno 21] Is a directory: '{folder}'")
        assert list(tmp_path.iterdir()) == [folder]
