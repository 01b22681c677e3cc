"""Command-line surface: evaluation paths, parity scoring, and end-to-end
subcommand runs on tiny meshes."""
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
from convexkan.mechanics import NeoHookean
from convexkan.network import GRID_INIT_RANGE, KANModel
from convexkan.symbolic import PARITY_SAMPLES, PARITY_SEED, SymbolicEnergy, distill


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

    def test_crashing_adam_config_exits_2(self, tmp_path, dataset_file):
        config = tmp_path / "adam.cfg"
        config.write_text("epochs=2\nensemble_size=1\nbeta1=1.0\n")
        assert main(
            ["train", "--dataset", dataset_file, "--config", str(config),
             "--out", str(tmp_path / "m.ckpt")]
        ) == 2

    def test_repeated_config_key_exits_2(self, tmp_path, dataset_file, capsys):
        config = tmp_path / "twice.cfg"
        config.write_text("epochs=2\nensemble_size=1\nepochs=5\n")
        out = tmp_path / "m.ckpt"
        assert main(
            ["train", "--dataset", dataset_file, "--config", str(config), "--out", str(out)]
        ) == 2
        assert "line 3: repeated key 'epochs'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, dataset_file):
        out = tmp_path / "m.ckpt"
        assert main(
            ["train", "--dataset", dataset_file, "--epochs", "1", "--ensemble", "1",
             "--seed", "-1", "--out", str(out)]
        ) == 2
        config = tmp_path / "seed.cfg"
        config.write_text("epochs=1\nensemble_size=1\nseed=-1\n")
        assert main(
            ["train", "--dataset", dataset_file, "--config", str(config), "--out", str(out)]
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


class TestDistill:
    def test_writes_tree_and_text(self, tmp_path, checkpoint_file):
        out = tmp_path / "energy.sym"
        assert main(["distill", "--checkpoint", checkpoint_file, "--out", str(out)]) == 0
        energy = SymbolicEnergy.load(out)
        K = np.random.default_rng(0).uniform(-2.0, 10.0, size=(10, 3))
        assert np.all(np.isfinite(energy.value(K)))
        text = (tmp_path / "energy.sym.txt").read_text()
        assert text.strip()

    @pytest.mark.parametrize("shift", [False, True])
    def test_printed_parity_describes_saved_energy(self, tmp_path, checkpoint_file, capsys,
                                                   shift):
        out = tmp_path / "energy.sym"
        argv = ["distill", "--checkpoint", checkpoint_file, "--out", str(out)]
        assert main(argv + ["--shift-symbolic"] * shift) == 0
        printed = re.search(r"parity R\^2 vs network: (\S+)", capsys.readouterr().out)
        energy, model = SymbolicEnergy.load(out), KANModel.load(checkpoint_file)
        # distill's parity points: PARITY_SAMPLES draws with PARITY_SEED
        K = np.random.default_rng(PARITY_SEED).uniform(
            *GRID_INIT_RANGE, size=(PARITY_SAMPLES, 3))
        y_net = model.forward(K)
        if shift:  # the saved energy vanishes at K = 0; so does its reference
            assert abs(energy.value(np.zeros(3))) < 1e-12
            y_net = y_net - model.forward(np.zeros(3))
        assert abs(float(printed.group(1)) - r2_score(energy.value(K), y_net)) <= 1e-6

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

    def test_no_shift_symbolic_option(self, tmp_path, mesh_file):
        # the shift moves only the energy's constant: nothing simulate writes
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "NH", "--symbolic", "x.sym", "--shift-symbolic",
                  "--mesh", mesh_file, "--out", str(tmp_path / "s")])
        assert exc.value.code == 2


class TestOutputPaths:
    """An output into a missing directory exits 2 before the command's work."""

    CASES = {
        "generate": ("generate_dataset", ["generate", "--model", "NH", "--mesh", "{mesh}",
                                          "--out", "{missing}/x.txt"]),
        "train": ("train_ensemble", ["train", "--dataset", "{dataset}",
                                     "--out", "{missing}/m.ckpt"]),
        "train-log": ("train_ensemble", ["train", "--dataset", "{dataset}", "--out",
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
