"""Training loop: loss hand-evaluations, loss gradient vs finite differences,
learning-rate schedule, Adam behavior, ensembling, determinism."""
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from convexkan import bspline, cli, network, training
from convexkan.errors import ConfigurationError, TrainingError
from convexkan.fem import (
    Mesh,
    SpecimenDataset,
    biaxial_partition,
    generate_dataset,
    nodal_forces,
    unit_square_hole_mesh,
)
from convexkan.mechanics import NeoHookean, NetworkMaterial
from convexkan.network import CONSTRAINED, VANILLA, KANModel
from convexkan.training import (
    ElementStates,
    TrainConfig,
    curvature_prior,
    cyclic_learning_rate,
    loss,
    loss_and_grad,
    train,
)
from test_network import backward, parameter_fd


def two_element_dataset(delta=0.1, model=None, n_t=1):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = Mesh(nodes=nodes, triangles=np.array([[0, 1, 2], [0, 2, 3]]))
    part = biaxial_partition(mesh)
    deltas = [delta * (t + 1) for t in range(n_t)]
    return generate_dataset(mesh, part, model or NeoHookean(), deltas)


def single(fn, model, *args):
    """A training function's value and gradient for a model of one."""
    value, grad = fn(model, *args)
    return float(value[0]), grad[0]


def flat_network():
    m = KANModel.create(rng=0)
    for p in m.params:
        p[..., : m.n_coef] = 0.0
    return m.grid_initialize()


class TestConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert (c.epochs, c.ensemble_size, c.seed, c.curvature_penalty) == (1000, 10, 0, 1e-2)
        # the paper's Adam and schedule, fixed
        assert (training.BETA1, training.BETA2, training.EPSILON) == (0.9, 0.999, 1e-8)
        assert (training.BASE_LR, training.MAX_LR, training.CYCLE_STEP) == (0.001, 0.1, 50)

    def test_negative_seed_rejected(self):
        # numpy's generators take only non-negative seeds
        with pytest.raises(ConfigurationError, match="seed"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0

    def test_validation(self):
        for bad in ({"epochs": 0}, {"epochs": -3}, {"ensemble_size": 0}):
            with pytest.raises(ConfigurationError, match=next(iter(bad))):
                TrainConfig(**bad)
        for bad in (-1e-3, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="curvature_penalty"):
                TrainConfig(curvature_penalty=bad)
        assert TrainConfig(curvature_penalty=0.0).curvature_penalty == 0.0
        assert TrainConfig(epochs=1, ensemble_size=1).ensemble_size == 1

    # Adam settings that would put NaNs into the parameters on the first
    # step: they are constants now, and no config takes them
    @pytest.mark.parametrize("bad", [
        {"beta1": 1.0}, {"beta2": 1.0}, {"epsilon": 0.0}, {"max_lr": np.inf},
    ], ids=["beta1", "beta2", "epsilon", "max_lr"])
    def test_adam_settings_rejected(self, bad):
        with pytest.raises(TypeError, match=next(iter(bad))):
            TrainConfig(**bad)


class TestSchedule:
    def test_endpoints_and_peak(self):
        lrs = cyclic_learning_rate(101)
        assert lrs.shape == (101,)
        assert lrs[0] == 0.001 and lrs[50] == 0.1 and lrs[100] == 0.001

    def test_triangular_shape(self):
        lrs = cyclic_learning_rate(250)
        up = np.linspace(0.001, 0.1, 51)
        npt.assert_allclose(lrs[:51], up, rtol=1e-12)
        npt.assert_allclose(lrs[50:101], up[::-1], rtol=1e-12)
        npt.assert_array_equal(lrs[100:200], lrs[:100])  # period 2 * CYCLE_STEP
        # bit for bit the per-epoch formula
        for e in range(250):
            x = (e % 100) / 50
            assert lrs[e] == 0.001 + (0.1 - 0.001) * (x if x <= 1.0 else 2.0 - x)


class TestLoss:
    def test_zero_displacement_zero_reactions(self):
        ds = two_element_dataset()
        zero = SpecimenDataset(
            mesh=ds.mesh,
            partition=ds.partition,
            deltas=[0.0],
            displacements=np.zeros((1, 4, 2)),
            reactions=np.zeros((1, 4)),
        )
        assert loss(flat_network(), zero) == 0.0
        assert loss(NeoHookean(), zero) == 0.0

    def test_flat_model_loss_is_reaction_norm(self):
        # W == 0 everywhere -> all forces vanish -> only the reaction gaps remain
        ds = two_element_dataset(n_t=2)
        want = float(np.sum(ds.reactions**2))
        npt.assert_allclose(loss(flat_network(), ds), want, rtol=1e-12)

    def test_truth_model_near_zero(self):
        ds = two_element_dataset()
        assert loss(NeoHookean(), ds) < 1e-14

    def test_batched_path_matches_public_loss(self):
        ds = two_element_dataset(n_t=2)
        net = KANModel.create(rng=1)
        value, _ = single(loss_and_grad, net, ElementStates(ds))
        npt.assert_allclose(value, loss(net, ds), rtol=1e-10)

    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    def test_gradient_matches_fd(self, mode):
        ds = two_element_dataset(n_t=1)
        net = KANModel.create(rng=2, mode=mode)
        states = ElementStates(ds)
        _, grad = loss_and_grad(net, states)
        fd = parameter_fd(net, lambda: loss_and_grad(net, states)[0][0], 1e-5)
        npt.assert_allclose(grad[0], fd, rtol=1e-4, atol=1e-7)


def edit_layer0_domains(model, lo, hi):
    """The model reloaded from its checkpoint text with every layer-0 domain
    replaced by ``[lo, hi]``."""
    lines = model.dumps().splitlines()
    for n, line in enumerate(lines):
        if line.startswith("activation 0 "):
            lines[n + 1] = f"domain {lo!r} {hi!r}"
    return KANModel.loads("\n".join(lines))


class TestLayer0RowCache:
    """``train`` builds the layer-0 design rows at K once per run, on the
    knots ``create`` fixed, and passes them to each epoch's
    ``loss_and_grad``; called without rows, ``loss_and_grad`` builds them
    from the model's own knots."""

    def test_cached_rows_match_cache_free_pass(self):
        ds = two_element_dataset(n_t=2)
        states = ElementStates(ds)
        for seed, mode in ((3, CONSTRAINED), (4, VANILLA)):
            net = KANModel.create(rng=seed, mode=mode)
            value, grad = loss_and_grad(net, states, net.layer0_rows(states.K))
            want_value, want_grad = loss_and_grad(net, states)  # every row fresh
            npt.assert_allclose(value, want_value, rtol=1e-12)
            npt.assert_allclose(grad, want_grad, rtol=0, atol=1e-12 * np.abs(want_grad).max())

    def test_train_builds_rows_once(self, monkeypatch):
        ds = two_element_dataset(n_t=2)
        builds, real = [], KANModel.layer0_rows

        def counted(self, K):
            builds.append(self.size)
            return real(self, K)

        monkeypatch.setattr(KANModel, "layer0_rows", counted)
        for epochs in (1, 6):
            builds.clear()
            train(TrainConfig(epochs=epochs, ensemble_size=2, seed=1), ds)
            assert builds == [2]  # one build for both members and every epoch

    def test_edited_domains_get_fresh_rows(self):
        ds = two_element_dataset(n_t=2)
        states = ElementStates(ds)
        net = KANModel.create(rng=7)
        before = single(loss_and_grad, net, states)
        edited = edit_layer0_domains(net, -0.5, 0.75)
        assert edited.domain(0, 0) == (-0.5, 0.75)
        got = single(loss_and_grad, edited, states)
        want = single(loss_and_grad, edited, ElementStates(ds))
        npt.assert_allclose(got[0], want[0], rtol=1e-12)
        npt.assert_allclose(got[1], want[1], rtol=0, atol=1e-12 * np.abs(want[1]).max())
        npt.assert_allclose(got[0], loss(edited, ds), rtol=1e-10)
        # the edited model differs from net only in its layer-0 knots, so
        # with net's rows it reproduces net's loss
        assert abs(want[0] - before[0]) > 1e-3 * abs(want[0])
        stale = single(loss_and_grad, edited, states, net.layer0_rows(states.K))
        npt.assert_allclose(stale[0], before[0], rtol=1e-10)
        # and the original knots get their own rows back
        npt.assert_array_equal(single(loss_and_grad, net, states)[1], before[1])


DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "make_loss_grad_reference", DATA / "make_loss_grad_reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def assert_close_to_largest(got, want, tol, name):
    npt.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max(), err_msg=name)


class TestAgainstLossGradReference:
    """``loss_grad_reference_v1.npz`` (see ``make_loss_grad_reference.py``)
    was written by the sweep that built every derivative order at every
    layer and scaled each spline by ``softplus(w_s)`` after its product; the
    sweep may move by rounding only."""

    REF = np.load(DATA / "loss_grad_reference_v1.npz")
    CASES = [(mode, dims) for mode in reference.MODES for dims in reference.ARCHS]

    @staticmethod
    def tag(mode, dims):
        return f"{mode}_{''.join(map(str, dims))}"

    @pytest.fixture(scope="class")
    def states(self):
        return reference.states_from(*(self.REF[k] for k in (
            "nodes", "triangles", "deltas", "displacements", "reactions")))

    @pytest.mark.parametrize("M", reference.SIZES)
    @pytest.mark.parametrize("mode, dims", CASES, ids=lambda v: "".join(map(str, v)))
    def test_loss_and_gradient(self, states, mode, dims, M):
        models = [reference.reference_model(mode, dims, s, states.K) for s in range(M)]
        value, grad = loss_and_grad(KANModel.stack(models), states)
        key = f"{self.tag(mode, dims)}_M{M}"
        npt.assert_allclose(value, self.REF[key + "_loss"], rtol=1e-12)
        for got, want in zip(grad.reshape(M, -1), self.REF[key + "_grad"]):
            assert_close_to_largest(got, want, 1e-12, "gradient")

    @pytest.mark.parametrize("mode, dims", CASES, ids=lambda v: "".join(map(str, v)))
    def test_forward_derivatives_and_seeded_gradient(self, mode, dims):
        ref, tag = self.REF, self.tag(mode, dims)
        model = reference.reference_model(mode, dims, 0)
        K = ref["K_fixed"]
        W, G, H = model.forward_with_input_derivatives(K)
        # vanilla layer-1 and layer-2 domains from grid_initialize are about
        # 0.01 wide, so their inputs lie hundreds of widths past them and each
        # slope is a sum of terms far larger than itself: there rounding moves
        # the input gradient by up to 5e-13 of its largest entry
        g_tol = 1e-13 if mode == CONSTRAINED else 1e-12
        assert_close_to_largest(model.forward(K), ref[tag + "_forward"], 1e-13, "forward")
        assert_close_to_largest(W, ref[tag + "_W"], 1e-13, "W")
        assert_close_to_largest(G, ref[tag + "_G"], g_tol, "grad W")
        assert_close_to_largest(H, ref[tag + "_H"], 1e-12, "hess W")
        got = backward(model, K, ref["seed_g"]).ravel()
        assert_close_to_largest(got, ref[tag + "_seeded"], 1e-12, "seeded gradient")


class TestRequestedOrders:
    """Each layer builds design rows only for the derivative orders its
    consumers read."""

    @staticmethod
    def record(monkeypatch, model):
        """Patch the dense design rows and the per-span power form the layer
        sweep reads to log (layer, orders) per call on ``model``'s knots
        (one member's: the power form gets them with an axis for the edges'
        outputs)."""
        calls = []

        def logging(real):
            def logged(x, t, k, *args):
                layer = next(r for r in range(model.n_layers)
                             if np.array_equal(np.squeeze(t), np.squeeze(model.t[r])))
                calls.append((layer, tuple(args[-1])))
                return real(x, t, k, *args)
            return logged

        monkeypatch.setattr(network, "design_rows", logging(bspline.design_rows))
        monkeypatch.setattr(network, "power_values", logging(bspline.power_values))
        return calls

    @pytest.mark.parametrize("dims", [(3, 2, 1), (3, 3, 2, 1)], ids=["321", "3321"])
    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    def test_loss_and_grad_orders(self, monkeypatch, mode, dims):
        model = KANModel.create(dims=dims, mode=mode, rng=2)
        calls = self.record(monkeypatch, model)
        loss_and_grad(model, ElementStates(two_element_dataset(n_t=2)))
        last = len(dims) - 2
        want = [(0, (0, 1))] + [(r, (0, 1, 2)) for r in range(1, last)] + [(last, (1, 2))]
        assert calls == want

    def test_forward_orders(self, monkeypatch):
        model = KANModel.create(dims=(3, 3, 2, 1), rng=2)
        calls = self.record(monkeypatch, model)
        model.forward(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        assert calls == [(0, (0,)), (1, (0,)), (2, (0,))]
        calls.clear()
        model.forward_with_input_derivatives(np.array([1.0, 2.0, 3.0]))
        assert calls == [(0, (0, 1, 2)), (1, (0, 1, 2)), (2, (0, 1, 2))]


class TestCurvaturePrior:
    def test_value_is_weighted_sum_of_clamped_increments(self):
        net = KANModel.create(rng=4)
        want = sum(np.maximum(p[..., 2 : net.n_coef], 0.0).sum() for p in net.params)
        value, _ = single(curvature_prior, net, 0.3)
        npt.assert_allclose(value, 0.3 * want, rtol=1e-14)
        assert single(curvature_prior, net, 0.0)[0] == 0.0

    def test_gradient_matches_fd(self):
        net = KANModel.create(rng=5)
        net.raw[np.abs(net.raw) < 1e-3] = 0.05  # stay away from the clamp kink
        grad = curvature_prior(net, 0.7)[1][0]
        fd = parameter_fd(net, lambda: curvature_prior(net, 0.7)[0][0], 1e-6)
        npt.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)
        assert np.count_nonzero(grad) > 0

    def test_vanilla_model_has_no_prior(self):
        net = KANModel.create(rng=6, mode=VANILLA)
        value, grad = single(curvature_prior, net, 1.0)
        assert value == 0.0
        npt.assert_array_equal(grad, 0.0)

    def test_train_reports_pure_force_loss(self):
        ds = two_element_dataset(n_t=2)
        cfg = TrainConfig(epochs=20, ensemble_size=1, seed=3, curvature_penalty=0.05)
        model, report = train(cfg, ds)
        npt.assert_allclose(report.final_loss[0], loss(model, ds), rtol=1e-10)
        # the prior is active: it changes the trained parameters
        plain, _ = train(replace(cfg, curvature_penalty=0.0), ds)
        assert np.any(model.raw != plain.raw)


class TestTrain:
    def test_single_epoch_changes_parameters(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=1, ensemble_size=1, seed=5)
        before = KANModel.create(rng=5).raw
        model, report = train(cfg, ds)
        assert report.losses.shape == (1, 1)
        assert np.any(model.raw != before)

    def test_loss_decreases(self):
        ds = two_element_dataset(n_t=2)
        cfg = TrainConfig(epochs=120, ensemble_size=1, seed=3)
        _, report = train(cfg, ds)
        assert report.final_loss[0] < 0.2 * report.losses[0, 0]

    def test_deterministic(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=10, ensemble_size=1, seed=7)
        m1, r1 = train(cfg, ds)
        m2, r2 = train(cfg, ds)
        npt.assert_array_equal(m1.raw, m2.raw)
        npt.assert_array_equal(r1.losses, r2.losses)

    def test_loss_trace_finite_and_report_shape(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=5, ensemble_size=1, seed=1)
        _, report = train(cfg, ds)
        assert report.losses.shape == (1, 5) and np.all(np.isfinite(report.losses))
        assert report.final_loss.shape == (1,) and report.seeds.tolist() == [1]
        assert report.lrs[0] == training.BASE_LR
        assert report.wall_time > 0.0
        assert report.failures == {} and report.selected == 0

    def test_trained_model_stays_convex(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=30, ensemble_size=1, seed=2)
        model, _ = train(cfg, ds)
        K = np.random.default_rng(0).uniform(-5.0, 25.0, size=(500, 3))
        _, g, H = model.forward_with_input_derivatives(K)
        assert g.min() >= -1e-12
        assert np.linalg.eigvalsh(H).min() >= -1e-8

    def test_final_loss_runs_no_reverse_sweep(self, monkeypatch):
        ds = two_element_dataset(n_t=2)
        sweeps, real = [], KANModel.backward_batch

        def counted(self, *args, **kwargs):
            sweeps.append(self.size)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(KANModel, "backward_batch", counted)
        model, report = train(TrainConfig(epochs=4, ensemble_size=1, seed=1), ds)
        assert sweeps == [1] * 4  # one per epoch
        monkeypatch.undo()
        npt.assert_allclose(report.final_loss[0], loss(model, ds), rtol=1e-10)
        assert report.final_loss[0] == single(loss_and_grad, model, ElementStates(ds))[0]

    def test_csv_log(self, tmp_path):
        ds = two_element_dataset()
        _, report = train(TrainConfig(epochs=3, ensemble_size=1, seed=1), ds)
        path = tmp_path / "log.csv"
        report.write_csv(path, 0)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,loss"
        assert len(lines) == 4


class TestEnsemble:
    def test_size_one_returns_its_only_member(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=5, ensemble_size=1, seed=11)
        model, report = train(cfg, ds)
        assert model.size == 1 and report.final_loss.shape == (1,)
        assert report.selected == 0 and report.seeds.tolist() == [11]
        npt.assert_allclose(report.final_loss[0], loss(model, ds), rtol=1e-10)

    def test_selects_lowest_final_loss(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=8, ensemble_size=3, seed=0)
        best, report = train(cfg, ds)
        assert report.final_loss.shape == (3,)
        assert report.final_loss[report.selected] == report.final_loss.min()
        npt.assert_allclose(loss(best, ds), report.final_loss.min(), rtol=1e-10)

    def test_deterministic_selection(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=6, ensemble_size=2, seed=4)
        b1, _ = train(cfg, ds)
        b2, _ = train(cfg, ds)
        npt.assert_array_equal(b1.raw, b2.raw)


def nh_dataset(scale):
    """Noiseless NH data on the 11-grid holed square, delta = 0.1, 0.2, 0.3,
    with the reactions times ``scale``: exact data of the material scale * NH."""
    mesh = unit_square_hole_mesh(n=11)
    ds = generate_dataset(mesh, biaxial_partition(mesh), NeoHookean(), [0.1, 0.2, 0.3])
    return replace(ds, reactions=scale * ds.reactions)


class TestReport:
    """``explained`` says how much of the force data each member explains,
    and ``dead`` how many of its activations Adam can no longer move."""

    CONFIG = TrainConfig(epochs=300, ensemble_size=3, seed=0)

    def test_member_at_zero_force_is_reported(self):
        # on 0.03 * NH the clamp traps member 1 at the zero-force model
        ds = nh_dataset(0.03)
        best, report = train(self.CONFIG, ds)
        y2 = np.sum(ds.reactions**2)  # the free-DOF targets are 0
        npt.assert_allclose(report.explained, 1.0 - report.final_loss / y2, rtol=0, atol=1e-12)
        assert abs(report.explained[1]) < 1e-12
        npt.assert_allclose(report.explained[[0, 2]], 0.892083, atol=1e-6)
        assert report.dead.tolist() == [4, 6, 5] and report.selected == 2
        # edges (0, i, j), then (1, 0, i): every path from K1 and K2 holds a
        # flat activation, so the selected member fits K3 alone
        flat = np.all(best.raw[0, :, 1 : best.n_coef] < 0.0, axis=1)
        assert flat.tolist() == [True, True, False, True, True, False, True, False]

    def test_unscaled_data_are_explained(self):
        _, report = train(self.CONFIG, nh_dataset(1.0))
        assert np.all(report.explained > 0.99999)
        assert report.dead.tolist() == [2, 2, 2]  # the K2 edges: NH does not read K2

    def test_cli_table(self, tmp_path, capsys):
        ds, path = nh_dataset(0.03), tmp_path / "ds.txt"
        ds.save(path)
        assert cli.main(["train", "--dataset", str(path), "--epochs", "300", "--ensemble", "3",
                         "--seed", "0", "--out", str(tmp_path / "m.ckpt")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "member  seed  final_loss  explained  dead  wall_s  selected"
        rows = [ln.split() for ln in lines[1:4]]
        assert [row[3:5] for row in rows] == [["0.892083", "4"], ["-0.000000", "6"],
                                              ["0.892083", "5"]]
        # the selected row ends in "*" and keeps final_loss third
        assert [row[-1] == "*" for row in rows] == [False, False, True]
        best = KANModel.load(tmp_path / "m.ckpt")
        npt.assert_allclose(float(rows[2][2]), loss(best, ds), rtol=1e-6)

    def test_zero_force_data_read_nan(self):  # a RuntimeWarning fails it
        ds = two_element_dataset()
        zero = replace(ds, deltas=[0.0], displacements=np.zeros((1, 4, 2)),
                       reactions=np.zeros((1, 4)))
        _, report = train(TrainConfig(epochs=2, ensemble_size=2, seed=0), zero)
        assert np.all(np.isnan(report.explained)) and np.all(np.isfinite(report.final_loss))

    @pytest.mark.parametrize("mode, dead", [(CONSTRAINED, 8), (VANILLA, 0)])
    def test_dead_counts_clamped_splines_only(self, monkeypatch, mode, dead):
        # vanilla control points are not clamped: negative ones are not flat
        real = KANModel.create

        def negative(**kwargs):
            model = real(**kwargs)
            model.raw[..., 1 : model.n_coef] = -1.0
            return model

        monkeypatch.setattr(KANModel, "create", negative)
        cfg = TrainConfig(epochs=2, ensemble_size=2, seed=0)
        _, report = train(cfg, two_element_dataset(), mode=mode)
        assert report.dead.tolist() == [dead, dead]


class TestErrors:
    def test_inadmissible_snapshot_reported(self):
        ds = two_element_dataset()
        bad = SpecimenDataset(
            mesh=ds.mesh,
            partition=ds.partition,
            deltas=[0.1],
            displacements=np.array(
                [ds.mesh.nodes @ (np.diag([-0.5, 1.0]) - np.eye(2)).T]
            ),
            reactions=np.zeros((1, 4)),
        )
        with pytest.raises(TrainingError, match=r"^snapshot 0, element 0: det\(F\)"):
            ElementStates(bad)
        with pytest.raises(TrainingError, match=r"^snapshot 0: element 0: det\(F\)"):
            loss(flat_network(), bad)

    def test_loss_rejects_unknown_object(self):
        with pytest.raises(ConfigurationError):
            loss(object(), two_element_dataset())


def holed_square_dataset(n=7, n_t=2):
    mesh = unit_square_hole_mesh(n=n)
    deltas = [0.1 * (t + 1) for t in range(n_t)]
    return generate_dataset(mesh, biaxial_partition(mesh), NeoHookean(), deltas,
                            noise_sigma=1e-4, seed=3)


class TestStackedPass:
    """One sweep over a stack of members gives each member's single pass."""

    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    @pytest.mark.parametrize("dims", [(3, 2, 1), (3, 3, 2, 1)])
    def test_members_match_single_passes(self, dims, mode):
        states = ElementStates(holed_square_dataset())
        models = [KANModel.create(dims=dims, mode=mode, rng=s)
                  for s in (5, 6, 7)]
        # distinct layer >= 1 knots: the stack keeps one knot row per member
        assert len({m.domain(1, 0) for m in models}) == 3
        alone = [single(loss_and_grad, m, states) for m in models]
        values, grads = loss_and_grad(KANModel.stack(models), states)
        assert values.shape == (3,) and grads.shape == (3,) + models[0].raw.shape[1:]
        for (value, grad), v, g in zip(alone, values, grads):
            npt.assert_allclose(v, value, rtol=1e-12)
            npt.assert_allclose(g, grad, rtol=0, atol=1e-12 * np.abs(grad).max())

    def test_stack_and_members_copy_parameters(self):
        models = [KANModel.create(rng=s) for s in (1, 2)]
        # raw holds every layer's edges in layer order, and params are its views
        want = [np.concatenate([p[0].reshape(-1, p.shape[-1]) for p in m.params])
                for m in models]
        stack = KANModel.stack(models)
        npt.assert_array_equal(stack.raw, want)
        picked = stack.members([1])
        stack.raw *= 2.0
        for p, q in zip(stack.params, KANModel.stack(models).params):
            npt.assert_array_equal(p, 2.0 * q)
        # neither the source models nor a picked member see the write
        for m, w in zip(models, want):
            npt.assert_array_equal(m.raw[0], w)
        npt.assert_array_equal(picked.raw[0], want[1])

    def test_rejects_mixed_architectures(self):
        a = KANModel.create(rng=1)
        b = KANModel.create(dims=(3, 3, 1), rng=2)
        with pytest.raises(ConfigurationError):
            KANModel.stack([a, b])


class TestBalanceOperator:
    """ElementStates' sparse operator L and target y against the force
    assembly that loss() runs."""

    @pytest.mark.parametrize("make", [lambda: two_element_dataset(n_t=2), holed_square_dataset])
    def test_operator_reproduces_loss_through_nodal_forces(self, make):
        ds = make()
        states = ElementStates(ds)
        for seed in (8, 9):
            net = KANModel.create(rng=seed)
            g = net.forward_with_input_derivatives(states.K)[1]
            res = states.L @ g.ravel() - states.y
            npt.assert_allclose(res @ res, loss(net, ds), rtol=1e-12)
            # the first rows are snapshot 0's free nodal forces
            free = ds.partition.free_flat_indices()
            f = nodal_forces(ds.mesh, ds.displacements[0], NetworkMaterial(net)).ravel()
            npt.assert_allclose(res[: free.size], f[free], rtol=0,
                                atol=1e-12 * np.abs(f).max())


class TestStackedTraining:
    def test_members_match_train_alone(self):
        ds = holed_square_dataset()
        cfg = TrainConfig(epochs=20, ensemble_size=3, seed=4)
        _, report = train(cfg, ds)
        assert report.seeds.tolist() == [4, 5, 6]
        for member, seed in enumerate(report.seeds):
            _, alone = train(replace(cfg, ensemble_size=1, seed=int(seed)), ds)
            npt.assert_allclose(report.final_loss[member], alone.final_loss[0], rtol=1e-9)
            npt.assert_allclose(report.losses[member], alone.losses[0], rtol=1e-9)

    @staticmethod
    def poison(monkeypatch, member, epoch, where):
        """Make ``member`` of a 3-stack non-finite at ``epoch``."""
        real, calls = training.loss_and_grad, []

        def poisoned(model, *args):
            value, grad = real(model, *args)
            calls.append(model.size)
            if len(calls) == epoch + 1 and model.size == 3:
                if where == "loss":
                    value[member] = np.nan
                else:
                    grad[member, 0, 0] = np.inf
            return value, grad

        monkeypatch.setattr(training, "loss_and_grad", poisoned)

    @pytest.mark.parametrize("where", ["loss", "gradient"])
    def test_non_finite_member_is_masked_in_place(self, monkeypatch, where):
        ds = holed_square_dataset()
        cfg = TrainConfig(epochs=12, ensemble_size=3, seed=0)
        clean_best, clean = train(cfg, ds)
        self.poison(monkeypatch, member=1, epoch=5, where=where)
        best, report = train(cfg, ds)
        assert report.seeds.tolist() == [0, 1, 2]
        assert report.failures == {1: "non-finite loss or gradient at epoch 5"}
        # the survivors step exactly as in the clean run
        npt.assert_array_equal(report.losses[[0, 2]], clean.losses[[0, 2]])
        npt.assert_array_equal(report.final_loss[[0, 2]], clean.final_loss[[0, 2]])
        # the failed member keeps its losses before the failure epoch only
        npt.assert_array_equal(report.losses[1, :5], clean.losses[1, :5])
        assert np.all(np.isnan(report.losses[1, 5:])) and np.isnan(report.final_loss[1])
        assert np.isnan(report.explained[1]) and np.all(np.isfinite(report.explained[[0, 2]]))
        assert report.final_loss[report.selected] == np.nanmin(report.final_loss)
        # the clean run selects a survivor, so both return the same member
        assert report.selected == clean.selected != 1
        npt.assert_array_equal(best.raw, clean_best.raw)
        monkeypatch.undo()
        npt.assert_allclose(loss(best, ds), np.nanmin(report.final_loss), rtol=1e-10)

    def test_every_member_failing_raises(self, monkeypatch):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=5, ensemble_size=3, seed=0)
        self.poison(monkeypatch, member=slice(None), epoch=2, where="loss")
        with pytest.raises(TrainingError) as err:
            train(cfg, ds)
        assert str(err.value) == "all ensemble members failed: " + "; ".join(
            f"member {m}: non-finite loss or gradient at epoch 2" for m in range(3)
        )

    def test_cli_table_keeps_member_indices(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "ds.txt"
        holed_square_dataset().save(path)
        self.poison(monkeypatch, member=1, epoch=2, where="loss")
        assert cli.main(["train", "--dataset", str(path), "--epochs", "5", "--ensemble", "3",
                         "--seed", "7", "--out", str(tmp_path / "m.ckpt"),
                         "--log-prefix", str(tmp_path / "log")]) == 0
        out, err = capsys.readouterr()
        rows = [ln.split()[:2] for ln in out.splitlines()[1:-1]]
        assert rows == [["0", "7"], ["2", "9"]]
        assert err.splitlines() == ["member 1 failed: non-finite loss or gradient at epoch 2"]
        assert sorted(p.name for p in tmp_path.glob("log*.csv")) == ["log0.csv", "log2.csv"]
