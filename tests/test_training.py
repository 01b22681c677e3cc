"""Training loop: loss hand-evaluations, loss gradient vs finite differences,
learning-rate schedule, Adam behavior, ensembling, determinism."""
import numpy as np
import numpy.testing as npt
import pytest

from convexkan.errors import ConfigurationError, TrainingError
from convexkan.fem import (
    Mesh,
    SpecimenDataset,
    biaxial_partition,
    generate_dataset,
    unit_square_hole_mesh,
)
from convexkan.mechanics import NeoHookean
from convexkan.network import CONSTRAINED, VANILLA, KANModel
from convexkan.training import (
    ElementStates,
    TrainConfig,
    TrainReport,
    curvature_prior,
    cyclic_learning_rate,
    loss,
    loss_and_grad,
    train,
    train_ensemble,
)


def two_element_dataset(delta=0.1, model=None, n_t=1):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = Mesh(nodes=nodes, triangles=np.array([[0, 1, 2], [0, 2, 3]]))
    part = biaxial_partition(mesh)
    deltas = [delta * (t + 1) for t in range(n_t)]
    return generate_dataset(mesh, part, model or NeoHookean(), deltas)


def flat_network():
    m = KANModel.create(rng=0)
    for p in m.params:
        p[..., : m.n_coef] = 0.0
    return m.grid_initialize()


class TestConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert c.epochs == 1000 and c.base_lr == 0.001 and c.max_lr == 0.1
        assert c.cycle_step == 50 and c.ensemble_size == 10
        assert c.curvature_penalty == 1e-2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(base_lr=0.5, max_lr=0.1)
        with pytest.raises(ConfigurationError):
            TrainConfig(cycle_step=0)
        for bad in (-1e-3, np.nan, np.inf):
            with pytest.raises(ConfigurationError):
                TrainConfig(curvature_penalty=bad)
        assert TrainConfig(curvature_penalty=0.0).curvature_penalty == 0.0

    def test_file_round_trip(self, tmp_path):
        c = TrainConfig(epochs=17, max_lr=0.25, seed=9, curvature_penalty=3e-3)
        path = tmp_path / "train.cfg"
        c.save(path)
        assert TrainConfig.load(path) == c
        path.write_text("curvature_penalty=-1\n")
        with pytest.raises(ConfigurationError):
            TrainConfig.load(path)

    def test_file_comments_and_errors(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nepochs = 5\n")
        assert TrainConfig.load(path).epochs == 5
        path.write_text("bogus=1\n")
        with pytest.raises(ConfigurationError):
            TrainConfig.load(path)


class TestSchedule:
    def test_endpoints_and_peak(self):
        c = TrainConfig()
        assert cyclic_learning_rate(0, c) == 0.001
        assert cyclic_learning_rate(50, c) == 0.1
        assert cyclic_learning_rate(100, c) == 0.001

    def test_triangular_shape(self):
        c = TrainConfig(base_lr=0.2, max_lr=1.0, cycle_step=4)
        got = [cyclic_learning_rate(e, c) for e in range(9)]
        npt.assert_allclose(got, [0.2, 0.4, 0.6, 0.8, 1.0, 0.8, 0.6, 0.4, 0.2])


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
        net = KANModel.create(rng=1).grid_initialize()
        value, _ = loss_and_grad(net, ElementStates(ds))
        npt.assert_allclose(value, loss(net, ds), rtol=1e-10)

    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    def test_gradient_matches_fd(self, mode):
        ds = two_element_dataset(n_t=1)
        net = KANModel.create(rng=2, mode=mode).grid_initialize()
        states = ElementStates(ds)
        _, grad = loss_and_grad(net, states)
        v0 = net.parameter_vector()
        h = 1e-5
        fd = np.empty_like(v0)
        for p in range(v0.size):
            vp, vm = v0.copy(), v0.copy()
            vp[p] += h
            vm[p] -= h
            net.set_parameter_vector(vp)
            up = loss_and_grad(net, states)[0]
            net.set_parameter_vector(vm)
            um = loss_and_grad(net, states)[0]
            fd[p] = (up - um) / (2 * h)
        net.set_parameter_vector(v0)
        npt.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)


def edit_layer0_domains(model, lo, hi):
    """The model reloaded from its checkpoint text with every layer-0 domain
    replaced by ``[lo, hi]``."""
    lines = model.dumps().splitlines()
    for n, line in enumerate(lines):
        if line.startswith("activation 0 "):
            lines[n + 1] = f"domain {lo!r} {hi!r}"
    return KANModel.loads("\n".join(lines))


class TestLayer0RowCache:
    """ElementStates keeps the layer-0 design rows at K, keyed on the
    layer-0 knots."""

    def test_cached_rows_match_cache_free_pass(self, monkeypatch):
        ds = two_element_dataset(n_t=2)
        states = ElementStates(ds)
        for seed, mode in ((3, CONSTRAINED), (4, VANILLA)):
            net = KANModel.create(rng=seed, mode=mode).grid_initialize()
            loss_and_grad(net, states)  # fills the cache
            value, grad = loss_and_grad(net, states)
            with monkeypatch.context() as mp:
                mp.setattr(states, "layer0_rows", lambda model: None)  # every row fresh
                want_value, want_grad = loss_and_grad(net, states)
            npt.assert_allclose(value, want_value, rtol=1e-12)
            npt.assert_allclose(grad, want_grad, rtol=0, atol=1e-12 * np.abs(want_grad).max())

    def test_rows_shared_by_models_with_the_same_knots(self):
        states = ElementStates(two_element_dataset())
        a = KANModel.create(rng=5).grid_initialize()
        b = KANModel.create(rng=6).grid_initialize()  # ensemble members share knots
        assert states.layer0_rows(a) is states.layer0_rows(b)

    def test_edited_domains_get_fresh_rows(self):
        ds = two_element_dataset(n_t=2)
        states = ElementStates(ds)
        net = KANModel.create(rng=7).grid_initialize()
        before = loss_and_grad(net, states)
        edited = edit_layer0_domains(net, -0.5, 0.75)
        assert edited.knots[0][0].domain == (-0.5, 0.75)
        got = loss_and_grad(edited, states)
        want = loss_and_grad(edited, ElementStates(ds))
        npt.assert_allclose(got[0], want[0], rtol=1e-12)
        npt.assert_allclose(got[1], want[1], rtol=0, atol=1e-12 * np.abs(want[1]).max())
        npt.assert_allclose(got[0], loss(edited, ds), rtol=1e-10)
        # the edited model differs from net only in its layer-0 knots, so
        # with net's stale rows it would have reproduced net's loss
        assert abs(want[0] - before[0]) > 1e-3 * abs(want[0])
        # and the original knots get their own rows back
        npt.assert_array_equal(loss_and_grad(net, states)[1], before[1])


class TestCurvaturePrior:
    def test_value_is_weighted_sum_of_clamped_increments(self):
        net = KANModel.create(rng=4).grid_initialize()
        want = sum(np.maximum(p[..., 2 : net.n_coef], 0.0).sum() for p in net.params)
        value, _ = curvature_prior(net, 0.3)
        npt.assert_allclose(value, 0.3 * want, rtol=1e-14)
        assert curvature_prior(net, 0.0)[0] == 0.0

    def test_gradient_matches_fd(self):
        net = KANModel.create(rng=5).grid_initialize()
        v0 = net.parameter_vector()
        v0[np.abs(v0) < 1e-3] = 0.05  # stay away from the clamp kink
        net.set_parameter_vector(v0)
        _, grad = curvature_prior(net, 0.7)
        h = 1e-6
        fd = np.empty_like(v0)
        for p in range(v0.size):
            vp, vm = v0.copy(), v0.copy()
            vp[p] += h
            vm[p] -= h
            net.set_parameter_vector(vp)
            up = curvature_prior(net, 0.7)[0]
            net.set_parameter_vector(vm)
            um = curvature_prior(net, 0.7)[0]
            fd[p] = (up - um) / (2 * h)
        npt.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)
        assert np.count_nonzero(grad) > 0

    def test_vanilla_model_has_no_prior(self):
        net = KANModel.create(rng=6, mode=VANILLA).grid_initialize()
        value, grad = curvature_prior(net, 1.0)
        assert value == 0.0
        npt.assert_array_equal(grad, 0.0)

    def test_train_reports_pure_force_loss(self):
        ds = two_element_dataset(n_t=2)
        cfg = TrainConfig(epochs=20, seed=3, curvature_penalty=0.05)
        model, report = train(cfg, ds)
        npt.assert_allclose(report.final_loss, loss(model, ds), rtol=1e-10)
        # the prior is active: it changes the trained parameters
        plain, _ = train(cfg.with_overrides(curvature_penalty=0.0), ds)
        assert np.any(model.parameter_vector() != plain.parameter_vector())


class TestTrain:
    def test_single_epoch_changes_parameters(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=1, ensemble_size=1, seed=5)
        before = KANModel.create(rng=5).grid_initialize().parameter_vector()
        model, report = train(cfg, ds)
        assert report.losses.size == 1
        assert np.any(model.parameter_vector() != before)

    def test_loss_decreases(self):
        ds = two_element_dataset(n_t=2)
        cfg = TrainConfig(epochs=120, ensemble_size=1, seed=3)
        _, report = train(cfg, ds)
        assert report.final_loss < 0.2 * report.losses[0]

    def test_deterministic(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=10, seed=7)
        m1, r1 = train(cfg, ds)
        m2, r2 = train(cfg, ds)
        npt.assert_array_equal(m1.parameter_vector(), m2.parameter_vector())
        npt.assert_array_equal(r1.losses, r2.losses)

    def test_loss_trace_finite_and_report_shape(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=5, seed=1)
        _, report = train(cfg, ds)
        assert np.all(np.isfinite(report.losses))
        assert report.lrs[0] == cfg.base_lr
        assert report.wall_time > 0.0

    def test_trained_model_stays_convex(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=30, seed=2)
        model, _ = train(cfg, ds)
        K = np.random.default_rng(0).uniform(-5.0, 25.0, size=(500, 3))
        _, g, H = model.forward_with_input_derivatives(K)
        assert g.min() >= -1e-12
        assert np.linalg.eigvalsh(H).min() >= -1e-8

    def test_csv_log(self, tmp_path):
        ds = two_element_dataset()
        _, report = train(TrainConfig(epochs=3, seed=1), ds)
        path = tmp_path / "log.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,loss"
        assert len(lines) == 4


class TestEnsemble:
    def test_size_one_matches_train(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=5, ensemble_size=1, seed=11)
        m1, _ = train(cfg, ds)
        m2, reports = train_ensemble(cfg, ds)
        npt.assert_array_equal(m1.parameter_vector(), m2.parameter_vector())
        assert len(reports) == 1 and reports[0].selected

    def test_selects_lowest_final_loss(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=8, ensemble_size=3, seed=0)
        best, reports = train_ensemble(cfg, ds)
        finals = [r.final_loss for r in reports]
        sel = [r.selected for r in reports]
        assert sel.count(True) == 1
        assert finals[sel.index(True)] == min(finals)

    def test_deterministic_selection(self):
        ds = two_element_dataset()
        cfg = TrainConfig(epochs=6, ensemble_size=2, seed=4)
        b1, _ = train_ensemble(cfg, ds)
        b2, _ = train_ensemble(cfg, ds)
        npt.assert_array_equal(b1.parameter_vector(), b2.parameter_vector())


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
