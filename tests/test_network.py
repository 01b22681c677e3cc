"""Network layer: forward passes, exact input derivatives, reverse-mode
parameter gradients, grid initialization, checkpoint round-trips."""
import numpy as np
import numpy.testing as npt
import pytest

from convexkan.errors import ConfigurationError, DataError, EvaluationError
from convexkan.network import CONSTRAINED, VANILLA, KANModel, W_S_UNIT, softplus


def fresh_model(seed=0, mode=CONSTRAINED, dims=(3, 2, 1), order=5, n_coef=17):
    return KANModel.create(
        dims=dims, order=order, n_coef=n_coef, mode=mode, rng=seed
    ).grid_initialize()


def flat_model():
    m = KANModel.create(rng=0)
    for _, _, _, act in m.activations():
        act.spline.raw[:] = 0.0
    return m.grid_initialize()


class TestCreate:
    def test_constrained_base_slopes_start_live(self):
        # raw[1] < 0 would be clamped with zero gradient: the slope never moves
        for seed in range(20):
            m = KANModel.create(rng=seed)
            assert all(act.spline.raw[1] >= 0.0 for *_, act in m.activations())

    def test_vanilla_draw_unchanged(self):
        m = KANModel.create(rng=0, mode=VANILLA)
        assert min(act.spline.raw[1] for *_, act in m.activations()) < 0.0


class TestForward:
    def test_flat_model_is_zero(self):
        m = flat_model()
        rng = np.random.default_rng(1)
        K = rng.uniform(-5.0, 25.0, size=(50, 3))
        npt.assert_array_equal(m.forward(K), 0.0)

    def test_single_layer_matches_direct_spline_composition(self):
        m = fresh_model(seed=2, dims=(3, 1))
        K = np.random.default_rng(3).uniform(-4.0, 20.0, size=(20, 3))
        want = np.zeros(20)
        for j in range(3):
            act = m.acts[0][0][j]
            want += softplus(act.w_s) * act.spline.eval_extended(K[:, j])[0]
        npt.assert_allclose(m.forward(K), want, rtol=1e-12)

    def test_monotone_in_each_input(self):
        m = fresh_model(seed=4)
        assert m.forward([1.0, 0.0, 0.0]) >= m.forward([0.0, 0.0, 0.0]) - 1e-12

    def test_non_finite_input_rejected(self):
        with pytest.raises(EvaluationError):
            fresh_model().forward([np.nan, 0.0, 0.0])

    def test_requires_grid_init(self):
        with pytest.raises(ConfigurationError):
            KANModel.create(rng=0).forward([0.0, 0.0, 0.0])


class TestInputDerivatives:
    def test_flat_model(self):
        m = flat_model()
        W, g, H = m.forward_with_input_derivatives([1.0, 2.0, 3.0])
        assert W == 0.0
        npt.assert_array_equal(g, 0.0)
        npt.assert_array_equal(H, 0.0)

    def test_gradient_and_hessian_match_fd(self):
        m = fresh_model(seed=5)
        rng = np.random.default_rng(6)
        K = rng.uniform(-3.0, 20.0, size=(100, 3))
        W, g, H = m.forward_with_input_derivatives(K)
        h = 1e-5
        for d in range(3):
            e = np.zeros(3)
            e[d] = h
            fd_g = (m.forward(K + e) - m.forward(K - e)) / (2 * h)
            npt.assert_allclose(g[:, d], fd_g, rtol=1e-5, atol=1e-8)
            _, gp, _ = m.forward_with_input_derivatives(K + e)
            _, gm, _ = m.forward_with_input_derivatives(K - e)
            npt.assert_allclose(H[:, :, d], (gp - gm) / (2 * h), rtol=1e-4, atol=1e-7)

    def test_constrained_gradient_nonneg_hessian_psd(self):
        m = fresh_model(seed=7)
        K = np.random.default_rng(8).uniform(-5.0, 25.0, size=(1000, 3))
        _, g, H = m.forward_with_input_derivatives(K)
        assert g.min() >= -1e-12
        assert np.linalg.eigvalsh(H).min() >= -1e-8

    def test_order_too_low_for_hessian(self):
        m = fresh_model(seed=9, order=2, n_coef=8)
        with pytest.raises(ConfigurationError):
            m.forward_with_input_derivatives([0.0, 0.0, 0.0])


class TestConvexityProperties:
    def test_monotone_random_pairs(self):
        rng = np.random.default_rng(10)
        for seed in range(5):
            m = fresh_model(seed=seed + 20)
            Ka = rng.uniform(-5.0, 20.0, size=(200, 3))
            Kb = Ka + rng.uniform(0.0, 5.0, size=(200, 3))
            assert np.all(m.forward(Kb) >= m.forward(Ka) - 1e-12)

    def test_jensen_inequality(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            m = fresh_model(seed=seed + 40)
            Ka = rng.uniform(-5.0, 25.0, size=(200, 3))
            Kb = rng.uniform(-5.0, 25.0, size=(200, 3))
            lam = rng.uniform(0.0, 1.0, size=(200, 1))
            mid = m.forward(lam * Ka + (1 - lam) * Kb)
            hull = lam[:, 0] * m.forward(Ka) + (1 - lam[:, 0]) * m.forward(Kb)
            assert np.all(mid <= hull + 1e-10)

    def test_vanilla_mode_generically_nonconvex(self):
        # ablation witness: an untrained vanilla model almost surely violates
        # convexity along some direction
        m = fresh_model(seed=12, mode=VANILLA)
        x = np.linspace(-5.0, 25.0, 400)
        K = np.column_stack([x, np.zeros_like(x), np.zeros_like(x)])
        second = np.diff(m.forward(K), 2)
        assert second.min() < -1e-10


class TestBackward:
    def test_zero_seed_zero_gradient(self):
        m = fresh_model(seed=13)
        g = m.backward([1.0, 2.0, 3.0], seed=0.0).to_vector()
        npt.assert_array_equal(g, 0.0)

    def test_linear_in_seed(self):
        m = fresh_model(seed=14)
        K = [0.5, 1.0, 2.0]
        g1 = m.backward(K, seed=1.0).to_vector()
        g3 = m.backward(K, seed=3.0).to_vector()
        npt.assert_allclose(g3, 3.0 * g1, rtol=1e-12)

    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    def test_value_seed_matches_parameter_fd(self, mode):
        m = fresh_model(seed=15, mode=mode)
        K = np.array([[0.3, 1.7, 4.0], [-1.0, 0.2, 8.0]])
        got = m.backward_batch(K, seed_w=np.ones(2)).to_vector()
        v0 = m.parameter_vector()
        h = 1e-5
        fd = np.empty_like(v0)
        for p in range(v0.size):
            vp, vm = v0.copy(), v0.copy()
            vp[p] += h
            vm[p] -= h
            m.set_parameter_vector(vp)
            up = m.forward(K).sum()
            m.set_parameter_vector(vm)
            um = m.forward(K).sum()
            fd[p] = (up - um) / (2 * h)
        m.set_parameter_vector(v0)
        npt.assert_allclose(got, fd, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    def test_gradient_seed_matches_parameter_fd(self, mode):
        m = fresh_model(seed=16, mode=mode)
        K = np.array([[0.3, 1.7, 4.0], [2.0, -0.5, 12.0]])
        rng = np.random.default_rng(17)
        seed_g = rng.normal(size=(2, 3))
        got = m.backward_batch(K, seed_g=seed_g).to_vector()
        v0 = m.parameter_vector()
        h = 1e-5

        def objective():
            _, g = m.forward_with_gradient(K)
            return float(np.sum(seed_g * g))

        fd = np.empty_like(v0)
        for p in range(v0.size):
            vp, vm = v0.copy(), v0.copy()
            vp[p] += h
            vm[p] -= h
            m.set_parameter_vector(vp)
            up = objective()
            m.set_parameter_vector(vm)
            um = objective()
            fd[p] = (up - um) / (2 * h)
        m.set_parameter_vector(v0)
        npt.assert_allclose(got, fd, rtol=1e-4, atol=1e-6)


class TestGridInit:
    def test_first_layer_domains(self):
        m = fresh_model(seed=18)
        for i in range(m.dims[1]):
            for j in range(3):
                npt.assert_allclose(m.acts[0][i][j].spline.knots.domain, (-5.0, 25.0))

    def test_flat_model_degenerate_range_widened(self):
        m = flat_model()
        lo, hi = m.acts[1][0][0].spline.knots.domain
        assert hi - lo >= 1e-6 * (1 - 1e-12)

    def test_second_layer_bounds_match_independent_propagation(self):
        m = fresh_model(seed=19)
        x = np.linspace(-5.0, 25.0, 100)
        # recompute the propagated per-dimension ranges by hand
        for i in range(m.dims[1]):
            vals = np.zeros(100)
            for j in range(3):
                act = m.acts[0][i][j]
                vals += softplus(act.w_s) * act.spline.eval_extended(x)[0]
            lo, hi = m.acts[1][0][i].spline.knots.domain
            npt.assert_allclose((lo, hi), (vals.min(), vals.max()), rtol=1e-12)


class TestCheckpoint:
    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    def test_round_trip_bit_exact(self, tmp_path, mode):
        m = fresh_model(seed=20, mode=mode)
        path = tmp_path / "model.ckpt"
        m.save(path)
        m2 = KANModel.load(path)
        assert m2.mode == m.mode
        assert m2.dims == m.dims
        npt.assert_array_equal(m2.parameter_vector(), m.parameter_vector())
        for (r, i, j, a), (_, _, _, b) in zip(m.activations(), m2.activations()):
            assert a.spline.knots.domain == b.spline.knots.domain
        K = np.random.default_rng(21).uniform(-2.0, 10.0, size=(5, 3))
        npt.assert_array_equal(m.forward(K), m2.forward(K))

    def test_bad_header_rejected(self):
        with pytest.raises(DataError):
            KANModel.loads("nonsense\n")

    def test_truncated_rejected(self):
        text = fresh_model(seed=22).dumps()
        with pytest.raises(DataError):
            KANModel.loads("\n".join(text.splitlines()[:8]))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("raw", "nan"), ("raw", "inf"), ("w_s", "nan"), ("w_b", "-inf"),
            ("domain", "nan 1"), ("domain", "0 inf"), ("domain", "2 2"), ("domain", "3 1"),
        ],
    )
    def test_bad_values_rejected(self, key, value):
        lines = fresh_model(seed=23).dumps().splitlines()
        row = next(k for k, ln in enumerate(lines) if ln.startswith(f"{key} "))
        if key == "raw":
            lines[row] = " ".join(lines[row].split()[:-1] + [value])
        else:
            lines[row] = f"{key} {value}"
        with pytest.raises(DataError, match="activation 0,0,0"):
            KANModel.loads("\n".join(lines))
