"""Network layer: forward passes, exact input derivatives, reverse-mode
parameter gradients, grid initialization, checkpoint round-trips."""
import numpy as np
import numpy.testing as npt
import pytest

from convexkan.bspline import BSplineCurve, ConvexSpline, KnotVector
from convexkan.errors import ConfigurationError, DataError, EvaluationError
from convexkan.network import CONSTRAINED, VANILLA, KANModel, sigmoid, softplus
from convexkan.symbolic import distill


def fresh_model(seed=0, mode=CONSTRAINED, dims=(3, 2, 1), order=5, n_coef=17):
    return KANModel.create(dims=dims, order=order, n_coef=n_coef, mode=mode, rng=seed)


def flat_model():
    m = KANModel.create(rng=0)
    for p in m.params:
        p[..., : m.n_coef] = 0.0
    return m.grid_initialize()


def parameter_fd(model, objective, h=1e-5):
    """Central differences of ``objective()`` in each entry of the parameter
    vector of a model of one, written into the model."""
    v0 = model.parameter_vectors()[0]
    fd = np.empty_like(v0)
    for p in range(v0.size):
        vp, vm = v0.copy(), v0.copy()
        vp[p] += h
        vm[p] -= h
        model.set_parameter_vectors(vp[None])
        up = objective()
        model.set_parameter_vectors(vm[None])
        um = objective()
        fd[p] = (up - um) / (2 * h)
    model.set_parameter_vectors(v0[None])
    return fd


def backward(m, K, seed_w=None, seed_g=None):
    """``backward_batch`` of a model of one at inputs ``K`` for one set of
    seeds: one gradient row."""
    cache = m._forward_cache(np.asarray(K, dtype=np.float64), w_seeded=seed_w is not None)
    return m.backward_batch(cache, None if seed_w is None else seed_w[None],
                            None if seed_g is None else seed_g[None])[0]


def edge_spline(m, r, i, j):
    """The spline of edge (r, i, j) as a curve of its own."""
    spline_cls = ConvexSpline if m.mode == CONSTRAINED else BSplineCurve
    knots = KnotVector(t=m.t[r][0, j], k=m.order)
    return spline_cls(knots=knots, raw=m.params[r][0, i, j, : m.n_coef].copy())


class TestCreate:
    def test_constrained_base_slopes_start_live(self):
        # raw[1] < 0 would be clamped with zero gradient: the slope never moves
        for seed in range(20):
            m = KANModel.create(rng=seed)
            assert all(np.all(p[..., 1] >= 0.0) for p in m.params)

    def test_vanilla_draw_unchanged(self):
        m = KANModel.create(rng=0, mode=VANILLA)
        assert min(p[..., 1].min() for p in m.params) < 0.0


class TestMemberAxis:
    """A model holds M networks on a leading member axis; one network is M = 1."""

    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    @pytest.mark.parametrize("dims", [(3, 2, 1), (3, 3, 2, 1)])
    def test_create_is_grid_initialized(self, mode, dims):
        a = KANModel.create(dims=dims, mode=mode, rng=3)
        b = KANModel.create(dims=dims, mode=mode, rng=3).grid_initialize()
        for x, y in zip(a.params + a.t, b.params + b.t):
            assert x.tobytes() == y.tobytes() and x.shape == y.shape

    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    def test_grid_initialize_places_every_member_as_alone(self, mode):
        models = [fresh_model(seed=s, mode=mode, dims=(3, 3, 2, 1)) for s in (8, 9, 10)]
        for m, model in enumerate(models):  # domains the create-time ones do not fit
            model.params[0][..., model.n_coef] += 0.5 * m
        stack = KANModel.stack(models).grid_initialize()
        for m, model in enumerate(models):
            model.grid_initialize()
            for got, want in zip(stack.t, model.t):
                npt.assert_array_equal(got[m if len(got) > 1 else 0], want[0])

    def test_stack_collapses_equal_knots_only(self):
        models = [fresh_model(seed=s) for s in (5, 6, 7)]
        stack = KANModel.stack(models)
        assert stack.size == 3 and stack.params[0].shape == (3, 2, 3, 18)
        # layer 0 reads the grid-initialization box for every member
        assert stack.t[0].shape[0] == 1
        npt.assert_array_equal(stack.t[0], models[0].t[0])
        # layer 1's knots follow each member's layer-0 outputs
        assert stack.t[1].shape[0] == 3
        for m, model in enumerate(models):
            npt.assert_array_equal(stack.t[1][m], model.t[1][0])

    def test_members_round_trip_the_stack(self):
        models = [fresh_model(seed=s, mode=VANILLA) for s in (5, 6, 7)]
        stack = KANModel.stack(models)
        picked = stack.members([2, 0])
        npt.assert_array_equal(picked.parameter_vectors(),
                               [models[2].parameter_vectors()[0], models[0].parameter_vectors()[0]])
        assert picked.t[1].shape[0] == 2
        K = np.random.default_rng(4).uniform(-5.0, 25.0, size=(7, 3))
        for m in (0, 1, 2):
            npt.assert_array_equal(stack.members([m]).forward(K), models[m].forward(K))
        # a mask picks members too; knots the picked members share collapse
        twice = KANModel.stack([models[1], models[0], models[1]])
        assert twice.t[1].shape[0] == 3
        same = twice.members(np.array([True, False, True]))
        assert same.size == 2 and all(t.shape[0] == 1 for t in same.t)

    def test_single_network_entry_points_refuse_stacks(self, tmp_path):
        stack = KANModel.stack([fresh_model(seed=1), fresh_model(seed=2)])
        K = np.zeros((1, 3))
        for call in (lambda: stack.forward(K), lambda: stack.forward_with_input_derivatives(K),
                     stack.dumps, lambda: distill(stack)):
            with pytest.raises(ConfigurationError, match="takes one network, got 2 members"):
                call()
        with pytest.raises(ConfigurationError, match="takes one network"):
            stack.save(tmp_path / "model.ckpt")
        assert not (tmp_path / "model.ckpt").exists()
        assert stack.members([1]).dumps() == fresh_model(seed=2).dumps()


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
            w_s = m.params[0][0, 0, j, m.n_coef]
            want += softplus(w_s) * edge_spline(m, 0, 0, j).eval_extended(K[:, j])[0]
        npt.assert_allclose(m.forward(K), want, rtol=1e-12)

    def test_monotone_in_each_input(self):
        m = fresh_model(seed=4)
        assert m.forward([1.0, 0.0, 0.0]) >= m.forward([0.0, 0.0, 0.0]) - 1e-12

    def test_non_finite_input_rejected(self):
        with pytest.raises(EvaluationError):
            fresh_model().forward([np.nan, 0.0, 0.0])



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


class TestSoftplus:
    def test_within_two_ulp_of_logaddexp(self):
        mag = np.concatenate([
            np.logspace(-323, 308, 4001),  # subnormals up to near the largest double
            np.linspace(0.0, 60.0, 60001),  # where both terms matter
            np.linspace(700.0, 760.0, 601),  # exp(-x) turns subnormal, then 0
            [np.finfo(float).tiny, 5e-324],
        ])
        x = np.concatenate([mag, -mag, [0.0, -0.0]])
        got, want = softplus(x), np.logaddexp(0.0, x)
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))

    def test_infinities_exact_and_nan_propagates(self):
        npt.assert_array_equal(softplus(np.array([np.inf, -np.inf])), [np.inf, 0.0])
        assert np.isnan(softplus(np.nan))
        with np.errstate(over="raise", invalid="raise"):
            softplus(np.array([-1e308, -800.0, 0.0, 800.0, 1e308]))  # nothing overflows

    def test_into_buffers_is_the_fresh_result(self):
        x = np.linspace(-40.0, 40.0, 801)
        out, work = np.full_like(x, np.nan), np.full_like(x, np.nan)
        assert softplus(x, out=out, work=work) is out
        npt.assert_array_equal(out, softplus(x))
        npt.assert_array_equal(work, np.log1p(np.exp(-np.abs(x))))


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
        g = backward(m, np.array([[1.0, 2.0, 3.0]]), seed_w=np.zeros(1))
        npt.assert_array_equal(g, 0.0)

    def test_linear_in_seed(self):
        m = fresh_model(seed=14)
        K = np.array([[0.5, 1.0, 2.0]])
        g1 = backward(m, K, seed_w=np.ones(1))
        g3 = backward(m, K, seed_w=np.full(1, 3.0))
        npt.assert_allclose(g3, 3.0 * g1, rtol=1e-12)

    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    def test_value_seed_matches_parameter_fd(self, mode):
        m = fresh_model(seed=15, mode=mode)
        K = np.array([[0.3, 1.7, 4.0], [-1.0, 0.2, 8.0]])
        got = backward(m, K, seed_w=np.ones(2))
        fd = parameter_fd(m, lambda: m.forward(K).sum())
        npt.assert_allclose(got, fd, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    def test_gradient_seed_matches_parameter_fd(self, mode):
        m = fresh_model(seed=16, mode=mode)
        K = np.array([[0.3, 1.7, 4.0], [2.0, -0.5, 12.0]])
        rng = np.random.default_rng(17)
        seed_g = rng.normal(size=(2, 3))
        got = backward(m, K, seed_g=seed_g)

        def objective():
            _, g, _ = m.forward_with_input_derivatives(K)
            return float(np.sum(seed_g * g))

        fd = parameter_fd(m, objective)
        npt.assert_allclose(got, fd, rtol=1e-4, atol=1e-6)


class TestGridInit:
    def test_first_layer_domains(self):
        m = fresh_model(seed=18)
        for i in range(m.dims[1]):
            for j in range(3):
                npt.assert_allclose(m.domain(0, j), (-5.0, 25.0))

    def test_flat_model_degenerate_range_widened(self):
        m = flat_model()
        lo, hi = m.domain(1, 0)
        assert hi - lo >= 1e-6 * (1 - 1e-12)

    def test_second_layer_bounds_match_independent_propagation(self):
        m = fresh_model(seed=19)
        x = np.linspace(-5.0, 25.0, 100)
        # recompute the propagated per-dimension ranges by hand
        for i in range(m.dims[1]):
            vals = np.zeros(100)
            for j in range(3):
                w_s = m.params[0][0, i, j, m.n_coef]
                vals += softplus(w_s) * edge_spline(m, 0, i, j).eval_extended(x)[0]
            lo, hi = m.domain(1, i)
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
        npt.assert_array_equal(m2.parameter_vectors(), m.parameter_vectors())
        for r in range(m.n_layers):
            columns = range(m.dims[r])
            assert [m.domain(r, j) for j in columns] == [m2.domain(r, j) for j in columns]
        K = np.random.default_rng(21).uniform(-2.0, 10.0, size=(5, 3))
        npt.assert_array_equal(m.forward(K), m2.forward(K))

    def test_bad_header_rejected(self):
        with pytest.raises(DataError):
            KANModel.loads("nonsense\n")

    def test_truncated_rejected(self):
        text = fresh_model(seed=22).dumps()
        with pytest.raises(DataError):
            KANModel.loads("\n".join(text.splitlines()[:8]))

    @pytest.mark.parametrize("text", [
        # a layer without nodes: no activation records, then the end marker
        "convexkan-checkpoint v1\nmode constrained\ndims 3 0 1\norder 5\nn_coef 17\nend\n",
        fresh_model(seed=22).dumps() + "w_s 1\n",  # a line after the end marker
        # a misspelled record tag
        fresh_model(seed=22).dumps().replace("\nmode ", "\nmood ", 1),
        fresh_model(seed=22).dumps().replace("\norder ", "\nordr ", 1),
        fresh_model(seed=22).dumps().replace("\ndomain ", "\ndomian ", 1),
        fresh_model(seed=22).dumps().replace("\nw_s ", "\nxx ", 1),
        fresh_model(seed=22).dumps().replace("\nraw ", "\nfoo ", 1),
    ], ids=["zero_width", "after_end", "mood", "ordr", "domian", "xx_for_w_s", "foo_for_raw"])
    def test_bad_structure_rejected(self, text):
        with pytest.raises(DataError):
            KANModel.loads(text)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("raw", "nan"), ("raw", "inf"), ("w_s", "nan"), ("w_b", "-inf"), ("w_b", "0.5"),
            ("domain", "nan 1"), ("domain", "0 inf"), ("domain", "2 2"), ("domain", "3 1"),
            ("w_s", "0.54 123"), ("domain", "0 1 2"), ("raw", ""),
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

    def test_headers_must_follow_packing_order(self):
        text = fresh_model(seed=24).dumps()
        # a duplicated header would leave edge 0,0,1 unset, and index -1
        # would overwrite edge 0,0,2
        for bad in ("activation 0 0 0\n", "activation 0 0 -1\n"):
            with pytest.raises(DataError, match="expected activation 0,0,1"):
                KANModel.loads(text.replace("activation 0 0 1\n", bad))
        # two whole blocks swapped: every edge is set, but out of order
        lines = text.splitlines()
        first = lines.index("activation 0 0 0")
        lines[first : first + 10] = lines[first + 5 : first + 10] + lines[first : first + 5]
        with pytest.raises(DataError, match="expected activation 0,0,0"):
            KANModel.loads("\n".join(lines))

    def test_column_domains_must_agree(self):
        # edges 0,0,0 and 0,1,0 read input column 0 and share its knots
        lines = fresh_model(seed=25).dumps().splitlines()
        row = lines.index("activation 0 1 0") + 1
        assert lines[row] == "domain -5 25"
        lines[row] = "domain -5 24"
        with pytest.raises(DataError, match="activation 0,1,0: domain"):
            KANModel.loads("\n".join(lines))


# ---------------------------------------------------------------------------
# per-edge reference: every activation evaluated as a spline of its own


def edge_values(m, r, i, j, x):
    """phi, phi', phi'' of edge (r, i, j) at points x."""
    psi = edge_spline(m, r, i, j).eval_extended(x)
    w_s = m.params[r][0, i, j, m.n_coef]
    if m.mode == CONSTRAINED:
        return [softplus(w_s) * v for v in psi]
    w_b = m.params[r][0, i, j, m.n_coef + 1]
    s = sigmoid(x)
    silu = (x * s, s * (1 + x * (1 - s)), s * (1 - s) * (2 + x * (1 - 2 * s)))
    return [w_b * b + w_s * v for b, v in zip(silu, psi)]


def reference_forward(m, K):
    """W, its input gradient and Hessian, and each layer's (z, A)."""
    N, d0 = K.shape
    z, A, H = K, np.broadcast_to(np.eye(d0), (N, d0, d0)), np.zeros((N, d0, d0, d0))
    tape = []
    for r in range(m.n_layers):
        tape.append((z, A))
        n_out = m.dims[r + 1]
        y, Ay, Hy = np.zeros((N, n_out)), np.zeros((N, n_out, d0)), np.zeros((N, n_out, d0, d0))
        for i in range(n_out):
            for j in range(m.dims[r]):
                phi, dphi, d2phi = edge_values(m, r, i, j, z[:, j])
                outer = A[:, j, :, None] * A[:, j, None, :]
                y[:, i] += phi
                Ay[:, i] += dphi[:, None] * A[:, j]
                Hy[:, i] += d2phi[:, None, None] * outer + dphi[:, None, None] * H[:, j]
        z, A, H = y, Ay, Hy
    return z[:, 0], A[:, 0], H[:, 0], tape


def reference_backward(m, K, seed_w, seed_g):
    """Gradient of sum(seed_w * W + seed_g . grad W) by reverse accumulation
    edge by edge."""
    _, _, _, tape = reference_forward(m, K)
    n = m.n_coef
    grads = [np.zeros_like(p[0]) for p in m.params]
    zbar, Abar = seed_w[:, None], seed_g[:, None, :]
    for r in reversed(range(m.n_layers)):
        z, A = tape[r]
        new_zbar, new_Abar = np.zeros(z.shape), np.zeros(A.shape)
        for i in range(m.dims[r + 1]):
            for j in range(m.dims[r]):
                x = z[:, j]
                spline = edge_spline(m, r, i, j)
                b0, b1, _ = spline.design_rows(x)
                psi, dpsi, _ = spline.eval_extended(x)
                _, dphi, d2phi = edge_values(m, r, i, j, x)
                yb, mb = zbar[:, i], np.sum(Abar[:, i] * A[:, j], axis=1)
                w_s = m.params[r][0, i, j, n]
                g = grads[r][i, j]
                if m.mode == CONSTRAINED:
                    g[:n] += softplus(w_s) * spline.coeff_vjp(b0.T @ yb + b1.T @ mb)
                    g[n] += sigmoid(w_s) * (yb @ psi + mb @ dpsi)
                else:
                    s = sigmoid(x)
                    g[:n] += w_s * (b0.T @ yb + b1.T @ mb)
                    g[n] += yb @ psi + mb @ dpsi
                    g[n + 1] += yb @ (x * s) + mb @ (s * (1 + x * (1 - s)))
                new_zbar[:, j] += yb * dphi + mb * d2phi
                new_Abar[:, j] += dphi[:, None] * Abar[:, i]
        zbar, Abar = new_zbar, new_Abar
    return np.concatenate([g.ravel() for g in grads])


def assert_close_relative(got, want, rtol=1e-12):
    npt.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


class TestAgainstPerEdgeReference:
    @pytest.mark.parametrize("mode", [CONSTRAINED, VANILLA])
    @pytest.mark.parametrize("dims", [(3, 2, 1), (3, 4, 3, 1), (3, 1)])
    def test_forward_derivatives_and_gradients(self, mode, dims):
        for seed in range(3):
            m = fresh_model(seed=30 + seed, mode=mode, dims=dims)
            rng = np.random.default_rng(seed)
            # reaches past the first layer's domain on both sides
            K = rng.uniform(-8.0, 30.0, size=(40, 3))
            W, g, H, _ = reference_forward(m, K)
            assert_close_relative(m.forward(K), W)
            for got, want in zip(m.forward_with_input_derivatives(K), (W, g, H)):
                assert_close_relative(got, want)
            seed_w, seed_g = rng.normal(size=40), rng.normal(size=(40, 3))
            assert_close_relative(
                backward(m, K, seed_w=seed_w),
                reference_backward(m, K, seed_w, np.zeros((40, 3))),
            )
            assert_close_relative(
                backward(m, K, seed_g=seed_g),
                reference_backward(m, K, np.zeros(40), seed_g),
            )
