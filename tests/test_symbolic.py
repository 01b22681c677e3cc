"""Symbolic distillation: candidate fitting, selection scoring, expression
assembly, serialization, and the distilled material model."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from convexkan.errors import ConfigurationError, DataError
from convexkan.network import CONSTRAINED, VANILLA, KANModel, W_S_UNIT, softplus
from convexkan.symbolic import (
    LIBRARY,
    FittedActivation,
    SymbolicEnergy,
    SymbolicMaterial,
    distill,
    fit_activation,
    fit_candidate,
    select_candidate,
    selection_score,
)


def by_name(name):
    return next(c for c in LIBRARY if c.name == name)


class TestLibrary:
    def test_members_and_complexities(self):
        assert [c.name for c in LIBRARY] == [
            "x", "exp", "softplus", "softplus^2", "softplus^3", "softplus^4",
        ]
        assert [c.complexity for c in LIBRARY] == [1, 2, 2, 2, 2, 2]

    @pytest.mark.parametrize("cand", LIBRARY, ids=lambda c: c.name)
    def test_all_convex_nondecreasing(self, cand):
        x = np.linspace(-6.0, 6.0, 601)
        y = cand(x)
        d = np.diff(y)
        assert d.min() >= -1e-12
        assert np.diff(d).min() >= -1e-10


class TestFitting:
    def test_affine_target_exact(self):
        fit = fit_candidate(lambda x: 2.0 * x + 1.0, (-3.0, 5.0), by_name("x"))
        # slope = c*a, intercept = c*b + d
        npt.assert_allclose(fit.c * fit.a, 2.0, rtol=1e-12)
        npt.assert_allclose(fit.c * fit.b + fit.d, 1.0, atol=1e-12)
        assert fit.r2 >= 1.0 - 1e-12

    def test_softplus_squared_self_fit(self):
        cand = by_name("softplus^2")
        fit = fit_candidate(lambda x: softplus(x) ** 2, (-4.0, 4.0), cand)
        assert abs(fit.a - 1.0) < 1e-3
        assert abs(fit.b) < 1e-3
        assert abs(fit.c - 1.0) < 1e-3
        assert fit.r2 > 1.0 - 1e-9

    def test_exp_self_fit(self):
        fit = fit_candidate(lambda x: 3.0 * np.exp(0.5 * x), (-2.0, 3.0), by_name("exp"))
        assert abs(fit.a - 0.5) < 1e-2
        assert fit.r2 > 1.0 - 1e-6

    def test_flat_target_zero_variance_guard(self):
        for cand in LIBRARY:
            fit = fit_candidate(lambda x: np.full_like(x, 2.5), (0.0, 1.0), cand)
            assert fit.r2 == 1.0
            x = np.linspace(0.0, 1.0, 7)
            npt.assert_allclose(fit(x), 2.5, atol=1e-9)

    def test_negative_slope_clamped(self):
        # decreasing target: convex non-decreasing ansatz must flatten (c = 0)
        fit = fit_candidate(lambda x: -x, (0.0, 1.0), by_name("softplus"))
        assert fit.c == 0.0
        npt.assert_allclose(fit.d, -0.5, atol=1e-12)  # mean of the target

    def test_constraints_always_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            coef = rng.uniform(0.0, 2.0, size=3)
            f = lambda x: coef[0] * softplus(x) + coef[1] * x + coef[2]
            for cand in LIBRARY:
                fit = fit_candidate(f, (-5.0, 5.0), cand)
                assert fit.a >= 0.0 and fit.c >= 0.0

    def test_degenerate_domain(self):
        with pytest.raises(ConfigurationError):
            fit_candidate(lambda x: x, (1.0, 1.0), by_name("x"))


class TestSelection:
    def make(self, name, r2):
        return FittedActivation(by_name(name), a=1.0, b=0.0, c=1.0, d=0.0, r2=r2)

    def test_prefers_lower_complexity_at_equal_r2(self):
        fits = [self.make("x", 0.99), self.make("softplus", 0.99)]
        assert select_candidate(fits).candidate.name == "x"

    def test_prefers_better_r2_at_equal_complexity(self):
        fits = [self.make("exp", 0.9), self.make("softplus", 1.0)]
        assert select_candidate(fits).candidate.name == "softplus"

    def test_hand_evaluated_scores(self):
        # lambda=0.8: x with R^2=0.98 vs softplus^2 with R^2=0.999
        f1 = self.make("x", 0.98)
        f2 = self.make("softplus^2", 0.999)
        s1 = 0.8 * 1 + 0.2 * math.log2(1 + 1e-5 - 0.98)
        s2 = 0.8 * 2 + 0.2 * math.log2(1 + 1e-5 - 0.999)
        npt.assert_allclose(selection_score(f1), s1, rtol=1e-12)
        npt.assert_allclose(selection_score(f2), s2, rtol=1e-12)
        want = "x" if s1 < s2 else "softplus^2"
        assert select_candidate([f1, f2]).candidate.name == want

    def test_empty_list(self):
        with pytest.raises(ConfigurationError):
            select_candidate([])

    def test_deterministic(self):
        fits = [self.make(c.name, 0.95) for c in LIBRARY]
        assert select_candidate(fits) is select_candidate(fits)

    def test_fit_activation_recovers_library_member(self):
        fit = fit_activation(lambda x: 1.5 * softplus(x) ** 3 + 0.2, (-3.0, 3.0))
        assert fit.candidate.name == "softplus^3"
        assert fit.r2 > 1.0 - 1e-9


def linear_network(alpha=(0.5, 0.0, 1.5)):
    """Constrained model whose energy is exactly alpha . K (plus a constant).

    Linear control points give a linear spline with slope raw[1] / (knot
    spacing), so raw[1] is scaled by the spacing to hit the wanted slope.
    """
    m = KANModel.create(dims=(3, 2, 1), rng=0)
    n = m.n_coef
    for p in m.params:
        p[..., :n] = 0.0
        p[..., n] = W_S_UNIT  # softplus(w_s) = 1
    for j in range(3):  # first output node carries alpha . K
        m.params[0][0, j, 1] = alpha[j] * m.knots[0][j].s
    m.grid_initialize()
    m.params[1][0, 0, 1] = m.knots[1][0].s  # identity pass-through of the first node
    return m


class TestDistill:
    def test_linear_model_collapses_to_linear_expression(self):
        model = linear_network((0.5, 0.0, 1.5))
        energy = distill(model)
        rng = np.random.default_rng(1)
        K = rng.uniform(-5.0, 25.0, size=(200, 3))
        npt.assert_allclose(energy.value(K), model.forward(K), atol=1e-6)
        # pure linear-in-K expression: coefficients explicit, no nonlinear terms
        assert not energy.terms
        npt.assert_allclose(energy.coeffs, [0.5, 0.0, 1.5], atol=1e-6)
        assert energy.coeffs.min() >= 0.0
        assert energy.parity_r2 > 1.0 - 1e-9

    def test_random_model_parity(self):
        model = KANModel.create(rng=7).grid_initialize()
        energy = distill(model)
        assert energy.parity_r2 > 0.95
        assert len(energy.activation_fits) == 8
        for fit in energy.activation_fits.values():
            assert fit.a >= 0.0 and fit.c >= 0.0

    def test_distilled_expression_stays_convex_monotone(self):
        energy = distill(KANModel.create(rng=11).grid_initialize())
        rng = np.random.default_rng(2)
        for _ in range(100):
            K = rng.uniform(-5.0, 25.0, size=3)
            _, g, H = energy.vgh(K)
            assert g.min() >= -1e-10
            assert np.linalg.eigvalsh(H).min() >= -1e-8

    def test_vgh_matches_fd(self):
        energy = distill(KANModel.create(rng=13).grid_initialize())
        K = np.array([1.0, 4.0, 0.5])
        v, g, H = energy.vgh(K)
        npt.assert_allclose(v, energy.value(K[None])[0], rtol=1e-12)
        h = 1e-6
        for m in range(3):
            e = np.zeros(3)
            e[m] = h
            fd = (energy.value((K + e)[None])[0] - energy.value((K - e)[None])[0]) / (2 * h)
            npt.assert_allclose(g[m], fd, rtol=1e-5, atol=1e-9)
            gp = energy.vgh(K + e)[1]
            gm = energy.vgh(K - e)[1]
            npt.assert_allclose(H[:, m], (gp - gm) / (2 * h), rtol=1e-4, atol=1e-8)

    def test_vanilla_model_rejected(self):
        with pytest.raises(ConfigurationError):
            distill(KANModel.create(rng=0, mode=VANILLA).grid_initialize())

    def test_deterministic(self):
        m = KANModel.create(rng=21).grid_initialize()
        assert distill(m).dumps() == distill(m).dumps()


class TestSerialization:
    def test_round_trip_values(self):
        energy = distill(KANModel.create(rng=17).grid_initialize())
        text = energy.dumps()
        assert text.startswith("convexkan-symbolic v1\n")
        back = SymbolicEnergy.loads(text)
        rng = np.random.default_rng(3)
        K = rng.uniform(-5.0, 25.0, size=(50, 3))
        npt.assert_allclose(back.value(K), energy.value(K), rtol=1e-12, atol=1e-12)
        for k in range(5):
            v1, g1, h1 = energy.vgh(K[k])
            v2, g2, h2 = back.vgh(K[k])
            npt.assert_allclose((v1, *g1), (v2, *g2), rtol=1e-12)
            npt.assert_allclose(h1, h2, rtol=1e-12, atol=1e-15)

    def test_infix_contains_coefficients(self):
        energy = distill(linear_network((0.5, 0.0, 1.5)))
        text = energy.infix()
        assert "K1" in text and "K3" in text

    def test_bad_header(self):
        with pytest.raises(DataError):
            SymbolicEnergy.loads("nope\n")

    def test_truncated_expression(self):
        with pytest.raises(DataError):
            SymbolicEnergy.loads("convexkan-symbolic v1\nenergy add 2 const 1\n")


class TestSymbolicMaterial:
    def test_stress_matches_fd_of_energy(self):
        energy = distill(KANModel.create(rng=19).grid_initialize())
        mat = SymbolicMaterial(energy)
        rng = np.random.default_rng(4)
        F = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
        P = mat.stress(F)
        h = 1e-6
        for i in range(3):
            for j in range(3):
                Fp, Fm = F.copy(), F.copy()
                Fp[i, j] += h
                Fm[i, j] -= h
                fd = (mat.energy(Fp) - mat.energy(Fm)) / (2 * h)
                npt.assert_allclose(P[i, j], fd, rtol=1e-5, atol=1e-8)

    def test_identity_stress_zero_even_with_offset(self):
        energy = distill(KANModel.create(rng=23).grid_initialize())
        mat = SymbolicMaterial(energy)
        npt.assert_allclose(mat.stress(np.eye(3)), 0.0, atol=1e-10)

    def test_offset_flag(self):
        energy = distill(KANModel.create(rng=23).grid_initialize())
        raw = SymbolicMaterial(energy).energy(np.eye(3))
        shifted = SymbolicMaterial(energy, zero_at_identity=True).energy(np.eye(3))
        assert abs(shifted) < 1e-12
        # the unshifted form generally carries the distilled constant
        npt.assert_allclose(raw - shifted, energy.vgh(np.zeros(3))[0], rtol=1e-12)
