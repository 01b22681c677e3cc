"""Symbolic distillation: candidate fitting, selection scoring, expression
assembly, serialization, and the distilled material model."""
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import convexkan.symbolic as symbolic
from convexkan.errors import ConfigurationError, DataError
from convexkan.network import CONSTRAINED, VANILLA, KANModel, W_S_UNIT, softplus
from convexkan.symbolic import (
    FIT_POINTS,
    LIBRARY,
    FittedActivation,
    SymbolicEnergy,
    SymbolicMaterial,
    _Buffers,
    _fit_cd,
    _fit_samples,
    _ipow,
    _r2,
    _samples,
    distill,
    fit_activation,
    select_candidate,
    selection_score,
)

DATA = Path(__file__).parent / "data"


def by_name(name):
    return next(c for c in LIBRARY if c.name == name)


def value(cand, x):
    """The library member f at x."""
    return cand.derivatives(x)[0]


def fitted(fit, x):
    """The fitted activation c * f(a x + b) + d at x."""
    return fit.c * value(fit.candidate, fit.a * np.asarray(x) + fit.b) + fit.d


def fit_alone(phi, domain, cand):
    """One candidate fitted to phi on its own, in the grid search that
    fit_activation runs for the whole library."""
    return _fit_samples(*_samples(phi, domain), (cand,), _Buffers())[0]


class TestLibrary:
    def test_members_and_complexities(self):
        assert [c.name for c in LIBRARY] == [
            "x", "exp", "softplus", "softplus^2", "softplus^3", "softplus^4",
        ]
        assert [c.complexity for c in LIBRARY] == [1, 2, 2, 2, 2, 2]

    @pytest.mark.parametrize("cand", LIBRARY, ids=lambda c: c.name)
    def test_all_convex_nondecreasing(self, cand):
        x = np.linspace(-6.0, 6.0, 601)
        y = value(cand, x)
        d = np.diff(y)
        assert d.min() >= -1e-12
        assert np.diff(d).min() >= -1e-10

    @pytest.mark.parametrize("p", [-1, 5])
    def test_ipow_refuses_powers_outside_zero_to_four(self, p):
        with pytest.raises(ConfigurationError):
            _ipow(np.linspace(0.5, 2.0, 4), p)

    @pytest.mark.parametrize("p", range(5))
    def test_ipow_into_a_buffer_is_the_fresh_result(self, p):
        s = softplus(np.linspace(-30.0, 30.0, 1201))
        out = np.full_like(s, np.nan)
        assert _ipow(s, p, out=out) is out
        npt.assert_array_equal(out, _ipow(s, p))

    @pytest.mark.parametrize("cand", LIBRARY[2:], ids=lambda c: c.name)
    def test_softplus_powers_by_multiplication(self, cand):
        x = np.linspace(-30.0, 30.0, 1201)
        p, s = cand.power, softplus(x)
        f, f1, f2 = cand.derivatives(x)
        npt.assert_allclose(f, s**p, rtol=4e-16 * p, atol=0.0)
        sig = 1.0 / (1.0 + np.exp(-x))
        npt.assert_allclose(f1, p * s ** (p - 1) * sig, rtol=1e-15 * p, atol=0.0)

    @pytest.mark.parametrize("cand", LIBRARY[2:], ids=lambda c: c.name)
    def test_derivatives_finite_where_softplus_underflows(self, cand):
        # softplus(-800) is 0, where s ** (p - 2) would be 1 / 0 at p = 1
        with np.errstate(divide="raise", invalid="raise"):
            f, f1, f2 = cand.derivatives(np.array([-800.0, -40.0]))
        assert np.all(np.isfinite(f2)) and np.all(f2 >= 0.0)
        npt.assert_array_equal([f[0], f1[0], f2[0]], 0.0)


class TestFitting:
    def test_affine_target_exact(self):
        fit = fit_alone(lambda x: 2.0 * x + 1.0, (-3.0, 5.0), by_name("x"))
        # slope = c*a, intercept = c*b + d
        npt.assert_allclose(fit.c * fit.a, 2.0, rtol=1e-12)
        npt.assert_allclose(fit.c * fit.b + fit.d, 1.0, atol=1e-12)
        assert fit.r2 >= 1.0 - 1e-12

    def test_target_constant_up_to_rounding_gets_no_slope(self):
        # a constrained activation with no slope or curvature is constant,
        # but its samples vary in the last bits
        rng = np.random.default_rng(5)
        for _ in range(200):
            base = rng.uniform(-30.0, 30.0)
            y = base + abs(base) * 2.2e-16 * rng.integers(-2, 3, size=FIT_POINTS)
            fit = fit_alone(lambda x: y, (-1.0, 2.0), by_name("x"))
            assert fit.c == 0.0 and fit.r2 == 1.0
            npt.assert_allclose(fit.d, base, rtol=1e-15)
        assert fit_activation(lambda x: y, (-1.0, 2.0), _Buffers()).c == 0.0

    def test_softplus_squared_self_fit(self):
        cand = by_name("softplus^2")
        fit = fit_alone(lambda x: softplus(x) ** 2, (-4.0, 4.0), cand)
        assert abs(fit.a - 1.0) < 1e-3
        assert abs(fit.b) < 1e-3
        assert abs(fit.c - 1.0) < 1e-3
        assert fit.r2 > 1.0 - 1e-9

    def test_exp_self_fit(self):
        fit = fit_alone(lambda x: 3.0 * np.exp(0.5 * x), (-2.0, 3.0), by_name("exp"))
        assert abs(fit.a - 0.5) < 1e-2
        assert fit.r2 > 1.0 - 1e-6

    def test_flat_target_zero_variance_guard(self):
        for cand in LIBRARY:
            fit = fit_alone(lambda x: np.full_like(x, 2.5), (0.0, 1.0), cand)
            assert fit.r2 == 1.0
            x = np.linspace(0.0, 1.0, 7)
            npt.assert_allclose(fitted(fit, x), 2.5, atol=1e-9)

    def test_negative_slope_clamped(self):
        # decreasing target: convex non-decreasing ansatz must flatten (c = 0)
        fit = fit_alone(lambda x: -x, (0.0, 1.0), by_name("softplus"))
        assert fit.c == 0.0
        npt.assert_allclose(fit.d, -0.5, atol=1e-12)  # mean of the target

    def test_constraints_always_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            coef = rng.uniform(0.0, 2.0, size=3)
            f = lambda x: coef[0] * softplus(x) + coef[1] * x + coef[2]
            for cand in LIBRARY:
                fit = fit_alone(f, (-5.0, 5.0), cand)
                assert fit.a >= 0.0 and fit.c >= 0.0

    def test_degenerate_domain(self):
        with pytest.raises(ConfigurationError):
            fit_alone(lambda x: x, (1.0, 1.0), by_name("x"))


def reference_cd(fx, y):
    """Scalar least squares for (c, d) in c*fx + d ~ y with c >= 0."""
    n = fx.size
    sf, sy = fx.sum(), y.sum()
    sff, sfy = float(fx @ fx), float(fx @ y)
    det = n * sff - sf * sf
    if abs(det) < 1e-30:
        c = 0.0
    else:
        c = (n * sfy - sf * sy) / det
    if c < 0.0 or not np.isfinite(c):
        c = 0.0
    d = (sy - c * sf) / n
    resid = float(np.sum((c * fx + d - y) ** 2))
    return c, d, resid


def reference_fit(x, y, candidate):
    """The scalar grid search that the array fit replaced: one (a, b) point
    at a time, 21 x 21 points, three rounds shrinking by 5.  Returns
    (residual, a, b, c, d)."""
    if candidate.name == "x":
        c, d, resid = reference_cd(x, y)
        return resid, 1.0, 0.0, c, d
    a_c, b_c, a_w, b_w = 5.0, 0.0, 5.0, 10.0
    best = None
    for _ in range(3):
        a_grid = np.clip(np.linspace(a_c - a_w, a_c + a_w, 21), 0.0, 10.0)
        b_grid = np.clip(np.linspace(b_c - b_w, b_c + b_w, 21), -10.0, 10.0)
        for a in a_grid:
            with np.errstate(over="ignore"):
                fvals = value(candidate, a * x[:, None] + b_grid[None, :])
            for k, b in enumerate(b_grid):
                fx = fvals[:, k]
                if not np.all(np.isfinite(fx)) or np.abs(fx).max() > 1e120:
                    continue
                c, d, resid = reference_cd(fx, y)
                if best is None or resid < best[0]:
                    best = (resid, float(a), float(b), c, d)
        _, a_c, b_c, _, _ = best
        a_w /= 5.0
        b_w /= 5.0
    return best


REFERENCE_TARGETS = {
    **{
        f"self-{c.name}": (lambda x, c=c: 1.3 * value(c, 0.7 * x + 0.4) + 0.2)
        for c in LIBRARY
    },
    "saturating-softplus": lambda x: softplus(x) - softplus(x - 2.0),
    "flat": lambda x: np.full_like(x, 2.5),
    "decreasing": lambda x: -x,
}


class TestArrayFitAgainstScalarReference:
    @pytest.mark.parametrize("target", REFERENCE_TARGETS)
    def test_same_selection_r2_and_residual(self, target):
        phi, domain = REFERENCE_TARGETS[target], (-4.0, 4.0)
        x = np.linspace(*domain, FIT_POINTS)
        y = phi(x)
        # a near-exact fit's residual is rounding noise of the normal
        # equations in either code (softplus on the linear target differs by
        # 1e-9 of itself, 1e-21 of the target's variance), so residuals are
        # also compared on the scale of that variance
        floor = 1e-12 * np.sum((y - y.mean()) ** 2) + 1e-28
        fits, refs = [], []
        for cand in LIBRARY:
            fit = fit_alone(phi, domain, cand)
            resid, a, b, c, d = reference_fit(x, y, cand)
            ref = FittedActivation(cand, a=a, b=b, c=c, d=d, r2=_r2(y, resid))
            fits.append(fit)
            refs.append(ref)
            npt.assert_allclose(fit.r2, ref.r2, rtol=0.0, atol=1e-12)
            npt.assert_allclose(
                np.sum((fitted(fit, x) - y) ** 2), np.sum((fitted(ref, x) - y) ** 2),
                rtol=1e-12, atol=floor,
            )
            if (fit.a, fit.b) != (a, b):
                # allowed only where the reference's own residuals tie
                tie = reference_cd(value(cand, fit.a * x + fit.b), y)[2]
                npt.assert_allclose(tie, resid, rtol=1e-12, atol=floor)
        assert select_candidate(fits).candidate == select_candidate(refs).candidate

    @pytest.mark.parametrize("v", [0.1, 1.3, math.exp(3.7), float(softplus(-10.0)), 7.0 / 3.0])
    def test_constant_column_gives_zero_slope(self, v):
        # the a = 0 grid column: f(b) at every sample point
        y = np.linspace(-1.0, 2.0, FIT_POINTS) ** 2
        F = np.full((2, FIT_POINTS), v)
        F[1] = np.linspace(0.0, 1.0, FIT_POINTS)
        c, d, resid = _fit_cd(F, y)
        assert c[0] == 0.0
        npt.assert_allclose(d[0], y.mean(), rtol=1e-14)
        npt.assert_allclose(resid[0], np.sum((y - y.mean()) ** 2), rtol=1e-12)
        assert c[1] > 0.0  # the constant row does not disturb its neighbours

    @staticmethod
    def screened_fit_by_two_passes(F, y):
        """The screening as two passes of their own: the overflow screen over
        |F| and the constant-row test over F == F[:, :1], each building an
        (rows, points) temporary, around the same normal equations."""
        F = F.copy()
        bad = ~(np.abs(F).max(axis=1) <= 1e120)
        F[bad] = 0.0
        n = y.size
        sf, sy = F.sum(axis=1), y.sum()
        sff, sfy = np.einsum("kn,kn->k", F, F), F @ y
        det = n * sff - sf * sf
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (n * sfy - sf * sy) / det
        flat = (np.abs(det) < 1e-30) | np.all(F == F[:, :1], axis=1)
        c[flat | ~(np.isfinite(c) & (c >= 0.0))] = 0.0
        d = (sy - c * sf) / n
        r = F * c[:, None] + d[:, None] - y
        resid = np.einsum("kn,kn->k", r, r)
        resid[bad | ~np.isfinite(resid)] = np.inf
        return c, d, resid

    def test_screened_rows_match_two_pass_screening(self):
        y = np.linspace(-1.0, 2.0, FIT_POINTS) ** 2
        ramp = np.linspace(0.0, 1.0, FIT_POINTS)
        rows = {
            "constant": np.full(FIT_POINTS, 1.3),
            "zeros of both signs": np.where(ramp < 0.5, 0.0, -0.0),
            "nan": np.where(ramp < 0.5, ramp, np.nan),
            "+inf": np.where(ramp < 0.5, ramp, np.inf),
            "-inf": np.where(ramp < 0.5, ramp, -np.inf),
            "above 1e120": np.where(ramp < 0.5, ramp, 1e121),
            "below -1e120": np.where(ramp < 0.5, ramp, -1e121),
            "at 1e120": 1e120 * ramp,
            "ramp": ramp,
            "negative slope": -ramp,
        }
        F = np.array(list(rows.values()))
        got, want = _fit_cd(F.copy(), y), self.screened_fit_by_two_passes(F, y)
        for name, g, w in zip(("c", "d", "resid"), got, want):
            npt.assert_array_equal(g, w, err_msg=name)
        resid = dict(zip(rows, got[2]))
        for name in ("nan", "+inf", "-inf", "above 1e120", "below -1e120"):
            assert resid[name] == np.inf, name
        assert np.isfinite(resid["at 1e120"]) and got[0][0] == got[0][1] == 0.0


SHARED_ROUND_TARGETS = {
    "softplus-cubed": (lambda x: 1.5 * softplus(0.8 * x - 1.0) ** 3 + 0.2, (-3.0, 3.0)),
    "saturating-softplus": (lambda x: softplus(x) - softplus(x - 2.0), (-4.0, 4.0)),
    "decreasing": (lambda x: -x, (0.0, 1.0)),
    "flat": (lambda x: np.full_like(x, 2.5), (0.0, 1.0)),
    # past x = 27, exp(a x + b) passes 1e120 on the a = 10 rows of round 1
    "wide-exp": (lambda x: np.exp(0.1 * x) + softplus(0.5 * x), (-5.0, 30.0)),
}


class TestSharedRoundOne:
    """fit_activation evaluates round 1's grid and its softplus once for
    every candidate, in buffers that successive calls share: each candidate
    must still get the fit it gets alone."""

    def test_same_fits_as_independent_candidates(self, monkeypatch):
        screened = []

        def spy(F, y):
            screened.append(bool(np.any(~(np.abs(F) <= 1e120))))
            return _fit_cd(F, y)

        monkeypatch.setattr(symbolic, "_fit_cd", spy)
        buffers = _Buffers()
        for name, (phi, domain) in SHARED_ROUND_TARGETS.items():
            screened.clear()
            shared = _fit_samples(*_samples(phi, domain), LIBRARY, buffers)
            assert any(screened) == (name == "wide-exp"), name
            alone = [fit_alone(phi, domain, cand) for cand in LIBRARY]
            for got, want in zip(shared, alone):
                assert (got.candidate, got.a, got.b, got.c, got.d, got.r2) == (
                    want.candidate, want.a, want.b, want.c, want.d, want.r2), name
            got, want = fit_activation(phi, domain, buffers), select_candidate(alone)
            assert (got.candidate, got.a, got.b, got.c, got.d, got.r2) == (
                want.candidate, want.a, want.b, want.c, want.d, want.r2), name

    @pytest.mark.parametrize("cand", LIBRARY[1:], ids=lambda c: c.name)
    def test_buffer_values_are_the_candidate(self, cand):
        # the grid search fits exactly the function that .sym files evaluate
        buffers, x = _Buffers(), np.linspace(-5.0, 30.0, FIT_POINTS)
        a_grid, b_grid = np.linspace(0.0, 10.0, 21), np.linspace(-10.0, 10.0, 21)
        buffers.arguments(x, a_grid, b_grid, with_softplus=cand.power > 0)
        with np.errstate(over="ignore"):
            want = value(cand, a_grid[:, None, None] * x + b_grid[:, None])
        npt.assert_array_equal(buffers.values(cand), want)


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
        fit = fit_activation(lambda x: 1.5 * softplus(x) ** 3 + 0.2, (-3.0, 3.0), _Buffers())
        assert fit.candidate.name == "softplus^3"
        assert fit.r2 > 1.0 - 1e-9

    def test_fit_activation_samples_target_once(self):
        calls = []

        def phi(x):
            calls.append(np.array(x))
            return softplus(0.8 * x - 1.0) ** 2

        fit = fit_activation(phi, (-3.0, 3.0), _Buffers())
        assert len(calls) == 1
        npt.assert_array_equal(calls[0], np.linspace(-3.0, 3.0, FIT_POINTS))
        # the selection is the one of fitting every candidate on its own
        alone = select_candidate([fit_alone(phi, (-3.0, 3.0), c) for c in LIBRARY])
        assert (fit.candidate, fit.a, fit.b, fit.c, fit.d, fit.r2) == (
            alone.candidate, alone.a, alone.b, alone.c, alone.d, alone.r2)


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
    def spacing(r, j):
        return m.t[r][0, j, 1] - m.t[r][0, j, 0]

    for j in range(3):  # first output node carries alpha . K
        m.params[0][0, 0, j, 1] = alpha[j] * spacing(0, j)
    m.grid_initialize()
    m.params[1][0, 0, 0, 1] = spacing(1, 0)  # identity pass-through of the first node
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
        model = KANModel.create(rng=7)
        energy = distill(model)
        assert energy.parity_r2 > 0.95
        assert len(energy.activation_fits) == 8
        for fit in energy.activation_fits.values():
            assert fit.a >= 0.0 and fit.c >= 0.0

    def test_distilled_expression_stays_convex_monotone(self):
        energy = distill(KANModel.create(rng=11))
        rng = np.random.default_rng(2)
        for _ in range(100):
            K = rng.uniform(-5.0, 25.0, size=3)
            _, g, H = energy.vgh(K)
            assert g.min() >= -1e-10
            assert np.linalg.eigvalsh(H).min() >= -1e-8

    def test_vgh_matches_fd(self):
        energy = distill(KANModel.create(rng=13))
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
            distill(KANModel.create(rng=0, mode=VANILLA))

    def test_deterministic(self):
        m = KANModel.create(rng=21)
        assert distill(m).dumps() == distill(m).dumps()

    @pytest.mark.parametrize("lam", [-0.1, 1.0 + 1e-9, 2.0, math.nan, math.inf])
    def test_lambda_sym_outside_unit_interval_rejected(self, lam):
        # above 1 the (1 - lambda) factor turns negative and a worse R^2 scores better
        with pytest.raises(ConfigurationError):
            distill(KANModel.create(rng=0), lambda_sym=lam)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_lambda_sym_end_points_accepted(self, lam):
        energy = distill(KANModel.create(rng=0), lambda_sym=lam)
        assert math.isfinite(energy.parity_r2)


def activation_samples(model, r, i, j):
    """The fit samples of activation (r, i, j), as distill draws them."""
    x = np.linspace(*model.domain(r, j), FIT_POINTS)
    z = np.broadcast_to(x, (1, model.dims[r], FIT_POINTS))
    return x, model._edges(r, z)[0][0, 0, j, :, i]


class TestDistillAgainstReference:
    """``distill_reference_v1.npz`` (see ``make_distill_reference.py``) was
    written by the fit that sampled each activation once per candidate and
    evaluated softplus as ``np.logaddexp``; the fit may move by rounding only."""

    REF = np.load(DATA / "distill_reference_v1.npz")

    @pytest.mark.parametrize("m", range(len(REF["seeds"])))
    def test_same_candidates_r2_and_energy(self, m):
        ref = self.REF
        model = KANModel.create(rng=int(ref["seeds"][m]))
        energy = distill(model)
        keys = sorted(energy.activation_fits)
        assert [LIBRARY.index(energy.activation_fits[k].candidate) for k in keys] == list(
            ref["candidate"][m]
        )
        for n, k in enumerate(keys):
            fit = energy.activation_fits[k]
            npt.assert_allclose(fit.r2, ref["r2"][m, n], rtol=0.0, atol=1e-12)
            if (fit.a, fit.b) != tuple(ref["abcd"][m, n, :2]):
                # allowed only where the reference's own residuals tie
                x, y = activation_samples(model, *k)
                floor = 1e-12 * np.sum((y - y.mean()) ** 2) + 1e-28
                npt.assert_allclose(
                    np.sum((fitted(fit, x) - y) ** 2), ref["resid"][m, n], rtol=1e-12,
                    atol=floor,
                )
        v, g, h = energy.vgh(ref["K"])
        iu = np.triu_indices(3)
        for got, want in ((v, ref["W"][m]), (g, ref["G"][m]),
                          (h[:, iu[0], iu[1]], ref["H_upper"][m])):
            npt.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
        npt.assert_array_equal(h, np.swapaxes(h, 1, 2))
        npt.assert_allclose(energy.parity_r2, ref["parity_r2"][m], rtol=0.0, atol=1e-12)


class TestSerialization:
    def test_round_trip_values(self):
        energy = distill(KANModel.create(rng=17))
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

    @pytest.mark.parametrize(
        "expr",
        [
            "affine 0 0.5",  # short affine: used to broadcast 0.5 to every K
            "add 2 affine 0 0.5 scaled 1 0 exp var K1",
            "affine nan 0.5 0 1.5",
            "affine 0 0.5 0 inf",
            "scaled inf 0 softplus 1 var K1",
            "scaled 1 -inf exp var K2",
            "softplus -2 var K1",  # would make dW/dK1 negative
            "softplus 0 var K1",
            "softplus 5 affine 0 1 0 0",  # the library, and _ipow, stop at 4
            "softplus 1.5 var K1",
            "add 0",  # used to read as the zero energy
            "add -3",
            "var K4",
            "var K1 var K2",  # trailing tokens
        ],
    )
    def test_malformed_expression_rejected(self, expr):
        with pytest.raises(DataError):
            SymbolicEnergy.loads(f"convexkan-symbolic v1\nenergy {expr}\n")

    @pytest.mark.parametrize(
        "expr",
        [
            # loaded before, with dW/dK1 = -1.23 at K = (1, 2, 3)
            "add 2 scaled -1 0 softplus 1 var K1 affine 0 -0.5 0 0",
            "scaled -1 0 softplus 1 var K1",
            "scaled -1e-300 2 exp var K3",
            "affine 0 0.5 -1e-3 1.5",
            "scaled 2 0 exp affine 0 0 0 -0.1",  # inside a term
        ],
    )
    def test_negative_weight_rejected(self, expr):
        with pytest.raises(DataError, match="negative"):
            SymbolicEnergy.loads(f"convexkan-symbolic v1\nenergy {expr}\n")

    def test_negative_constant_and_shift_accepted(self):
        text = "add 2 scaled 0.5 -3 exp affine -2 0.1 0 0 affine -1 0 0.2 0"
        energy = SymbolicEnergy.loads(f"convexkan-symbolic v1\nenergy {text}\n")
        K = np.array([1.0, 2.0, 3.0])
        v, g, _ = energy.vgh(K)
        npt.assert_allclose(v, 0.5 * np.exp(-2.0 + 0.1) - 3.0 - 1.0 + 0.4, rtol=1e-14)
        npt.assert_allclose(g, [0.05 * np.exp(-1.9), 0.2, 0.0], rtol=1e-14)


# W, dW/dK and d2W/dK2 of tests/data/distilled_v1.sym, written and evaluated
# by the expression-tree implementation that first defined the format
V1_K = np.array(
    [[0.0, 0.0, 0.0], [1.0, 4.0, 0.5], [-5.0, -5.0, -5.0], [25.0, 25.0, 25.0], [3.0, -2.0, 12.0]]
)
V1_W = np.array(
    [0.6569842741927574, 0.7911487190587704, 0.4162950050771008, 5.3980487120692695,
     1.0137792727428334]
)
V1_G = np.array(
    [[0.016092892110262096, 0.023971235846865502, 0.01840297161809811],
     [0.018285638723871647, 0.029936997006443297, 0.02020577366191567],
     [0.010351506745595096, 0.0171336228900781, 0.011930935274369244],
     [0.10626235715510006, 0.15524989669186934, 0.15278223505205135],
     [0.023051098413599008, 0.025530264382604254, 0.04288969150574046]]
)
V1_H_UPPER = np.array(  # H11 H12 H13 H22 H23 H33
    [[1.3190726985948410e-03, 1.5329408208433141e-04, 1.1137975137808935e-04,
      1.2635254331849418e-03, 2.2746621194600944e-04, 1.2991239996166287e-03],
     [1.5346080031433656e-03, 2.0266334385970217e-04, 1.3136424468330218e-04,
      1.5806026505132511e-03, 2.7644851624317987e-04, 1.4094586873594341e-03],
     [6.8327758606000167e-04, 7.4812326030450021e-05, 3.9759995226128244e-05,
      9.1179440009439170e-04, 1.4232682816278051e-04, 8.2373277451065850e-04],
     [2.3815814938217003e-03, 1.7351323584217115e-03, 1.7339536087746634e-03,
      8.0055726111425158e-03, 2.5212837232710048e-03, 6.5463315379924170e-03],
     [1.9528266194951431e-03, 1.9476710774544840e-04, 3.2708768895619878e-04,
      1.3125274803979846e-03, 3.8655893017724557e-04, 2.8582780059288101e-03]]
)

WRITTEN_TOKENS = {"affine", "scaled", "exp", "softplus", "add"}


def words(text):
    """Non-numeric tokens of a file's energy line."""
    line = next(ln for ln in text.splitlines() if ln.startswith("energy "))
    out = set()
    for tok in line.split()[1:]:
        try:
            float(tok)
        except ValueError:
            out.add(tok)
    return out


class TestFileCompatibility:
    def test_fixture_has_every_construct(self):
        text = (DATA / "distilled_v1.sym").read_text()
        assert " exp " in text and "softplus 4" in text
        assert "scaled 1.3999999999999999 0 scaled" in text  # a stacked chain

    def test_v1_file_loads_to_its_writer_values(self):
        energy = SymbolicEnergy.load(DATA / "distilled_v1.sym")
        v, g, h = energy.vgh(V1_K)
        iu = np.triu_indices(3)
        npt.assert_allclose(v, V1_W, rtol=1e-12)
        npt.assert_allclose(g, V1_G, rtol=1e-12)
        npt.assert_allclose(h[:, iu[0], iu[1]], V1_H_UPPER, rtol=1e-12)
        npt.assert_array_equal(h, np.swapaxes(h, 1, 2))

    @pytest.mark.parametrize("source", ["fixture", "distilled"])
    def test_writer_uses_core_tokens_and_is_stable(self, source):
        if source == "fixture":
            energy = SymbolicEnergy.load(DATA / "distilled_v1.sym")
        else:
            energy = distill(KANModel.create(rng=11))
        text = energy.dumps()
        assert words(text) <= WRITTEN_TOKENS
        assert SymbolicEnergy.loads(text).dumps() == text

    def test_stacked_weights_multiplied_out(self):
        text = SymbolicEnergy.loads(
            "convexkan-symbolic v1\nenergy scaled 2 0 scaled 0.5 1 softplus 2 var K1\n"
        ).dumps()
        assert "energy add 2 affine 2 0 0 0 scaled 1 0 softplus 2 affine 0 1 0 0\n" in text


class TestSymbolicMaterial:
    def test_stress_matches_fd_of_energy(self):
        energy = distill(KANModel.create(rng=19))
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
        energy = distill(KANModel.create(rng=23))
        mat = SymbolicMaterial(energy)
        npt.assert_allclose(mat.stress(np.eye(3)), 0.0, atol=1e-10)

    def test_reference_energy_evaluated_once(self):
        energy = SymbolicEnergy.loads(
            "convexkan-symbolic v1\nenergy add 2 affine 0.3 0.5 0 1.5 scaled 1 0 exp var K1\n"
        )
        mat = SymbolicMaterial(energy, zero_at_identity=True)
        at_zero = []
        vgh = energy.vgh
        energy.vgh = lambda K: at_zero.append(not np.any(K)) or vgh(K)
        F = np.diag([1.2, 0.9, 1.0])
        for call in (mat.stress, mat.tangent):
            # the K-derivatives need no reference energy
            for _ in range(3):
                call(F)
                assert at_zero == [False]
                at_zero.clear()
        for _ in range(3):
            mat.energy(F)
        assert len(at_zero) == 4 and sum(at_zero) == 1

    def test_offset_flag(self):
        energy = distill(KANModel.create(rng=23))
        raw = SymbolicMaterial(energy).energy(np.eye(3))
        shifted = SymbolicMaterial(energy, zero_at_identity=True).energy(np.eye(3))
        assert abs(shifted) < 1e-12
        # the unshifted form generally carries the distilled constant
        npt.assert_allclose(raw - shifted, energy.vgh(np.zeros(3))[0], rtol=1e-12)
