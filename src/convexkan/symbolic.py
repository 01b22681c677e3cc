"""Distillation of a trained spline network into a closed-form energy.

Each activation is approximated by ``c * f(a x + b) + d`` with a candidate
``f`` drawn from a small library of convex non-decreasing functions, chosen
by a complexity-vs-fit score.  The fits are then composed layer by layer
into one normal form over K1, K2, K3: an affine part plus weighted
candidate terms, each of which wraps another such form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import numpy.typing as npt

from .errors import ConfigurationError, DataError, EvaluationError
from .mechanics import MaterialModel
from .network import CONSTRAINED, GRID_INIT_RANGE, KANModel, softplus

Array = npt.NDArray[np.float64]

LAMBDA_SYM = 0.8
FIT_POINTS = 100
_A_RANGE = (0.0, 10.0)
_B_RANGE = (-10.0, 10.0)
_GRID = 21
_ROUNDS = 3
_SHRINK = 5.0
PARITY_SAMPLES = 1000  # K points drawn from GRID_INIT_RANGE for the parity R^2
PARITY_SEED = 0

VAR_NAMES = ("K1", "K2", "K3")


# -- candidate library ------------------------------------------------------


@dataclass(frozen=True)
class CandidateFunction:
    """One library member f, convex and non-decreasing on all reals."""

    name: str
    complexity: int
    power: int = 0  # softplus exponent; 0 for x and exp

    def derivatives(self, x):
        """f, f' and f'' at x."""
        x = np.asarray(x, dtype=np.float64)
        if self.name == "x":
            return x, np.ones_like(x), np.zeros_like(x)
        if self.name == "exp":
            e = np.exp(x)
            return e, e, e
        s = softplus(x)
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-x))  # softplus'
        p = self.power
        d1 = p * _ipow(s, p - 1) * sig
        d2 = p * (p - 1) * _ipow(s, max(p - 2, 0)) * sig * sig + d1 * (1.0 - sig)
        return _ipow(s, p), d1, d2


def _ipow(s, p: int, out=None):
    """s**p, 0 <= p <= 4, by multiplication (``**`` calls pow per element for
    p > 2), written into ``out`` when it is given."""
    if not 0 <= p <= 4:
        raise ConfigurationError(f"softplus power {p} outside 0..4")
    if p < 2:
        if out is None:
            return s if p else np.ones_like(s)
        np.copyto(out, s if p else 1.0)
        return out
    s2 = np.multiply(s, s, out=out)
    return s2 if p == 2 else np.multiply(s2, s if p == 3 else s2, out=out)


LIBRARY = (
    CandidateFunction("x", 1),
    CandidateFunction("exp", 2),
    CandidateFunction("softplus", 2, power=1),
    CandidateFunction("softplus^2", 2, power=2),
    CandidateFunction("softplus^3", 2, power=3),
    CandidateFunction("softplus^4", 2, power=4),
)


@dataclass
class FittedActivation:
    """Best parameters of ``c * f(a x + b) + d`` for one candidate."""

    candidate: CandidateFunction
    a: float
    b: float
    c: float
    d: float
    r2: float

    def __post_init__(self):
        if self.a < 0.0 or self.c < 0.0:
            raise ConfigurationError("fitted a and c must be non-negative")
        if self.r2 > 1.0 + 1e-12:
            raise ConfigurationError(f"impossible R^2 {self.r2}")


def _r2(y: Array, resid_ss: float) -> float:
    if resid_ss < 1e-12:  # zero-variance / exact-fit guard
        return 1.0
    tot = float(np.sum((y - y.mean()) ** 2))
    if tot <= 0.0:
        return -math.inf
    return 1.0 - resid_ss / tot


class _Buffers:
    """Work buffers of the (a, b) grid search, one value per grid point and
    sample point: the arguments a x + b, their softplus, and the candidate
    values, which `_fit_cd` turns into residual rows.  Every round of every
    fit fills them in place, so one set serves a whole distill and its pages
    fault in once."""

    def __init__(self):
        shape = (_GRID, _GRID, FIT_POINTS)
        self.ax = np.empty((_GRID, 1, FIT_POINTS))
        self.z, self.s, self.f = np.empty(shape), np.empty(shape), np.empty(shape)

    def arguments(self, x: Array, a_grid: Array, b_grid: Array, with_softplus: bool):
        """a x + b into z, where z[i, j] is the grid point (a_grid[i],
        b_grid[j]), and, when asked, its softplus into s (f is scratch)."""
        np.multiply(a_grid[:, None, None], x, out=self.ax)
        np.add(self.ax, b_grid[:, None], out=self.z)
        if with_softplus:
            softplus(self.z, out=self.s, work=self.f)

    def values(self, cand: CandidateFunction) -> Array:
        """cand at the arguments into f: exp of z, or a power of s, which
        must hold the softplus of z."""
        if cand.name == "exp":
            with np.errstate(over="ignore"):
                return np.exp(self.z, out=self.f)
        return _ipow(self.s, cand.power, out=self.f)


def _fit_cd(F: Array, y: Array):
    """Least squares for (c, d) in c*F[k] + d ~ y with c >= 0 (active set),
    for every row k of F at once: arrays c, d and residual sums, each (rows,).
    Each row must be monotone, so that its two ends bound it.  Rows beyond
    1e120 in magnitude, inf or nan, which would overflow the normal
    equations, get an infinite residual.  A target constant up to rounding
    (spread within 8 ulp of its magnitude) is fitted as a constant, c = 0,
    so no slope is read into its noise.  F is overwritten: bad rows are
    zeroed, then every row holds its residuals."""
    first, last = F[:, 0], F[:, -1]
    bad = ~(np.maximum(np.abs(first), np.abs(last)) <= 1e120)
    flat = bad | (first == last)
    F[bad] = 0.0
    n = y.size
    sf, sy = F.sum(axis=1), y.sum()
    sff, sfy = np.einsum("kn,kn->k", F, F), F @ y
    det = n * sff - sf * sf
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (n * sfy - sf * sy) / det
    # a constant row has det = 0 up to rounding, which leaves c arbitrary
    flat |= np.abs(det) < 1e-30
    flat |= np.ptp(y) <= 8.0 * np.finfo(float).eps * np.abs(y).max()
    c[flat | ~(np.isfinite(c) & (c >= 0.0))] = 0.0
    d = (sy - c * sf) / n
    F *= c[:, None]
    F += d[:, None]
    F -= y
    resid = np.einsum("kn,kn->k", F, F)
    resid[bad | ~np.isfinite(resid)] = np.inf
    return c, d, resid


def _samples(phi, domain):
    """(x, phi(x)) at 100 uniform points x of the domain."""
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ConfigurationError(f"degenerate fitting domain [{lo}, {hi}]")
    x = np.linspace(lo, hi, FIT_POINTS)
    y = np.asarray(phi(x), dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise EvaluationError("activation produced non-finite values on its domain")
    return x, y


def _grid(centre, width):
    """The (a, b) grid of one round, clipped to the search box."""
    (a_c, b_c), (a_w, b_w) = centre, width
    return (np.clip(np.linspace(a_c - a_w, a_c + a_w, _GRID), *_A_RANGE),
            np.clip(np.linspace(b_c - b_w, b_c + b_w, _GRID), *_B_RANGE))


def _round(cand, grid, y, buf, best):
    """Fit (c, d) at every point of one round's grid, whose arguments buf
    holds; return the better of the round's first minimum in a-major order
    and ``best``, which it must improve on strictly."""
    F = buf.values(cand).reshape(_GRID * _GRID, FIT_POINTS)
    c, d, resid = _fit_cd(F, y)
    k = int(np.argmin(resid))  # row k is (a_grid[k // 21], b_grid[k % 21])
    if resid[k] < best[0]:
        a_grid, b_grid = grid
        return (float(resid[k]), float(a_grid[k // _GRID]), float(b_grid[k % _GRID]),
                float(c[k]), float(d[k]))
    if math.isinf(best[0]):
        raise EvaluationError(f"candidate {cand.name} not evaluable anywhere on the grid")
    return best


def _fit_samples(x: Array, y: Array, candidates, buf: _Buffers) -> list:
    """Fit each candidate to the samples y at x: grid-search (a, b) over
    [0, 10] x [-10, 10] in three rounds (21 x 21 grid, shrink factor 5),
    with constrained least-squares (c, d) at all points of a round in one
    array pass.  The first minimum in a-major order wins; a later round
    must improve on it strictly.  Round 1's grid is the same for every
    candidate, so its arguments and their softplus are computed once."""
    best = {}
    for cand in candidates:
        if cand.name == "x":
            # affine target: the closed-form slope/intercept fit is exact
            c, d, resid = _fit_cd(x[None].copy(), y)
            best[cand] = (float(resid[0]), 1.0, 0.0, float(c[0]), float(d[0]))
    curved = [cand for cand in candidates if cand not in best]
    if curved:
        (a_lo, a_hi), (b_lo, b_hi) = _A_RANGE, _B_RANGE
        width = (0.5 * (a_hi - a_lo), 0.5 * (b_hi - b_lo))
        grid = _grid((0.5 * (a_lo + a_hi), 0.5 * (b_lo + b_hi)), width)
        buf.arguments(x, *grid, any(cand.power for cand in curved))
        best.update({cand: _round(cand, grid, y, buf, (math.inf,)) for cand in curved})
        for cand in curved:
            w = width
            for _ in range(1, _ROUNDS):
                w = (w[0] / _SHRINK, w[1] / _SHRINK)
                grid = _grid(best[cand][1:3], w)
                buf.arguments(x, *grid, cand.power > 0)
                best[cand] = _round(cand, grid, y, buf, best[cand])
    return [FittedActivation(cand, *best[cand][1:], r2=_r2(y, best[cand][0]))
            for cand in candidates]


def selection_score(fit: FittedActivation, lambda_sym: float = LAMBDA_SYM) -> float:
    return lambda_sym * fit.candidate.complexity + (1.0 - lambda_sym) * math.log2(
        1.0 + 1e-5 - fit.r2
    )


def select_candidate(fits, lambda_sym: float = LAMBDA_SYM) -> FittedActivation:
    """Lowest complexity-vs-fit score; ties go to lower complexity, then to
    earlier library position."""
    fits = list(fits)
    if not fits:
        raise ConfigurationError("no fits to select from")
    idx = min(
        range(len(fits)),
        key=lambda i: (
            selection_score(fits[i], lambda_sym),
            fits[i].candidate.complexity,
            i,
        ),
    )
    return fits[idx]


def fit_activation(phi, domain, buffers: _Buffers,
                   lambda_sym: float = LAMBDA_SYM) -> FittedActivation:
    """Fit every library candidate to one sampling of phi, in ``buffers``,
    which successive calls share; return the selected one."""
    fits = _fit_samples(*_samples(phi, domain), LIBRARY, buffers)
    return select_candidate(fits, lambda_sym)


# -- the normal form ----------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.4g}"


@dataclass
class Term:
    """weight * f(inner), tagged with the activation (layer, i, j) that
    introduced it, or None when read from a file."""

    weight: float
    f: CandidateFunction
    inner: "Form"
    provenance: tuple | None = None


@dataclass
class Form:
    """coeffs . K + const + sum of terms, over K = (K1, K2, K3)."""

    coeffs: Array = field(default_factory=lambda: np.zeros(3))
    const: float = 0.0
    terms: list = field(default_factory=list)  # [Term]

    @classmethod
    def variable(cls, m: int) -> "Form":
        return cls(coeffs=np.eye(3)[m])

    def __add__(self, other: "Form") -> "Form":
        return Form(self.coeffs + other.coeffs, self.const + other.const,
                    self.terms + other.terms)

    def scaled(self, w: float, s: float = 0.0) -> "Form":
        """w * self + s."""
        return Form(w * self.coeffs, w * self.const + s,
                    [replace(t, weight=w * t.weight) for t in self.terms])

    def apply(self, fit: FittedActivation, provenance) -> "Form":
        """The fitted activation c * f(a * self + b) + d; a linear fit stays
        in the affine part."""
        if fit.candidate.name == "x":
            return self.scaled(fit.c * fit.a, fit.c * fit.b + fit.d)
        term = Term(fit.c, fit.candidate, self.scaled(fit.a, fit.b), provenance)
        return Form(const=fit.d, terms=[term])

    def vgh(self, K: Array):
        """(value, gradient, Hessian) at K of shape (..., 3): shapes (...),
        (..., 3) and (..., 3, 3)."""
        v = K @ self.coeffs + self.const
        g = np.broadcast_to(self.coeffs, K.shape).copy()
        h = np.zeros(K.shape + (3,))
        for t in self.terms:
            iv, ig, ih = t.inner.vgh(K)
            f, f1, f2 = t.f.derivatives(iv)
            w1, w2 = (t.weight * f1)[..., None], (t.weight * f2)[..., None, None]
            v = v + t.weight * f
            g += w1 * ig
            h += w2 * (ig[..., :, None] * ig[..., None, :]) + w1[..., None] * ih
        return v, g, h

    def prefix(self) -> list:
        """Prefix tokens: ``affine const c1 c2 c3``, ``scaled w 0 <f> <inner>``
        per term, joined by ``add n`` when there is more than one part."""
        parts = []
        if np.any(self.coeffs != 0.0) or self.const != 0.0 or not self.terms:
            parts.append(["affine"] + [f"{v:.17g}" for v in (self.const, *self.coeffs)])
        for t in self.terms:
            f = ["exp"] if t.f.name == "exp" else ["softplus", str(t.f.power)]
            parts.append(["scaled", f"{t.weight:.17g}", "0", *f, *t.inner.prefix()])
        if len(parts) == 1:
            return parts[0]
        return ["add", str(len(parts))] + [tok for part in parts for tok in part]

    def infix(self) -> str:
        parts = [f"{_fmt(c)}*{VAR_NAMES[m]}" for m, c in enumerate(self.coeffs) if c != 0.0]
        if self.const != 0.0 or not (parts or self.terms):
            parts.append(_fmt(self.const))
        for t in self.terms:
            name, _, power = t.f.name.partition("^")
            text = f"{_fmt(t.weight)}*{name}({t.inner.infix()})"
            parts.append(f"{text}^{power}" if power else text)
        return " + ".join(parts)


def _number(tokens) -> float:
    v = float(next(tokens))
    if not math.isfinite(v):
        raise DataError(f"non-finite number {v} in expression")
    return v


def _parse(tokens) -> Form:
    """Read one prefix expression from an iterator over its tokens."""
    head = next(tokens)
    if head == "const":
        return Form(const=_number(tokens))
    if head == "var":
        return Form.variable(VAR_NAMES.index(next(tokens)))
    # a negative weight on K or on a term would make W decrease somewhere
    if head == "affine":
        const = _number(tokens)
        coeffs = np.array([_number(tokens) for _ in range(3)])
        if np.any(coeffs < 0.0):
            raise DataError(f"negative K coefficients {coeffs.tolist()} in an affine record")
        return Form(coeffs, const)
    if head == "scaled":
        w, s = _number(tokens), _number(tokens)
        if w < 0.0:
            raise DataError(f"negative scaled weight {w}")
        return _parse(tokens).scaled(w, s)
    if head == "exp":
        return Form(terms=[Term(1.0, LIBRARY[1], _parse(tokens))])
    if head == "softplus":
        p = int(next(tokens))
        # below 1 the term is no longer convex and non-decreasing; the
        # library, and _ipow, stop at 4
        if not 1 <= p <= 4:
            raise DataError(f"softplus power {p} outside 1..4")
        return Form(terms=[Term(1.0, LIBRARY[1 + p], _parse(tokens))])
    if head == "add":
        n = int(next(tokens))
        if n < 1:  # would read as the zero energy
            raise DataError(f"'add {n}': a sum needs at least one part")
        return sum([_parse(tokens) for _ in range(n)], Form())
    raise DataError(f"unknown expression token {head!r}")


@dataclass
class SymbolicEnergy(Form):
    """Closed-form energy: the composed normal form, with the fit behind
    each activation and the whole-model parity R^2 against the network."""

    activation_fits: dict = field(default_factory=dict)  # (r,i,j) -> FittedActivation
    parity_r2: float = float("nan")

    def vgh(self, K):
        """Value, K-gradient and K-Hessian at one K (3,) or a stack (N, 3)."""
        K = np.asarray(K, dtype=np.float64)
        v, g, h = super().vgh(K)
        return (float(v), g, h) if K.ndim == 1 else (v, g, h)

    def value(self, K):
        """Value alone, at one K (3,) or a stack (N, 3)."""
        return self.vgh(K)[0]

    def dumps(self) -> str:
        return "\n".join(
            ["convexkan-symbolic v1", "energy " + " ".join(self.prefix()), f"# {self.infix()}"]
        ) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "SymbolicEnergy":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "convexkan-symbolic v1":
            raise DataError("not a symbolic-energy file (bad header)")
        body = [ln for ln in lines[1:] if not ln.startswith("#")]
        if len(body) != 1 or not body[0].startswith("energy "):
            raise DataError("expected a single 'energy <prefix...>' line")
        tokens = iter(body[0].split()[1:])
        try:
            form = _parse(tokens)
        except StopIteration:
            raise DataError("unexpected end of expression") from None
        except ValueError as exc:
            raise DataError(f"malformed expression: {exc}") from None
        rest = list(tokens)
        if rest:
            raise DataError(f"trailing tokens in expression: {rest}")
        return cls(form.coeffs, form.const, form.terms)

    @classmethod
    def load(cls, path) -> "SymbolicEnergy":
        with open(path) as fh:
            return cls.loads(fh.read())


def distill(model: KANModel, lambda_sym: float = LAMBDA_SYM) -> SymbolicEnergy:
    """Replace every trained activation by its best closed-form fit and
    assemble the composed expression over K1, K2, K3.

    Reports per-activation R^2 values and the whole-model parity R^2 against
    the network on sampled K points from the grid-initialization box.
    """
    model._one("distill")
    if model.mode != CONSTRAINED:
        raise ConfigurationError("distillation requires a constrained model")
    if not 0.0 <= lambda_sym <= 1.0:  # also rejects nan
        raise ConfigurationError(f"lambda_sym must lie in [0, 1], got {lambda_sym}")
    fits, buffers = {}, _Buffers()
    for r, layer in enumerate(model.params):
        for i, j in np.ndindex(layer.shape[1:3]):

            def phi(x, r=r, i=i, j=j):
                x = np.broadcast_to(x, (1, model.dims[r], np.size(x)))
                return model._edges(r, x, orders=(0,))[0][0, 0, j, :, i]

            try:
                fits[(r, i, j)] = fit_activation(
                    phi, model.domain(r, j), buffers, lambda_sym)
            except EvaluationError as exc:
                raise EvaluationError(
                    f"activation (layer {r}, out {i}, in {j}) failed to fit: {exc}"
                ) from exc

    forms = [Form.variable(m) for m in range(model.dims[0])]
    for r in range(model.n_layers):
        forms = [
            sum([forms[j].apply(fits[(r, i, j)], (r, i, j)) for j in range(model.dims[r])],
                Form())
            for i in range(model.dims[r + 1])
        ]
    out = forms[0]
    energy = SymbolicEnergy(out.coeffs, out.const, out.terms, activation_fits=fits)
    energy.parity_r2 = network_parity_r2(energy, model)
    return energy


def network_parity_r2(energy: SymbolicEnergy, model: KANModel, offset: float = 0.0) -> float:
    """R^2 of the energy against the network's output minus ``offset``, at
    PARITY_SAMPLES K points drawn from the grid-initialization box."""
    K = np.random.default_rng(PARITY_SEED).uniform(*GRID_INIT_RANGE, size=(PARITY_SAMPLES, 3))
    y_net = model.forward(K) - offset
    return _r2(y_net, float(np.sum((y_net - energy.value(K)) ** 2)))


class SymbolicMaterial(MaterialModel):
    """Material model backed by a distilled closed-form energy.

    By default the constant offset is kept as distilled (the expression need
    not vanish at F = I); pass ``zero_at_identity=True`` to subtract W(K=0).
    """

    kind = "SYM"
    subtract_reference_energy = False

    def __init__(self, energy: SymbolicEnergy, zero_at_identity: bool = False):
        self.symbolic = energy
        self.subtract_reference_energy = bool(zero_at_identity)

    def k_value_grad_hess(self, K):
        return self.symbolic.vgh(K)
