"""Distillation of a trained spline network into a closed-form energy.

Each activation is approximated by ``c * f(a x + b) + d`` with a candidate
``f`` drawn from a small library of convex non-decreasing functions, chosen
by a complexity-vs-fit score.  The fits are then composed layer by layer,
collapsing affine pieces, into a readable expression over K1, K2, K3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .errors import ConfigurationError, DataError, EvaluationError
from .mechanics import KEnergyModel
from .network import CONSTRAINED, KANModel, softplus

Array = npt.NDArray[np.float64]

LAMBDA_SYM = 0.8
FIT_POINTS = 100
_A_RANGE = (0.0, 10.0)
_B_RANGE = (-10.0, 10.0)
_GRID = 21
_ROUNDS = 3
_SHRINK = 5.0

VAR_NAMES = ("K1", "K2", "K3")


# -- candidate library ------------------------------------------------------


@dataclass(frozen=True)
class CandidateFunction:
    """One library member f, convex and non-decreasing on all reals."""

    name: str
    complexity: int
    power: int = 0  # softplus exponent; 0 for x and exp

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.name == "x":
            return x
        if self.name == "exp":
            return np.exp(x)
        return softplus(x) ** self.power


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

    def __call__(self, x):
        return self.c * self.candidate(self.a * np.asarray(x) + self.b) + self.d


def _r2(y: Array, resid_ss: float) -> float:
    if resid_ss < 1e-12:  # zero-variance / exact-fit guard
        return 1.0
    tot = float(np.sum((y - y.mean()) ** 2))
    if tot <= 0.0:
        return -math.inf
    return 1.0 - resid_ss / tot


def _fit_cd(fx: Array, y: Array):
    """Least squares for (c, d) in c*fx + d ~ y with c >= 0 (active-set)."""
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


def fit_candidate(phi, domain, candidate: CandidateFunction) -> FittedActivation:
    """Fit one candidate to a scalar function on an interval.

    Samples ``phi`` at 100 uniform points, then grid-searches (a, b) over
    [0, 10] x [-10, 10] with three refinement rounds (21 x 21 grid, shrink
    factor 5); (c, d) come from constrained least squares at each grid point.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ConfigurationError(f"degenerate fitting domain [{lo}, {hi}]")
    x = np.linspace(lo, hi, FIT_POINTS)
    y = np.asarray(phi(x), dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise EvaluationError("activation produced non-finite values on its domain")

    if candidate.name == "x":
        # affine target: the closed-form slope/intercept fit is exact
        c, d, resid = _fit_cd(x, y)
        return FittedActivation(candidate, a=1.0, b=0.0, c=c, d=d, r2=_r2(y, resid))

    a_lo, a_hi = _A_RANGE
    b_lo, b_hi = _B_RANGE
    a_c, b_c = 0.5 * (a_lo + a_hi), 0.5 * (b_lo + b_hi)
    a_w, b_w = 0.5 * (a_hi - a_lo), 0.5 * (b_hi - b_lo)
    best = None
    for _ in range(_ROUNDS):
        a_grid = np.clip(np.linspace(a_c - a_w, a_c + a_w, _GRID), *_A_RANGE)
        b_grid = np.clip(np.linspace(b_c - b_w, b_c + b_w, _GRID), *_B_RANGE)
        for a in a_grid:
            with np.errstate(over="ignore"):
                fvals = candidate(a * x[:, None] + b_grid[None, :])
            for k, b in enumerate(b_grid):
                fx = fvals[:, k]
                # huge-but-finite values would still overflow the normal
                # equations; such fits are never competitive anyway
                if not np.all(np.isfinite(fx)) or np.abs(fx).max() > 1e120:
                    continue
                c, d, resid = _fit_cd(fx, y)
                if best is None or resid < best[0]:
                    best = (resid, float(a), float(b), c, d)
        if best is None:
            raise EvaluationError(
                f"candidate {candidate.name} not evaluable anywhere on the grid"
            )
        _, a_c, b_c, _, _ = best
        a_w /= _SHRINK
        b_w /= _SHRINK
    resid, a, b, c, d = best
    return FittedActivation(candidate, a=a, b=b, c=c, d=d, r2=_r2(y, resid))


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


def fit_activation(phi, domain, lambda_sym: float = LAMBDA_SYM) -> FittedActivation:
    """Fit every library candidate and return the selected one."""
    return select_candidate(
        [fit_candidate(phi, domain, cand) for cand in LIBRARY], lambda_sym
    )


# -- expression trees -------------------------------------------------------


class Expr:
    """Scalar expression over (K1, K2, K3) with exact gradient and Hessian."""

    def vgh(self, K: Array):
        """(value, gradient, Hessian) at K of shape (..., 3): shapes (...),
        (..., 3) and (..., 3, 3)."""
        raise NotImplementedError

    def prefix(self) -> list:
        raise NotImplementedError

    def infix(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    v: float

    def vgh(self, K):
        return np.full(K.shape[:-1], self.v), np.zeros(K.shape), _zero_hessian(K)

    def prefix(self):
        return ["const", _fmt17(self.v)]

    def infix(self):
        return _fmt(self.v)


@dataclass(frozen=True)
class Var(Expr):
    index: int

    def vgh(self, K):
        g = np.zeros(K.shape)
        g[..., self.index] = 1.0
        return K[..., self.index], g, _zero_hessian(K)

    def prefix(self):
        return ["var", VAR_NAMES[self.index]]

    def infix(self):
        return VAR_NAMES[self.index]


@dataclass(frozen=True)
class Affine(Expr):
    """coeffs . K + const; the collapsed form of stacked linear fits."""

    coeffs: tuple
    const: float

    def vgh(self, K):
        c = np.asarray(self.coeffs, dtype=np.float64)
        return K @ c + self.const, np.broadcast_to(c, K.shape).copy(), _zero_hessian(K)

    def prefix(self):
        out = ["affine", _fmt17(self.const)]
        out += [_fmt17(c) for c in self.coeffs]
        return out

    def infix(self):
        parts = [
            f"{_fmt(c)}*{VAR_NAMES[m]}" for m, c in enumerate(self.coeffs) if c != 0.0
        ]
        if self.const != 0.0 or not parts:
            parts.append(_fmt(self.const))
        return " + ".join(parts)


@dataclass(frozen=True)
class Scaled(Expr):
    """weight * child (+ shift), the outer (c, d) of a fitted candidate."""

    weight: float
    child: Expr
    shift: float = 0.0

    def vgh(self, K):
        v, g, h = self.child.vgh(K)
        return self.weight * v + self.shift, self.weight * g, self.weight * h

    def prefix(self):
        return ["scaled", _fmt17(self.weight), _fmt17(self.shift)] + self.child.prefix()

    def infix(self):
        s = f"{_fmt(self.weight)}*{self.child.infix()}"
        if self.shift != 0.0:
            s += f" + {_fmt(self.shift)}"
        return s


@dataclass(frozen=True)
class ExpOf(Expr):
    child: Expr

    def vgh(self, K):
        v, g, h = self.child.vgh(K)
        e = np.exp(v)
        return e, e[..., None] * g, e[..., None, None] * (_outer(g) + h)

    def prefix(self):
        return ["exp"] + self.child.prefix()

    def infix(self):
        return f"exp({self.child.infix()})"


@dataclass(frozen=True)
class SoftplusPow(Expr):
    child: Expr
    power: int

    def vgh(self, K):
        v, g, h = self.child.vgh(K)
        s = softplus(v)
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-v))
        d1 = sig  # softplus'
        d2 = sig * (1.0 - sig)  # softplus''
        p = self.power
        f = s**p
        fp = (p * s ** (p - 1) * d1)[..., None]
        fpp = (p * (p - 1) * s ** (p - 2) * d1 * d1 + p * s ** (p - 1) * d2)[..., None, None]
        return f, fp * g, fpp * _outer(g) + fp[..., None] * h

    def prefix(self):
        return ["softplus", str(self.power)] + self.child.prefix()

    def infix(self):
        inner = f"softplus({self.child.infix()})"
        return inner if self.power == 1 else f"{inner}^{self.power}"


def _zero_hessian(K: Array) -> Array:
    return np.zeros(K.shape + (3,))


def _outer(g: Array) -> Array:
    return g[..., :, None] * g[..., None, :]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _fmt17(v: float) -> str:
    return f"{v:.17g}"


# -- assembly ---------------------------------------------------------------


@dataclass
class _Form:
    """Affine-plus-nonlinear normal form used while composing fits.

    value = coeffs . K + const + sum_k terms[k].  Terms carry provenance of
    the activation (layer, i, j) that introduced them.
    """

    coeffs: Array
    const: float
    terms: list = field(default_factory=list)  # (Expr, provenance)

    @classmethod
    def variable(cls, m):
        c = np.zeros(3)
        c[m] = 1.0
        return cls(coeffs=c, const=0.0)

    def is_affine(self) -> bool:
        return not self.terms

    def to_expr(self) -> Expr:
        inner: Expr = Affine(coeffs=tuple(self.coeffs), const=self.const)
        if not self.terms:
            return inner
        # keep the affine part only when it contributes
        exprs = [t for t, _ in self.terms]
        if np.any(self.coeffs != 0.0) or self.const != 0.0:
            exprs = [inner] + exprs
        if len(exprs) == 1:
            return exprs[0]
        return _SumExpr(tuple(exprs))

    def apply(self, fit: FittedActivation, provenance) -> "_Form":
        cand = fit.candidate
        if cand.name == "x":
            # c*(a*x + b) + d stays in normal form
            s = fit.c * fit.a
            return _Form(
                coeffs=s * self.coeffs,
                const=s * self.const + fit.c * fit.b + fit.d,
                terms=[(Scaled(s, t), p) for t, p in self.terms],
            )
        inner = _Form(
            coeffs=fit.a * self.coeffs,
            const=fit.a * self.const + fit.b,
            terms=[(Scaled(fit.a, t), p) for t, p in self.terms],
        ).to_expr()
        wrapped: Expr = (
            ExpOf(inner) if cand.name == "exp" else SoftplusPow(inner, cand.power)
        )
        return _Form(
            coeffs=np.zeros(3),
            const=fit.d,
            terms=[(Scaled(fit.c, wrapped), provenance)],
        )

    def add(self, other: "_Form") -> "_Form":
        return _Form(
            coeffs=self.coeffs + other.coeffs,
            const=self.const + other.const,
            terms=self.terms + other.terms,
        )


@dataclass(frozen=True)
class _SumExpr(Expr):
    children: tuple

    def vgh(self, K):
        v, g, h = np.zeros(K.shape[:-1]), np.zeros(K.shape), _zero_hessian(K)
        for ch in self.children:
            cv, cg, chh = ch.vgh(K)
            v = v + cv
            g += cg
            h += chh
        return v, g, h

    def prefix(self):
        out = ["add", str(len(self.children))]
        for ch in self.children:
            out += ch.prefix()
        return out

    def infix(self):
        return " + ".join(ch.infix() for ch in self.children)


@dataclass
class SymbolicEnergy:
    """Closed-form energy: explicit linear K coefficients plus nonlinear
    candidate terms, each term tagged with the activation it came from."""

    coeffs: Array  # (3,) linear coefficients of K1, K2, K3
    const: float
    terms: list  # (Expr, (layer, i, j))
    activation_fits: dict = field(default_factory=dict)  # (r,i,j) -> FittedActivation
    parity_r2: float = float("nan")

    def vgh(self, K):
        """Value, K-gradient and K-Hessian at one K (3,) or a stack (N, 3)."""
        K = np.asarray(K, dtype=np.float64)
        v = K @ self.coeffs + self.const
        g = np.broadcast_to(self.coeffs.astype(float), K.shape).copy()
        h = _zero_hessian(K)
        for t, _ in self.terms:
            tv, tg, th = t.vgh(K)
            v = v + tv
            g += tg
            h += th
        return (float(v), g, h) if K.ndim == 1 else (v, g, h)

    def value(self, K):
        """Value alone, at one K (3,) or a stack (N, 3)."""
        return self.vgh(K)[0]

    def expr(self) -> Expr:
        return _Form(coeffs=self.coeffs, const=self.const, terms=self.terms).to_expr()

    def infix(self) -> str:
        return self.expr().infix()

    def dumps(self) -> str:
        lines = ["convexkan-symbolic v1"]
        lines.append("energy " + " ".join(self.expr().prefix()))
        lines.append(f"# {self.infix()}")
        return "\n".join(lines) + "\n"

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
        tokens = body[0].split()[1:]
        expr, rest = _parse_prefix(tokens)
        if rest:
            raise DataError(f"trailing tokens in expression: {rest}")
        coeffs, const, terms = _flatten(expr)
        return cls(coeffs=coeffs, const=const, terms=terms)

    @classmethod
    def load(cls, path) -> "SymbolicEnergy":
        with open(path) as fh:
            return cls.loads(fh.read())


def _parse_prefix(tokens):
    if not tokens:
        raise DataError("unexpected end of expression")
    head, rest = tokens[0], tokens[1:]
    try:
        if head == "const":
            return Const(float(rest[0])), rest[1:]
        if head == "var":
            return Var(VAR_NAMES.index(rest[0])), rest[1:]
        if head == "affine":
            const = float(rest[0])
            coeffs = tuple(float(v) for v in rest[1:4])
            return Affine(coeffs=coeffs, const=const), rest[4:]
        if head == "scaled":
            w, s = float(rest[0]), float(rest[1])
            child, rem = _parse_prefix(rest[2:])
            return Scaled(w, child, s), rem
        if head == "exp":
            child, rem = _parse_prefix(rest)
            return ExpOf(child), rem
        if head == "softplus":
            p = int(rest[0])
            child, rem = _parse_prefix(rest[1:])
            return SoftplusPow(child, p), rem
        if head == "add":
            n = int(rest[0])
            rem = rest[1:]
            children = []
            for _ in range(n):
                ch, rem = _parse_prefix(rem)
                children.append(ch)
            return _SumExpr(tuple(children)), rem
    except (IndexError, ValueError) as exc:
        raise DataError(f"malformed expression near {head!r}: {exc}") from None
    raise DataError(f"unknown expression token {head!r}")


def _flatten(expr: Expr):
    """Split a parsed expression into (linear coeffs, const, nonlinear terms)."""
    coeffs = np.zeros(3)
    const = 0.0
    terms = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, _SumExpr):
            stack.extend(e.children)
        elif isinstance(e, Const):
            const += e.v
        elif isinstance(e, Var):
            coeffs[e.index] += 1.0
        elif isinstance(e, Affine):
            coeffs += np.asarray(e.coeffs)
            const += e.const
        else:
            terms.append((e, None))
    return coeffs, const, terms


def distill(
    model: KANModel,
    lambda_sym: float = LAMBDA_SYM,
    parity_samples: int = 1000,
    parity_seed: int = 0,
) -> SymbolicEnergy:
    """Replace every trained activation by its best closed-form fit and
    assemble the composed expression over K1, K2, K3.

    Reports per-activation R^2 values and the whole-model parity R^2 against
    the network on sampled K points from the grid-initialization box.
    """
    if model.mode != CONSTRAINED:
        raise ConfigurationError("distillation requires a constrained model")
    fits = {}
    for r, layer in enumerate(model.params):
        for i, j in np.ndindex(layer.shape[:2]):

            def phi(x, r=r, i=i, j=j):
                return model._column(r, j, x)[0][:, i]

            try:
                fits[(r, i, j)] = fit_activation(phi, model.knots[r][j].domain, lambda_sym)
            except EvaluationError as exc:
                raise EvaluationError(
                    f"activation (layer {r}, out {i}, in {j}) failed to fit: {exc}"
                ) from exc

    forms = [_Form.variable(m) for m in range(model.dims[0])]
    for r in range(model.n_layers):
        forms = [
            _sum_forms(
                forms[j].apply(fits[(r, i, j)], (r, i, j))
                for j in range(model.dims[r])
            )
            for i in range(model.dims[r + 1])
        ]
    out = forms[0]
    energy = SymbolicEnergy(
        coeffs=out.coeffs, const=out.const, terms=out.terms, activation_fits=fits
    )
    rng = np.random.default_rng(parity_seed)
    from .network import GRID_INIT_RANGE

    K = rng.uniform(*GRID_INIT_RANGE, size=(parity_samples, 3))
    y_net = model.forward(K)
    y_sym = energy.value(K)
    ss_res = float(np.sum((y_net - y_sym) ** 2))
    energy.parity_r2 = _r2(y_net, ss_res)
    return energy


def _sum_forms(forms) -> _Form:
    it = iter(forms)
    acc = next(it)
    for f in it:
        acc = acc.add(f)
    return acc


class SymbolicMaterial(KEnergyModel):
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
