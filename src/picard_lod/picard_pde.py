"""Picard iteration machinery for smooth normal Cauchy problems.

The problem  d_t^d y = F[t, x, (d_x^alpha d_t^gamma y)]  with data
d_t^j y(t0, .) = y_{0j} is attacked through the integral operator
P(y) = i0 + (d-fold nested time integral of the composed right-hand side),
certified by a Weissinger sum over contraction constants with loss of
derivatives L (the highest spatial order on the right-hand side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as npoly

from . import funcspace as fs
from .expr import (
    Binary,
    Const,
    EvalError,
    Expr,
    NonFiniteValue,
    Placeholder,
    Power,
    Unary,
    eval_expr,
    fold,
    free_variables,
    placeholder_key,
    placeholders_in,
)
from .funcspace import (
    Domain,
    Radii,
    SepFunc,
    ball_check,
    graded_norms_upto,
    interpolate,
    iterated_time_integral,
)
from .graded_core import (
    CONVERGED,
    DIVERGING,
    GradedCoreError,
    GradedSpaceHandle,
    IterationStop,
    LodCertificate,
    exp_or_inf,
    iterate_to_fixed_point,
    weissinger_row,
)

__all__ = [
    "CauchyProblem",
    "LipschitzFactors",
    "LinearStructure",
    "RhsClass",
    "SolveConfig",
    "SolveReport",
    "ResidualReport",
    "PicardError",
    "CertifiedDivergence",
    "BallEscape",
    "initial_polynomial",
    "eval_G",
    "apply_P",
    "residual",
    "classify_rhs",
    "estimate_lipschitz",
    "log_lambda_bar",
    "lambda_bar",
    "paper_lambda_bar_log",
    "certify_weissinger",
    "estimate_and_certify",
    "solve",
    "EPS_FLOOR",
]

EPS_FLOOR = 1e-300

# collocation of the composed right-hand side: t degree of the iterate plus
# COLLOC_T_MARGIN; x degrees at least COLLOC_MIN_X_DEGREE, scaled by
# COLLOC_NONLINEAR_X_FACTOR unless the right-hand side is affine in y
COLLOC_T_MARGIN = 12
COLLOC_MIN_X_DEGREE = 8
COLLOC_NONLINEAR_X_FACTOR = 2
# sampled Lipschitz estimate: equispaced points per axis, safety factor
LIPSCHITZ_GRID_POINTS = 17
LIPSCHITZ_INFLATION = 1.25
# t points of the coefficient-matrix sup norm of the linear class
MATRIX_NORM_POINTS = 257
# highest graded index whose numeric increment norm a certificate reads
NUMERIC_K_CAP = 8
# x degree of the interpolated initial data and forcing unless a problem sets one
X_DEGREE = 24


class PicardError(Exception):
    pass


class CertifiedDivergence(PicardError):
    def __init__(self, certificate: LodCertificate):
        super().__init__("Weissinger certificate is diverging")
        self.certificate = certificate


class BallEscape(PicardError):
    def __init__(self, n: int, k: int, distance: float, radius: float):
        super().__init__(
            f"iterate {n} left the ball at k={k}: distance {distance:.6e} > "
            f"radius {radius:.6e}"
        )
        self.n = n
        self.k = k


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CauchyProblem:
    """Normal Cauchy problem data.

    ``rhs`` holds one expression per component with placeholders restricted
    to |alpha| <= L and gamma <= p; ``initial`` is the d-by-m table of
    initial-condition expressions in the spatial variables only.
    ``x_degrees`` holds one x degree per axis, in [0, DEGREE_CAP], at which
    the initial data is interpolated (None: X_DEGREE on every axis).
    ``rhs_class`` is the form of ``rhs``, set once by ``classify_rhs``, and
    ``i0`` the Picard starting point, built on first use.
    """

    domain: Domain
    m: int
    d: int
    p: int
    L: int
    rhs: tuple[Expr, ...]
    initial: tuple[tuple[Expr, ...], ...]
    x_degrees: tuple[int, ...] | None = None
    rhs_class: RhsClass = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise PicardError("time order d must be >= 1")
        if not 0 <= self.p < self.d:
            raise PicardError("the standing assumption p < d is violated")
        if self.L < 0:
            raise PicardError("spatial order L must be >= 0")
        rhs = tuple(self.rhs) if isinstance(self.rhs, (list, tuple)) else (self.rhs,)
        object.__setattr__(self, "rhs", rhs)
        if len(rhs) != self.m:
            raise PicardError(f"need {self.m} right-hand sides, got {len(rhs)}")
        init = tuple(
            tuple(row) if isinstance(row, (list, tuple)) else (row,)
            for row in self.initial
        )
        object.__setattr__(self, "initial", init)
        if len(init) != self.d or any(len(row) != self.m for row in init):
            raise PicardError("initial data must be a d-by-m table of expressions")
        s = self.domain.s
        xd = (X_DEGREE,) * s if self.x_degrees is None else tuple(self.x_degrees)
        object.__setattr__(self, "x_degrees", xd)
        if len(xd) != s or not all(isinstance(v, int) and 0 <= v <= fs.DEGREE_CAP for v in xd):
            raise PicardError(f"need {s} integer x degrees in [0, {fs.DEGREE_CAP}], got {list(xd)}")
        x_names = {f"x{i}" for i in range(1, s + 1)}
        for h, e in enumerate(rhs, start=1):
            for ph in placeholders_in(e):
                if ph.order > self.L or ph.gamma > self.p or not 1 <= ph.comp <= self.m:
                    raise PicardError(
                        f"placeholder {placeholder_key(ph)} in component {h} "
                        f"violates (L={self.L}, p={self.p}, m={self.m})"
                    )
                if len(ph.alpha) != self.domain.s:
                    raise PicardError("placeholder dimension mismatch")
            if not free_variables(e) <= {"t"} | x_names:
                raise PicardError("right-hand side uses undeclared variables")
        for row in init:
            for e in row:
                if placeholders_in(e):
                    raise PicardError("initial data must not contain placeholders")
                if not free_variables(e) <= x_names:
                    raise PicardError("initial data must depend on x only")
        object.__setattr__(self, "rhs_class", classify_rhs(self))

    @cached_property
    def i0(self) -> SepFunc:
        """The Picard starting point at ``x_degrees``, interpolated once."""
        return initial_polynomial(self)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _tpoly_cheb(domain: Domain, j: int) -> np.ndarray:
    """Chebyshev coefficients on T of (t - t0)^j / j!."""
    lo, hi = domain.t_interval
    mid, w = (lo + hi) / 2.0, (hi - lo) / 2.0
    lin = np.array([mid - domain.t0, w]) if j > 0 else np.array([1.0])
    c = npoly.polypow(lin, j) if j > 0 else lin
    return cheb.poly2cheb(c) / math.factorial(j)


def initial_polynomial(
    problem: CauchyProblem,
    x_degrees: Sequence[int] | None = None,
) -> SepFunc:
    """The Picard starting point sum_j y_{0j}(x) (t-t0)^j / j!, by default at problem.x_degrees."""
    s = problem.domain.s
    x_degrees = problem.x_degrees if x_degrees is None else tuple(x_degrees)
    shape_x = tuple(dx + 1 for dx in x_degrees)
    coeffs = np.zeros((problem.m, problem.d, *shape_x))
    for j, row in enumerate(problem.initial):
        xf = interpolate(list(row), problem.domain, (0, *x_degrees),
                         m=problem.m, p=problem.p)
        tc = _tpoly_cheb(problem.domain, j)
        block = xf.coeffs[:, 0]
        tcol = tc.reshape((1, len(tc)) + (1,) * s)
        coeffs[:, : len(tc)] += tcol * block[:, None]
    out = SepFunc(problem.domain, problem.m, problem.p, coeffs)
    return out.trim()


def _rhs_on_grid(
    problem: CauchyProblem, y: SepFunc, pts: Sequence[np.ndarray]
) -> np.ndarray:
    """The right-hand side composed with y on the tensor grid of ``pts``, a new array."""
    shape = tuple(len(g) for g in pts)
    bindings = fs.grid_bindings(pts)
    phs = problem.rhs_class.placeholders
    derivs = fs.derivatives_on_grid(y, [(ph.gamma, *ph.alpha) for ph in phs], pts)
    for ph, (_, vals) in zip(phs, derivs):
        bindings[placeholder_key(ph)] = np.broadcast_to(vals[ph.comp - 1], shape)
    return fs.eval_on_grid(problem.rhs, bindings, shape)


def _g_degrees(problem: CauchyProblem, y: SepFunc) -> tuple[int, ...]:
    cap = fs.DEGREE_CAP
    dt = min(cap, y.deg_t + COLLOC_T_MARGIN)
    nonlinear = problem.rhs_class.kind in ("quadratic", "general")
    fac = COLLOC_NONLINEAR_X_FACTOR if nonlinear else 1
    dx = tuple(
        min(cap, max(COLLOC_MIN_X_DEGREE, fac * d)) for d in y.degrees[1:]
    )
    return (dt, *dx)


def eval_G(problem: CauchyProblem, y: SepFunc) -> SepFunc:
    """The composed right-hand side G(t, x, y) as a new interpolant."""
    degrees = _g_degrees(problem, y)
    vals = _rhs_on_grid(problem, y, fs.chebyshev_nodes(problem.domain, degrees))
    out = fs.from_values(vals, problem.domain, problem.m, problem.p).trim()
    # tail magnitude of the representation, as a truncation indicator
    tail = 0.0
    arr = np.asarray(out.coeffs)
    scale = float(np.max(np.abs(arr))) or 1.0
    for axis in range(1, arr.ndim):
        if arr.shape[axis] - 1 >= degrees[axis - 1]:
            tail = max(tail, float(np.max(np.abs(np.take(arr, [-1], axis=axis)))) / scale)
    return replace(out, truncation=tail)


def apply_P(problem: CauchyProblem, y: SepFunc, i0: SepFunc) -> SepFunc:
    """One Picard step: i0 plus the d-fold nested time integral of G."""
    g = eval_G(problem, y)
    out = i0 + iterated_time_integral(g, problem.d)
    return replace(out.trim(), truncation=g.truncation)


@dataclass(frozen=True)
class ResidualReport:
    pde_residual: float
    ic_residuals: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "pde_residual": self.pde_residual,
            "ic_residuals": list(self.ic_residuals),
        }


def residual(problem: CauchyProblem, y: SepFunc) -> ResidualReport:
    """Max-grid defect of the PDE and of each initial condition.

    The initial conditions d_t^j y, j < d, are checked on the slice t = t0
    of the grid, and the equation with d_t^d y on the full grid.
    """
    pts = fs.norm_grid(y, fs.RESIDUAL_GRID_MIN)
    slice_pts = [np.array([problem.domain.t0]), *pts[1:]]
    zeros_x = [0] * problem.domain.s
    # the slice values, then the full-grid defect: other orders of these
    # evaluations left about 2 MB more resident on 2-D problems
    derivs = list(fs.derivatives_on_grid(
        y, [(j, *zeros_x) for j in range(problem.d)], slice_pts))
    [(_, lhs_vals)] = fs.derivatives_on_grid(y, [(problem.d, *zeros_x)], pts)
    defect = _rhs_on_grid(problem, y, pts)
    np.subtract(lhs_vals, defect, out=defect)
    pde_res = fs.sup_abs(defect)

    bindings = fs.grid_bindings(slice_pts)
    shape = tuple(len(g) for g in slice_pts)
    ics = [fs.sup_abs(got - fs.eval_on_grid(row, bindings, shape))
           for row, (_, got) in zip(problem.initial, derivs)]
    return ResidualReport(pde_res, tuple(ics))


# ---------------------------------------------------------------------------
# Right-hand-side classification, with the linear class p(t) d_x^mu d_t^gamma y + q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearStructure:
    mu: tuple[int, ...]
    gamma: int
    p: tuple[tuple[Expr, ...], ...]  # m x m coefficient expressions in t
    q: tuple[Expr, ...]


@dataclass(frozen=True)
class RhsClass:
    """The form of the right-hand side, decided once per problem by classify_rhs.

    ``kind`` is one of constant, linear, affine, quadratic or general;
    ``linear`` is set for the linear kind, and ``mu`` and the folded
    coefficient c of each component for the quadratic one.  ``poly`` is set,
    whatever the kind, when every component is a polynomial in the
    placeholders with constant coefficients and every placeholder has
    gamma + |alpha| <= L: per component, its (coefficient, placeholder
    multiset) pairs of degree >= 1 with nonzero coefficients.  The
    placeholder-free part, which may depend on (t, x), is left out: it
    cancels in F(u) - F(v).
    """

    kind: str
    placeholders: tuple[Placeholder, ...]
    linear: LinearStructure | None = None
    mu: tuple[int, ...] | None = None
    coef: tuple[Expr, ...] | None = None
    poly: tuple[tuple[tuple[float, tuple[Placeholder, ...]], ...], ...] | None = None


def _ph_order(ph: Placeholder) -> tuple:
    return (ph.gamma, ph.alpha, ph.comp)


class _Exact(NamedTuple):
    """The rational num / den, den > 0, in Python ints: a constant of F held exactly."""

    num: int
    den: int


def _exact(x: float) -> _Exact:
    return _Exact(*float(x).as_integer_ratio())


def _node(op: str, a: _Exact | Expr, b: _Exact | Expr) -> _Exact | Expr:
    """The coefficient a op b, computed exactly when both are numbers."""
    if isinstance(a, _Exact) and isinstance(b, _Exact) and not (op == "/" and b.num == 0):
        (n, d), (m, e) = a, b
        num, den = {"+": (n * e + m * d, d * e), "-": (n * e - m * d, d * e),
                    "*": (n * m, d * e), "/": (n * e, d * m)}[op]
        return _Exact(num, den) if den > 0 else _Exact(-num, -den)
    return Binary(op, _as_expr(a), _as_expr(b))


def _neg(a: _Exact | Expr) -> _Exact | Expr:
    return _Exact(-a.num, a.den) if isinstance(a, _Exact) else Unary("neg", a)


def _as_expr(c: _Exact | Expr) -> Expr:
    """A coefficient as a tree: an exact number becomes the Const nearest to it."""
    if not isinstance(c, _Exact):
        return c
    try:
        return Const(c.num / c.den)  # int division rounds correctly
    except OverflowError:
        return Const(math.inf if c.num > 0 else -math.inf)


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(sorted(ka + kb, key=_ph_order))
            c = _node("*", ca, cb)
            out[k] = _node("+", out[k], c) if k in out else c
    return out


def _monomials(e: Expr) -> dict[tuple[Placeholder, ...], _Exact | Expr] | None:
    """e as {sorted placeholder multiset: coefficient}, or None when not polynomial.

    Each coefficient is a placeholder-free tree in (t, x) or an _Exact
    number; a subtree free of placeholders and variables is evaluated to a
    float, and numbers are combined exactly as the expansion goes, so like
    monomials that nearly cancel keep their exact sum (_as_expr rounds it
    once).  The empty multiset holds the placeholder-free part.  F is not a
    polynomial in its placeholders when one sits under sin, cos, exp or a
    divisor.
    """
    if not placeholders_in(e):
        if not free_variables(e):
            try:
                return {(): _exact(eval_expr(e, {}))}
            except EvalError:
                pass
        return {(): e}
    if isinstance(e, Placeholder):
        return {(e,): _Exact(1, 1)}
    if isinstance(e, Unary) and e.op == "neg":
        inner = _monomials(e.arg)
        return None if inner is None else {k: _neg(c) for k, c in inner.items()}
    if isinstance(e, Power) and e.exponent == 0:
        return {(): _Exact(1, 1)}
    if isinstance(e, Power) and e.exponent > 0:
        out = base = _monomials(e.base)
        for _ in range(e.exponent - 1 if base else 0):
            out = _product(out, base)
        return out
    if isinstance(e, Binary):
        lhs, rhs = _monomials(e.lhs), _monomials(e.rhs)
        if lhs is None or rhs is None:
            return None
        if e.op in "+-":
            out = dict(lhs)
            for k, c in rhs.items():
                if k in out:
                    out[k] = _node(e.op, out[k], c)
                else:
                    out[k] = c if e.op == "+" else _neg(c)
            return out
        if e.op == "*":
            return _product(lhs, rhs)
        if e.op == "/" and set(rhs) == {()}:
            return {k: _node("/", c, rhs[()]) for k, c in lhs.items()}
    return None


def classify_rhs(problem: CauchyProblem) -> RhsClass:
    """Classify F; every route that depends on the form of F reads this.

    Every field is read from the monomials (_monomials) of each component:
    constant without placeholders; linear when every monomial has degree
    <= 1 with one (mu, gamma) and coefficients in t only; affine for the
    other degree <= 1 forms; quadratic when each component is one monomial
    c y_i d_x^mu y_i, gamma = 0, |mu| > 0, with one mu; general otherwise.
    """
    phs = tuple(sorted(
        {ph for e in problem.rhs for ph in placeholders_in(e)}, key=_ph_order,
    ))
    comps = [_monomials(e) for e in problem.rhs]
    if None in comps:
        return RhsClass("general", phs)
    comps = [{k: _as_expr(c) for k, c in terms.items()} for terms in comps]
    # Const(-0.0) equals Const(0.0), and no other tree does
    nonzero = [[(c, k) for k, c in terms.items() if k and c != Const(0.0)] for terms in comps]
    poly = None
    if all(isinstance(c, Const) and all(ph.gamma + ph.order <= problem.L for ph in k)
           for terms in nonzero for c, k in terms):
        poly = tuple(tuple((c.value, k) for c, k in terms) for terms in nonzero)
    if not phs:
        return RhsClass("constant", phs, poly=poly)
    monomials = [(k, c) for terms in comps for k, c in terms.items() if k]
    if all(len(k) == 1 for k, _ in monomials):
        mu_gamma = {(ph.alpha, ph.gamma) for (ph,), _ in monomials}
        if len(mu_gamma) != 1 or any(free_variables(c) - {"t"} for _, c in monomials):
            return RhsClass("affine", phs, poly=poly)
        [(mu, gamma)] = mu_gamma
        p = tuple(
            tuple(terms.get((Placeholder(mu, gamma, l + 1),), Const(0.0)) for l in range(problem.m))
            for terms in comps
        )
        q = tuple(terms.get((), Const(0.0)) for terms in comps)
        return RhsClass("linear", phs, linear=LinearStructure(mu, gamma, p, q), poly=poly)
    # sorted, the multiset {y_i, d_x^mu y_i} starts with y_i
    zero = (0,) * problem.domain.s
    pairs = [next(iter(terms)) if len(terms) == 1 else () for terms in comps]
    if all(len(k) == 2 and k[0] == Placeholder(zero, 0, k[1].comp) and k[1].gamma == 0
           and k[1].order > 0 for k in pairs) and len({k[1].alpha for k in pairs}) == 1:
        try:
            coef = tuple(fold(terms[k]) for terms, k in zip(comps, pairs))
        except EvalError as exc:
            raise PicardError(f"coefficient of the quadratic right-hand side: {exc}") from exc
        return RhsClass("quadratic", phs, mu=pairs[0][1].alpha, coef=coef, poly=poly)
    return RhsClass("general", phs, poly=poly)


# ---------------------------------------------------------------------------
# Lipschitz factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LipschitzFactors:
    """Per-k Lipschitz factors of the composed right-hand side.

    A nondecreasing table of constants, extended by its last entry.
    """

    table: tuple[float, ...]
    is_zero: bool = False
    meta: dict = field(default_factory=dict, compare=False)

    def at(self, k: int) -> float:
        """Factor at index k."""
        return max(self.table[min(k, len(self.table) - 1)], EPS_FLOOR)

    @classmethod
    def constant(cls, value: float, meta: dict | None = None) -> "LipschitzFactors":
        v = float(value)
        return cls((max(v, EPS_FLOOR),), is_zero=(v == 0.0), meta=meta or {})

    @classmethod
    def from_table(cls, values: Sequence[float], meta: dict | None = None) -> "LipschitzFactors":
        vals, run = [], EPS_FLOOR
        for v in values:
            run = max(run, float(v))
            vals.append(run)
        return cls(tuple(vals), meta=meta or {})


def _matrix_sup_norm(p_exprs: tuple[tuple[Expr, ...], ...], domain: Domain) -> float:
    """sup_T of the max-row-sum norm of the t-coefficient matrix."""
    ts = fs.uniform_grid(domain, MATRIX_NORM_POINTS)[0]
    bindings = {"t": ts}
    return float(max(
        np.max(np.sum(np.abs(fs.eval_on_grid(row, bindings, ts.shape)), axis=0))
        for row in p_exprs
    ))


def estimate_lipschitz(
    problem: CauchyProblem, radii: Radii, *, k_max: int = 8, n_pairs: int = 64, seed: int = 0,
) -> LipschitzFactors:
    """Lipschitz factors Lambda_k with ||F(u) - F(v)||_k <= Lambda_k ||u - v||_{k+L}.

    Zero for a constant F and exact factors for the linear class.  A
    polynomial F with constant coefficients (``RhsClass.poly``) gets the
    certified Leibniz table of _leibniz_lipschitz, for k <= k_max on the ball
    of ``radii`` around ``problem.i0``.  Any other F is sampled
    (_sampled_lipschitz, not certified) on the same ball; ``n_pairs`` and
    ``seed`` only act there.
    """
    rc = problem.rhs_class
    if rc.kind == "constant":
        # the composed right-hand side does not depend on the unknown at all
        return LipschitzFactors.constant(0.0, {"method": "auto"})
    if rc.linear is not None:
        norm_p = _matrix_sup_norm(rc.linear.p, problem.domain)
        return LipschitzFactors.constant(
            norm_p, {"method": "linear_exact", "matrix_norm": "max-row-sum"}
        )
    if rc.poly is not None:
        return _leibniz_lipschitz(problem, radii, k_max=k_max)
    return _sampled_lipschitz(problem, radii, k_max=k_max, n_pairs=n_pairs, seed=seed)


def _up(x: float) -> float:
    """The float above x: at least the exact value of an operation that rounded to x."""
    return math.nextafter(x, math.inf)


def _leibniz_product(a: Sequence[float], b: Sequence[float]) -> list[float]:
    """Norm bounds of f*g for k = 0..len(a)-1 from those of f and g.

    D^beta(fg) is the sum over gamma <= beta of C(beta, gamma) D^gamma f
    D^(beta-gamma) g, and the C(beta, gamma) with |gamma| = j sum to
    C(|beta|, j) (Vandermonde), so
    ||fg||_k <= max_{m <= k} sum_{j <= m} C(m, j) ||f||_j ||g||_{m-j}.
    Every operation is rounded up, so the floats bound the exact values.
    """
    out, best = [], 0.0
    for m in range(len(a)):
        acc = 0.0
        for j in range(m + 1):
            acc = _up(acc + _up(_up(math.comb(m, j) * a[j]) * b[m - j]))
        best = max(best, acc)
        out.append(best)
    return out


def _leibniz_lipschitz(problem: CauchyProblem, radii: Radii, *, k_max: int) -> LipschitzFactors:
    """Certified Lipschitz factors of a polynomial F from Leibniz's rule.

    Each monomial c * w_1 ... w_n, with w_i = d_x^alpha_i d_t^gamma_i u, is
    telescoped: w_1(u)...w_n(u) - w_1(v)...w_n(v) is the sum over i of
    w_1(v)...w_{i-1}(v) (w_i(u) - w_i(v)) w_{i+1}(u)...w_n(u).  With
    o_i = gamma_i + |alpha_i| <= L, ||w_i(u) - w_i(v)||_j <= ||u - v||_{k+L}
    for j <= k, and on the ball ||w_i(u)||_j <= R_{j+o_i} with
    R_j = graded_norms_upper(i0)[j] + r_j.  _leibniz_product bounds each
    product, so Lambda_k is the max over components of the sum over
    monomials of |c| times the sum over i of the product bound at k.  The
    numerator norm takes spatial derivatives only (beta_t = 0), as the
    iteration needs.  Degree 1 gives sum |c| and needs no radii.  Every
    operation on the table is rounded up, so the floats bound the exact
    values.
    """
    poly = problem.rhs_class.poly
    degree = max((len(phs) for terms in poly for _, phs in terms), default=0)
    n_idx = k_max + problem.L + 1
    R = [0.0] * n_idx
    if degree > 1:
        r = [radii.value(j) for j in range(n_idx)]
        if not all(math.isfinite(v) for v in r):
            raise PicardError("Lipschitz factors of a nonlinear right-hand side need finite radii")
        upper = fs.graded_norms_upper(problem.i0, n_idx - 1, p=problem.p)
        R = [_up(float(u) + v) for u, v in zip(upper, r)]
    ones = [1.0] * (k_max + 1)
    table = [0.0] * (k_max + 1)
    for terms in poly:
        comp = [0.0] * (k_max + 1)
        for c, phs in terms:
            for i in range(len(phs)):
                seq = ones
                for l, ph in enumerate(phs):
                    if l != i:
                        o = ph.gamma + ph.order
                        seq = _leibniz_product(seq, R[o:o + k_max + 1])
                comp = [_up(x + _up(abs(c) * y)) for x, y in zip(comp, seq)]
        table = [max(x, y) for x, y in zip(table, comp)]
    return LipschitzFactors.from_table(
        table, {"method": "leibniz", "certified": True, "degree": degree, "k_max": k_max},
    )


def _sampled_lipschitz(
    problem: CauchyProblem, radii: Radii, *, k_max: int = 8, n_pairs: int = 64, seed: int = 0,
) -> LipschitzFactors:
    """Sampled, non-certified Lipschitz factors for F outside the polynomial class.

    Draws random pairs inside the ball around ``problem.i0``, perturbed at
    its x degrees, measures the ratio of the grid sups
    ||G(u) - G(v)||_k / ||u - v||_{k+L} over the spatial derivatives of the
    composed right-hand side, and inflates the max over the pairs by a
    safety factor.
    Sampling metadata is recorded on the result.
    """
    probe_k = k_max + problem.L + problem.p
    r_hi = radii.value(probe_k)
    if math.isinf(r_hi):
        raise PicardError("sampled Lipschitz estimation needs finite radii")

    s = problem.domain.s
    i0 = problem.i0
    rng = np.random.default_rng(seed)
    pts = fs.uniform_grid(problem.domain, LIPSCHITZ_GRID_POINTS)

    def random_member() -> SepFunc:
        deg = (problem.d, *problem.x_degrees)
        shape_c = (problem.m, *[dd + 1 for dd in deg])
        idx = np.indices(shape_c[1:]).sum(axis=0)
        raw = rng.standard_normal(shape_c) * (0.5 ** idx)
        pert = SepFunc(problem.domain, problem.m, problem.p, raw)
        norms = graded_norms_upto(pert, probe_k)
        scale = min(
            radii.value(k) / norms[k] for k in range(probe_k + 1) if norms[k] > 0
        )
        return i0 + pert * (0.9 * min(1.0, scale) if math.isfinite(scale) else 0.0)

    def graded_sweep(f: SepFunc, k_top: int, t_max: int) -> np.ndarray:
        # level k: grid max over components and |beta| <= k, beta_t <= t_max
        levels = np.zeros(k_top + 1)
        for beta, vals in fs.derivatives_on_grid(f, fs.graded_indices(k_top, s, t_max), pts):
            k_from = sum(beta)
            levels[k_from:] = np.maximum(levels[k_from:], fs.sup_abs(vals))
        return levels

    best = np.zeros(k_max + 1)
    for _ in range(n_pairs):
        u, v = random_member(), random_member()
        dens = graded_sweep(u - v, k_max + problem.L, problem.p)
        nums = graded_sweep(eval_G(problem, u) - eval_G(problem, v), k_max, 0)
        for k in range(k_max + 1):
            if dens[k + problem.L] > 1e-13:
                best[k] = max(best[k], float(nums[k] / dens[k + problem.L]))
    return LipschitzFactors.from_table(
        tuple(best * LIPSCHITZ_INFLATION),
        {
            "method": "sampled",
            "n_pairs": n_pairs,
            "seed": seed,
            "inflation": LIPSCHITZ_INFLATION,
            "certified": False,
        },
    )


# ---------------------------------------------------------------------------
# Contraction constants
# ---------------------------------------------------------------------------


def paper_lambda_bar_log(
    factors: LipschitzFactors, d: int, L: int, tbar: float, k: int, n: int
) -> float:
    """log of the constant-factor closed form Tbar^{nd}/(nd)! prod Lambda_{k+jL}."""
    if n == 0:
        return 0.0
    if factors.is_zero:
        return -math.inf
    acc = n * d * math.log(tbar) - math.lgamma(n * d + 1)
    for j in range(n):
        acc += math.log(factors.at(k + j * L))
    return acc


def log_lambda_bar(
    factors: LipschitzFactors,
    d: int,
    L: int,
    domain: Domain,
    mode: str = "recursion",
) -> Callable[[int, int], float]:
    """log LambdaBar_{k,n} as a function of (k, n).

    "paper" is the paper's constant-factor closed form.  "recursion" bounds
    the literal recursion from above.  That recursion is
    LambdaBar_{k,n} = prod_{i<n} Lambda_{k+iL} * E_n(Tbar), with E_0 = 1 and
    E_m = max_{1<=j<=d} I^j E_{m-1}, I the integral in tau = |t - t0| from 0.
    Every E_m is nonnegative and nondecreasing, and for such g Chebyshev's
    integral inequality gives I^j g(tau) <= tau^{j-1}/j! * I g(tau).  Hence
    E_m <= c * I E_{m-1} on [0, Tbar] with c = max_{1<=j<=d} Tbar^{j-1}/j!, and

        LambdaBar_{k,n} <= prod_{i<n} Lambda_{k+iL} * (c Tbar)^n / n!,

    the paper form with d = 1 and Tbar scaled by c.  For Tbar <= 2, c = 1 and
    the bound is the recursion's exact value: with E_{m-1} = tau^{m-1}/(m-1)!,
    branch j+1 over branch j is tau/(m+j) <= 1, so branch 1 is the maximum at
    every level.  For d = 1 it is exact at any Tbar; past Tbar = 2 with
    d >= 2 it is an upper bound that grows looser with Tbar.
    A zero factor gives -inf for every n > 0.
    """
    tbar = domain.tbar
    if mode == "paper":
        return lambda k, n: paper_lambda_bar_log(factors, d, L, tbar, k, n)
    if mode != "recursion":
        raise PicardError(f"unknown lambda mode {mode!r}")
    scaled = tbar * max(tbar ** (j - 1) / math.factorial(j) for j in range(1, d + 1))
    return lambda k, n: paper_lambda_bar_log(factors, 1, L, scaled, k, n)


def lambda_bar(
    factors: LipschitzFactors,
    d: int,
    L: int,
    domain: Domain,
    k: int,
    n: int,
    mode: str = "recursion",
) -> float:
    return math.exp(log_lambda_bar(factors, d, L, domain, mode)(k, n))


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def _numeric_term(log_bar: float, norm: float, idx: int) -> float:
    """LambdaBar * ||P(i0) - i0||_idx from log LambdaBar, without overflow.

    While exp(log_bar) is finite the term is the plain product; past that it
    is taken in logs, so a zero norm still gives a zero term.
    """
    if not norm >= 0:
        raise PicardError(f"invalid increment norm at index {idx}")
    if norm == 0.0:
        return 0.0
    bar = exp_or_inf(log_bar)
    return bar * norm if bar < math.inf else exp_or_inf(log_bar + math.log(norm))


def certify_weissinger(
    problem: CauchyProblem,
    factors: LipschitzFactors,
    radii: Radii,
    k_list: Sequence[int],
    n_max: int,
    *,
    mode: str | None = None,
    growth: Sequence[Any] | None = None,
) -> LodCertificate:
    """Weissinger certificate: terms LambdaBar_{k,n} ||P(i0) - i0||_{k+nL}.

    Without ``growth`` the increments are numeric norms of P(i0) - i0 at
    ``problem.i0``, the starting point of solve, limited to indices
    <= NUMERIC_K_CAP (spectral norms of higher order are numerically
    meaningless); with it, the growth model of the initial data supplies
    them.  The contraction constants are the closed-form bound of the
    literal recursion by default, or the paper's constant-factor closed form
    in "paper" mode (growth-model certificates default to paper mode, which
    is the form the growth analysis is stated in); see log_lambda_bar.
    ``radii`` is not read (the factors hold their ball); positional callers pass it.
    """
    norm_source = "growth_model" if growth is not None else "numeric"
    if mode is None:
        mode = "paper" if norm_source == "growth_model" else "recursion"
    L = problem.L
    log_bar = log_lambda_bar(factors, problem.d, L, problem.domain, mode)
    rows = []
    meta = {
        "mode": mode,
        "norm_source": norm_source,
        "k_cap": NUMERIC_K_CAP,
        "n_max": n_max,
        "lambda_meta": factors.meta,
        "norm_grid": {"factor": fs.NORM_GRID_FACTOR, "min_points": fs.NORM_GRID_MIN},
    }
    if norm_source == "numeric":
        i0 = problem.i0
        inc = (apply_P(problem, i0, i0) - i0).trim()
        n_hi_of = {
            k: (n_max if L == 0 else min(n_max, (NUMERIC_K_CAP - k) // L)) for k in k_list
        }
        if any(v < 0 for v in n_hi_of.values()):
            raise PicardError(f"some k in {k_list} exceeds the numeric norm cap {NUMERIC_K_CAP}")
        norms = graded_norms_upto(inc, max(k + n_hi_of[k] * L for k in k_list))
        for k in k_list:
            n_hi = n_hi_of[k]
            terms = [_numeric_term(log_bar(k, n), float(norms[k + n * L]), k + n * L)
                     for n in range(n_hi + 1)]
            rows.append(weissinger_row(
                k, terms, meta={"truncated_at_n": n_hi if n_hi < n_max else None},
            ))
    else:
        from . import linear_series as ls

        _require_growth_class(problem)
        lp = ls.LinearProblem.from_cauchy(problem)
        growth = tuple(growth)
        for k in k_list:
            terms = [exp_or_inf(log_bar(k, n) + ls.increment_bound_log(lp, growth, k, n))
                     for n in range(n_max + 1)]
            rows.append(weissinger_row(
                k, terms, meta={"growth": [getattr(g, "kind", "?") for g in growth]},
            ))
    return LodCertificate.from_rows(rows, meta)


def _require_growth_class(problem: CauchyProblem) -> None:
    linear = problem.rhs_class.linear
    if linear is None or not any(linear.mu):
        raise PicardError("growth-model increments need the linear class with |mu| > 0")
    # increment_bound_log models ||P(i0) - i0|| at k + (n + 1)|mu|, rows read k + n L
    if sum(linear.mu) != problem.L:
        raise PicardError(
            f"growth-model increments need L = |mu|, got L={problem.L}, |mu|={sum(linear.mu)}"
        )


def estimate_and_certify(
    problem: CauchyProblem, radii: Radii, k_list: Sequence[int], n_max: int, *,
    mode: str | None, growth: Sequence[Any] | None, seed: int,
) -> LodCertificate:
    """Check the growth precondition, then run estimate_lipschitz and certify_weissinger."""
    if growth is not None:
        _require_growth_class(problem)
    factors = estimate_lipschitz(problem, radii, seed=seed)
    return certify_weissinger(problem, factors, radii, k_list, n_max, mode=mode, growth=growth)


# ---------------------------------------------------------------------------
# End-to-end solve
# ---------------------------------------------------------------------------


@dataclass
class SolveConfig:
    radii: Radii = field(default_factory=Radii.infinite)
    k_check: tuple[int, ...] = (0,)
    tol: float = 1e-10
    n_max: int = 10
    certify_first: bool = False
    certify_n_max: int = 25
    lambda_mode: str | None = None
    residual_tol: float = 1e-7
    growth: tuple[Any, ...] | None = None
    seed: int = 0
    store_iterates: bool = False


@dataclass
class SolveReport:
    status: str
    n_steps: int
    increments: dict[int, list[float]]
    candidate: SepFunc
    certificate: LodCertificate | None
    certificate_note: str | None
    bounds: dict[int, list[float]] | None
    bounds_are_estimates: bool
    residuals: ResidualReport | None
    residual_ok: bool | None
    ball_log: list[dict]
    membership: str
    truncation: list[float]
    iterates: list[SepFunc] | None

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "n_steps": self.n_steps,
            "increments": {str(k): v for k, v in self.increments.items()},
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "certificate_note": self.certificate_note,
            "bounds": {str(k): v for k, v in self.bounds.items()} if self.bounds else None,
            "bounds_are_estimates": self.bounds_are_estimates,
            "residuals": self.residuals.to_json_dict() if self.residuals else None,
            "residual_ok": self.residual_ok,
            "ball_log": self.ball_log,
            "membership": self.membership,
            "truncation": self.truncation,
            "candidate": self.candidate.to_json_dict(),
            "iterates": [f.to_json_dict() for f in self.iterates] if self.iterates else None,
        }


def solve(problem: CauchyProblem, config: SolveConfig | None = None) -> SolveReport:
    """Run Picard iteration from i0 with ball logging, then validate.

    Raises CertifiedDivergence when the Weissinger certificate is diverging
    and either certify-first is on or the iteration overflows, and
    BallEscape when an iterate leaves the ball of the configured radii.
    """
    cfg = config or SolveConfig()
    i0 = problem.i0

    certificate = None
    note = None
    try:
        certificate = estimate_and_certify(
            problem, cfg.radii, (0,), cfg.certify_n_max,
            mode=cfg.lambda_mode, growth=cfg.growth, seed=cfg.seed,
        )
    except PicardError as exc:
        note = f"certificate unavailable: {exc}"
    if cfg.certify_first:
        if certificate is None:
            raise PicardError(note or "certificate unavailable")
        if certificate.verdict == DIVERGING:
            raise CertifiedDivergence(certificate)

    k_top = max(cfg.k_check)
    ball_log: list[dict] = []
    truncation: list[float] = []
    last_norms: list = [None, None]  # (difference, its norms up to k_top)

    def step(y: SepFunc) -> SepFunc:
        y_next = apply_P(problem, y, i0)
        truncation.append(y_next.truncation or 0.0)
        return y_next

    def in_ball(y: SepFunc) -> bool:
        # i0 is the centre of the ball: neither checked nor logged
        if y is i0:
            return True
        report = ball_check(y, i0, cfg.radii, k_top)
        n = len(ball_log) + 1
        ball_log.append({"n": n, **report.to_json_dict()})
        if not report.member:
            bad = next(r for r in report.rows if not r.within)
            raise BallEscape(n, bad.k, bad.distance, bad.radius)
        return True

    def seminorm(diff: SepFunc, k: int) -> float:
        # one norm sweep per step serves every k in k_check
        if last_norms[0] is not diff:
            last_norms[:] = [diff, graded_norms_upto(diff, k_top)]
        return float(last_norms[1][k])

    space = GradedSpaceHandle(
        seminorm, lambda a, b: (a - b).trim(), P=step, membership=in_ball
    )
    try:
        run = iterate_to_fixed_point(
            space, i0, IterationStop(cfg.k_check, cfg.tol, cfg.n_max),
            store_iterates=cfg.store_iterates,
        )
    except (NonFiniteValue, fs.NonFiniteCoefficients) as exc:
        if certificate is not None and certificate.verdict == DIVERGING:
            raise CertifiedDivergence(certificate) from exc
        raise
    y = run.candidate

    residuals = None
    residual_ok = None
    if run.converged:
        residuals = residual(problem, y)
        residual_ok = bool(
            residuals.pde_residual <= cfg.residual_tol
            and all(r <= cfg.residual_tol for r in residuals.ic_residuals)
        )

    bounds = None
    estimates = False
    if certificate is not None:
        bounds = {}
        for k in cfg.k_check:
            try:
                row = certificate.row(k)
            except GradedCoreError:
                continue
            if row.verdict != CONVERGED:
                continue
            tails = [row.tail_bound(n) for n in range(run.n_steps + 1)]
            bounds[k] = [t.value for t in tails]
            estimates = estimates or any(t.is_estimate for t in tails)
        if not bounds:
            bounds = None

    return SolveReport(
        status=run.status,
        n_steps=run.n_steps,
        increments=run.increments,
        candidate=y,
        certificate=certificate,
        certificate_note=note,
        bounds=bounds,
        bounds_are_estimates=estimates,
        residuals=residuals,
        residual_ok=residual_ok,
        ball_log=ball_log,
        membership="checked" if not cfg.radii.is_infinite() else "vacuous (infinite radii)",
        truncation=truncation,
        iterates=run.iterates,
    )
