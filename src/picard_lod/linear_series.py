"""Closed-form series machinery for the linear class d_t^d y = p(t) d_x^mu d_t^gamma y + q.

Provides the coefficient recursions behind the explicit formula for the
n-th Picard iterate, the resulting series solution, growth-class
classification of the Weissinger condition (exponential / analytic /
power-scale initial data), radii construction, a worked-example catalog,
the parameter-limit experiment, and the divergence demo for the
quadratic transport-type right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

from . import funcspace as fs
from . import picard_pde as pp
from .expr import (
    Arity,
    Binary,
    Const,
    Expr,
    Placeholder,
    eval_expr,
    free_variables,
    parse_expression,
    print_expression,
    symbolic_partial,
)
from .funcspace import (
    Domain,
    Radii,
    SepFunc,
    graded_norm,
    interpolate,
    iterated_time_integral,
    partial_derivative,
)
from .graded_core import (
    CONVERGED,
    DIVERGING,
    INCONCLUSIVE,
    LodCertificate,
    exp_or_inf,
    weissinger_row,
)

__all__ = [
    "GrowthClass",
    "LinearProblem",
    "MuEta",
    "LinearSeriesError",
    "mu_eta_recursions",
    "picard_closed_form",
    "series_solution",
    "increment_bound",
    "increment_bound_log",
    "classify_convergence",
    "ClassificationReport",
    "radii_from_series",
    "example_catalog",
    "CatalogCase",
    "parameter_limit_experiment",
    "ExperimentReport",
    "burgers_demo",
]


# x degree of the interpolated data and forcing unless a caller sets one
SERIES_X_DEGREE = 24
Q_PROBE_ORDER = 6  # x-derivative order up to which a forcing bound left out is probed


class LinearSeriesError(Exception):
    pass


# ---------------------------------------------------------------------------
# Growth classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthClass:
    """Symbolic model of the growth of ||y0j||_K.

    exponential: C^K; analytic: C^K K!; sigma: (nL)^(sigma nL) where n is the
    Weissinger summation stage; free: admissible only below the gamma index.
    """

    kind: str  # "exponential" | "analytic" | "sigma" | "free"
    C: float | None = None
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind in ("exponential", "analytic"):
            if self.C is None or self.C <= 0:
                raise LinearSeriesError(f"{self.kind} class needs C > 0")
        elif self.kind == "sigma":
            if self.sigma is None or self.sigma <= 0:
                raise LinearSeriesError("sigma class needs sigma > 0")
        elif self.kind != "free":
            raise LinearSeriesError(f"unknown growth kind {self.kind!r}")

    def log_norm(self, K: int, stage: int, L: int) -> float:
        """log of the modelled ||y0j||_K at summation stage ``stage``."""
        if self.kind == "exponential":
            return K * math.log(self.C)
        if self.kind == "analytic":
            return K * math.log(self.C) + math.lgamma(K + 1)
        if self.kind == "sigma":
            nL = stage * L
            return 0.0 if nL <= 0 else self.sigma * nL * math.log(nL)
        raise LinearSeriesError("a free initial condition carries no growth model")


# ---------------------------------------------------------------------------
# Linear problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearProblem:
    """Problem of the class d_t^d y = p(t) . d_x^mu d_t^gamma y + q(t, x).

    ``p_coef`` is the m-by-m matrix of t-only coefficient expressions, ``q``
    the forcing (one expression per component) with declared uniform
    derivative bound ``Q``, and ``initial`` the d-by-m initial data table.
    """

    domain: Domain
    m: int
    d: int
    gamma: int
    mu: tuple[int, ...]
    p_coef: tuple[tuple[Expr, ...], ...]
    q: tuple[Expr, ...]
    Q: float
    initial: tuple[tuple[Expr, ...], ...]

    def __post_init__(self) -> None:
        mu = tuple(int(v) for v in self.mu)
        object.__setattr__(self, "mu", mu)
        if len(mu) != self.domain.s:
            raise LinearSeriesError("mu dimension mismatch")
        if sum(mu) <= 0:
            raise LinearSeriesError("the class requires |mu| = L > 0")
        if not 0 <= self.gamma < self.d:
            raise LinearSeriesError("need 0 <= gamma < d")
        if self.Q < 0:
            raise LinearSeriesError("Q must be nonnegative")
        pc = tuple(tuple(row) for row in self.p_coef)
        object.__setattr__(self, "p_coef", pc)
        if len(pc) != self.m or any(len(r) != self.m for r in pc):
            raise LinearSeriesError("p must be an m-by-m expression matrix")
        for row in pc:
            for e in row:
                if not free_variables(e) <= {"t"}:
                    raise LinearSeriesError("p entries must depend on t only")
        q = tuple(self.q) if isinstance(self.q, (list, tuple)) else (self.q,)
        object.__setattr__(self, "q", q)
        init = tuple(tuple(r) if isinstance(r, (list, tuple)) else (r,) for r in self.initial)
        object.__setattr__(self, "initial", init)
        if len(init) != self.d:
            raise LinearSeriesError("initial data must have d rows")

    @property
    def L(self) -> int:
        return sum(self.mu)

    @property
    def p(self) -> int:
        return self.gamma

    def norm_p(self) -> float:
        """sup over T of the max-row-sum norm of p, evaluated once per problem."""
        return self._p_sup

    @cached_property
    def _p_sup(self) -> float:
        return pp._matrix_sup_norm(self.p_coef, self.domain)

    def to_cauchy(self) -> pp.CauchyProblem:
        rhs = []
        for h in range(self.m):
            terms = []
            for l in range(self.m):
                ph = Placeholder(self.mu, self.gamma, l + 1)
                c = self.p_coef[h][l]
                if isinstance(c, Const) and c.value == 0.0:
                    continue
                terms.append(Binary("*", c, ph))
            e = self.q[h]
            for tterm in terms:
                e = Binary("+", e, tterm) if not _is_zero(e) else tterm
            rhs.append(e if terms or not _is_zero(e) else Const(0.0))
        return pp.CauchyProblem(
            self.domain, self.m, self.d, self.gamma, self.L,
            tuple(rhs), self.initial,
        )

    @classmethod
    def from_cauchy(cls, problem: pp.CauchyProblem, Q: float | None = None) -> "LinearProblem":
        st = problem.rhs_class.linear
        if st is None:
            raise LinearSeriesError("right-hand side is not of the linear class")
        if sum(st.mu) == 0:
            raise LinearSeriesError("the linear class requires |mu| > 0")
        if Q is None:
            Q = _probe_q_bound(st.q, problem.domain)
        return cls(
            problem.domain, problem.m, problem.d, st.gamma, st.mu,
            st.p, st.q, Q, problem.initial,
        )


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _probe_q_bound(q: Sequence[Expr], domain: Domain) -> float:
    pts = fs.uniform_grid(domain, fs.CHECK_GRID_POINTS)
    bindings = fs.grid_bindings(pts)
    shape = tuple(len(g) for g in pts)
    best = 0.0
    for e in q:
        for nu in fs._multi_indices(Q_PROBE_ORDER, domain.s):
            de = e
            for dim, order in enumerate(nu, start=1):
                de = symbolic_partial(de, f"x{dim}", order)
            best = max(best, fs.sup_abs(fs.eval_on_grid([de], bindings, shape)))
    return best


# ---------------------------------------------------------------------------
# Coefficient recursions
# ---------------------------------------------------------------------------


def _t_interp_matrix(problem: LinearProblem) -> np.ndarray:
    """Chebyshev coefficients on T of every p entry, adaptively resolved."""
    dom = problem.domain
    t_dom = Domain(dom.t0, dom.a, dom.b)
    deg = 16
    while True:
        out = np.array([
            [interpolate(e, t_dom, (deg,)).coeffs[0] for e in row]
            for row in problem.p_coef
        ])
        tail = np.max(np.abs(out[..., -2:])) / (np.max(np.abs(out)) or 1.0)
        if tail < 1e-13 or deg >= 64:
            return out
        deg *= 2


def _chebmul_trunc(a: np.ndarray, b: np.ndarray, cap: int = fs.DEGREE_CAP) -> np.ndarray:
    c = cheb.chebmul(a, b)
    return c[: cap + 1]


def _mat_t_product(P: np.ndarray, M: np.ndarray) -> np.ndarray:
    """(P . M) for matrices of t-coefficient rows: contraction with chebmul."""
    m = P.shape[0]
    nt = P.shape[2] + M.shape[2] - 1
    out = np.zeros((m, m, min(nt, fs.DEGREE_CAP + 1)))
    for h in range(m):
        for j in range(m):
            acc = np.zeros(1)
            for l in range(m):
                acc = np.add(*fs.pad_to_common(acc, _chebmul_trunc(P[h, l], M[l, j])))
            out[h, j, : len(acc)] = acc
    return out


def _mat_int(problem: LinearProblem, M: np.ndarray, folds: int) -> np.ndarray:
    lo, hi = problem.domain.t_interval
    u0 = (2 * problem.domain.t0 - lo - hi) / (hi - lo)
    return fs.cheb_integral(M, folds, lbnd=u0, scl=(hi - lo) / 2, axis=2)


def _mat_der(problem: LinearProblem, M: np.ndarray, order: int) -> np.ndarray:
    if order == 0:
        return M
    if M.shape[2] - 1 < order:
        return np.zeros((M.shape[0], M.shape[1], 1))
    lo, hi = problem.domain.t_interval
    return cheb.chebder(M, m=order, scl=2.0 / (hi - lo), axis=2)


def _p_times_sep(problem: LinearProblem, P: np.ndarray, f: SepFunc) -> SepFunc:
    """p(t) . f for a matrix of t-coefficients and a vector SepFunc."""
    nt_in = f.coeffs.shape[1]
    comps = []
    for h in range(problem.m):
        acc = None
        for l in range(problem.m):
            op = np.zeros((min(P.shape[2] + nt_in - 1, fs.DEGREE_CAP + 1), nt_in))
            for i in range(nt_in):
                e = np.zeros(nt_in)
                e[i] = 1.0
                col = _chebmul_trunc(P[h, l], e)
                op[: len(col), i] = col
            term = np.tensordot(op, f.coeffs[l], axes=(1, 0))
            acc = term if acc is None else np.add(*fs.pad_to_common(acc, term))
        comps.append(acc)
    return SepFunc(problem.domain, problem.m, problem.p, np.stack(fs.pad_to_common(*comps)))


@dataclass
class MuEta:
    """Coefficient sequences of the explicit iterate formula.

    ``mu[j]`` lists, per step h, the m-by-m matrix of Chebyshev t-coefficients
    multiplying d_x^{h mu} y0j / (j - gamma)!; ``eta`` lists the forcing
    contributions.
    """

    mu: dict[int, list[np.ndarray]]
    eta: list[SepFunc]


def mu_eta_recursions(
    problem: LinearProblem,
    h_max: int,
    *,
    x_degree: int = SERIES_X_DEGREE,
) -> MuEta:
    """Exact polynomial recursions for the iterate formula's coefficients.

    The base is (j-gamma)!/j! (t-t0)^j, the step I_d[p d_t^gamma .], eta_0 =
    q, eta_1 = I_d[q] and eta_{h+1} = I_d[p d_x^mu d_t^gamma eta_h] for
    h >= 1; this reproduces the Picard iterates exactly.
    """
    P = _t_interp_matrix(problem)
    mu: dict[int, list[np.ndarray]] = {}
    for j in range(problem.gamma, problem.d):
        # base (j-gamma)!/j! (t-t0)^j times the identity; its gamma-th
        # time derivative is exactly (t-t0)^{j-gamma}, which makes the
        # uniform step below reproduce the Picard iterates
        tp = pp._tpoly_cheb(problem.domain, j) * math.factorial(j - problem.gamma)
        cur = np.zeros((problem.m, problem.m, len(tp)))
        for h in range(problem.m):
            cur[h, h] = tp
        seq = [cur]
        for _ in range(h_max):
            cur = _mat_int(
                problem,
                _mat_t_product(P, _mat_der(problem, cur, problem.gamma)),
                problem.d,
            )
            seq.append(cur)
        mu[j] = seq

    # eta sequence
    q_expr = list(problem.q)
    sdeg = (x_degree,) * problem.domain.s
    q0 = interpolate(q_expr, problem.domain, (max(P.shape[2] - 1, 8), *sdeg),
                     m=problem.m, p=problem.p).trim()
    eta: list[SepFunc] = [q0]
    cur_eta = q0
    for h in range(1, h_max + 1):
        if h == 1:
            nxt = iterated_time_integral(cur_eta, problem.d)
        else:
            d_eta = partial_derivative(cur_eta, (problem.gamma, *problem.mu))
            nxt = iterated_time_integral(
                _p_times_sep(problem, P, d_eta), problem.d
            )
        nxt = nxt.trim()
        eta.append(nxt)
        cur_eta = nxt
    return MuEta(mu, eta)

# ---------------------------------------------------------------------------
# Explicit Picard iterates and the series solution
# ---------------------------------------------------------------------------


def _x_derivative_tower(
    problem: LinearProblem,
    row: Sequence[Expr],
    n: int,
    x_degree: int,
    seen: dict[str, SepFunc],
    h_from: int = 0,
) -> Iterator[SepFunc]:
    """Interpolants of d_x^{h mu} applied to a row of initial data, h = h_from..n.

    Step h takes order * h symbolic steps per axis of mu, axes in order.  The
    first axis's chain is extended from step h - 1; the later axes are redone
    from it.  A row is interpolated only if its repr (which keeps -0.0 apart
    from 0.0) is not yet in ``seen``, the caller's dict for one computation:
    derivatives of sin data repeat with period 4, and of polynomials end in 0.
    """
    axes = [(f"x{dim}", order) for dim, order in enumerate(problem.mu, start=1) if order]
    chain = list(row)
    for h in range(n + 1):
        if h and axes:
            var, order = axes[0]
            chain = [symbolic_partial(e, var, order) for e in chain]
        exprs = chain
        for var, order in axes[1:]:
            exprs = [symbolic_partial(e, var, order * h) for e in exprs]
        if h < h_from:
            continue
        key = repr(exprs)
        if key not in seen:
            seen[key] = interpolate(
                exprs, problem.domain, (0, *(x_degree,) * problem.domain.s),
                m=problem.m, p=problem.p,
            ).trim()
        yield seen[key]


def _series_terms(
    problem: LinearProblem,
    n: int,
    *,
    x_degree: int = SERIES_X_DEGREE,
) -> tuple[SepFunc, list[SepFunc]]:
    """i0 and the per-step contributions of the explicit iterate formula."""
    cauchy = problem.to_cauchy()
    i0 = pp.initial_polynomial(cauchy, (x_degree,) * problem.domain.s)
    rec = mu_eta_recursions(problem, n, x_degree=x_degree)
    seen: dict[str, SepFunc] = {}
    towers = {j: _x_derivative_tower(problem, problem.initial[j], n, x_degree, seen, h_from=1)
              for j in range(problem.gamma, problem.d)}
    terms: list[SepFunc] = []
    for h in range(1, n + 1):
        acc = rec.eta[h]
        for j, tower in towers.items():
            xf = next(tower)
            sigma = rec.mu[j][h]  # (m, m, nt)
            scale = 1.0 / math.factorial(j - problem.gamma)
            comps = []
            for hh in range(problem.m):
                comp = None
                for l in range(problem.m):
                    tc = sigma[hh, l]
                    if not np.any(tc):
                        continue
                    block = np.tensordot(tc, xf.coeffs[l][0], axes=0) * scale
                    comp = block if comp is None else np.add(*fs.pad_to_common(comp, block))
                if comp is None:
                    comp = np.zeros((1,) * (1 + problem.domain.s))
                comps.append(comp)
            term = SepFunc(problem.domain, problem.m, problem.p,
                           np.stack(fs.pad_to_common(*comps)))
            acc = acc + term
        terms.append(acc.trim())
    return i0, terms


def picard_closed_form(
    problem: LinearProblem,
    n: int,
    *,
    x_degree: int = SERIES_X_DEGREE,
) -> SepFunc:
    """The n-th Picard iterate assembled from the coefficient recursions."""
    i0, terms = _series_terms(problem, n, x_degree=x_degree)
    out = i0
    for term in terms:
        out = out + term
    return out.trim()


def series_solution(
    problem: LinearProblem,
    N: int,
    *,
    growth: Sequence[GrowthClass] | None = None,
    x_degree: int = SERIES_X_DEGREE,
) -> tuple[SepFunc, dict]:
    """Partial sum of the series solution with a last-term tail diagnostic."""
    if N < 1:
        i0, _ = _series_terms(problem, 0, x_degree=x_degree)
        return i0, {"last_term_sup": 0.0, "terms": 0}
    if growth is not None:
        report = classify_convergence(problem, growth)
        if report.verdict == DIVERGING:
            raise LinearSeriesError(
                "series requested for a problem classified as diverging"
            )
    i0, terms = _series_terms(problem, N, x_degree=x_degree)
    out = i0
    for term in terms:
        out = out + term
    tail = graded_norm(terms[-1], 0)
    constant_case = not any(
        free_variables(e) for e in (*(e for row in problem.p_coef for e in row), *problem.q)
    )
    return out.trim(), {
        "last_term_sup": tail,
        "terms": N,
        "constant_case": constant_case,
    }


# ---------------------------------------------------------------------------
# Growth-model bounds
# ---------------------------------------------------------------------------


def _growth_for(problem: LinearProblem, growth: Sequence[GrowthClass], j: int) -> GrowthClass:
    if j >= len(growth):
        raise LinearSeriesError(f"missing growth class for initial index j={j}")
    g = growth[j]
    if g.kind == "free":
        raise LinearSeriesError(
            f"initial index j={j} >= gamma needs a growth model, got 'free'"
        )
    return g


def _logsumexp(vals: Iterable[float]) -> float:
    vals = [v for v in vals]
    hi = max(vals, default=-math.inf)
    if math.isinf(hi):
        return hi
    return hi + math.log(sum(math.exp(v - hi) for v in vals))


def increment_bound_log(
    problem: LinearProblem,
    growth: Sequence[GrowthClass],
    k: int,
    n: int,
) -> float:
    """log of the modelled bound on ||P(i0) - i0||_{k+nL}.

    Uses the simplified display for Tbar <= 1; for Tbar > 1 the explicit
    time-power prefactors are restored from the pre-simplified estimate
    ("extended mode").
    """
    L = problem.L
    tbar = problem.domain.tbar
    log_p = math.log(max(problem.norm_p(), pp.EPS_FLOOR))
    extended = tbar > 1.0
    parts = []
    for j in range(problem.gamma, problem.d):
        g = _growth_for(problem, growth, j)
        lg = g.log_norm(k + (n + 1) * L, n, L)
        if extended:
            pre = max(
                (j - problem.gamma + problem.d - b1) * math.log(tbar)
                - math.lgamma(j - problem.gamma + problem.d - b1 + 1)
                for b1 in range(problem.gamma + 1)
            )
        else:
            pre = -math.lgamma(j - problem.gamma + problem.d + 1)
        parts.append(log_p + lg + pre)
    if problem.Q > 0:
        if extended:
            qpre = max(
                (problem.d - b1) * math.log(tbar) - math.lgamma(problem.d - b1 + 1)
                for b1 in range(problem.gamma + 1)
            )
            parts.append(math.log(problem.Q) + qpre)
        else:
            parts.append(math.log(problem.Q))
    return _logsumexp(parts)


def increment_bound(
    problem: LinearProblem,
    growth: Sequence[GrowthClass],
    k: int,
    n: int,
) -> float:
    lv = increment_bound_log(problem, growth, k, n)
    return exp_or_inf(lv)


# ---------------------------------------------------------------------------
# Convergence classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str


def classify_convergence(
    problem: LinearProblem,
    growth: Sequence[GrowthClass],
    tbar: float | None = None,
) -> ClassificationReport:
    """Growth-class verdict for the dominant Weissinger series.

    Exponential data converge with no constraint on (d, L); analytic data
    need d >= L (with a ratio threshold on Tbar when d == L); power-scale
    data with exponent sigma need d > sigma L, with the boundary d == sigma L
    left inconclusive.
    """
    T = problem.domain.tbar if tbar is None else float(tbar)
    L, d, gamma = problem.L, problem.d, problem.gamma
    norm_p = max(problem.norm_p(), pp.EPS_FLOOR)
    # every j >= gamma needs a growth model, also past a rule that decides
    models = [_growth_for(problem, growth, j) for j in range(gamma, d)]

    verdict = CONVERGED
    for g in models:
        if g.kind == "exponential":
            continue
        if g.kind == "analytic":
            if d > L:
                continue
            # d < L: (k+(n+1)L)! grows like (nL)^{k+L} (nL)! and beats (nd)!;
            # d = L diverges from the ratio threshold on Tbar up
            if d < L or T >= (1.0 / (g.C ** L * norm_p)) ** (1.0 / d):
                verdict = DIVERGING
                break
        elif g.kind == "sigma":
            if d > g.sigma * L + 1e-12:
                continue
            if abs(d - g.sigma * L) <= 1e-12:
                # the boundary d = sigma L is not covered by the strict rule
                verdict = INCONCLUSIVE
            else:
                # (nL)^{sigma n L} beats (nd)! when d < sigma L
                verdict = DIVERGING
                break
    return ClassificationReport(verdict)


# ---------------------------------------------------------------------------
# Radii from the series bounds
# ---------------------------------------------------------------------------


def radii_from_series(
    problem: LinearProblem,
    growth: Sequence[GrowthClass],
    k: int,
    h_max: int = 400,
) -> float:
    """Radius r_k from the displayed two-series bound; +inf when it diverges."""
    L, d, gamma = problem.L, problem.d, problem.gamma
    T = problem.domain.tbar
    log_p = math.log(max(problem.norm_p(), pp.EPS_FLOOR))
    total = 0.0
    prev = None
    rising = 0
    for h in range(1, h_max + 1):
        parts = []
        for j in range(gamma, d):
            g = _growth_for(problem, growth, j)
            parts.append(
                g.log_norm(k + h * L, h - 1, L)
                - math.lgamma(j - gamma + 1)
                + h * log_p
                + (h * (d - gamma) + j) * math.log(T)
                - h * math.lgamma(d - gamma + 1)
            )
        t = exp_or_inf(_logsumexp(parts))
        if math.isinf(t):
            return math.inf
        total += t
        if prev is not None and t > prev:
            rising += 1
            if rising >= 8:
                return math.inf
        else:
            rising = 0
        prev = t
        if t < 1e-16 * max(total, 1e-300):
            break
    if problem.Q > 0:
        for h in range(0, h_max + 1):
            t = exp_or_inf(
                math.log(problem.Q)
                + h * log_p
                + (h + 1) * (d - gamma) * math.log(T)
                - math.lgamma((h + 1) * (d - gamma) + 1)
            )
            if math.isinf(t):
                return math.inf
            total += t
            if t < 1e-16 * max(total, 1e-300):
                break
    return max(total, 1e-300)


# ---------------------------------------------------------------------------
# Worked-example catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogCase:
    name: str
    problem: LinearProblem
    oracle: Callable[[np.ndarray, np.ndarray], np.ndarray]
    note: str


def _series_oracle(
    y0_exprs: Sequence[tuple[Expr, int]],
    dx_step: int,
    a: float,
    t_power: Callable[[int, int], tuple[int, int]],
    n_terms: int = 40,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Series summation oracle: sum_n d_x^{n dx_step} y0 a^n t^e / e!.

    ``t_power(which, n)`` returns (exponent, factorial argument) per data row.
    """

    def oracle(t: np.ndarray, x: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.broadcast(t, x).shape)
        for which, (expr, _) in enumerate(y0_exprs):
            de = expr
            for n in range(n_terms):
                exp_, fact_ = t_power(which, n)
                vals = np.asarray(eval_expr(de, {"x1": x}), dtype=float)
                out = out + vals * (a ** n) * t ** exp_ / math.factorial(fact_)
                de = symbolic_partial(de, "x1", dx_step)
        return out

    return oracle


def example_catalog(
    case: str,
    *,
    a: float = 1.0,
    y00: str | None = None,
    y01: str | None = None,
    domain: Domain | None = None,
) -> CatalogCase:
    """Linear catalog instances with their series-solution oracles.

    Cases: heat (d_t y = a d_x^2 y), wave (d_t^2 y = a d_x^2 y), transport
    (d_t y = a d_x y), mixed_dt_dx (d_t^2 y = a d_t d_x y) and dt2_dx
    (d_t^2 y = a d_x y).  The wave oracle is the directly computed Picard
    series (powers t^{2n}/(2n)!), not the displayed one; see the note.
    """
    specs = {
        "heat": dict(d=1, gamma=0, mu=(2,), y00="sin(x1)", y01=None),
        "wave": dict(d=2, gamma=0, mu=(2,), y00="sin(x1)", y01="0"),
        "transport": dict(d=1, gamma=0, mu=(1,), y00="sin(x1)", y01=None),
        "mixed_dt_dx": dict(d=2, gamma=1, mu=(1,), y00="0", y01="x1"),
        "dt2_dx": dict(d=2, gamma=0, mu=(1,), y00="x1^2", y01="0"),
    }
    if case not in specs:
        raise LinearSeriesError(
            f"unknown catalog case {case!r}; choose from {sorted(specs)}"
        )
    spec = specs[case]
    d, gamma, mu = spec["d"], spec["gamma"], spec["mu"]
    y00 = y00 if y00 is not None else spec["y00"]
    y01 = y01 if y01 is not None else spec["y01"]
    dom = domain or Domain(0.0, 0.25, 0.25, ((-math.pi, math.pi),))
    ax = Arity(s=1)
    e00 = parse_expression(y00, ax)
    rows = [(e00,)]
    if d == 2:
        e01 = parse_expression(y01 or "0", ax)
        rows.append((e01,))
    prob = LinearProblem(
        dom, 1, d, gamma, mu,
        ((Const(float(a)),),), (Const(0.0),), 0.0, tuple(rows),
    )
    Lstep = sum(mu)
    t0 = dom.t0
    note = ""

    if case == "heat":
        oracle = _series_oracle([(e00, 0)], Lstep, a, lambda w, n: (n, n))
    elif case == "transport":
        oracle = _series_oracle([(e00, 0)], Lstep, a, lambda w, n: (n, n))
    elif case == "wave":
        note = (
            "directly computed Picard series (t-powers t^{2n}/(2n)!); the "
            "displayed series with t^n/n! disagrees with the iteration"
        )
        oracle = _series_oracle(
            [(e00, 0), (rows[1][0], 1)], Lstep, a,
            lambda w, n: (2 * n + w, 2 * n + w),
        )
    elif case == "dt2_dx":
        oracle = _series_oracle(
            [(e00, 0), (rows[1][0], 1)], Lstep, a,
            lambda w, n: (2 * n + w, 2 * n + w),
        )
    else:  # mixed_dt_dx: y00 free, series over y01 only
        base = _series_oracle(
            [(rows[1][0], 0)], Lstep, a, lambda w, n: (n + 1, n + 1)
        )

        def oracle(t: np.ndarray, x: np.ndarray) -> np.ndarray:
            free = np.asarray(eval_expr(e00, {"x1": np.asarray(x, dtype=float)}))
            return np.broadcast_to(free, np.broadcast(t, x).shape) + base(t, x)

    def shifted(t: np.ndarray, x: np.ndarray) -> np.ndarray:
        return oracle(np.asarray(t) - t0, x)

    return CatalogCase(case, prob, shifted, note)


# ---------------------------------------------------------------------------
# Parameter-limit experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[tuple[float, float], ...]  # (eps, sup distance to eps=0)
    premise_ok: bool
    warnings: tuple[str, ...]


def parameter_limit_experiment(
    family: Callable[[float], LinearProblem],
    eps_list: Sequence[float],
    N: int = 20,
) -> ExperimentReport:
    """Sup distance of truncated series solutions to the eps = 0 member.

    The dominated-convergence premise is probed numerically: the per-step
    sup of the relevant data derivatives must look summable; a failed probe
    is reported as a warning and the experiment still runs.
    """
    warnings = []
    base_prob = family(0.0)
    base, _ = series_solution(base_prob, N)
    pts = fs.uniform_grid(base_prob.domain, fs.CHECK_GRID_POINTS)
    base_vals = base.eval_grid(pts[0], pts[1:])

    premise_ok = True
    for eps in eps_list:
        prob = family(eps)
        sups, seen = [], {}
        for j in range(prob.gamma, prob.d):
            for xf in _x_derivative_tower(prob, prob.initial[j], N, SERIES_X_DEGREE, seen):
                sups.append(graded_norm(xf, 0))
        tail = sups[-6:]
        if len(tail) >= 4 and all(b > a for a, b in zip(tail, tail[1:])):
            premise_ok = False
            warnings.append(
                f"eps={eps}: derivative sups grow through step {N}; the "
                "dominated-convergence premise looks violated"
            )

    rows = []
    for eps in eps_list:
        sol, _ = series_solution(family(eps), N)
        vals = sol.eval_grid(pts[0], pts[1:])
        rows.append((float(eps), fs.sup_abs(vals - base_vals)))
    return ExperimentReport(tuple(rows), premise_ok, tuple(warnings))


# ---------------------------------------------------------------------------
# Divergence demo for the quadratic right-hand side
# ---------------------------------------------------------------------------


def burgers_demo(
    problem: pp.CauchyProblem,
    radii: Radii,
    k_list: Sequence[int],
    n_max: int,
    *,
    sigma: float = 1.0,
) -> LodCertificate:
    """Weissinger certificate for d_t^d y = c y . d_x^mu y with power-scale data.

    The per-step factors (2|c|)^n prod_j (r_{k+jL} + ||i0||-model_{k+jL})
    contain the hyperfactorial when sigma = 1 and L = 1, so the terms blow up
    no matter how small the time interval is.  c must be a constant: for a
    t- or x-dependent c a grid max would not bound sup|c| from above.
    """
    rc = problem.rhs_class
    if rc.mu is None:
        raise LinearSeriesError(
            "demo expects a right-hand side of the form y * d_x^mu y"
        )
    if not all(isinstance(c, Const) for c in rc.coef):
        raise LinearSeriesError(
            "demo needs a constant coefficient c in c * y * d_x^mu y, got "
            + ", ".join(print_expression(c) for c in rc.coef)
        )
    c = max(abs(c.value) for c in rc.coef)
    log_2c = math.log(2.0 * c) if c else 0.0  # with c = 0 only n = 0 reads it
    mu = rc.mu
    L = sum(mu)
    d = problem.d
    tbar = problem.domain.tbar

    def log_model(idx_steps: int) -> float:
        nL = idx_steps * L
        return 0.0 if nL <= 0 else sigma * nL * math.log(nL)

    rows = []
    hyper_log = 0.0
    for k in k_list:
        terms = []
        for n in range(n_max + 1):
            if n and not c:
                terms.append(0.0)  # F = 0 * y * d_x^mu y vanishes
                continue
            log_bar = (
                n * d * math.log(tbar)
                - math.lgamma(n * d + 1)
                + n * log_2c
            )
            for j in range(n):
                r = radii.value(k + j * L)
                model = math.exp(min(log_model(j), 700))
                log_bar += math.log(r + model) if not math.isinf(r) else math.inf
            terms.append(exp_or_inf(log_bar + log_model(n)))
        rows.append(weissinger_row(k, terms, meta={"sigma": sigma, "L": L}))
    if sigma == 1.0 and L == 1:
        hyper_log = sum(j * math.log(j) for j in range(1, n_max))
    return LodCertificate.from_rows(rows, {
        "demo": "quadratic transport-type right-hand side",
        "witness": "hyperfactorial H(n-1) = prod j^j inside the factor product",
        "log_hyperfactorial_at_nmax": hyper_log,
        "sigma": sigma,
    })
