"""Closed-form series machinery for the linear class d_t^d y = p(t) d_x^mu d_t^gamma y + q.

Provides the coefficient recursions behind the explicit formula for the
n-th Picard iterate, the resulting series solution, growth-class
classification of the Weissinger condition (exponential / analytic /
power-scale initial data), a worked-example catalog, and the divergence
demo for the quadratic transport-type right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import picard_pde as pp
from .expr import (
    Arity,
    Binary,
    Const,
    Expr,
    Placeholder,
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
)
from .graded_core import (
    CONVERGED,
    DIVERGING,
    INCONCLUSIVE,
    LodCertificate,
    LodConstants,
    weissinger_sum,
)

__all__ = [
    "GrowthClass",
    "LinearProblem",
    "MuEta",
    "LinearSeriesError",
    "mu_eta_recursions",
    "picard_closed_form",
    "series_solution",
    "increment_bound_log",
    "classify_convergence",
    "ClassificationReport",
    "example_catalog",
    "CatalogCase",
    "burgers_demo",
]


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
            if not (self.C is not None and 0 < self.C < math.inf):
                raise LinearSeriesError(f"{self.kind} class needs C > 0")
        elif self.kind == "sigma":
            if not (self.sigma is not None and 0 < self.sigma < math.inf):
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
    derivative bound ``Q``, ``initial`` the d-by-m initial data table and
    ``x_degrees`` the x degree per axis (None: X_DEGREE on every axis).
    The problem is a view of one CauchyProblem, ``to_cauchy()``, from which
    the closed form reads i0, the surrogates P of p(t) and q~ of q that the
    step applies, the bound p_sup on P, and I_d[q~], each built once.
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
    x_degrees: tuple[int, ...] | None = None

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
        xd = (pp.X_DEGREE,) * self.domain.s if self.x_degrees is None else tuple(self.x_degrees)
        object.__setattr__(self, "x_degrees", xd)

    @property
    def L(self) -> int:
        return sum(self.mu)

    def to_cauchy(self) -> pp.CauchyProblem:
        """The one CauchyProblem this view reads, built on first use."""
        return self._cauchy

    @cached_property
    def _cauchy(self) -> pp.CauchyProblem:
        # F_h = q_h + sum_l p_hl D^mu d_t^gamma y_l, zero terms kept: always the linear class
        rhs = []
        for h in range(self.m):
            e = self.q[h]
            for l in range(self.m):
                e = Binary("+", e, Binary("*", self.p_coef[h][l],
                                          Placeholder(self.mu, self.gamma, l + 1)))
            rhs.append(e)
        return pp.CauchyProblem(
            self.domain, self.m, self.d, self.gamma, self.L,
            tuple(rhs), self.initial, self.x_degrees,
        )

    @classmethod
    def from_cauchy(cls, problem: pp.CauchyProblem, Q: float | None = None) -> "LinearProblem":
        """The view of ``problem``: its to_cauchy() is ``problem`` itself.

        Without ``Q`` the view reads ``problem.q_sup``, a bound on every
        x-derivative of the q~ that the step applies, not of q itself.
        """
        st = problem.rhs_class.linear
        if st is None:
            raise LinearSeriesError("right-hand side is not of the linear class")
        if sum(st.mu) == 0:
            raise LinearSeriesError("the linear class requires |mu| > 0")
        if Q is None:
            Q = problem.q_sup
        view = cls(
            problem.domain, problem.m, problem.d, st.gamma, st.mu,
            st.p, st.q, Q, problem.initial, problem.x_degrees,
        )
        vars(view)["_cauchy"] = problem  # the cached_property, filled in
        return view


# ---------------------------------------------------------------------------
# Coefficient recursions
# ---------------------------------------------------------------------------


@dataclass
class MuEta:
    """Coefficient sequences of the explicit iterate formula.

    ``mu[j]`` lists, per step h, the m-by-m matrix of Chebyshev t-coefficients
    (shape (m, m, nt)) multiplying d_x^{h mu} y0j / (j - gamma)!; ``eta``
    lists the forcing contributions.  ``cut`` is True when a step cut its
    product by p at t-degree DEGREE_CAP: the sequences then lack the terms
    above it, and are no longer the exact Picard iterates.
    """

    mu: dict[int, list[np.ndarray]]
    eta: list[SepFunc]
    cut: bool = False


def mu_eta_recursions(problem: LinearProblem, h_max: int) -> MuEta:
    """Exact polynomial recursions for the iterate formula's coefficients.

    The base is (j-gamma)!/j! (t-t0)^j, the step I_d[p d_t^gamma .], eta_0 =
    q~, eta_1 = I_d[q~] and eta_{h+1} = I_d[p d_x^mu d_t^gamma eta_h] for
    h >= 1; this reproduces the Picard iterates exactly.  Both recursions
    run CauchyProblem.linear_step, the step of the Picard operator, which
    serves every step of both from one matrix: a mu matrix as a tensor
    (row, t, column) with no x orders, eta as its SepFunc coefficients with
    the x orders mu.  q~ and I_d[q~] are the problem's
    CauchyProblem.linear_data.
    """
    cauchy = problem.to_cauchy()
    _, q, forcing = cauchy.linear_data
    step = cauchy.linear_step
    m = problem.m
    mu: dict[int, list[np.ndarray]] = {}
    cut = False
    for j in range(problem.gamma, problem.d):
        # base (j-gamma)!/j! (t-t0)^j times the identity; its gamma-th
        # time derivative is exactly (t-t0)^{j-gamma}, which makes the
        # uniform step below reproduce the Picard iterates
        tp = pp._tpoly_cheb(problem.domain, j) * math.factorial(j - problem.gamma)
        cur = np.zeros((m, len(tp), m))
        for h in range(m):
            cur[h, :, h] = tp
        seq = [cur]
        for _ in range(h_max):
            cur, cut_h = step(cur)
            cut |= cut_h
            seq.append(cur)
        mu[j] = [c.transpose(0, 2, 1) for c in seq]

    eta: list[SepFunc] = [q, forcing][: h_max + 1]
    while len(eta) <= h_max:
        if not eta[-1].coeffs.any():  # the step is linear: zero forcing stays zero
            eta.append(eta[-1])
            continue
        coef, cut_h = step(eta[-1].coeffs, problem.mu)
        cut |= cut_h
        eta.append(SepFunc(problem.domain, m, cauchy.p, coef).trim())
    return MuEta(mu, eta, cut)

# ---------------------------------------------------------------------------
# Explicit Picard iterates and the series solution
# ---------------------------------------------------------------------------


def _x_derivative_tower(
    problem: LinearProblem,
    row: Sequence[Expr],
    n: int,
    seen: dict[str, SepFunc],
) -> Iterator[SepFunc]:
    """Interpolants of d_x^{h mu} applied to a row of initial data, h = 1..n.

    Step h takes order * h symbolic steps per axis of mu, axes in order.  The
    first axis's chain is extended from step h - 1; the later axes are redone
    from it.  A row is interpolated, at the problem's x degrees, only if its
    repr (which keeps -0.0 apart from 0.0) is not yet in ``seen``, the
    caller's dict for one computation: derivatives of sin data repeat with
    period 4, and of polynomials end in 0.
    """
    axes = [(f"x{dim}", order) for dim, order in enumerate(problem.mu, start=1) if order]
    chain = list(row)
    for h in range(1, n + 1):
        var, order = axes[0]
        chain = [symbolic_partial(e, var, order) for e in chain]
        exprs = chain
        for var, order in axes[1:]:
            exprs = [symbolic_partial(e, var, order * h) for e in exprs]
        key = repr(exprs)
        if key not in seen:
            seen[key] = interpolate(
                exprs, problem.domain, (0, *problem.x_degrees),
                m=problem.m, p=problem.to_cauchy().p,
            ).trim()
        yield seen[key]


def _series_terms(problem: LinearProblem, n: int) -> tuple[SepFunc, list[SepFunc], bool]:
    """The partial sum i0 + terms of the explicit iterate formula, its terms, and MuEta.cut."""
    cauchy = problem.to_cauchy()
    rec = mu_eta_recursions(problem, n)
    seen: dict[str, SepFunc] = {}
    towers = {j: _x_derivative_tower(problem, problem.initial[j], n, seen)
              for j in range(problem.gamma, problem.d)}
    terms: list[SepFunc] = []
    for h in range(1, n + 1):
        acc = rec.eta[h]
        for j, tower in towers.items():
            xf = next(tower)
            # contract the column of mu[j][h] (m, m, nt) with the component of xf
            coef = np.tensordot(rec.mu[j][h], xf.coeffs[:, 0], axes=(1, 0))
            scale = 1.0 / math.factorial(j - problem.gamma)
            acc = acc + SepFunc(problem.domain, problem.m, cauchy.p, coef * scale)
        terms.append(acc.trim())
    out = cauchy.i0
    for term in terms:
        out = out + term
    return out.trim(), terms, rec.cut


def picard_closed_form(
    problem: LinearProblem,
    n: int,
    *,
    x_degree: int | None = None,
) -> SepFunc:
    """The n-th Picard iterate assembled from the coefficient recursions.

    ``x_degree``, when given, replaces the problem's x degrees on every axis.
    """
    if x_degree is not None:
        problem = replace(problem, x_degrees=(x_degree,) * problem.domain.s)
    return _series_terms(problem, n)[0]


def series_solution(
    problem: LinearProblem,
    N: int,
    *,
    growth: Sequence[GrowthClass] | None = None,
) -> tuple[SepFunc, dict]:
    """Partial sum of the series solution with a last-term tail diagnostic.

    With ``growth`` a problem classified as diverging raises, whatever N.
    ``constant_case`` is True when the p(t) and q~ that the step applies
    are constants.  The diagnostics hold ``t_degree_cut: True`` when a step
    of the recursions cut its t-degree at DEGREE_CAP (MuEta.cut).
    """
    if growth is not None:
        report = classify_convergence(problem, growth)
        if report.verdict == DIVERGING:
            raise LinearSeriesError(
                "series requested for a problem classified as diverging"
            )
    cauchy = problem.to_cauchy()
    P, q, _ = cauchy.linear_data
    constant_case = P.shape[-1] == 1 and q.coeffs.size == problem.m
    if N < 1:
        return cauchy.i0, {"last_term_sup": 0.0, "terms": 0, "constant_case": constant_case}
    out, terms, cut = _series_terms(problem, N)
    diag = {"last_term_sup": graded_norm(terms[-1], 0), "terms": N,
            "constant_case": constant_case}
    if cut:
        diag["t_degree_cut"] = True
    return out, diag


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

    p_sup and Q bound the surrogates P and q~ that the step applies
    (CauchyProblem.linear_data), so the bound is on the increment the
    iteration computes.  Uses the simplified display for Tbar <= 1; for Tbar > 1 the explicit
    time-power prefactors are restored from the pre-simplified estimate
    ("extended mode").
    """
    L = problem.L
    tbar = problem.domain.tbar
    log_p = math.log(max(problem.to_cauchy().p_sup, pp.EPS_FLOOR))
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


# ---------------------------------------------------------------------------
# Convergence classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str


def classify_convergence(
    problem: LinearProblem,
    growth: Sequence[GrowthClass],
) -> ClassificationReport:
    """Growth-class verdict for the dominant Weissinger series.

    Exponential data converge with no constraint on (d, L); analytic data
    need d >= L (with a ratio threshold on Tbar when d == L); power-scale
    data with exponent sigma need d > sigma L, with the boundary d == sigma L
    left inconclusive.
    """
    T = problem.domain.tbar
    L, d, gamma = problem.L, problem.d, problem.gamma
    norm_p = max(problem.to_cauchy().p_sup, pp.EPS_FLOOR)
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
# Worked-example catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogCase:
    name: str
    problem: LinearProblem
    oracle: Callable[[np.ndarray, np.ndarray], np.ndarray]
    note: str


def example_catalog(case: str) -> CatalogCase:
    """Linear catalog instances with their closed-form solutions.

    Cases: heat (d_t y = d_x^2 y), wave (d_t^2 y = d_x^2 y), transport
    (d_t y = d_x y), mixed_dt_dx (d_t^2 y = d_t d_x y) and dt2_dx
    (d_t^2 y = d_x y), on T = [-0.25, 0.25] around t0 = 0 and x in
    [-pi, pi].  The wave solution cos(t) sin(x1) sums the directly computed
    Picard series (powers t^{2n}/(2n)!), not the displayed one; see the note.
    """
    # d, gamma, mu, initial data rows, closed-form solution
    specs = {
        "heat": (1, 0, (2,), ("sin(x1)",), lambda t, x: np.exp(-t) * np.sin(x)),
        "wave": (2, 0, (2,), ("sin(x1)", "0"), lambda t, x: np.cos(t) * np.sin(x)),
        "transport": (1, 0, (1,), ("sin(x1)",), lambda t, x: np.sin(x + t)),
        "mixed_dt_dx": (2, 1, (1,), ("0", "x1"), lambda t, x: x * t + t**2 / 2),
        "dt2_dx": (2, 0, (1,), ("x1^2", "0"), lambda t, x: x**2 + x * t**2 + t**4 / 12),
    }
    if case not in specs:
        raise LinearSeriesError(
            f"unknown catalog case {case!r}; choose from {sorted(specs)}"
        )
    d, gamma, mu, rows, oracle = specs[case]
    prob = LinearProblem(
        Domain(0.0, 0.25, 0.25, ((-math.pi, math.pi),)), 1, d, gamma, mu,
        ((Const(1.0),),), (Const(0.0),), 0.0,
        tuple((parse_expression(e, Arity(s=1)),) for e in rows),
    )
    note = ""
    if case == "wave":
        note = (
            "directly computed Picard series (t-powers t^{2n}/(2n)!); the "
            "displayed series with t^n/n! disagrees with the iteration"
        )
    return CatalogCase(case, prob, oracle, note)


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
    mu = rc.mu
    L = sum(mu)
    d = problem.d
    tbar = problem.domain.tbar
    data = GrowthClass("sigma", sigma=sigma)  # ||i0||_{k+jL} modelled as (jL)^(sigma jL)

    def log_bar(k: int, n: int) -> float:
        if not c:
            return -math.inf  # F = 0 * y * d_x^mu y vanishes
        out = n * d * math.log(tbar) - math.lgamma(n * d + 1) + n * math.log(2.0 * c)
        for j in range(n):
            r = radii.value(k + j * L)
            model = math.exp(min(data.log_norm(0, j, L), 700))
            out += math.log(r + model) if not math.isinf(r) else math.inf
        return out

    constants = LodConstants.from_log(L, log_bar)
    rows = [  # the model reads only stage * L, which is idx - k
        weissinger_sum(constants, lambda idx: data.log_norm(0, idx - k, 1), k, n_max,
                       meta={"sigma": sigma, "L": L}, log_norms=True)
        for k in k_list
    ]
    hyper_log = 0.0
    if sigma == 1.0 and L == 1:
        hyper_log = sum(j * math.log(j) for j in range(1, n_max))
    return LodCertificate.from_rows(rows, {
        "demo": "quadratic transport-type right-hand side",
        "witness": "hyperfactorial H(n-1) = prod j^j inside the factor product",
        "log_hyperfactorial_at_nmax": hyper_log,
        "sigma": sigma,
    })
