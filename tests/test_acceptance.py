"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from picard_lod.expr import Arity, parse_expression
from picard_lod.funcspace import (
    Domain,
    Radii,
    graded_norm,
    interpolate,
    iterated_time_integral,
    joint_norm,
)
from picard_lod.graded_core import (
    CONVERGED,
    DIVERGING,
    GradedSpaceHandle,
    IterationStop,
    LodConstants,
    a_posteriori_bound,
    invert_locally,
)
import picard_lod.linear_series as ls
import picard_lod.picard_pde as pp

from helpers import CUBIC_ROOT_005

PI = math.pi


def _passed(n, message):
    print(f"criterion {n:2d}: PASS - {message}")


def exp_series(t):
    """Independent oracle for e^t by direct series summation."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    term = np.ones_like(t)
    for j in range(1, 60):
        out = out + term
        term = term * t / j
        if np.max(np.abs(term)) < 1e-18:
            break
    return out + term


def heat_problem(tbar=0.1, y00="sin(x1)"):
    dom = Domain(0.0, tbar, tbar, ((-PI, PI),))
    ar = Arity(s=1, m=1, L=2, p=0)
    F = parse_expression("Dx2(y1)", ar)
    return pp.CauchyProblem(
        dom, 1, 1, 0, 2, (F,), ((parse_expression(y00, Arity(1)),),)
    )


def test_criterion_1_sup_norm_counterexample():
    t0 = time.perf_counter()
    dom = Domain(0.0, 0.5, 0.5)
    one = interpolate(parse_expression("1", Arity(0)), dom, (0,))
    integral = iterated_time_integral(one, 1)
    jn = joint_norm(integral, 1)
    rhs = dom.tbar * joint_norm(one, 1)
    assert abs(jn - 1.0) <= 1e-12
    assert abs(rhs - 0.5) <= 1e-12
    assert jn > rhs
    lhs_graded = graded_norm(integral, 1)
    rhs_graded = dom.tbar * graded_norm(one, 1)
    assert abs(lhs_graded - 0.5) <= 1e-12
    assert lhs_graded <= rhs_graded + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(1, f"jointly graded norm 1 > 0.5, separated norm 0.5 <= 0.5 "
               f"({elapsed:.2f}s)")


HEAT_CFG = pp.SolveConfig(
    tol=1e-11, n_max=10, store_iterates=True, certify_n_max=40,
    growth=(ls.GrowthClass("exponential", C=1.0),),
)


@pytest.fixture(scope="module")
def heat_run():
    return pp.solve(heat_problem(), HEAT_CFG)


def test_criterion_2_heat_equation(heat_run):
    t0 = time.perf_counter()
    ts = np.linspace(-0.1, 0.1, 11)
    xs = np.linspace(-PI, PI, 101)
    want = exp_series(-ts)[:, None] * np.sin(xs)[None, :]

    rep = heat_run
    assert rep.converged and rep.n_steps <= 10
    got = rep.candidate.eval_grid(ts, [xs])[0]
    solve_err = float(np.max(np.abs(got - want)))
    assert solve_err <= 1e-8

    lp = ls.LinearProblem.from_cauchy(heat_problem(), Q=0.0)
    series, _ = ls.series_solution(lp, 20)
    got_s = series.eval_grid(ts, [xs])[0]
    series_err = float(np.max(np.abs(got_s - want)))
    assert series_err <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(2, f"heat solve err {solve_err:.2e}, series err {series_err:.2e} "
               f"vs e^-t sin x ({elapsed:.2f}s)")


def test_criterion_3_transport():
    t0 = time.perf_counter()
    dom = Domain(0.0, 0.5, 0.5, ((-PI, PI),))
    lp = ls.LinearProblem(
        dom, 1, 1, 0, (1,),
        ((parse_expression("1", Arity(0)),),),
        (parse_expression("0", Arity(1)),), 0.0,
        ((parse_expression("sin(x1)", Arity(1)),),),
    )
    series, _ = ls.series_solution(lp, 20)
    ts = np.linspace(-0.5, 0.5, 11)
    xs = np.linspace(-PI, PI, 101)
    got = series.eval_grid(ts, [xs])[0]
    want = np.sin(xs[None, :] + ts[:, None])
    err = float(np.max(np.abs(got - want)))
    assert err <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(3, f"transport series err {err:.2e} vs sin(x+t) ({elapsed:.2f}s)")


def wave_problem():
    dom = Domain(0.0, 0.25, 0.25, ((-PI, PI),))
    ar = Arity(s=1, m=1, L=2, p=0)
    F = parse_expression("Dx2(y1)", ar)
    return pp.CauchyProblem(
        dom, 1, 2, 0, 2, (F,),
        ((parse_expression("sin(x1)", Arity(1)),),
         (parse_expression("0", Arity(1)),)),
    )


WAVE_CFG = pp.SolveConfig(
    tol=1e-12, n_max=10, store_iterates=True, certify_n_max=40,
    growth=(ls.GrowthClass("exponential", C=1.0),
            ls.GrowthClass("exponential", C=1.0)),
)


@pytest.fixture(scope="module")
def wave_run():
    return pp.solve(wave_problem(), WAVE_CFG)


def test_criterion_4_wave(wave_run):
    t0 = time.perf_counter()
    rep = wave_run
    assert rep.converged
    ts = np.linspace(-0.25, 0.25, 11)
    xs = np.linspace(-PI, PI, 101)
    # oracle: directly computed Picard series sum (-1)^n t^{2n}/(2n)! sin x
    cos_series = np.zeros_like(ts)
    term = np.ones_like(ts)
    for n in range(30):
        cos_series = cos_series + term
        term = term * (-(ts * ts)) / ((2 * n + 1) * (2 * n + 2))
        if np.max(np.abs(term)) < 1e-18:
            break
    want = cos_series[:, None] * np.sin(xs)[None, :]
    got = rep.candidate.eval_grid(ts, [xs])[0]
    err = float(np.max(np.abs(got - want)))
    assert err <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(4, f"wave solve err {err:.2e} vs cos(t) sin(x) ({elapsed:.2f}s)")


def test_criterion_5_verdict_table():
    t0 = time.perf_counter()
    cells = 0

    def problem(d, L, tbar):
        dom = Domain(0.0, tbar, tbar, ((-1.0, 1.0),))
        return ls.LinearProblem(
            dom, 1, d, 0, (L,),
            ((parse_expression("1", Arity(0)),),),
            (parse_expression("0", Arity(1)),), 0.0,
            tuple((parse_expression("0", Arity(1)),) for _ in range(d)),
        )

    for d in (1, 2, 3):
        for L in (1, 2, 3):
            g = [ls.GrowthClass("exponential", C=1.0)] * d
            rep = ls.classify_convergence(problem(d, L, 0.25), g)
            assert rep.verdict == CONVERGED, f"exponential d={d} L={L}"
            cells += 1
    for d in (1, 2, 3):
        for L in (1, 2, 3):
            g = [ls.GrowthClass("analytic", C=1.0)] * d
            rep = ls.classify_convergence(problem(d, L, 0.1), g)
            want = CONVERGED if d >= L else DIVERGING
            assert rep.verdict == want, f"analytic d={d} L={L}"
            cells += 1
    for d, want in ((2, CONVERGED), (1, DIVERGING)):
        g = [ls.GrowthClass("sigma", sigma=1.5)] * d
        rep = ls.classify_convergence(problem(d, 1, 0.1), g)
        assert rep.verdict == want, f"sigma d={d}"
        cells += 1
    assert cells >= 20
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(5, f"all {cells} verdict-table cells match the growth-class "
               f"predictions ({elapsed:.2f}s)")


def test_criterion_6_kowalevski_divergence():
    t0 = time.perf_counter()
    prob = heat_problem(y00="1/(1+x1^2)")
    fac = pp.estimate_lipschitz(prob, Radii.infinite())
    cert = pp.certify_weissinger(
        prob, fac, Radii.infinite(), (0,), 30,
        growth=(ls.GrowthClass("analytic", C=1.0),),
    )
    assert cert.verdict == DIVERGING
    row = cert.rows[0]
    tail = row.terms[-5:]
    assert all(b > a for a, b in zip(tail, tail[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(6, f"analytic-class heat data certify diverging with increasing "
               f"terms by n={len(row.terms) - 1} ({elapsed:.2f}s)")


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    data = ["sin(x1)", "cos(x1)", "x1^3", "x1^2-1", "x1"]
    pcoefs = ["1", "cos(t)", "2-t", "0.5", "1+t^2"]
    # below-threshold instances (d < L) iterate an operator that amplifies
    # float roundoff in the highest retained modes, so their time width and
    # coefficient size are kept small to hold the two routes together
    pcoefs_small = ["1", "cos(t)", "0.5", "1-t^2"]
    qs = ["0", "x1", "sin(x1)", "1"]
    worst = 0.0
    for trial in range(10):
        d = int(rng.integers(1, 4))
        gamma = int(rng.integers(0, d))
        L = int(rng.integers(1, 3))
        subcritical = d - gamma < L
        tbar = 0.04 if subcritical else 0.2
        pool = pcoefs_small if subcritical else pcoefs
        dom = Domain(0.0, tbar, tbar, ((-1.0, 1.0),))
        lp = ls.LinearProblem(
            dom, 1, d, gamma, (L,),
            ((parse_expression(pool[int(rng.integers(len(pool)))], Arity(0)),),),
            (parse_expression(qs[int(rng.integers(len(qs)))], Arity(1)),),
            10.0,
            tuple(
                (parse_expression(data[int(rng.integers(len(data)))], Arity(1)),)
                for _ in range(d)
            ),
        )
        cauchy = lp.to_cauchy()
        n = 6
        i0 = pp.initial_polynomial(cauchy, (20,))
        y = i0
        for _ in range(n):
            y = pp.apply_P(cauchy, y, i0)
        cf = ls.picard_closed_form(lp, n, x_degree=20)
        a, b = np.asarray(y.coeffs), np.asarray(cf.coeffs)
        shape = tuple(max(u, v) for u, v in zip(a.shape, b.shape))
        pa = np.pad(a, [(0, s - u) for s, u in zip(shape, a.shape)])
        pb = np.pad(b, [(0, s - u) for s, u in zip(shape, b.shape)])
        dev = float(np.max(np.abs(pa - pb)))
        assert dev <= 1e-10, f"trial {trial}: deviation {dev:.3e}"
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(7, f"10 randomized instances: closed form equals 6-fold Picard "
               f"operator to {worst:.2e} coefficientwise ({elapsed:.2f}s)")


def test_criterion_8_a_posteriori_bounds(heat_run, wave_run):
    t0 = time.perf_counter()
    # scalar toy: the bound is exactly 2^{1-n}
    consts = LodConstants.from_function(0, lambda k, n: 0.5**n)
    for n in (0, 1, 2, 5, 10):
        bound = a_posteriori_bound(consts, lambda k: 1.0, 0, n, 60)
        assert bound.value == 2.0 ** (1 - n)
        x = 0.0
        for _ in range(n):
            x = x / 2 + 1
        assert abs(2.0 - x) <= bound.value + 1e-9

    # PDE runs with closed-form oracles: realized error vs attached bounds
    checked = 0
    for rep in (heat_run, wave_run):
        assert rep.converged and rep.bounds is not None and 0 in rep.bounds
        ybar = rep.candidate
        for n, it in enumerate(rep.iterates[: rep.n_steps + 1]):
            realized = graded_norm((ybar - it).trim(), 0)
            assert realized <= rep.bounds[0][n] + 1e-9
            checked += 1
    # transport run
    dom = Domain(0.0, 0.5, 0.5, ((-PI, PI),))
    ar = Arity(s=1, m=1, L=1, p=0)
    F = parse_expression("Dx1(y1)", ar)
    prob = pp.CauchyProblem(
        dom, 1, 1, 0, 1, (F,), ((parse_expression("sin(x1)", Arity(1)),),)
    )
    cfg = pp.SolveConfig(
        tol=1e-11, n_max=14, store_iterates=True, certify_n_max=40,
        growth=(ls.GrowthClass("exponential", C=1.0),),
    )
    rep = pp.solve(prob, cfg)
    assert rep.converged and rep.bounds is not None
    for n, it in enumerate(rep.iterates[: rep.n_steps + 1]):
        realized = graded_norm((rep.candidate - it).trim(), 0)
        assert realized <= rep.bounds[0][n] + 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    _passed(8, f"a posteriori tails dominate realized errors at {checked} "
               f"stored steps; scalar-toy bound exactly 2^(1-n) ({elapsed:.2f}s)")


def test_criterion_9_lambda_consistency():
    t0 = time.perf_counter()
    base = [0.6 + 0.15 * i for i in range(40)]
    fac_const = pp.LipschitzFactors.from_table(base)
    dom = Domain(0.0, 0.45, 0.45, ((-1.0, 1.0),))
    worst = 0.0
    for k in range(5):
        for n in range(11):
            closed = math.exp(pp.paper_lambda_bar_log(fac_const, 1, 2, dom.tbar, k, n))
            rec = pp.lambda_bar(fac_const, 1, 2, dom, k, n)
            rel = abs(rec - closed) / closed
            assert rel <= 1e-8, (k, n, rel)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _passed(9, f"d=1 recursion matches the closed form to rel {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_10_inverse_function_toy():
    t0 = time.perf_counter()
    space = GradedSpaceHandle(
        seminorm=lambda x, k: abs(x), sub=lambda a, b: a - b,
        add=lambda a, b: a + b,
    )
    res = invert_locally(
        space, space, f=lambda x: x + x**3, D=lambda y: y, S=lambda x: x,
        x0=0.0, y=0.05, radii=lambda k: 0.3,
        alpha_k=lambda k: 0.27, delta_k=lambda k: 1.0,
        L=0, L_D=0, stop=IterationStop((0,), 1e-15, 200),
    )
    assert res.solution == pytest.approx(CUBIC_ROOT_005, abs=1e-10)
    for row in res.rows:
        assert row.r_bar > 0
    assert res.iteration.membership == "checked"
    for it in res.iteration.iterates:
        assert abs(it) <= 0.3
    elapsed = time.perf_counter() - t0
    _passed(10, f"local inversion hits the bisection root {res.solution:.12f} "
                f"with positive derived radii ({elapsed:.2f}s)")


def test_criterion_11_quadratic_divergence_demo():
    t0 = time.perf_counter()
    ar = Arity(s=1, m=1, L=1, p=0)
    F = parse_expression("y1*Dx1(y1)", ar)
    dom = Domain(0.0, 0.25, 0.25, ((0.0, 1.0),))
    prob = pp.CauchyProblem(
        dom, 1, 1, 0, 1, (F,), ((parse_expression("x1", Arity(1)),),)
    )
    cert = ls.burgers_demo(prob, Radii.constant(1.0), (0,), 20, sigma=1.0)
    assert cert.verdict == DIVERGING
    assert "hyperfactorial" in cert.meta["witness"]
    assert cert.meta["log_hyperfactorial_at_nmax"] > 0
    elapsed = time.perf_counter() - t0
    _passed(11, f"quadratic demo certificate diverging with hyperfactorial "
                f"witness by n=20 ({elapsed:.2f}s)")


def test_criterion_12_ode_regression():
    t0 = time.perf_counter()
    for lam in (0.5, 3.0, 25.0):
        for tbar in (0.3, 0.8, 1.5):
            dom = Domain(0.0, tbar, tbar)
            ar = Arity(s=0, m=1, L=0, p=0)
            F = parse_expression("c*y1", ar, {"c": lam})
            prob = pp.CauchyProblem(
                dom, 1, 1, 0, 0, (F,),
                ((parse_expression("1", Arity(0)),),),
            )
            fac = pp.estimate_lipschitz(prob, Radii.infinite())
            cert = pp.certify_weissinger(prob, fac, Radii.infinite(), (0,), 120)
            assert cert.verdict == CONVERGED, (lam, tbar)
    elapsed = time.perf_counter() - t0
    _passed(12, f"scalar ODE certificates converged for every tested factor "
                f"and interval ({elapsed:.2f}s)")
