import collections
import dataclasses
import functools
import gc
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    REFUSAL,
    ball_member,
    fraction_linear_step,
    np_pad_to_common,
    product_tx,
    recursion_bar,
    whole_grid_eval_G,
    whole_grid_residual,
    whole_grid_rhs,
)
from picard_lod.expr import (
    Arity,
    Binary,
    Const,
    Placeholder,
    Power,
    Unary,
    Var,
    eval_expr,
    parse_expression,
    placeholder_key,
)
from picard_lod.funcspace import (
    DEGREE_CAP,
    Domain,
    FuncSpaceError,
    LinearStep,
    NonFiniteCoefficients,
    Radii,
    SepFunc,
    graded_norm,
    graded_norms_upto,
    interpolate,
    iterated_time_integral,
)
from picard_lod.graded_core import CONVERGED, DIVERGING
import picard_lod.linear_series as ls
import picard_lod.picard_pde as pp

PI = math.pi


def heat_problem(domain=None, y00="sin(x1)", a=1.0):
    dom = domain or Domain(0.0, 0.1, 0.1, ((-PI, PI),))
    ar = Arity(s=1, m=1, L=2, p=0)
    F = parse_expression("a*Dx2(y1)", ar, {"a": a})
    y0 = parse_expression(y00, Arity(s=1))
    return pp.CauchyProblem(dom, 1, 1, 0, 2, (F,), ((y0,),))


def transport_problem(domain=None, y00="sin(x1)"):
    dom = domain or Domain(0.0, 0.5, 0.5, ((-PI, PI),))
    ar = Arity(s=1, m=1, L=1, p=0)
    F = parse_expression("Dx1(y1)", ar)
    y0 = parse_expression(y00, Arity(s=1))
    return pp.CauchyProblem(dom, 1, 1, 0, 1, (F,), ((y0,),))


def wave_problem(domain=None):
    dom = domain or Domain(0.0, 0.25, 0.25, ((-PI, PI),))
    ar = Arity(s=1, m=1, L=2, p=0)
    F = parse_expression("Dx2(y1)", ar)
    y00 = parse_expression("sin(x1)", Arity(s=1))
    y01 = parse_expression("0", Arity(s=1))
    return pp.CauchyProblem(dom, 1, 2, 0, 2, (F,), ((y00,), (y01,)))


def burgers_problem(domain=None, rhs="y1*Dx1(y1)", x_degrees=None):
    dom = domain or Domain(0.0, 0.25, 0.25, ((0.0, 1.0),))
    ar = Arity(s=1, m=1, L=1, p=0)
    F = parse_expression(rhs, ar)
    y0 = parse_expression("x1", Arity(s=1))
    return pp.CauchyProblem(dom, 1, 1, 0, 1, (F,), ((y0,),), x_degrees)


class TestProblemValidation:
    def test_p_below_d_required(self):
        ar = Arity(s=1, m=1, L=0, p=1)
        F = parse_expression("Dt(y1)", ar)
        with pytest.raises(pp.PicardError, match="p < d"):
            pp.CauchyProblem(
                Domain(0, 1, 1, ((-1, 1),)), 1, 1, 1, 0, (F,),
                ((parse_expression("0", Arity(1)),),),
            )

    def test_initial_data_must_be_spatial(self):
        with pytest.raises(pp.PicardError, match="x only"):
            pp.CauchyProblem(
                Domain(0, 1, 1, ((-1, 1),)), 1, 1, 0, 0,
                (parse_expression("y1", Arity(1, 1, 0, 0)),),
                ((parse_expression("t", Arity(1)),),),
            )


class TestXDegrees:
    def test_default_is_x_degree_on_every_axis(self):
        assert heat_problem().x_degrees == (pp.X_DEGREE,)
        prob = rhs_problem("Dx1(y1)", s=2)
        assert prob.x_degrees == (pp.X_DEGREE, pp.X_DEGREE)

    def test_degrees_become_a_tuple_and_size_i0(self):
        prob = burgers_problem(rhs="sin(y1)*Dx1(y1)", x_degrees=[0])
        assert prob.x_degrees == (0,)
        assert prob.i0.degrees == (0, 0)

    @pytest.mark.parametrize("x_degrees", [(), (4, 4), (-1,), (DEGREE_CAP + 1,), (4.0,)])
    def test_bad_degrees_rejected(self, x_degrees):
        with pytest.raises(pp.PicardError, match="x degrees"):
            burgers_problem(x_degrees=x_degrees)

    def test_i0_is_the_initial_polynomial_at_the_problem_degrees(self):
        prob = heat_problem(y00="exp(x1)")
        prob10 = dataclasses.replace(prob, x_degrees=(10,))
        assert prob.i0 is prob.i0
        assert prob.i0 == pp.initial_polynomial(prob, (pp.X_DEGREE,))
        assert prob10.i0 == pp.initial_polynomial(prob, (10,))
        assert prob10.i0.degrees[1] == 10 < prob.i0.degrees[1]

    def test_one_solve_interpolates_the_initial_data_once(self, monkeypatch):
        # solve, the Leibniz table and the numeric certificate all read i0
        calls = []
        interp = pp.interpolate

        def counted(*args, **kwargs):
            calls.append(args[2])
            return interp(*args, **kwargs)

        monkeypatch.setattr(pp, "interpolate", counted)
        rep = pp.solve(burgers_problem(), pp.SolveConfig(radii=Radii.constant(0.5)))
        assert rep.certificate is not None and rep.ball_log
        assert calls == [(0, pp.X_DEGREE)]


class TestInitialPolynomial:
    def test_single_term(self):
        i0 = pp.initial_polynomial(heat_problem(), (20,))
        assert i0.deg_t == 0
        xs = np.linspace(-PI, PI, 50)
        vals = i0.eval_grid(np.array([0.05]), [xs])[0, 0]
        assert np.max(np.abs(vals - np.sin(xs))) < 1e-12

    def test_velocity_term(self):
        dom = Domain(0.0, 0.5, 0.5, ((-1, 1),))
        ar = Arity(s=1, m=1, L=2, p=0)
        F = parse_expression("Dx2(y1)", ar)
        prob = pp.CauchyProblem(
            dom, 1, 2, 0, 2, (F,),
            ((parse_expression("0", Arity(1)),),
             (parse_expression("x1", Arity(1)),)),
        )
        i0 = pp.initial_polynomial(prob, (4,))
        ts, xs = np.array([0.3]), np.array([0.5])
        assert i0.eval_grid(ts, [xs])[0, 0, 0] == pytest.approx(0.15, abs=1e-14)

    def test_second_order_term(self):
        dom = Domain(0.0, 0.5, 0.5, ((-1, 1),))
        ar = Arity(s=1, m=1, L=2, p=0)
        F = parse_expression("Dx2(y1)", ar)
        prob = pp.CauchyProblem(
            dom, 1, 3, 0, 2, (F,),
            ((parse_expression("1", Arity(1)),),
             (parse_expression("0", Arity(1)),),
             (parse_expression("2", Arity(1)),)),
        )
        i0 = pp.initial_polynomial(prob, (2,))
        ts = np.array([0.4])
        # 1 + 2 t^2 / 2! = 1 + t^2
        assert i0.eval_grid(ts, [np.array([0.0])])[0, 0, 0] == pytest.approx(1.16)


class TestEvalG:
    def test_heat_on_x_squared(self):
        prob = heat_problem(Domain(0.0, 0.5, 0.5, ((-1, 1),)), y00="x1^2")
        y = pp.initial_polynomial(prob, (4,))
        g = pp.eval_G(prob, y)
        vals = g.eval_grid(np.array([0.2]), [np.linspace(-1, 1, 9)])
        assert np.allclose(vals, 2.0, atol=1e-12)

    def test_zero_rhs_on_zero_data(self):
        prob = transport_problem(Domain(0.0, 0.5, 0.5, ((-1, 1),)), y00="0")
        y = pp.initial_polynomial(prob, (4,))
        g = pp.eval_G(prob, y)
        assert graded_norm(g, 0) == 0.0

    def test_quadratic_rhs(self):
        prob = burgers_problem()
        y = pp.initial_polynomial(prob, (4,))
        g = pp.eval_G(prob, y)  # x * 1 = x
        xs = np.linspace(0, 1, 11)
        vals = g.eval_grid(np.array([0.1]), [xs])[0, 0]
        assert np.max(np.abs(vals - xs)) < 1e-12


class TestApplyP:
    def test_heat_first_step(self):
        prob = heat_problem(Domain(0.0, 0.5, 0.5, ((-1, 1),)), y00="x1^2")
        i0 = pp.initial_polynomial(prob, (4,))
        y1 = pp.apply_P(prob, i0, i0)
        ts, xs = np.array([0.3]), np.array([0.5])
        assert y1.eval_grid(ts, [xs])[0, 0, 0] == pytest.approx(0.25 + 0.6, abs=1e-13)

    def test_harmonic_data_is_fixed(self):
        prob = heat_problem(Domain(0.0, 0.5, 0.5, ((-1, 1),)), y00="x1")
        i0 = pp.initial_polynomial(prob, (4,))
        y1 = pp.apply_P(prob, i0, i0)
        assert graded_norm(y1 - i0, 1) < 1e-13

    def test_transport_first_step(self):
        prob = transport_problem()
        i0 = pp.initial_polynomial(prob, (24,))
        y1 = pp.apply_P(prob, i0, i0)
        ts = np.linspace(-0.5, 0.5, 7)
        xs = np.linspace(-PI, PI, 41)
        vals = y1.eval_grid(ts, [xs])[0]
        want = np.sin(xs)[None, :] + ts[:, None] * np.cos(xs)[None, :]
        assert np.max(np.abs(vals - want)) < 1e-10

    def test_initial_conditions_preserved_along_iterates(self):
        prob = wave_problem()
        i0 = pp.initial_polynomial(prob, (20,))
        y = i0
        xs = np.linspace(-PI, PI, 33)
        for n in range(4):
            y = pp.apply_P(prob, y, i0)
            from picard_lod.funcspace import partial_derivative

            for j, want in ((0, np.sin(xs)), (1, np.zeros_like(xs))):
                dj = partial_derivative(y, (j, 0))
                got = dj.eval_grid(np.array([0.0]), [xs])[0, 0]
                assert np.max(np.abs(got - want)) < 1e-11

    def test_affine_on_linear_class(self):
        prob = heat_problem(Domain(0.0, 0.2, 0.2, ((-1, 1),)), y00="x1^2")
        i0 = pp.initial_polynomial(prob, (8,))
        u = i0
        bump = interpolate(parse_expression("x1^4", Arity(1)), prob.domain, (0, 8))
        v = i0 + bump
        lam = 0.3
        mix = u * lam + v * (1 - lam)
        lhs = pp.apply_P(prob, mix, i0)
        pu, pv = pp.apply_P(prob, u, i0), pp.apply_P(prob, v, i0)
        rhs = pu * lam + pv * (1 - lam)
        diff = lhs - rhs
        assert np.max(np.abs(diff.coeffs)) < 1e-10


class TestResidual:
    def test_zero_rhs(self):
        prob = transport_problem(Domain(0.0, 0.5, 0.5, ((-1, 1),)), y00="0")
        i0 = pp.initial_polynomial(prob, (4,))
        res = pp.residual(prob, i0)
        assert res.pde_residual == 0.0
        assert res.ic_residuals == (0.0,)

    def test_exact_heat_solution(self):
        prob = heat_problem(Domain(0.0, 0.5, 0.5, ((-1, 1),)), y00="x1^2")
        i0 = pp.initial_polynomial(prob, (4,))
        y = pp.apply_P(prob, i0, i0)  # x^2 + 2t solves the equation
        assert pp.residual(prob, y).pde_residual < 1e-12

    def test_defect_detected(self):
        prob = heat_problem(Domain(0.0, 0.5, 0.5, ((-1, 1),)), y00="x1^2")
        i0 = pp.initial_polynomial(prob, (4,))  # d_t = 0 but d_xx = 2
        assert pp.residual(prob, i0).pde_residual == pytest.approx(2.0, abs=1e-12)


    def test_two_components_in_two_dimensions(self):
        # y1'' = d_x1 y2, y2'' = d_x2 y1 + x1; the iteration ends after two
        # steps at y1 = x1^2 + tau x2 + tau^4/24, y2 = x2^2 + tau^3/6 + x1 tau^2/2
        # with tau = t - t0
        ar = Arity(s=2, m=2, L=1, p=0)
        rhs = (parse_expression("Dx1(y2)", ar), parse_expression("Dx2(y1)+x1", ar))
        x = Arity(s=2)
        initial = (
            (parse_expression("x1^2", x), parse_expression("x2^2", x)),
            (parse_expression("x2", x), parse_expression("0", x)),
        )
        dom = Domain(0.1, 0.3, 0.4, ((-1, 2), (0, 1)))
        prob = pp.CauchyProblem(dom, 2, 2, 0, 1, rhs, initial)
        i0 = pp.initial_polynomial(prob, (4, 4))
        y = i0
        for _ in range(3):
            y = pp.apply_P(prob, y, i0)
        res = pp.residual(prob, y)
        assert res.pde_residual <= 1e-12
        assert len(res.ic_residuals) == 2
        assert max(res.ic_residuals) <= 1e-12
        tau, x1, x2 = 0.35, 1.5, 0.25
        got = y.eval_grid(np.array([dom.t0 + tau]), [np.array([x1]), np.array([x2])])
        want = [x1**2 + tau * x2 + tau**4 / 24, x2**2 + tau**3 / 6 + x1 * tau**2 / 2]
        assert got.ravel() == pytest.approx(want, abs=1e-12)
        # i0 meets the data exactly; its defect is max |tau + x1| = 0.4 + 2
        res0 = pp.residual(prob, i0)
        assert res0.pde_residual == pytest.approx(2.4, abs=1e-12)
        assert res0.ic_residuals == pytest.approx((0.0, 0.0), abs=1e-13)


# right-hand sides of component h, with c the other component (h itself when
# m = 1) and s the last x axis; Dx1 is d/dx1 for s = 2 and d/dx for s = 1
RHS_TEMPLATES = {
    "linear_cos_t": "cos(t)*Dx1(Dx1(y{h}))",
    "nonlinear": "sin(y{h})*Dx{s}(y{c})+exp(Dx1(y{h}))*cos(y{c})",
    "forced_tx": "Dx1(y{h})+exp(t)*sin(x{s})",
    "forced_x": "Dx{s}(Dx{s}(y{h}))+x1^2",
    "constant": "1.5",
    "time_derivative": "Dt(y{c})*x1-y{h}",
}


@st.composite
def blocked_cases(draw):
    """A problem with s, m, d in {1, 2}, an iterate, a residual grid size and two block sizes.

    Each component takes one of RHS_TEMPLATES (the time-derivative one only
    when p >= 1).  The iterate has degrees 0..5 and coefficients that fall
    off as 0.5^(index sum).  The residual grid has at least ``grid_min``
    points per axis; each block size gives ``rows`` t-rows of the grid it is
    used on, from one row up to past the whole grid (a single block).
    """
    s, m, d = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    p = draw(st.integers(0, d - 1))
    names = [n for n in RHS_TEMPLATES if p >= 1 or n != "time_derivative"]
    ar = Arity(s=s, m=m, L=2, p=p)
    rhs = tuple(
        parse_expression(RHS_TEMPLATES[draw(st.sampled_from(names))].format(
            h=h, c=m + 1 - h, s=s), ar)
        for h in range(1, m + 1)
    )
    x_ar = Arity(s=s)
    initial = tuple(tuple(parse_expression(f"{j + 1}*sin(x1+{h})", x_ar) for h in range(m))
                    for j in range(d))
    t0 = draw(st.sampled_from([0.0, 0.1, -0.3]))
    dom = Domain(t0, draw(st.sampled_from([0.2, 0.5])), 0.3, ((-1.0, 2.0), (0.0, PI))[:s])
    problem = pp.CauchyProblem(dom, m, d, p, 2, rhs, initial, (4,) * s)
    degrees = draw(st.lists(st.integers(0, 5), min_size=1 + s, max_size=1 + s))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (m, *[n + 1 for n in degrees])
    coeffs = rng.standard_normal(shape) * 0.5 ** np.indices(shape[1:]).sum(axis=0)
    y = SepFunc(dom, m, p, coeffs)
    grid_min = draw(st.integers(2, 20))
    rows = (draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    return problem, y, grid_min, rows


def block_points(rows, x_points, extra):
    """An RHS_BLOCK_POINTS that gives ``rows`` t-rows of x_points each."""
    return rows * x_points + extra % x_points


class TestBlockedRhs:
    """_rhs_on_grid evaluates in t-blocks; residual and eval_G equal their whole-grid forms."""

    @settings(max_examples=200, deadline=None)
    @given(blocked_cases(), st.integers(0, 2**16))
    def test_bit_identical_to_whole_grid(self, case, extra):
        from unittest import mock

        from picard_lod import funcspace as fs

        problem, y, grid_min, (rows_res, rows_G) = case
        with mock.patch.object(fs, "RESIDUAL_GRID_MIN", grid_min):
            pts = fs.residual_grid(y)
            x_points = math.prod(len(g) for g in pts[1:])
            with mock.patch.object(pp, "RHS_BLOCK_POINTS",
                                   block_points(rows_res, x_points, extra)):
                got = pp.residual(problem, y)
            want_pde, want_ics = whole_grid_residual(problem, y)
        assert got.pde_residual.hex() == want_pde.hex()
        assert [v.hex() for v in got.ic_residuals] == [v.hex() for v in want_ics]

        nodes = fs.chebyshev_nodes(problem.domain, pp._g_degrees(problem, y))
        x_points = math.prod(len(g) for g in nodes[1:])
        with mock.patch.object(pp, "RHS_BLOCK_POINTS", block_points(rows_G, x_points, extra)):
            got = pp.eval_G(problem, y)
        want = whole_grid_eval_G(problem, y)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.coeffs.shape == want.coeffs.shape
        assert got.truncation.hex() == want.truncation.hex()

    @pytest.mark.parametrize("rows", [1, 3, 7, 8, 128, 500])
    def test_blocks_cover_the_grid_in_order(self, rows, monkeypatch):
        from picard_lod import funcspace as fs

        problem = pp.CauchyProblem(
            Domain(0.0, 0.5, 0.5, ((-1.0, 1.0),)), 1, 1, 0, 2,
            (parse_expression("cos(t)*Dx1(Dx1(y1))+x1", Arity(s=1, m=1, L=2)),),
            ((parse_expression("sin(x1)", Arity(s=1)),),))
        pts = fs.uniform_grid(problem.domain, [128, 5])
        monkeypatch.setattr(pp, "RHS_BLOCK_POINTS", rows * 5 + 4)
        blocks = list(pp._rhs_on_grid(problem, problem.i0, pts))
        assert [b.stop for b, _ in blocks][:-1] == list(range(rows, 128, rows))
        # one component, unstacked: its values span the block's t-rows and x1
        assert [[v.shape for v in values] for _, values in blocks] == [
            [(min(rows, 128 - start), 5)] for start in range(0, 128, rows)]
        whole = whole_grid_rhs(problem, problem.i0, pts)
        assert np.concatenate([v for _, [v] in blocks]).tobytes() == whole[0].tobytes()

    def test_a_failing_block_raises_the_whole_grid_error(self, monkeypatch):
        from picard_lod import funcspace as fs
        from picard_lod.expr import EvalError, NonFiniteValue

        # on the 128-point t grid of [0, 1], exp(800 t) overflows from row
        # 113 on, and t - c is zero at row 120 only; whole-grid evaluation
        # meets the zero divisor, while the block of rows 112..119 alone
        # only overflows
        c = float(np.linspace(0.0, 1.0, 128)[120])
        problem = pp.CauchyProblem(
            Domain(0.5, 0.5, 0.5, ((-1.0, 1.0),)), 1, 1, 0, 1,
            (parse_expression(f"exp(800*t)*y1+1/(t-{c!r})", Arity(s=1, m=1, L=1)),),
            ((parse_expression("1+x1^2", Arity(s=1)),),))
        y = problem.i0
        assert fs.residual_grid(y)[0][120] == c
        monkeypatch.setattr(pp, "RHS_BLOCK_POINTS", 8 * 128)
        with pytest.raises(EvalError, match="division by zero"):
            whole_grid_residual(problem, y)
        with pytest.raises(EvalError, match="division by zero"):
            pp.residual(problem, y)
        pts = fs.residual_grid(y)
        blocks = pp._rhs_on_grid(problem, y, [pts[0][112:120], *pts[1:]])
        with pytest.raises(NonFiniteValue):
            list(blocks)

    def test_residual_differentiates_once_for_both_grids(self, monkeypatch):
        from picard_lod import funcspace as fs

        steps = []
        original = fs.cheb_derivative

        def spy(coef, m, *, scl, axis):
            steps.append(axis)
            return original(coef, m, scl=scl, axis=axis)

        problem = wave_problem()
        y = pp.apply_P(problem, problem.i0, problem.i0)
        monkeypatch.setattr(fs, "cheb_derivative", spy)
        pp.residual(problem, y)
        # d_t y and d_t^2 y serve the slice t = t0 and the whole grid; the
        # placeholder Dx2(y1) takes two x steps
        assert sorted(steps) == [1, 1, 2, 2]

    def test_no_stacked_copy_on_a_multi_block_2d_grid(self, monkeypatch):
        from picard_lod import funcspace as fs

        ar = Arity(s=2, m=2, L=2, p=0)
        dom = Domain(0.0, 0.2, 0.2, ((-1.0, 1.0), (0.0, PI)))
        problem = pp.CauchyProblem(
            dom, 2, 1, 0, 2,
            (parse_expression("Dx1(Dx1(y1))+y2", ar), parse_expression("cos(t)*Dx2(y2)+x1", ar)),
            ((parse_expression("sin(x1)", Arity(s=2)), parse_expression("cos(x2)", Arity(s=2))),),
            (4, 4))
        rng = np.random.default_rng(3)
        y = SepFunc(dom, 2, 0, rng.standard_normal((2, 4, 5, 5)) * 0.5 ** np.arange(4)[:, None, None])
        pts = fs.residual_grid(y)
        nodes = fs.chebyshev_nodes(dom, pp._g_degrees(problem, y))
        # five t-rows per residual block and three per eval_G block
        res_points = 5 * math.prod(len(g) for g in pts[1:])
        G_points = 3 * math.prod(len(g) for g in nodes[1:])
        assert len(pts[0]) > 5 * 3 and len(nodes[0]) > 3 * 3  # four blocks at least
        want_res, want_G = whole_grid_residual(problem, y), whole_grid_eval_G(problem, y)

        stacks = []
        original = np.stack

        def spy(arrays, *args, **kwargs):
            stacks.append(len(arrays))
            return original(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "stack", spy)
        whole_grid_residual(problem, y)
        assert stacks  # the spy sees the whole-grid oracle's stacks
        stacks.clear()
        monkeypatch.setattr(pp, "RHS_BLOCK_POINTS", res_points)
        got_res = pp.residual(problem, y)
        monkeypatch.setattr(pp, "RHS_BLOCK_POINTS", G_points)
        got_G = pp.eval_G(problem, y)
        assert stacks == []
        assert (got_res.pde_residual, got_res.ic_residuals) == want_res
        assert got_G.coeffs.tobytes() == want_G.coeffs.tobytes()

    def test_residual_peak_memory_on_a_2d_grid(self):
        import tracemalloc

        from picard_lod import funcspace as fs

        ar = Arity(s=2, m=1, L=2, p=0)
        dom = Domain(0.0, 0.1, 0.1, ((-PI, PI), (-PI, PI)))
        problem = pp.CauchyProblem(
            dom, 1, 1, 0, 2, (parse_expression("cos(t)*Dx1(Dx1(y1))", ar),),
            ((parse_expression("sin(x1)*cos(x2)", Arity(s=2)),),), (24, 24))
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((1, 9, 25, 25)) * 0.5 ** np.arange(9)[:, None, None]
        y = SepFunc(dom, 1, 0, coeffs)
        assert [len(g) for g in fs.residual_grid(y)] == [128, 128, 128]
        full_grid_bytes = 128**3 * 8

        def peak(fn):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = fn(problem, y)
                return result, tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        got, blocked = peak(pp.residual)
        want, whole = peak(whole_grid_residual)
        assert (got.pde_residual, got.ic_residuals) == want
        # d_t y, the placeholder and the expression's values exist one t-block
        # (2^17 points, a sixteenth of the grid) at a time, and a block is
        # released before the next is evaluated; of the whole grid only the t
        # contractions of d_t y and the placeholder are kept, 25 x 25
        # coefficients per t-row.  That is about 0.26 of the grid; the peak
        # reads 0.29
        assert blocked <= 0.32 * full_grid_bytes
        assert whole >= 3.5 * full_grid_bytes


class TestLinearStructure:
    def test_heat(self):
        st = heat_problem(a=2.5).rhs_class.linear
        assert st is not None
        assert st.mu == (2,) and st.gamma == 0
        assert eval_expr(st.p[0][0], {"t": 0.3}) == 2.5

    def test_quadratic_is_not_linear(self):
        assert burgers_problem().rhs_class.linear is None

    def test_forcing_separated(self):
        ar = Arity(s=1, m=1, L=1, p=0)
        F = parse_expression("cos(t)*Dx1(y1)+x1^2", ar)
        prob = pp.CauchyProblem(
            Domain(0, 0.5, 0.5, ((-1, 1),)), 1, 1, 0, 1, (F,),
            ((parse_expression("0", Arity(1)),),),
        )
        st = prob.rhs_class.linear
        assert eval_expr(st.q[0], {"t": 0.0, "x1": 0.5}) == 0.25


def rhs_problem(*rhs, s=1, L=2):
    """A problem on (t, x) in [-0.5, 0.5] x [-1, 1]^s with zero data.

    One right-hand side per component, each a tree or its text.
    """
    m = len(rhs)
    ar = Arity(s=s, m=m, L=L, p=0)
    F = tuple(parse_expression(e, ar) if isinstance(e, str) else e for e in rhs)
    return pp.CauchyProblem(
        Domain(0, 0.5, 0.5, ((-1, 1),) * s), m, 1, 0, L, F, ((Const(0.0),) * m,),
    )


Y, DX1, DX2 = (Placeholder((a,), 0, 1) for a in range(3))


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Unary, st.sampled_from(["sin", "cos"]), sub),
            st.builds(Binary, st.sampled_from(["+", "-", "*"]), sub, sub),
            st.builds(Power, sub, st.just(2)),
        ),
        max_leaves=6,
    )


_consts = st.builds(Const, st.sampled_from([-1.5, -0.5, 0.25, 2.0]))
_free_trees = _trees(st.one_of(_consts, st.sampled_from([Var("t"), Var("x", 1)])))
_affine_terms = st.one_of(
    _free_trees,
    st.builds(lambda c, ph: Binary("*", c, ph), _free_trees, st.sampled_from([Y, DX1, DX2])),
)
rhs_trees = st.one_of(
    _trees(st.one_of(_consts, st.sampled_from([Y, DX1, DX2, Var("t"), Var("x", 1)]))),
    # sums of c * (placeholder), and products c * y1 * d_x^mu y1 and their near
    # misses, are rare among random trees: draw them on purpose
    st.recursive(_affine_terms, lambda sub: st.builds(Binary, st.sampled_from(["+", "-"]), sub, sub),
                 max_leaves=3),
    st.builds(lambda c, phs: functools.reduce(lambda a, b: Binary("*", a, b), phs, c),
              _free_trees, st.lists(st.sampled_from([Y, DX1, DX2, Power(Y, 2), Unary("sin", DX1)]),
                                    min_size=2, max_size=3)),
)


class TestClassifyRhs:
    @pytest.mark.parametrize("rhs, kind", [
        ("3.0", "constant"),
        ("sin(t)*x1^2", "constant"),
        ("Dx2(y1)", "linear"),
        ("cos(t)*Dx1(y1)+x1^2", "linear"),
        ("Dx2(y1)+y1", "affine"),
        ("x1*Dx1(y1)", "affine"),
        ("y1*Dx1(y1)", "quadratic"),
        ("-0.5*y1*Dx2(y1)", "quadratic"),
        ("y1*Dx1(y1)+x1", "general"),
        ("sin(y1)*Dx1(y1)", "general"),
        ("y1*y1", "general"),
        ("y1*Dx1(y1)*Dx2(y1)", "general"),
        ("y1*sin(y1)*Dx1(y1)", "general"),
        ("t*y1+sin(x1)", "linear"),
        ("y1/(1+t^2)", "linear"),
        ("sin(y1)", "general"),
        # powers: ^1 keeps the kind of its base, ^0 of anything is 1
        ("Dx1(y1)^1", "linear"),
        ("(t*y1+x1)^1", "linear"),
        ("(y1*Dx1(y1))^1", "quadratic"),
        ("sin(y1)^1", "general"),
        ("(y1*Dx1(y1))^0", "affine"),
        ("cos(y1)^0", "affine"),
        ("2*(Dx2(y1)+x1)", "linear"),
    ])
    def test_kind_table(self, rhs, kind):
        rc = rhs_problem(rhs).rhs_class
        assert rc.kind == kind
        assert (rc.linear is not None) == (kind == "linear")
        assert (rc.mu is not None) == (kind == "quadratic")

    def test_quadratic_mu_and_sorted_placeholders(self):
        rc = rhs_problem("-0.5*y1*Dx2(y1)").rhs_class
        assert rc.mu == (2,)
        assert rc.placeholders == (Y, DX2)
        assert rhs_problem("Dx2(y1)+Dx1(y1)*y1").rhs_class.placeholders == (Y, DX1, DX2)

    @pytest.mark.parametrize("rhs, kind", [
        (("y1*Dx1(y1)", "-t*y2*Dx1(y2)"), "quadratic"),
        (("y1*Dx1(y1)", "y2*Dx2(y2)"), "general"),  # mu differs between components
        (("y1*Dx1(y2)", "y2*Dx1(y1)"), "general"),  # mixes components
        (("y1*Dx1(y1)", "x1"), "general"),
    ])
    def test_quadratic_in_every_component(self, rhs, kind):
        assert rhs_problem(*rhs, s=2, L=1).rhs_class.kind == kind

    def test_product_of_two_derivatives_is_general(self):
        assert rhs_problem("Dx1(y1)*Dx2(y1)", s=2, L=1).rhs_class.kind == "general"

    def test_quadratic_coefficient_dividing_by_zero_is_a_problem_error(self):
        with pytest.raises(pp.PicardError, match="division by zero"):
            burgers_problem(rhs="(t-0.3/0.0)*y1*Dx1(y1)")

    # bindings away from 0, where products vanish whatever their form
    @settings(max_examples=200, deadline=None)
    @given(rhs_trees, st.lists(st.floats(0.125, 1.0), min_size=9, max_size=9))
    def test_each_kind_means_what_it_says(self, e, r):
        rc = rhs_problem(e).rhs_class
        t, x = r[0], r[1]

        def F(z):
            return eval_expr(e, {"t": t, "x1": x,
                                 **{placeholder_key(ph): v for ph, v in zip((Y, DX1, DX2), z)}})

        z0, z1 = r[2:5], r[5:8]
        close = functools.partial(math.isclose, rel_tol=1e-9, abs_tol=1e-9)
        if rc.kind == "constant":
            assert F(z0) == F(z1)
        if rc.kind in ("constant", "linear", "affine"):
            w = r[8]
            zw = [(1 - w) * a + w * b for a, b in zip(z0, z1)]
            assert close(F(zw), (1 - w) * F(z0) + w * F(z1))
        if rc.kind == "linear":
            lin = rc.linear
            z = dict(zip((Y, DX1, DX2), z0))[Placeholder(lin.mu, lin.gamma, 1)]
            p = eval_expr(lin.p[0][0], {"t": t})
            q = eval_expr(lin.q[0], {"t": t, "x1": x})
            assert close(F(z0), p * z + q)
        if rc.kind == "quadratic":
            # c * z_lo * z_hi, whatever the placeholders outside the pair hold
            hi = (Y, DX1, DX2).index(Placeholder(rc.mu, 0, 1))

            def Fq(a, b, rest):
                return F([a if i == 0 else b if i == hi else v for i, v in enumerate(rest)])

            a, b = z0[0], z1[0]
            assert close(Fq(a, b, z0), a * b * Fq(1.0, 1.0, z1))
            assert Fq(0.0, b, z0) == 0.0 and Fq(a, 0.0, z1) == 0.0


    @settings(max_examples=200, deadline=None)
    @given(rhs_trees)
    def test_unit_power_and_unit_factor_keep_the_form(self, e):
        def form(f):
            rc = rhs_problem(f).rhs_class
            return rc.kind, rc.linear and (rc.linear.mu, rc.linear.gamma), rc.mu, rc.poly

        assert form(Power(e, 1)) == form(e) == form(Binary("*", Const(1.0), e))


def test_rhs_form_is_decided_only_in_classify_rhs():
    """Only classify_rhs calls the rules for the form of the right-hand side."""
    import ast
    from pathlib import Path

    import picard_lod

    rules = {"_monomials"}

    def calls(node, where):
        # (enclosing function, or "<module>") of every call of a rule
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in rules and name != where:  # a rule may recurse into itself
                yield where
        for child in ast.iter_child_nodes(node):
            yield from calls(child, where)

    callers = set()
    for path in sorted(Path(picard_lod.__file__).parent.glob("*.py")):
        callers |= {f"{path.stem}.{fn}" for fn in calls(ast.parse(path.read_text()), "<module>")}
    assert callers == {"picard_pde.classify_rhs"}


class TestLipschitzFactors:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.0, 1e6, allow_nan=False), min_size=1, max_size=8))
    def test_table_is_floored_nondecreasing_and_flat_past_flat_from(self, values):
        fac = pp.LipschitzFactors.from_table(values)
        last = len(values) - 1
        ks = range(last + 4)
        assert all(fac.at(k) >= pp.EPS_FLOOR for k in ks)
        assert all(fac.at(k) <= fac.at(k + 1) for k in ks)
        assert all(fac.at(k) == fac.at(last) for k in ks if k >= last)


class TestEstimateLipschitz:
    def test_heat_exact(self):
        fac = pp.estimate_lipschitz(heat_problem(), Radii.infinite())
        for k in range(5):
            assert fac.at(k) == 1.0

    def test_constant_rhs_is_flagged_zero(self):
        ar = Arity(s=1, m=1, L=0, p=0)
        F = parse_expression("3.0", ar)
        prob = pp.CauchyProblem(
            Domain(0, 0.5, 0.5, ((-1, 1),)), 1, 1, 0, 0, (F,),
            ((parse_expression("0", Arity(1)),),),
        )
        fac = pp.estimate_lipschitz(prob, Radii.infinite())
        assert fac.is_zero

    def test_sampled_needs_finite_radii(self):
        # F outside the certified classes is refused at any radii
        for radii in (Radii.infinite(), Radii.constant(0.5)):
            with pytest.raises(pp.PicardError, match=re.escape(REFUSAL)):
                pp.estimate_lipschitz(burgers_problem(rhs="sin(y1)*Dx1(y1)"), radii)

    @settings(max_examples=60, deadline=None)
    @given(rhs_trees)
    def test_every_rhs_outside_the_certified_classes_is_refused(self, tree):
        prob = rhs_problem(tree)
        rc = prob.rhs_class
        assume(rc.kind != "constant" and rc.linear is None and rc.poly is None)
        for radii in (Radii.infinite(), Radii.constant(1.0)):
            with pytest.raises(pp.PicardError, match=re.escape(REFUSAL)):
                pp.estimate_lipschitz(prob, radii)


class TestLambdaRecursion:
    def test_n_zero_is_one(self):
        fac = pp.LipschitzFactors.constant(7.0)
        dom = Domain(0, 0.5, 0.5, ((-1, 1),))
        for mode in ("recursion", "paper"):
            assert pp.lambda_bar(fac, 3, 1, dom, 0, 0, mode) == 1.0

    def test_hand_unrolled_constant_case(self):
        fac = pp.LipschitzFactors.constant(2.0)
        dom = Domain(0.0, 0.5, 0.5)
        assert pp.lambda_bar(fac, 1, 0, dom, 0, 1) == pytest.approx(1.0)
        assert pp.lambda_bar(fac, 1, 0, dom, 0, 2) == pytest.approx(0.5)

    def test_paper_mode_closed_form(self):
        fac = pp.LipschitzFactors.constant(2.0)
        dom = Domain(0.0, 0.5, 0.5)
        for n in range(5):
            want = 0.5 ** (2 * n) / math.factorial(2 * n) * 2**n
            assert pp.lambda_bar(fac, 2, 1, dom, 0, n, "paper") == pytest.approx(want)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_d1_recursion_matches_closed_form(self, k):
        # with one time fold the literal recursion and the closed form agree
        base = [1.0 + 0.1 * i for i in range(40)]
        fac = pp.LipschitzFactors.from_table(base)
        dom = Domain(0.0, 0.3, 0.3, ((-1, 1),))
        for n in range(11):
            rec = pp.lambda_bar(fac, 1, 2, dom, k, n)
            closed = math.exp(pp.paper_lambda_bar_log(fac, 1, 2, dom.tbar, k, n))
            assert rec == pytest.approx(closed, rel=1e-8)

    def test_conservative_dominates_paper_for_d2(self):
        fac = pp.LipschitzFactors.constant(1.0)
        dom = Domain(0.0, 0.25, 0.25, ((-1, 1),))
        for n in range(1, 6):
            rec = pp.lambda_bar(fac, 2, 2, dom, 0, n)
            paper = pp.lambda_bar(fac, 2, 2, dom, 0, n, "paper")
            assert rec >= paper

    # Conservative bars pinned bit for bit: "d L table k n float.hex" lines
    # for d, L and tables as below, k in (0, 1, 4) and n = 1..n_max, joined
    # by newlines and hashed; a few lines are spelled out.
    PINNED_BARS = {
        "constant": (
            (1, 2, 3), 8,
            "342ebb2b145d656ed239e68d8b45f73001c61c0bf792b89059083723cb86cc41",
            ["1 1 flat 0 8 0x1.dd704a7d0dcd0p-25",
             "2 2 three 0 8 0x1.c8ebb6b5b05bap-22",
             "3 1 three 4 3 0x1.76f46508dfea3p-5"],
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED_BARS))
    def test_conservative_bars_are_pinned(self, kind):
        import hashlib

        ds, n_max, digest, spelled = self.PINNED_BARS[kind]
        dom = Domain(0.0, 0.25, 0.5, ((0.0, 1.0),))
        tables = {
            "flat": pp.LipschitzFactors.from_table((0.932902,)),
            "three": pp.LipschitzFactors.from_table((0.7, 1.1, 1.3)),
        }
        lines = []
        for d in ds:
            for L in (1, 2):
                for name, fac in tables.items():
                    log_bar = pp.log_lambda_bar(fac, d, L, dom)
                    lines += [f"{d} {L} {name} {k} {n} {math.exp(log_bar(k, n)).hex()}"
                              for k in (0, 1, 4) for n in range(1, n_max + 1)]
        assert set(spelled) <= set(lines)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    @settings(max_examples=200, deadline=None)
    @given(
        table=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4),
        d=st.sampled_from((1, 2, 3)),
        L=st.sampled_from((1, 2)),
        k=st.integers(0, 3),
        # bounded below so that no bar reaches the subnormal range
        tbar=st.floats(1e-3, 3.0),
        n=st.integers(0, 30),
    )
    def test_conservative_bar_bounds_the_literal_recursion(self, table, d, L, k, tbar, n):
        # exact for Tbar <= 2 or d = 1, an upper bound past that
        fac = pp.LipschitzFactors.from_table(table)
        bar = pp.lambda_bar(fac, d, L, Domain(0.0, tbar, tbar, ((-1, 1),)), k, n)
        ref = recursion_bar([fac.at(k + i * L) for i in range(n)], d, tbar)
        assert bar >= ref * (1 - 1e-10)
        if tbar <= 2 or d == 1:
            assert bar == pytest.approx(ref, rel=1e-10, abs=0)

    @pytest.mark.parametrize("tbar", [0.25, 2.0, 3.0])
    def test_recursion_quadrature_error_is_below_1e_11(self, tbar):
        # with one fold the recursion is Tbar^n / n! exactly
        for n in (10, 30):
            want = tbar**n / math.factorial(n)
            assert recursion_bar([1.0] * n, 1, tbar) == pytest.approx(want, rel=1e-11, abs=0)


class TestCertify:
    def test_ode_zero_loss_always_converges(self):
        dom = Domain(0.0, 0.8, 0.8)
        for lam in (0.5, 3.0, 10.0):
            ar = Arity(s=0, m=1, L=0, p=0)
            F = parse_expression("c*y1", ar, {"c": lam})
            prob = pp.CauchyProblem(
                dom, 1, 1, 0, 0, (F,), ((parse_expression("1", Arity(0)),),)
            )
            fac = pp.estimate_lipschitz(prob, Radii.infinite())
            cert = pp.certify_weissinger(prob, fac, Radii.infinite(), (0,), 40)
            assert cert.verdict == CONVERGED

    def test_heat_exponential_growth_converges(self):
        from picard_lod.linear_series import GrowthClass

        prob = heat_problem(Domain(0.0, 0.5, 0.5, ((-PI, PI),)))
        fac = pp.estimate_lipschitz(prob, Radii.infinite())
        cert = pp.certify_weissinger(
            prob, fac, Radii.infinite(), (0, 1), 40,
            growth=(GrowthClass("exponential", C=1.0),),
        )
        assert cert.verdict == CONVERGED
        assert cert.meta["mode"] == "paper"

    def test_heat_analytic_growth_diverges(self):
        from picard_lod.linear_series import GrowthClass

        prob = heat_problem(y00="1/(1+x1^2)")
        fac = pp.estimate_lipschitz(prob, Radii.infinite())
        cert = pp.certify_weissinger(
            prob, fac, Radii.infinite(), (0,), 30,
            growth=(GrowthClass("analytic", C=1.0),),
        )
        assert cert.verdict == DIVERGING

    def test_growth_model_needs_L_equal_to_mu(self):
        """The model bounds increments at k + (n + 1)|mu|; the rows read k + n L."""
        from picard_lod.linear_series import GrowthClass

        F = parse_expression("Dx1(y1)", Arity(s=1, m=1, L=2, p=0))
        y0 = parse_expression("sin(2*x1)", Arity(s=1))
        prob = pp.CauchyProblem(
            Domain(0.0, 0.1, 0.1, ((-PI, PI),)), 1, 1, 0, 2, (F,), ((y0,),)
        )
        growth = (GrowthClass("exponential", C=2.0),)
        fac = pp.estimate_lipschitz(prob, Radii.infinite())
        with pytest.raises(pp.PicardError, match=r"L = \|mu\|, got L=2, \|mu\|=1"):
            pp.certify_weissinger(prob, fac, Radii.infinite(), (0,), 10, growth=growth)
        rep = pp.solve(prob, pp.SolveConfig(tol=1e-11, n_max=10, growth=growth))
        assert rep.certificate is None and "L = |mu|" in rep.certificate_note


class TestSolve:
    def test_heat_matches_oracle(self):
        prob = heat_problem()
        rep = pp.solve(prob, pp.SolveConfig(tol=1e-11, n_max=10))
        assert rep.converged and rep.residual_ok
        ts = np.linspace(-0.1, 0.1, 9)
        xs = np.linspace(-PI, PI, 81)
        vals = rep.candidate.eval_grid(ts, [xs])[0]
        want = np.exp(-ts)[:, None] * np.sin(xs)[None, :]
        assert np.max(np.abs(vals - want)) < 1e-8

    def test_zero_rhs_returns_i0_in_one_step(self):
        ar = Arity(s=1, m=1, L=0, p=0)
        F = parse_expression("0", ar)
        prob = pp.CauchyProblem(
            Domain(0, 0.5, 0.5, ((-1, 1),)), 1, 1, 0, 0, (F,),
            ((parse_expression("x1^2", Arity(1)),),), x_degrees=(4,),
        )
        rep = pp.solve(prob, pp.SolveConfig(tol=1e-12, n_max=5))
        assert rep.converged and rep.n_steps == 1
        assert rep.residuals.pde_residual < 1e-13

    def test_increment_contraction_invariant(self):
        # ||P^{n+1}(i0) - P^n(i0)||_k <= LambdaBar_{k,n} ||P(i0) - i0||_{k+nL}
        prob = heat_problem()
        cfg = pp.SolveConfig(tol=1e-13, n_max=5, store_iterates=True)
        rep = pp.solve(prob, cfg)
        fac = pp.estimate_lipschitz(prob, Radii.infinite())
        i0 = rep.iterates[0]
        inc0 = (rep.iterates[1] - i0).trim()
        norms0 = graded_norms_upto(inc0, 8)
        for n in range(min(4, rep.n_steps - 1)):
            lhs = graded_norm((rep.iterates[n + 1] - rep.iterates[n]).trim(), 0)
            if 2 * n > 8:
                break
            bar = pp.lambda_bar(fac, 1, 2, prob.domain, 0, n)
            rhs = bar * float(norms0[2 * n])
            assert lhs <= rhs * (1 + 1e-6) + 1e-14

    def test_driver_sweeps_norms_once_per_step(self, monkeypatch):
        calls = {"norms": 0, "ball": []}
        norms_upto, ball = pp.graded_norms_upto, pp.ball_check

        def counted_norms(f, k_max, **kw):
            calls["norms"] += 1
            return norms_upto(f, k_max, **kw)

        def counted_ball(f, center, radii, k_max, **kw):
            calls["ball"].append(f is center)
            return ball(f, center, radii, k_max, **kw)

        monkeypatch.setattr(pp, "graded_norms_upto", counted_norms)
        monkeypatch.setattr(pp, "ball_check", counted_ball)
        cfg = pp.SolveConfig(
            radii=Radii.constant(50.0), k_check=(0, 1, 3), tol=1e-11, n_max=10
        )
        rep = pp.solve(heat_problem(), cfg)
        assert rep.converged
        assert all(len(rep.increments[k]) == rep.n_steps for k in (0, 1, 3))
        # one sweep per step, plus the numeric certificate's single sweep
        assert calls["norms"] == rep.n_steps + 1
        assert len(calls["ball"]) == rep.n_steps and not any(calls["ball"])
        assert [e["n"] for e in rep.ball_log] == list(range(1, rep.n_steps + 1))

    def test_ball_escape_reported(self):
        prob = heat_problem()
        cfg = pp.SolveConfig(radii=Radii.constant(1e-6), n_max=5)
        with pytest.raises(pp.BallEscape) as err:
            pp.solve(prob, cfg)
        assert err.value.n == 1

    def test_ball_log_all_within_on_converged_run(self):
        prob = heat_problem()
        cfg = pp.SolveConfig(radii=Radii.constant(0.5), tol=1e-11, n_max=10)
        rep = pp.solve(prob, cfg)
        assert rep.converged
        assert rep.membership == "checked"
        assert all(entry["member"] for entry in rep.ball_log)

    def test_certify_first_raises_on_divergence(self):
        from picard_lod.linear_series import GrowthClass

        prob = heat_problem(y00="1/(1+x1^2)")
        cfg = pp.SolveConfig(
            certify_first=True, growth=(GrowthClass("analytic", C=1.0),),
            certify_n_max=30,
        )
        with pytest.raises(pp.CertifiedDivergence):
            pp.solve(prob, cfg)

    def test_bounds_dominate_realized_error(self):
        from picard_lod.linear_series import GrowthClass

        prob = heat_problem()
        cfg = pp.SolveConfig(
            tol=1e-12, n_max=12, store_iterates=True,
            growth=(GrowthClass("exponential", C=1.0),), certify_n_max=40,
        )
        rep = pp.solve(prob, cfg)
        assert rep.converged and rep.bounds is not None
        ybar = rep.candidate
        for n, it in enumerate(rep.iterates[: rep.n_steps]):
            realized = graded_norm((ybar - it).trim(), 0)
            assert realized <= rep.bounds[0][n] + 1e-9


def test_eval_g_surfaces_division_by_zero():
    from picard_lod.expr import EvalError

    ar = Arity(s=1, m=1, L=0, p=0)
    F = parse_expression("1/y1", ar)
    prob = pp.CauchyProblem(
        Domain(0, 0.5, 0.5, ((-1, 1),)), 1, 1, 0, 0, (F,),
        ((parse_expression("0", Arity(1)),),),
    )
    y = pp.initial_polynomial(prob, (4,))  # identically zero data
    with pytest.raises(EvalError, match="division by zero"):
        pp.eval_G(prob, y)


def test_lipschitz_tables_run_to_the_numeric_cap():
    # a numeric certificate reads factors up to NUMERIC_K_CAP; a shorter table
    # would be extended by its last entry, which bounds nothing past it, so
    # an F without a certified table gets none
    radii = Radii.constant(1.0)
    fac = pp.estimate_lipschitz(burgers_problem(rhs="-y1*Dx1(y1)", x_degrees=(8,)), radii)
    assert fac.meta["method"] == "leibniz"
    assert len(fac.table) == pp.NUMERIC_K_CAP + 1
    with pytest.raises(pp.PicardError, match=re.escape(REFUSAL)):
        pp.estimate_lipschitz(burgers_problem(rhs="sin(y1)*Dx1(y1)", x_degrees=(8,)), radii)


class TestPolynomialStructure:
    @pytest.mark.parametrize("rhs, poly", [
        ("Dx2(y1)+y1", {(DX2,): 1.0, (Y,): 1.0}),
        ("-0.5*y1*Dx2(y1)+x1^2", {(Y, DX2): -0.5}),
        ("(y1+Dx1(y1))^2/2", {(Y, Y): 0.5, (Y, DX1): 1.0, (DX1, DX1): 0.5}),
        ("y1*y1-y1^2+3*Dx1(y1)", {(DX1,): 3.0}),
        ("sin(2)*y1^3", {(Y, Y, Y): math.sin(2.0)}),
        ("sin(t)+cos(x1)", {}),
    ])
    def test_terms(self, rhs, poly):
        [terms] = rhs_problem(rhs).rhs_class.poly
        assert {phs: c for c, phs in terms} == pytest.approx(poly)

    @pytest.mark.parametrize("rhs", [
        "x1*Dx1(y1)", "t*y1", "sin(y1)*Dx1(y1)", "y1/x1", "y1/(1-1)", "1/y1", "(x1+1)*y1^2",
    ])
    def test_not_polynomial_with_constant_coefficients(self, rhs):
        assert rhs_problem(rhs).rhs_class.poly is None

    def test_time_derivatives_count_against_L(self):
        ar = Arity(s=1, m=1, L=1, p=1)
        dom = Domain(0, 0.5, 0.5, ((-1, 1),))
        zero = ((Const(0.0),), (Const(0.0),))
        F = parse_expression("Dt(Dx1(y1))", ar)
        assert pp.CauchyProblem(dom, 1, 2, 1, 1, (F,), zero).rhs_class.poly is None
        F = parse_expression("Dt(y1)*y1", ar)
        assert pp.CauchyProblem(dom, 1, 2, 1, 1, (F,), zero).rhs_class.poly is not None

    @settings(max_examples=200, deadline=None)
    @given(rhs_trees, st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           st.floats(-1.0, 1.0))
    def test_terms_are_the_differences_of_F(self, e, z, x):
        # F(z1) - F(z0) is the polynomial part at z1 minus that at z0
        poly = rhs_problem(e).rhs_class.poly
        if poly is None:
            return

        def F(zs):
            return eval_expr(e, {"t": 0.25, "x1": x,
                                 **{placeholder_key(ph): v for ph, v in zip((Y, DX1, DX2), zs)}})

        def P(zs):
            at = dict(zip((Y, DX1, DX2), zs))
            return sum(c * math.prod(at[ph] for ph in phs) for c, phs in poly[0])

        z0, z1 = z[:3], z[3:]
        assert math.isclose(F(z1) - F(z0), P(z1) - P(z0), rel_tol=1e-9, abs_tol=1e-9)


_monomials = st.tuples(
    st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3),
    st.lists(st.sampled_from([Y, DX1, DX2]), min_size=1, max_size=3),
)


class TestLeibnizFactors:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_monomials, min_size=1, max_size=3),
           st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           st.floats(0.05, 1.0), st.integers(0, 2**32 - 1),
           st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    def test_table_bounds_measured_ratios(self, monomials, data, r, seed, th_u, th_v):
        from picard_lod import funcspace as fs

        def polynomial(terms):
            return functools.reduce(lambda a, b: Binary("+", a, b), [
                functools.reduce(lambda a, b: Binary("*", a, b), phs, Const(c))
                for c, phs in terms
            ])

        # F in exact arithmetic: the coefficients of like monomials summed as
        # rationals and rounded once.  It is the F that the table bounds,
        # and evaluating it adds no rounding from monomials that cancel:
        # 2 y - 1.9999999999999998 y is 2^-52 y, and 2 y - 2 y is 0, of
        # degree 0
        sums: dict = {}
        for c, phs in monomials:
            key = frozenset(collections.Counter(phs).items())
            sums[key] = (sums.get(key, (Fraction(0),))[0] + Fraction(c), phs)
        exact = [(float(c), phs) for c, phs in sums.values() if c]
        y0 = Binary("+", Const(data[0]), Binary("*", Var("x", 1), Binary(
            "+", Const(data[1]), Binary("*", Const(data[2]), Var("x", 1)))))
        dom = Domain(0.0, 0.25, 0.25, ((-1.0, 1.0),))
        prob = pp.CauchyProblem(dom, 1, 1, 0, 2, (polynomial(monomials),), ((y0,),), (4,))
        radii, k_max, L = Radii.constant(r), 3, 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pp, "NUMERIC_K_CAP", k_max)
            fac = pp._leibniz_lipschitz(prob, radii)
        assert fac.meta == {"method": "leibniz", "certified": True,
                            "degree": max((len(phs) for _, phs in exact), default=0),
                            "k_max": k_max}
        rng = np.random.default_rng(seed)
        u = ball_member(prob, radii, k_max + L, rng, th_u, degrees=(2, 4))
        v = ball_member(prob, radii, k_max + L, rng, th_v, degrees=(2, 4))

        def G(y):
            # that F composed in coefficients, as composed_G does: collocation
            # noise would be the size of the allowance after three x derivatives
            factor = {ph: fs.partial_derivative(y, (0, *ph.alpha)) for ph in (Y, DX1, DX2)}
            out = y * 0.0
            for c, phs in exact:
                out = out + functools.reduce(product_tx, [factor[ph] for ph in phs]) * c
            return out

        num = fs.graded_norms_upto(G(u) - G(v), k_max, p=0)
        den = fs.graded_norms_upper(u - v, k_max + L)
        for k in range(k_max + 1):
            assert num[k] <= fac.at(k) * den[k + L] * (1 + 1e-12)

    def test_like_monomials_merge_exactly(self):
        # -2 + 0.1 + 1.9 is 0.0 in floats, which would drop y1 from F; the
        # three doubles sum to about -8.3e-17
        exact = float(Fraction(-2.0) + Fraction(0.1) + Fraction(1.9))
        assert (-2.0 + 0.1) + 1.9 == 0.0 != exact
        assert rhs_problem("-2*y1+0.1*y1+1.9*y1").rhs_class.poly == (((exact, (Y,)),),)
        fac = pp.estimate_lipschitz(rhs_problem("-2*y1+0.1*y1+1.9*y1"), Radii.infinite())
        assert fac.at(0) >= abs(exact)

    def test_affine_factor_is_the_coefficient_sum_without_radii(self):
        fac = pp.estimate_lipschitz(rhs_problem("Dx2(y1)-0.5*y1+x1^2"), Radii.infinite())
        assert fac.meta["method"] == "leibniz"
        # 1 + 0.5, rounded up by a few units in the last place
        assert all(1.5 <= fac.at(k) <= 1.5 * (1 + 1e-15) for k in (0, 5, 20))

    def test_nonlinear_factor_needs_finite_radii(self):
        with pytest.raises(pp.PicardError, match="finite radii"):
            pp.estimate_lipschitz(burgers_problem(), Radii.infinite())

    def test_burgers_table_in_closed_form(self, monkeypatch):
        # i0 = x on [0, 1]: upper norms 1, 1, 1, ..., so R_j = 1.5; the two
        # telescoped terms of y1 * Dx1(y1) give 2 * 2^k * 1.5
        monkeypatch.setattr(pp, "NUMERIC_K_CAP", 4)
        fac = pp.estimate_lipschitz(burgers_problem(), Radii.constant(0.5))
        assert fac.table == pytest.approx([3.0 * 2**k for k in range(5)], rel=1e-12)
        assert all(v >= 3.0 * 2**k for k, v in enumerate(fac.table))

    def test_certified_table_is_at_least_the_sampled_one(self, monkeypatch):
        monkeypatch.setattr(pp, "NUMERIC_K_CAP", 4)
        prob, radii = burgers_problem(x_degrees=(12,)), Radii.constant(0.5)
        certified = pp.estimate_lipschitz(prob, radii)
        sampled = sampled_ratio_table(prob, radii, "y1*Dx1(y1)", pairs=24, seed=0)
        assert certified.meta["certified"]
        assert all(c >= s for c, s in zip(certified.table, sampled))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["-y1*Dx1(y1)", "y1^3-0.5*y1*Dx1(y1)^2"]), st.sampled_from([0.5, 1.0]),
           st.integers(0, 2**32 - 1), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    def test_table_bounds_pairs_in_the_ball(self, rhs, r, seed, th_u, th_v):
        from picard_lod import funcspace as fs

        prob, radii = burgers_problem(rhs=rhs, x_degrees=(8,)), Radii.constant(r)
        k_max, L = pp.NUMERIC_K_CAP, prob.L
        fac = pp.estimate_lipschitz(prob, radii)
        rng = np.random.default_rng(seed)
        u = ball_member(prob, radii, k_max + L, rng, th_u)
        v = ball_member(prob, radii, k_max + L, rng, th_v)
        G = composed_G(rhs)
        num = fs.graded_norms_upto(G(u) - G(v), k_max, p=0)
        den = fs.graded_norms_upper(u - v, k_max + L)
        for k in range(k_max + 1):
            assert num[k] <= fac.at(k) * den[k + L] * (1 + 1e-12)


def composed_G(rhs):
    """G(y) = F(y) for the polynomial Burgers-type rhs named, composed in coefficients.

    The grid sup of G(u) - G(v) is at most the true sup and the upper norm of
    u - v at least the true norm, so a certified table bounds their ratio as
    measured, up to roundoff.  Collocation noise in the top coefficients would
    grow by about 1e15 over eight x derivatives, hence no interpolation.
    """
    from picard_lod import funcspace as fs

    def G(y):
        y_x = fs.partial_derivative(y, (0, 1))
        if rhs == "y1*Dx1(y1)":
            return product_tx(y, y_x)
        if rhs == "-y1*Dx1(y1)":
            return -product_tx(y, y_x)
        assert rhs == "y1^3-0.5*y1*Dx1(y1)^2", rhs
        return product_tx(product_tx(y, y), y) - product_tx(product_tx(y, y_x), y_x) * 0.5

    return G


def sampled_ratio_table(prob, radii, rhs, pairs, seed):
    """max over seeded pairs u, v in the ball of |G(u) - G(v)|_k / |u - v|_{k+L}, k <= NUMERIC_K_CAP."""
    from picard_lod import funcspace as fs

    k_max, L, G = pp.NUMERIC_K_CAP, prob.L, composed_G(rhs)
    rng = np.random.default_rng(seed)
    table = np.zeros(k_max + 1)
    for _ in range(pairs):
        th_u, th_v = rng.uniform(0.05, 1.0, size=2)
        u = ball_member(prob, radii, k_max + L, rng, th_u)
        v = ball_member(prob, radii, k_max + L, rng, th_v)
        num = fs.graded_norms_upto(G(u) - G(v), k_max, p=0)
        den = fs.graded_norms_upper(u - v, k_max + L)
        table = np.maximum(table, [num[k] / den[k + L] for k in range(k_max + 1)])
    return table


def test_sampled_table_stays_below_the_leibniz_table(monkeypatch):
    # ratios of measured sups over pairs in the ball stay below the certified
    # table of a polynomial F (128 at k = 5)
    monkeypatch.setattr(pp, "NUMERIC_K_CAP", 6)
    prob, radii = burgers_problem(rhs="-y1*Dx1(y1)", x_degrees=(8,)), Radii.constant(1.0)
    sampled = sampled_ratio_table(prob, radii, "-y1*Dx1(y1)", pairs=16, seed=1)
    certified = pp.estimate_lipschitz(prob, radii)
    assert certified.table[5] == pytest.approx(128.0)
    assert all(0.0 < s <= c * (1 + 1e-12) for s, c in zip(sampled, certified.table))


# the linear step's coefficients: 0, or a magnitude in [2^-10, 8] of either sign
STEP_COEFFICIENTS = st.one_of(st.just(0.0), st.floats(2**-10, 8.0), st.floats(-8.0, -2**-10))


def linear_class_problem(rhs, d=1, p=0, L=2, initial=("sin(x1+0.3)",), x_degree=12):
    dom = Domain(0.0, 0.25, 0.25, ((-PI, PI),))
    F = parse_expression(rhs, Arity(s=1, m=1, L=L, p=p))
    rows = tuple((parse_expression(e, Arity(s=1)),) for e in initial)
    return pp.CauchyProblem(dom, 1, d, p, L, (F,), rows, (x_degree,))


def l1_gap(a, b):
    """The l1 norm of a - b, both coefficient tensors zero-padded to a common shape."""
    a, b = np_pad_to_common(np.asarray(a), np.asarray(b))
    return float(np.sum(np.abs(a - b)))


def exact_l1_gap(got, exact):
    """The l1 norm of got - exact and of exact, got a float tensor and exact one of Fractions."""
    shape = tuple(max(u, v) for u, v in zip(got.shape, exact.shape))
    diff = np.zeros(shape, dtype=object)
    diff[tuple(slice(n) for n in exact.shape)] = exact
    diff[tuple(slice(n) for n in got.shape)] -= np.vectorize(Fraction, otypes=[object])(got)
    return float(sum(abs(v) for v in diff.ravel())), float(sum(abs(v) for v in exact.ravel()))


def chain_gaps(domain, d, gamma, P, j, steps):
    """(l1 gap, exact l1 norm) after each of ``steps`` LinearStep steps, against the
    exact-rational chain, from the base (j-gamma)!/j! (t-t0)^j of a mu chain."""
    start = (pp._tpoly_cheb(domain, j) * math.factorial(j - gamma)).reshape(1, -1, 1)
    step = LinearStep(domain, d, P, gamma)
    exact = np.vectorize(Fraction, otypes=[object])(start)
    got, out = start, []
    for _ in range(steps):
        exact = fraction_linear_step(P, exact, (gamma,), d, domain.intervals(), domain.t0)
        got, _ = step(got)
        out.append(exact_l1_gap(got, exact))
    return out


class TestLinearStep:
    """LinearStep, I_d[p . D^mu d_t^gamma .] on coefficients: apply_P and the closed form share it."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_exact_rational_step(self, data):
        """Against Fractions, the l1 gap stayed below 1e-14 of the exact l1 norm
        in 8,000 examples (largest 9.6e-15); the bound is 1e-13."""
        s = data.draw(st.integers(0, 2))
        ends = st.sampled_from([0.1, 0.25, 0.5, 1.0])
        S = [data.draw(st.sampled_from([(-PI, PI), (0.0, 1.0), (-1.0, 2.5)])) for _ in range(s)]
        t0 = data.draw(st.sampled_from([0.0, 0.3, -1.0]))
        dom = Domain(t0, data.draw(ends), data.draw(ends), tuple(S))
        d = data.draw(st.integers(1, 2))
        shape = (1, *[data.draw(st.integers(1, 7)) for _ in range(1 + s)])
        coef = data.draw(hnp.arrays(np.float64, shape, elements=STEP_COEFFICIENTS))
        n_p = data.draw(st.integers(1, 4))
        P = data.draw(hnp.arrays(np.float64, (1, 1, n_p), elements=STEP_COEFFICIENTS))
        beta = [0] * (1 + s)
        for axis in data.draw(st.lists(st.integers(0, s), max_size=2)):
            beta[axis] += 1
        got, cut = LinearStep(dom, d, P, beta[0])(coef, beta[1:])
        exact = fraction_linear_step(P, coef, beta, d, dom.intervals(), t0)
        assert not cut
        gap, norm = exact_l1_gap(got, exact)
        assert gap <= 1e-13 * norm

    # the relative l1 gap that a chain of 20 steps may reach, per time order d
    CHAIN_BOUND = {1: 1e-6, 2: 1e-2}

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_a_chain_of_steps_stays_near_the_exact_rational_chain(self, data):
        """A step's roundoff in the low t-degrees outgrows the chain's own terms, of
        degree j + h(d - gamma) (about binom(dh, dh/2) eps at step h), so the bound
        grows with d.  Over 1,000 examples the largest relative gap seen was
        9.6e-8 for d = 1 and 5.3e-4 for d = 2.  On 400 random chains of the same
        kind (p uniform in [-2, 2]) a step that folds by numpy's chebint
        recurrence reached 8.4e-8 and 4.3e-4, and this one 3.9e-8 and 6.1e-4."""
        d = data.draw(st.integers(1, 2))
        gamma = data.draw(st.integers(0, d - 1))
        j = data.draw(st.integers(gamma, d - 1))
        # t0 at the midpoint of T, off-centre, or near an end (a / b = 1e-3 or 1e3)
        half = data.draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
        ratio = data.draw(st.sampled_from([1.0, 1 / 3, 3.0, 1e-3, 1e3]))
        dom = Domain(data.draw(st.sampled_from([0.0, 0.3, -1.0])), half * min(ratio, 1.0),
                     half / max(ratio, 1.0))
        n_p = data.draw(st.integers(1, 4))
        P = data.draw(hnp.arrays(np.float64, (1, 1, n_p), elements=STEP_COEFFICIENTS))
        for gap, norm in chain_gaps(dom, d, gamma, P, j, 20):
            assert gap <= self.CHAIN_BOUND[d] * norm

    # (d, gamma, j, the largest relative gap of a step that folds by chebint's recurrence)
    @pytest.mark.parametrize("d, gamma, j, folded_gap", [
        (1, 0, 0, 1.06e-12), (2, 0, 0, 1.24e-6), (2, 0, 1, 2.66e-6), (2, 1, 1, 4.03e-12)])
    def test_the_catalog_chains_stay_as_near_as_before(self, d, gamma, j, folded_gap):
        """The mu chains of the catalog's heat and transport (d = 1), wave and
        dt2_dx (d = 2) and mixed_dt_dx (d = 2, gamma = 1) at a = 1 on
        [-0.25, 0.25], 20 steps: no step's gap exceeds the largest that folding
        by numpy's chebint recurrence gives.  This step's largest are 8.2e-13,
        6.2e-7, 1.2e-6 and 1.1e-12."""
        dom = Domain(0.0, 0.25, 0.25)
        for gap, norm in chain_gaps(dom, d, gamma, np.array([[[1.0]]]), j, 20):
            assert gap <= folded_gap * norm

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.sampled_from(["", "-0.5*", "cos(t)*", "(1+t)*", "(t^2-0.3)*"]),
        form=st.sampled_from([(1, 0, 2, "Dx2(y1)"), (1, 0, 1, "Dx1(y1)"), (1, 0, 0, "y1"),
                              (2, 0, 2, "Dx2(y1)"), (2, 1, 1, "Dt(Dx1(y1))")]),
        q=st.sampled_from(["", "+x1", "+t*x1^2", "+cos(t)*x1"]),
        steps=st.integers(0, 2),
    )
    def test_linear_class_leaves_collocation(self, p, form, q, steps):
        """apply_P never calls eval_G on the linear class, and it agrees with the
        collocated step i0 + I_d[eval_G(y)] to 1e-12 in relative l1."""
        d, gamma, L, ph = form
        initial = ("sin(x1+0.3)", "cos(x1)")[:d]
        problem = linear_class_problem(p + ph + q, d=d, p=gamma, L=L, initial=initial)
        assert problem.rhs_class.kind == "linear"
        collocated = pp.eval_G

        def no_grid(*_):
            raise AssertionError("the linear class reached eval_G")

        i0 = problem.i0
        y = i0
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(pp, "eval_G", no_grid)
            for _ in range(steps):
                y = pp.apply_P(problem, y, i0)
            got = pp.apply_P(problem, y, i0)
        want = (i0 + iterated_time_integral(collocated(problem, y), d)).trim()
        assert got.truncation is None
        assert l1_gap(got.coeffs, want.coeffs) <= 1e-12 * float(np.sum(np.abs(want.coeffs)))

    def test_an_affine_rhs_still_collocates(self, monkeypatch):
        problem = linear_class_problem("Dx2(y1)+y1")
        assert problem.rhs_class.kind == "affine"
        calls = []
        collocated = pp.eval_G
        monkeypatch.setattr(pp, "eval_G", lambda *a: calls.append(a) or collocated(*a))
        y = pp.apply_P(problem, problem.i0, problem.i0)
        assert len(calls) == 1 and y.truncation is not None

    def test_linear_data_is_built_once_per_problem(self, monkeypatch):
        problem = linear_class_problem("cos(t)*Dx2(y1)+x1")
        calls = []
        real = pp._t_interp_matrix
        monkeypatch.setattr(pp, "_t_interp_matrix", lambda *a: calls.append(a) or real(*a))
        y = problem.i0
        for _ in range(3):
            y = pp.apply_P(problem, y, problem.i0)
        assert len(calls) == 1

    def test_the_operator_is_built_once_per_problem(self, monkeypatch):
        problem = linear_class_problem("cos(t)*Dx2(y1)+x1")
        builds = []

        class Counted(LinearStep):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(pp.fs, "LinearStep", Counted)
        y = problem.first_iterate
        for _ in range(3):
            y = pp.apply_P(problem, y, problem.i0)
        ls.mu_eta_recursions(ls.LinearProblem.from_cauchy(problem), 6)
        assert len(builds) == 1

    def test_the_operator_is_freed_with_its_problem(self):
        problem = linear_class_problem("cos(t)*Dx2(y1)+x1")
        pp.apply_P(problem, problem.i0, problem.i0)
        ref = weakref.ref(problem.linear_step)
        del problem
        gc.collect()
        assert ref() is None

    def test_solve_stops_at_the_degree_cap(self):
        """cos(t) has 17 t-coefficients on the default T; a step of a degree-120
        iterate passes DEGREE_CAP and raises, as iterated_time_integral does."""
        problem = linear_class_problem("cos(t)*Dx1(y1)", L=1)
        assert problem.linear_data[0].shape[2] == 17
        coeffs = np.zeros((1, 121, 13))
        coeffs[0, :, 1] = 0.5 ** np.arange(121)
        y = SepFunc(problem.domain, 1, 0, coeffs)
        with pytest.raises(FuncSpaceError, match=f"degree cap {DEGREE_CAP} exceeded"):
            pp.apply_P(problem, y, problem.i0)
        # the step alone only records its cut, which the closed form keeps
        _, cut = problem.linear_step(coeffs, (1,))
        assert cut

    def test_overflow_raises_without_a_warning(self):
        P = np.array([[[1e300]]])
        coef = np.zeros((1, 1, 2))
        coef[0, 0, 1] = 1e300
        dom = Domain(0.0, 1.0, 1.0, ((-1.0, 1.0),))
        with np.errstate(all="raise"):
            with pytest.raises(NonFiniteCoefficients):
                LinearStep(dom, 1, P, 0)(coef, (1,))
