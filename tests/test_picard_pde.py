import collections
import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import recursion_bar
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
    Radii,
    graded_norm,
    graded_norms_upto,
    interpolate,
)
from picard_lod.graded_core import CONVERGED, DIVERGING
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

    def test_sampled_against_closed_form(self):
        # sin(y1) * Dx1(y1) is not a polynomial in y, so it is sampled
        prob = burgers_problem(rhs="sin(y1)*Dx1(y1)", x_degrees=(12,))
        radii = Radii.constant(0.5)
        fac = pp.estimate_lipschitz(prob, radii, k_max=2, n_pairs=24)
        assert fac.meta["method"] == "sampled" and fac.meta["certified"] is False
        # F(u) - F(v) = (sin u - sin v) u_x + sin v (u_x - v_x) with |sin|,
        # |cos| <= 1: cross-check the measured ratio of sups against
        # 2^k (r_{k+L} + sup-range of d^alpha i0) with i0 = x on [0, 1],
        # allowing for the inflation and the chain-rule terms.  A small
        # shift u - v = c gives sup|cos x| = 1 at k = 0, a value the random
        # pairs come close to.
        assert fac.at(0) >= 1.0
        for k in range(3):
            assert fac.at(k) <= 2**k * (0.5 + 1.0) * 2.5
        # nondecreasing in k by construction
        assert fac.at(0) <= fac.at(1) <= fac.at(2)

    def test_sampled_needs_finite_radii(self):
        with pytest.raises(pp.PicardError, match="finite"):
            pp.estimate_lipschitz(burgers_problem(rhs="sin(y1)*Dx1(y1)"), Radii.infinite())


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


def test_sampled_lipschitz_table_is_pinned():
    # float.hex of the table of sup ratios: a change to the sampler must not
    # move a single bit unless it means to
    fac = pp._sampled_lipschitz(
        burgers_problem(x_degrees=(12,)), Radii.constant(0.5), k_max=2, n_pairs=4
    )
    assert [float(v).hex() for v in fac.table] == [
        "0x1.92c9781f1511cp+0", "0x1.a9fa6eebb1ed2p+0", "0x1.a9fa6eebb1ed2p+0",
    ]


def test_sampled_table_stays_below_the_leibniz_table():
    # ratios of sups measure the factor the certificate uses, so on a
    # polynomial F they stay below its certified table (128 at k = 5, where
    # the max of pointwise ratios read 303)
    prob, radii = burgers_problem(rhs="-y1*Dx1(y1)"), Radii.constant(1.0)
    sampled = pp._sampled_lipschitz(prob, radii, k_max=6, n_pairs=64)
    certified = pp.estimate_lipschitz(prob, radii, k_max=6)
    assert certified.table[5] == pytest.approx(128.0)
    assert all(s <= c for s, c in zip(sampled.table, certified.table))


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


def exact_rhs(problem, y, degrees):
    """The composed right-hand side interpolated at degrees high enough to be exact."""
    from picard_lod import funcspace as fs

    vals = pp._rhs_on_grid(problem, y, fs.chebyshev_nodes(problem.domain, degrees))
    return fs.from_values(vals, problem.domain, problem.m, problem.p)


def ball_member(problem, i0, radii, k_top, rng, theta):
    """i0 plus a random perturbation whose upper norms are theta * r_j at most."""
    from picard_lod.funcspace import SepFunc, graded_norms_upper

    raw = rng.standard_normal((1, 3, 5)) * 0.5 ** np.indices((3, 5)).sum(axis=0)
    pert = SepFunc(problem.domain, 1, 0, raw)
    upper = graded_norms_upper(pert, k_top)
    scale = min(radii.value(j) / upper[j] for j in range(k_top + 1))
    return i0 + pert * (theta * scale)


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
        fac = pp._leibniz_lipschitz(prob, radii, k_max=k_max)
        assert fac.meta == {"method": "leibniz", "certified": True,
                            "degree": max((len(phs) for _, phs in exact), default=0),
                            "k_max": k_max}
        i0 = prob.i0
        rng = np.random.default_rng(seed)
        u = ball_member(prob, i0, radii, k_max + L, rng, th_u)
        v = ball_member(prob, i0, radii, k_max + L, rng, th_v)
        F_exact = polynomial(exact or [(0.0, [Y])])
        measured = pp.CauchyProblem(dom, 1, 1, 0, 2, (F_exact,), ((y0,),))
        diff = exact_rhs(measured, u, (8, 14)) - exact_rhs(measured, v, (8, 14))
        den = fs.graded_norms_upper(u - v, k_max + L)
        num = np.zeros(k_max + 1)
        for beta, vals in fs.derivatives_on_grid(
                diff, [(0, j) for j in range(k_max + 1)], fs.norm_grid(diff)):
            num[beta[1]:] = np.maximum(num[beta[1]:], np.max(np.abs(vals)))
        for k in range(k_max + 1):
            assert num[k] <= fac.at(k) * den[k + L] * (1 + 1e-9)

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

    def test_burgers_table_in_closed_form(self):
        # i0 = x on [0, 1]: upper norms 1, 1, 1, ..., so R_j = 1.5; the two
        # telescoped terms of y1 * Dx1(y1) give 2 * 2^k * 1.5
        fac = pp.estimate_lipschitz(burgers_problem(), Radii.constant(0.5), k_max=4)
        assert fac.table == pytest.approx([3.0 * 2**k for k in range(5)], rel=1e-12)
        assert all(v >= 3.0 * 2**k for k, v in enumerate(fac.table))

    def test_certified_table_is_at_least_the_sampled_one(self):
        prob, radii = burgers_problem(x_degrees=(12,)), Radii.constant(0.5)
        certified = pp.estimate_lipschitz(prob, radii, k_max=4)
        sampled = pp._sampled_lipschitz(prob, radii, k_max=4, n_pairs=24)
        assert certified.meta["certified"] and not sampled.meta["certified"]
        assert all(c >= s for c, s in zip(certified.table, sampled.table))
