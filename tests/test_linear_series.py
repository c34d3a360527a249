import math
from dataclasses import replace

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb

import picard_lod.funcspace as fs
from picard_lod.expr import (
    Arity, Binary, Const, Power, Unary, Var, eval_expr, parse_expression, symbolic_partial,
)
from picard_lod.funcspace import Domain, Radii, graded_norm, graded_norms_upto
from picard_lod.graded_core import CONVERGED, DIVERGING, INCONCLUSIVE, exp_or_inf
import picard_lod.linear_series as ls
import picard_lod.picard_pde as pp

PI = math.pi
SQUARE = Domain(0.0, 0.5, 0.5, ((-1.0, 1.0),))


def expr(text, s=1):
    return parse_expression(text, Arity(s=s))


def linear(domain, d, gamma, mu, p="1", q="0", Q=0.0, initial=("0",), params=None):
    m = 1
    return ls.LinearProblem(
        domain, m, d, gamma, mu,
        ((parse_expression(p, Arity(s=0), params),),),
        (parse_expression(q, Arity(1), params),),
        Q,
        tuple((expr(e),) for e in initial),
    )


def tval(problem, coefs, t):
    lo, hi = problem.domain.t_interval
    u = (2 * t - lo - hi) / (hi - lo)
    return cheb.chebval(u, coefs)


def sampled_row_sum(rows, domain, n=2049):
    """Max over n equispaced t of max_h sum_l |rows[h][l](t)|: a lower bound on its sup.

    An entry is an expression in t, or an array of Chebyshev coefficients on T.
    """
    lo, hi = domain.t_interval
    ts = np.linspace(lo, hi, n)
    u = (2 * ts - lo - hi) / (hi - lo)

    def values(e):
        v = cheb.chebval(u, e) if isinstance(e, np.ndarray) else eval_expr(e, {"t": ts})
        return np.abs(np.broadcast_to(v, ts.shape))

    return max(float(np.max(sum(values(e) for e in row))) for row in rows)


def direct_problem(domain, p, q=None, mu=(2,), x_degrees=None):
    """The LinearProblem of p(t) d_x^mu y + q with p an m-by-m matrix of expressions."""
    m, s = len(p), len(mu)
    q = q or (Const(0.0),) * m
    return ls.LinearProblem(domain, m, 1, 0, mu, p, q, 0.0,
                            ((expr("sin(x1)", s=s),) * m,), x_degrees)


class TestLinearProblem:
    def test_mu_must_be_positive(self):
        with pytest.raises(ls.LinearSeriesError, match="mu"):
            linear(SQUARE, 1, 0, (0,))

    def test_round_trip_through_cauchy(self):
        lp = linear(SQUARE, 1, 0, (2,), p="2.0", q="x1", Q=1.0,
                    initial=("x1^2",))
        cauchy = lp.to_cauchy()
        back = ls.LinearProblem.from_cauchy(cauchy, Q=1.0)
        assert back.mu == (2,) and back.gamma == 0
        assert back.to_cauchy().p_sup == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [
        (("2.5",),),
        (("cos(t)",),),
        (("1+t^2",),),
        (("0", "-3*t"), ("cos(t)", "0")),
    ])
    def test_p_sup_of_a_direct_problem_is_that_of_its_coefficients(self, p):
        # the CauchyProblem reads p from its classified right-hand side, not
        # p_coef: |c| for a constant, otherwise at least a fine sample of p
        lp = direct_problem(SQUARE, tuple(tuple(parse_expression(e, Arity(s=0)) for e in row)
                                          for row in p))
        got = lp.to_cauchy().p_sup
        if p == (("2.5",),):
            assert got == 2.5
        else:
            assert got >= sampled_row_sum(lp.p_coef, lp.domain)

    def test_q_bound_estimated_when_missing(self):
        lp = linear(SQUARE, 1, 0, (2,), q="x1", Q=5.0)
        cauchy = lp.to_cauchy()
        back = ls.LinearProblem.from_cauchy(cauchy)
        assert back.Q == cauchy.q_sup >= 1.0  # x on [-1, 1] and its derivative 1

    def test_from_cauchy_is_a_view_of_the_problem(self):
        ar = Arity(s=2, m=1, L=2, p=0)
        dom = Domain(0.0, 0.1, 0.1, ((-PI, PI), (-PI, PI)))
        prob = pp.CauchyProblem(
            dom, 1, 1, 0, 2, (parse_expression("cos(t)*Dx1(Dx1(y1))+x2", ar),),
            ((expr("sin(x1)*cos(x2)", s=2),),), (20, 12),
        )
        view = ls.LinearProblem.from_cauchy(prob, Q=1.0)
        assert view.to_cauchy() is prob
        assert view.x_degrees == (20, 12)

    def test_to_cauchy_is_built_once_in_the_linear_class(self):
        lp = linear(SQUARE, 1, 0, (2,), p="0", q="x1", Q=1.0, initial=("x1^2",))
        assert lp.to_cauchy() is lp.to_cauchy()
        assert lp.to_cauchy().rhs_class.kind == "linear"
        assert lp.x_degrees == (pp.X_DEGREE,) and lp.to_cauchy().x_degrees == lp.x_degrees
        assert linear(SQUARE, 1, 0, (2,)).to_cauchy().rhs_class.kind == "linear"

    def test_zero_p_series_is_the_forced_solution(self):
        # F = 0 * Dx1(Dx1(y1)) + x1: y = sin(x1) + t x1
        dom = Domain(0.0, 0.5, 0.5, ((-PI, PI),))
        lp = linear(dom, 1, 0, (2,), p="0", q="x1", Q=1.0, initial=("sin(x1)",))
        sol, _ = ls.series_solution(lp, 4)
        ts = np.linspace(-0.5, 0.5, 9)
        xs = np.linspace(-PI, PI, 61)
        want = np.sin(xs)[None, :] + ts[:, None] * xs[None, :]
        assert np.max(np.abs(sol.eval_grid(ts, [xs])[0] - want)) <= 1e-12


# entries of p(t): constants, c cos(w t) and polynomials in t
P_ENTRIES = st.one_of(
    st.floats(-4.0, 4.0).map(Const),
    st.tuples(st.floats(-4.0, 4.0), st.integers(1, 8)).map(
        lambda a: Binary("*", Const(a[0]), Unary("cos", Binary("*", Const(float(a[1])), Var("t"))))),
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5).map(lambda cs: functools.reduce(
        lambda e, k: Binary("+", e, Binary("*", Const(cs[k]), Power(Var("t"), k))),
        range(1, len(cs)), Const(cs[0]))),
)


@st.composite
def p_matrices(draw):
    m = draw(st.integers(1, 2))
    return tuple(tuple(draw(P_ENTRIES) for _ in range(m)) for _ in range(m))


@st.composite
def x_terms(draw, s):
    """c x_i^k (k <= 4), c sin(w x_i) or c cos(w x_i), times t or not."""
    x = Var("x", draw(st.integers(1, s)))
    c = Const(draw(st.floats(-3.0, 3.0)))
    w = Const(float(draw(st.integers(1, 3))))
    body = draw(st.sampled_from([
        *(Power(x, k) for k in range(5)),
        Unary("sin", Binary("*", w, x)), Unary("cos", Binary("*", w, x)),
    ]))
    term = Binary("*", c, body)
    return Binary("*", Var("t"), term) if draw(st.booleans()) else term


@st.composite
def forced_problems(draw):
    s = draw(st.integers(1, 2))
    half = draw(st.sampled_from([0.5, 1.0, PI]))
    dom = Domain(0.0, 0.25, 0.25, ((-half, half),) * s)
    q = functools.reduce(lambda a, b: Binary("+", a, b),
                         draw(st.lists(x_terms(s), min_size=1, max_size=3)))
    return direct_problem(dom, ((Const(1.0),),), (q,), mu=(1,) * s, x_degrees=(10,) * s)


class TestCoefficientBounds:
    """p_sup and q_sup bound the surrogates P and q~ that the linear step applies."""

    @settings(max_examples=80, deadline=None)
    @given(p_matrices(), st.floats(-1.0, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0))
    def test_p_sup_bounds_the_sampled_row_sums(self, p, t0, a, b):
        lp = direct_problem(Domain(t0, a, b, ((-1.0, 1.0),)), p)
        cauchy = lp.to_cauchy()
        P = cauchy.linear_data[0]
        assert cauchy.p_sup >= sampled_row_sum(P, lp.domain)
        # P interpolates p to a relative tail of 1e-13
        assert cauchy.p_sup >= sampled_row_sum(p, lp.domain) * (1 - 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1e6, 1e6))
    def test_p_sup_of_a_constant_is_its_magnitude(self, c):
        assert direct_problem(SQUARE, ((Const(c),),)).to_cauchy().p_sup == abs(c)

    def test_p_sup_rounds_each_addition_up(self):
        # 1 + 1.1e-16 rounds to 1.0 in floats; the bound must not
        p = ((Const(1.0), Const(1.1e-16)), (Const(0.0), Const(1.0)))
        got = direct_problem(SQUARE, p).to_cauchy().p_sup
        assert Fraction(got) >= Fraction(1.0) + Fraction(1.1e-16)

    @settings(max_examples=60, deadline=None)
    @given(forced_problems())
    def test_q_sup_bounds_every_x_derivative_of_q(self, lp):
        cauchy = lp.to_cauchy()
        q = cauchy.linear_data[1]
        s = lp.domain.s
        betas = [b for b in fs.graded_indices(sum(q.degrees[1:]), s, 0)
                 if all(o <= d for o, d in zip(b[1:], q.degrees[1:]))]
        pts = fs.uniform_grid(lp.domain, [9, *[129 // s] * s])
        sup = max(fs.sup_abs(v) for _, v in fs.grid_derivatives(q)(betas, pts))
        assert cauchy.q_sup >= sup

    def test_q_sup_reaches_the_highest_derivative(self):
        # x1^3 on [-1/2, 1/2]: coefficient sums 1/8, 3/4, 3 and 6 for its derivatives
        dom = Domain(0.0, 0.25, 0.25, ((-0.5, 0.5),))
        lp = direct_problem(dom, ((Const(1.0),),), (expr("x1^3"),), mu=(1,), x_degrees=(8,))
        assert 6.0 <= lp.to_cauchy().q_sup <= 6.0 * (1 + 1e-12)

    def test_q_sup_reads_no_time_derivative(self):
        # q = 3t + x1 with the order p = 1: coefficient sums 2.5 and, for
        # d_x1 q, 1; d_t q = 3 is not an x-derivative
        ar = Arity(s=1, m=1, L=2, p=1)
        prob = pp.CauchyProblem(SQUARE, 1, 2, 1, 2,
                                (parse_expression("Dx1(Dx1(y1))+3*t+x1", ar),),
                                ((expr("sin(x1)"),), (expr("0"),)))
        assert 2.5 <= prob.q_sup <= 2.5 * (1 + 1e-12)

    def test_q_sup_of_zero_forcing_is_zero(self):
        assert linear(SQUARE, 1, 0, (2,)).to_cauchy().q_sup == 0.0
        assert ls.LinearProblem.from_cauchy(linear(SQUARE, 1, 0, (2,)).to_cauchy()).Q == 0.0


class TestMuEtaRecursions:
    def test_zero_forcing_gives_zero_eta(self):
        lp = linear(SQUARE, 1, 0, (1,))
        rec = ls.mu_eta_recursions(lp, 4)
        for eta in rec.eta:
            assert graded_norm(eta, 0) == 0.0

    def test_constant_forcing_dies_after_one_step(self):
        lp = linear(SQUARE, 1, 0, (1,), p="a", q="c", Q=3.0,
                    params={"a": 1.0, "c": 3.0})
        rec = ls.mu_eta_recursions(lp, 3)
        assert graded_norm(rec.eta[0], 0) == pytest.approx(3.0)
        # eta_1 = I_1[q] = 3 (t - t0), whose sup on t in [-0.5, 0.5] is 1.5
        assert graded_norm(rec.eta[1], 0) == pytest.approx(1.5)
        # eta_2 = I_1[p d_x d_t^0 eta_1] and the spatial derivative kills it
        assert graded_norm(rec.eta[2], 0) == 0.0

    def test_picard_variant_base_has_no_factor_p(self):
        lp = linear(SQUARE, 1, 0, (1,), p="a", params={"a": 2.0})
        rec = ls.mu_eta_recursions(lp, 2)
        assert tval(lp, rec.mu[0][0][0, 0], 0.7) == pytest.approx(1.0)
        assert tval(lp, rec.mu[0][1][0, 0], 0.3) == pytest.approx(2.0 * 0.3)

    @pytest.mark.parametrize("case", ["heat", "wave", "transport", "mixed_dt_dx", "dt2_dx"])
    def test_constant_p_keeps_the_true_t_degree(self, case):
        """Step h maps (t - t0)^j to degree j + h(d - gamma); a constant p adds none."""
        lp = ls.example_catalog(case).problem
        rec = ls.mu_eta_recursions(lp, 6)
        for j, seq in rec.mu.items():
            assert [c.shape[2] for c in seq] == [
                j + h * (lp.d - lp.gamma) + 1 for h in range(7)
            ]


    def test_a_step_past_the_degree_cap_is_recorded(self):
        """cos(t) is interpolated at t-degree 16, so each step adds 17 t-coefficients."""
        lp = linear(SQUARE, 1, 0, (1,), p="cos(t)", q="sin(x1)", Q=1.0, initial=("sin(x1)",))
        rec = ls.mu_eta_recursions(lp, 7)
        assert not rec.cut and rec.mu[0][7].shape[2] == 1 + 7 * 17
        rec = ls.mu_eta_recursions(lp, 8)
        assert rec.cut and rec.mu[0][8].shape[2] == fs.DEGREE_CAP + lp.d + 1
        assert "t_degree_cut" not in ls.series_solution(lp, 7)[1]
        assert ls.series_solution(lp, 8)[1]["t_degree_cut"] is True


class TestPicardClosedForm:
    def test_zero_steps_is_i0(self):
        lp = linear(SQUARE, 1, 0, (2,), initial=("x1^2",))
        cf = ls.picard_closed_form(lp, 0, x_degree=6)
        i0 = pp.initial_polynomial(lp.to_cauchy(), (6,))
        assert graded_norm(cf - i0, 1) < 1e-14

    def test_heat_on_x_squared_truncates(self):
        lp = linear(SQUARE, 1, 0, (2,), initial=("x1^2",))
        cf = ls.picard_closed_form(lp, 2, x_degree=6)
        v = cf.eval_grid(np.array([0.3]), [np.array([0.5])])[0, 0, 0]
        assert v == pytest.approx(0.25 + 0.6, abs=1e-13)

    def test_heat_on_sine_two_terms(self):
        dom = Domain(0.0, 0.5, 0.5, ((-PI, PI),))
        lp = linear(dom, 1, 0, (2,), initial=("sin(x1)",))
        cf = ls.picard_closed_form(lp, 2)
        ts = np.linspace(-0.5, 0.5, 7)
        xs = np.linspace(-PI, PI, 31)
        got = cf.eval_grid(ts, [xs])[0]
        want = (1 - ts + ts**2 / 2)[:, None] * np.sin(xs)[None, :]
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_iterated_picard_operator(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        gamma = int(rng.integers(0, d))
        L = int(rng.integers(1, 3))
        data = ["sin(x1)", "x1^3", "cos(x1)", "x1^2-1"]
        initial = tuple(data[int(rng.integers(len(data)))] for _ in range(d))
        pcoef = ["1", "cos(t)", "2-t", "0.5"][int(rng.integers(4))]
        q = ["0", "x1", "sin(x1)"][int(rng.integers(3))]
        dom = Domain(0.0, 0.2, 0.2, ((-1.0, 1.0),))
        lp = ls.LinearProblem(
            dom, 1, d, gamma, (L,),
            ((parse_expression(pcoef, Arity(s=0)),),),
            (expr(q),), 10.0, tuple((expr(e),) for e in initial),
        )
        cauchy = lp.to_cauchy()
        n = 4
        i0 = pp.initial_polynomial(cauchy, (20,))
        y = i0
        for _ in range(n):
            y = pp.apply_P(cauchy, y, i0)
        cf = ls.picard_closed_form(lp, n, x_degree=20)
        a, b = np.asarray(y.coeffs), np.asarray(cf.coeffs)
        shape = tuple(max(u, v) for u, v in zip(a.shape, b.shape))
        pa = np.pad(a, [(0, s - u) for s, u in zip(shape, a.shape)])
        pb = np.pad(b, [(0, s - u) for s, u in zip(shape, b.shape)])
        assert np.max(np.abs(pa - pb)) < 1e-10


    @pytest.mark.parametrize("d, gamma, mu", [(1, 0, 1), (2, 1, 1), (2, 0, 2)])
    def test_t_dependent_coupled_system_matches_iterated_picard_operator(self, d, gamma, mu):
        """Off-diagonal, t-dependent p and x-dependent forcing in a 2-component system."""
        dom = Domain(0.0, 0.2, 0.2, ((-1.0, 1.0),))
        ar = Arity(s=0)
        p = tuple(tuple(parse_expression(e, ar) for e in row)
                  for row in (("cos(t)", "1"), ("2-t", "0")))
        rows = (("sin(x1)", "x1^2"), ("cos(x1)", "x1^3-x1"))[:d]
        lp = ls.LinearProblem(
            dom, 2, d, gamma, (mu,), p, (expr("sin(x1)"), expr("x1")), 10.0,
            tuple(tuple(expr(e) for e in row) for row in rows),
        )
        cauchy = lp.to_cauchy()
        i0 = pp.initial_polynomial(cauchy, (20,))
        y = i0
        for _ in range(4):
            y = pp.apply_P(cauchy, y, i0)
        cf = ls.picard_closed_form(lp, 4, x_degree=20)
        a, b = fs.pad_to_common(y.coeffs, cf.coeffs)
        assert np.max(np.abs(a - b)) < 1e-10


class TestDerivativeTower:
    """d_x^{h mu} of the data, one step from the last, each distinct tree interpolated once."""

    CUBE = Domain(0.0, 0.25, 0.25, ((-1.0, 1.0), (0.0, 2.0)))

    @staticmethod
    def _problem(domain, mu, rows, params=None, x_degrees=None):
        ar = Arity(s=domain.s)
        return ls.LinearProblem(
            domain, 1, len(rows), 0, mu, ((parse_expression("1", Arity(s=0)),),),
            (parse_expression("0", ar),), 0.0,
            tuple((parse_expression(e, ar, params),) for e in rows), x_degrees,
        )

    @pytest.mark.parametrize("mu, rows", [
        # d/dx1 of -(0*x1) folds to Const(-0.0), which must stay apart from 0
        ((1,), ["x1^3*sin(2*x1)", "-(0*x1)", "0"]),
        ((2,), ["3*cos(2*x1+1)", "x1^5", "0"]),
        # interleaving the x1 and x2 steps would print cos(x1-2*x2)'s trees otherwise
        ((1, 1), ["sin(x1)*cos(2*x2)+x1^3*x2^2", "cos(x1-2*x2)", "-x1"]),
        ((0, 2), ["-x1", "0", "x1*x2^3"]),
    ])
    def test_trees_are_the_symbolic_partial_chain(self, monkeypatch, mu, rows):
        class Tree:
            def __init__(self, exprs, *args, **kwargs):
                self.key = repr(exprs)

            def trim(self):
                return self

        monkeypatch.setattr(ls, "interpolate", Tree)
        lp = self._problem(SQUARE if len(mu) == 1 else self.CUBE, mu, rows,
                           x_degrees=(8,) * len(mu))
        seen = {}
        for row in lp.initial:
            got = [tree.key for tree in ls._x_derivative_tower(lp, row, 6, seen)]
            want = []
            for h in range(1, 7):
                de = row[0]
                for dim, order in enumerate(mu, start=1):
                    if order:
                        de = symbolic_partial(de, f"x{dim}", order * h)
                want.append(repr([de]))
            assert got == want

    def test_sine_data_is_interpolated_at_most_four_times(self, monkeypatch):
        dom = Domain(0.0, 0.25, 0.25, ((-PI, PI),))
        lp = self._problem(dom, (2,), ["A*sin(x1+phi)"], {"A": 0.7, "phi": 1.3})
        calls = []
        real = ls.interpolate

        def spy(exprs, *args, **kwargs):
            calls.append(exprs)
            return real(exprs, *args, **kwargs)

        monkeypatch.setattr(ls, "interpolate", spy)
        got = list(ls._x_derivative_tower(lp, lp.initial[0], 20, {}))
        assert len(got) == 20 and len(calls) <= 4
        for h, xf in enumerate(got, start=1):
            exprs = [symbolic_partial(lp.initial[0][0], "x1", 2 * h)]
            want = real(exprs, dom, (0, 24), m=1, p=0).trim()
            assert xf.coeffs.tobytes() == want.coeffs.tobytes()


class TestSeriesSolution:
    @pytest.mark.parametrize("p, q, want", [
        ("2", "0", True), ("2", "3", True), ("cos(t)", "0", False), ("2", "x1", False),
    ])
    def test_constant_case_reads_the_surrogates(self, p, q, want):
        lp = linear(SQUARE, 1, 0, (2,), p=p, q=q, initial=("sin(x1)",))
        for N in (0, 2):
            assert ls.series_solution(lp, N)[1]["constant_case"] is want

    def test_heat_sine(self):
        dom = Domain(0.0, 0.5, 0.5, ((-PI, PI),))
        lp = linear(dom, 1, 0, (2,), initial=("sin(x1)",))
        sol, diag = ls.series_solution(lp, 20)
        ts = np.linspace(-0.5, 0.5, 9)
        xs = np.linspace(-PI, PI, 61)
        got = sol.eval_grid(ts, [xs])[0]
        want = np.exp(-ts)[:, None] * np.sin(xs)[None, :]
        assert np.max(np.abs(got - want)) <= 1e-10
        assert diag["last_term_sup"] < 1e-20

    def test_transport_sine(self):
        dom = Domain(0.0, 0.5, 0.5, ((-PI, PI),))
        lp = linear(dom, 1, 0, (1,), initial=("sin(x1)",))
        sol, _ = ls.series_solution(lp, 20)
        ts = np.linspace(-0.5, 0.5, 9)
        xs = np.linspace(-PI, PI, 61)
        got = sol.eval_grid(ts, [xs])[0]
        want = np.sin(xs[None, :] + ts[:, None])
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_zero_data_gives_zero(self):
        lp = linear(SQUARE, 1, 0, (1,))
        sol, _ = ls.series_solution(lp, 5)
        assert graded_norm(sol, 1) == 0.0

    def test_diverging_classification_refuses(self):
        dom = Domain(0.0, 0.1, 0.1, ((-1, 1),))
        lp = linear(dom, 1, 0, (2,), initial=("1/(1+x1^2)",))
        with pytest.raises(ls.LinearSeriesError, match="diverging"):
            ls.series_solution(lp, 5, growth=[ls.GrowthClass("analytic", C=1.0)])

    def test_residual_of_series_solution(self):
        dom = Domain(0.0, 0.5, 0.5, ((-PI, PI),))
        lp = linear(dom, 1, 0, (2,), initial=("sin(x1)",))
        sol, _ = ls.series_solution(lp, 20)
        res = pp.residual(lp.to_cauchy(), sol)
        assert res.pde_residual <= 1e-7
        assert max(res.ic_residuals) <= 1e-7


class TestIncrementBound:
    # the growth-model rows of certify_weissinger read exp_or_inf of the log bound
    def test_zero_data(self):
        lp = linear(SQUARE, 1, 0, (1,))
        g = [ls.GrowthClass("exponential", C=1e-12)]
        bound = exp_or_inf(ls.increment_bound_log(lp, g, 0, 3))
        assert bound == pytest.approx(0.0, abs=1e-11)

    def test_flat_exponential_model(self):
        lp = linear(SQUARE, 1, 0, (1,), q="1", Q=1.0)
        g = [ls.GrowthClass("exponential", C=1.0)]
        for k in (0, 2):
            for n in (0, 3):
                assert exp_or_inf(ls.increment_bound_log(lp, g, k, n)) == pytest.approx(2.0)

    def test_analytic_factorial_model(self):
        lp = linear(SQUARE, 1, 0, (2,))
        g = [ls.GrowthClass("analytic", C=1.0)]
        # (k + (n+1)L)! = 8! at k = 0, n = 3, L = 2
        assert exp_or_inf(ls.increment_bound_log(lp, g, 0, 3)) == pytest.approx(
            math.factorial(8), rel=1e-12
        )

    def test_dominates_numeric_increment(self):
        dom = Domain(0.0, 0.5, 0.5, ((-PI, PI),))
        lp = linear(dom, 1, 0, (2,), initial=("sin(x1)",))
        cauchy = lp.to_cauchy()
        i0 = pp.initial_polynomial(cauchy, (24,))
        inc = (pp.apply_P(cauchy, i0, i0) - i0).trim()
        norms = graded_norms_upto(inc, 8)
        g = [ls.GrowthClass("exponential", C=1.0)]
        for k in (0, 1, 2):
            for n in range(0, (8 - k) // 2 + 1):
                bound = exp_or_inf(ls.increment_bound_log(lp, g, k, n))
                assert float(norms[k + 2 * n]) <= bound + 1e-9


class TestClassify:
    def test_exponential_no_constraints(self):
        for d in (1, 2, 3):
            for L in (1, 2, 3):
                dom = Domain(0.0, 0.25, 0.25, ((-1, 1),))
                lp = linear(dom, d, 0, (L,), initial=("0",) * d)
                rep = ls.classify_convergence(lp, [ls.GrowthClass("exponential", C=1.0)] * d)
                assert rep.verdict == CONVERGED, (d, L)

    def test_analytic_needs_d_at_least_L(self):
        dom = Domain(0.0, 0.1, 0.1, ((-1, 1),))
        for d in (1, 2, 3):
            for L in (1, 2, 3):
                lp = linear(dom, d, 0, (L,), initial=("0",) * d)
                rep = ls.classify_convergence(lp, [ls.GrowthClass("analytic", C=1.0)] * d)
                assert (rep.verdict == CONVERGED) == (d >= L), (d, L)

    def test_sigma_rule(self):
        dom = Domain(0.0, 0.1, 0.1, ((-1, 1),))
        g = lambda d: [ls.GrowthClass("sigma", sigma=1.5)] * d
        lp2 = linear(dom, 2, 0, (1,), initial=("0", "0"))
        assert ls.classify_convergence(lp2, g(2)).verdict == CONVERGED
        lp1 = linear(dom, 1, 0, (1,))
        assert ls.classify_convergence(lp1, g(1)).verdict == DIVERGING

    def test_sigma_boundary_inconclusive(self):
        dom = Domain(0.0, 0.1, 0.1, ((-1, 1),))
        lp = linear(dom, 2, 0, (2,), initial=("0", "0"))
        rep = ls.classify_convergence(lp, [ls.GrowthClass("sigma", sigma=1.0)] * 2)
        assert rep.verdict == INCONCLUSIVE

    def test_monotone_in_tbar(self):
        growth = [ls.GrowthClass("analytic", C=1.0)] * 2
        verdicts = [
            ls.classify_convergence(
                linear(Domain(0.0, T, T, ((-1, 1),)), 2, 0, (2,), initial=("0", "0")), growth,
            ).verdict
            for T in (0.9, 0.5, 0.25, 0.1)
        ]
        seen_converged = False
        for v in verdicts:
            if v == CONVERGED:
                seen_converged = True
            assert not (seen_converged and v != CONVERGED)

    def test_every_index_from_gamma_needs_a_growth_model(self):
        # the analytic rule decides j = 0 (d < L) before j = 1 is reached
        lp = linear(SQUARE, 2, 0, (3,), initial=("0", "0"))
        with pytest.raises(ls.LinearSeriesError, match="j=1"):
            ls.classify_convergence(
                lp, [ls.GrowthClass("analytic", C=1.0), ls.GrowthClass("free")]
            )

    def test_free_below_gamma_ignored(self):
        dom = Domain(0.0, 0.25, 0.25, ((-1, 1),))
        lp = linear(dom, 2, 1, (1,), initial=("0", "0"))
        rep = ls.classify_convergence(
            lp, [ls.GrowthClass("free"), ls.GrowthClass("exponential", C=2.0)]
        )
        assert rep.verdict == CONVERGED


# the catalog's closed-form solutions on (t, x1)
CATALOG_SOLUTIONS = {
    "heat": lambda t, x: np.exp(-t) * np.sin(x),
    "wave": lambda t, x: np.cos(t) * np.sin(x),
    "transport": lambda t, x: np.sin(x + t),
    "mixed_dt_dx": lambda t, x: x * t + t ** 2 / 2,
    "dt2_dx": lambda t, x: x ** 2 + x * t ** 2 + t ** 4 / 12,
}


class TestCatalog:
    @pytest.mark.parametrize("name", list(CATALOG_SOLUTIONS))
    def test_oracle_is_the_closed_form(self, name):
        case = ls.example_catalog(name)
        pts = fs.uniform_grid(case.problem.domain, fs.CHECK_GRID_POINTS)
        grid = fs.grid_bindings(pts)
        want = CATALOG_SOLUTIONS[name](grid["t"], grid["x1"])
        assert np.max(np.abs(case.oracle(grid["t"], grid["x1"]) - want)) < 1e-15
        sol, _ = ls.series_solution(case.problem, 20)
        assert np.max(np.abs(sol.eval_grid(pts[0], pts[1:])[0] - want)) < 1e-12

    def test_heat_with_x_squared(self):
        case = ls.example_catalog("heat")
        lp = replace(case.problem, domain=SQUARE, initial=((expr("x1^2"),),), x_degrees=(8,))
        sol, _ = ls.series_solution(lp, 6)
        ts = np.linspace(-0.5, 0.5, 5)
        xs = np.linspace(-1, 1, 9)
        got = sol.eval_grid(ts, [xs])[0]
        want = xs[None, :] ** 2 + 2 * ts[:, None]
        assert np.max(np.abs(got - want)) < 1e-12

    @staticmethod
    def _six_terms_on_the_square(name):
        # polynomial data: the series ends, so six terms are exact on SQUARE too
        case = ls.example_catalog(name)
        sol, _ = ls.series_solution(replace(case.problem, domain=SQUARE, x_degrees=(8,)), 6)
        ts, xs = np.linspace(-0.5, 0.5, 5), np.linspace(-1, 1, 9)
        want = CATALOG_SOLUTIONS[name](ts[:, None], xs[None, :])
        assert np.max(np.abs(sol.eval_grid(ts, [xs])[0] - want)) < 1e-12

    def test_mixed_dt_dx(self):
        self._six_terms_on_the_square("mixed_dt_dx")

    def test_dt2_dx(self):
        self._six_terms_on_the_square("dt2_dx")

    def test_wave_note_flags_discrepancy(self):
        case = ls.example_catalog("wave")
        assert "displayed" in case.note

    def test_unknown_case(self):
        with pytest.raises(ls.LinearSeriesError, match="unknown"):
            ls.example_catalog("laplace")


class TestBurgersDemo:
    def _problem(self, d=1):
        ar = Arity(s=1, m=1, L=1, p=0)
        F = parse_expression("y1*Dx1(y1)", ar)
        dom = Domain(0.0, 0.25, 0.25, ((0.0, 1.0),))
        init = tuple((expr("x1"),) for _ in range(d))
        return pp.CauchyProblem(dom, 1, d, 0, 1, (F,), init)

    def test_hyperfactorial_divergence(self):
        cert = ls.burgers_demo(self._problem(), Radii.constant(1.0), (0,), 20)
        assert cert.verdict == DIVERGING
        assert "hyperfactorial" in cert.meta["witness"]
        assert cert.meta["log_hyperfactorial_at_nmax"] > 0

    def test_zero_scale_data_can_converge(self):
        cert = ls.burgers_demo(
            self._problem(), Radii.constant(1e-8), (0,), 40, sigma=0.01
        )
        assert cert.verdict in (CONVERGED, INCONCLUSIVE)

    def test_higher_order_recorded(self):
        cert = ls.burgers_demo(self._problem(d=3), Radii.constant(1.0), (0, 1), 20)
        assert cert.verdict in (CONVERGED, DIVERGING, INCONCLUSIVE)
        assert len(cert.rows) == 2

    def test_rejects_non_quadratic(self):
        lp = linear(SQUARE, 1, 0, (1,))
        with pytest.raises(ls.LinearSeriesError, match="y \\* d_x"):
            ls.burgers_demo(lp.to_cauchy(), Radii.constant(1.0), (0,), 10)

    def test_rejects_affine_with_two_placeholders(self):
        # Dx1(y1) + y1 has two placeholders but is linear: not the demo's class
        prob = self._problem()
        F = parse_expression("Dx1(y1)+y1", Arity(s=1, m=1, L=1, p=0))
        prob = pp.CauchyProblem(prob.domain, 1, 1, 0, 1, (F,), prob.initial)
        with pytest.raises(ls.LinearSeriesError, match="y \\* d_x"):
            ls.burgers_demo(prob, Radii.constant(1.0), (0,), 10)

    def _with_rhs(self, rhs, L=1):
        prob = self._problem()
        F = parse_expression(rhs, Arity(s=1, m=1, L=L, p=0))
        return pp.CauchyProblem(prob.domain, 1, 1, 0, L, (F,), prob.initial)

    @pytest.mark.parametrize("rhs, kind", [
        ("2.0+x1", "constant"),
        ("t*Dx1(y1)+x1", "linear"),
        ("x1*Dx1(y1)+y1", "affine"),
        ("y1^3+Dx1(y1)", "general"),
        ("sin(y1)*Dx1(y1)", "general"),
        ("y1*Dx1(y1)+x1", "general"),
    ])
    def test_rejects_every_other_kind(self, rhs, kind):
        prob = self._with_rhs(rhs)
        assert prob.rhs_class.kind == kind
        with pytest.raises(ls.LinearSeriesError, match="y \\* d_x"):
            ls.burgers_demo(prob, Radii.constant(1.0), (0,), 10)

    def test_mu_comes_from_the_class(self):
        prob = self._with_rhs("Dx2(y1)*y1", L=2)
        assert prob.rhs_class.mu == (2,)
        cert = ls.burgers_demo(prob, Radii.constant(1.0), (0,), 10)
        assert cert.rows[0].meta["L"] == 2

    def test_factor_scales_with_the_coefficient(self):
        def terms(rhs):
            cert = ls.burgers_demo(
                self._with_rhs(rhs), Radii.constant(1e-8), (0,), 40, sigma=0.01
            )
            return cert.rows[0].terms

        one, five = terms("y1*Dx1(y1)"), terms("-5*y1*Dx1(y1)")
        assert terms("-y1*Dx1(y1)") == one
        for n, (a, b) in enumerate(zip(one, five)):
            assert b == pytest.approx(5.0**n * a, rel=1e-12)

    def test_zero_coefficient_gives_zero_terms(self):
        cert = ls.burgers_demo(self._with_rhs("0*y1*Dx1(y1)"), Radii.infinite(), (0,), 10)
        assert cert.rows[0].terms == (1.0,) + (0.0,) * 10
        assert cert.verdict == CONVERGED

    @pytest.mark.parametrize("rhs", ["x1*y1*Dx1(y1)", "y1*Dx1(y1)*sin(t)"])
    def test_rejects_a_coefficient_that_is_not_constant(self, rhs):
        prob = self._with_rhs(rhs)
        assert prob.rhs_class.kind == "quadratic"
        with pytest.raises(ls.LinearSeriesError, match="constant coefficient"):
            ls.burgers_demo(prob, Radii.constant(1.0), (0,), 10)


def test_series_residual_across_catalog():
    for case in ("heat", "wave", "transport", "mixed_dt_dx", "dt2_dx"):
        cat = ls.example_catalog(case)
        sol, _ = ls.series_solution(cat.problem, 20)
        res = pp.residual(cat.problem.to_cauchy(), sol)
        assert res.pde_residual <= 1e-7, case
        assert max(res.ic_residuals) <= 1e-7, case


def test_two_component_system_routes_agree():
    # d_t y = A d_x y with A = [[0, 1], [1, 0]] splits into two transports
    dom = Domain(0.0, 0.2, 0.2, ((-PI, PI),))
    ar = Arity(s=1, m=2, L=1, p=0)
    F1 = parse_expression("Dx1(y2)", ar)
    F2 = parse_expression("Dx1(y1)", ar)
    prob = pp.CauchyProblem(
        dom, 2, 1, 0, 1, (F1, F2),
        ((parse_expression("sin(x1)", Arity(1)),
          parse_expression("cos(x1)", Arity(1))),),
    )
    fac = pp.estimate_lipschitz(prob, Radii.infinite())
    assert fac.at(0) == pytest.approx(1.0)  # max-row-sum of A

    lp = ls.LinearProblem.from_cauchy(prob, Q=0.0)
    i0 = pp.initial_polynomial(prob, (24,))
    y = i0
    for _ in range(5):
        y = pp.apply_P(prob, y, i0)
    cf = ls.picard_closed_form(lp, 5, x_degree=24)
    a, b = np.asarray(y.coeffs), np.asarray(cf.coeffs)
    shape = tuple(max(u, v) for u, v in zip(a.shape, b.shape))
    pa = np.pad(a, [(0, s - u) for s, u in zip(shape, a.shape)])
    pb = np.pad(b, [(0, s - u) for s, u in zip(shape, b.shape)])
    assert np.max(np.abs(pa - pb)) < 1e-10

    ts = np.linspace(-0.2, 0.2, 5)
    xs = np.linspace(-PI, PI, 41)
    vals = y.eval_grid(ts, [xs])
    u = np.sin(xs[None, :] + ts[:, None]) + np.cos(xs[None, :] + ts[:, None])
    v = np.sin(xs[None, :] - ts[:, None]) - np.cos(xs[None, :] - ts[:, None])
    assert np.max(np.abs(vals[0] - (u + v) / 2)) < 1e-6  # n=5 truncation level
    assert np.max(np.abs(vals[1] - (u - v) / 2)) < 1e-6
