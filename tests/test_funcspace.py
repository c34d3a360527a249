import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chebder_partial, tensordot_eval_grid
from picard_lod.expr import Arity, parse_expression
from picard_lod.funcspace import (
    Domain,
    FuncSpaceError,
    NonFiniteCoefficients,
    Radii,
    SepFunc,
    ball_check,
    eval_on_grid,
    graded_norm,
    graded_norms_upto,
    grid_bindings,
    interpolate,
    iterated_time_integral,
    joint_norm,
    partial_derivative,
    sup_abs,
    uniform_grid,
)

AX = Arity(s=1)
HALF = Domain(0.0, 0.5, 0.5)          # time only, tbar = 1/2
SQUARE = Domain(0.0, 0.5, 0.5, ((-1.0, 1.0),))
UNIT_T = Domain(0.0, 1.0, 1.0, ((-1.0, 1.0),))


def expr(text, s=1):
    return parse_expression(text, Arity(s=s))


class TestDomain:
    def test_tbar(self):
        d = Domain(0.0, 0.25, 0.5, ((-1, 1),))
        assert d.tbar == 0.5
        assert d.t_interval == (-0.25, 0.5)

    def test_invalid(self):
        with pytest.raises(FuncSpaceError):
            Domain(0.0, 0.0, 1.0)
        with pytest.raises(FuncSpaceError):
            Domain(0.0, 1.0, 1.0, ((2.0, 2.0),))


class TestInterpolate:
    def test_polynomial_is_exact(self):
        f = interpolate(expr("x1^2"), Domain(0.0, 0.5, 0.5, ((-1, 1),)), (0, 2))
        assert f.interp_error <= 1e-13
        assert np.allclose(f.coeffs[0, 0], [0.5, 0.0, 0.5])

    def test_zero(self):
        f = interpolate(expr("0"), SQUARE, (0, 4))
        assert np.max(np.abs(f.coeffs)) == 0.0

    def test_sin_to_spectral_accuracy(self):
        dom = Domain(0.0, 0.5, 0.5, ((-math.pi, math.pi),))
        f = interpolate(expr("sin(x1)"), dom, (0, 20))
        xs = np.linspace(-math.pi, math.pi, 200)
        vals = f.eval_grid(np.array([0.0]), [xs])[0, 0]
        assert np.max(np.abs(vals - np.sin(xs))) <= 1e-10
        assert f.interp_error <= 1e-10

    def test_undeclared_variable_rejected(self):
        with pytest.raises(FuncSpaceError):
            interpolate(expr("x1", s=1), HALF, (4,))


class TestDerivative:
    def test_exact_on_coefficients(self):
        f = interpolate(expr("x1^2"), SQUARE, (0, 2))
        df = partial_derivative(f, (0, 1))
        xs = np.linspace(-1, 1, 50)
        assert np.allclose(df.eval_grid(np.array([0.0]), [xs])[0, 0], 2 * xs)

    def test_t_derivative_of_t_independent_is_zero(self):
        f = interpolate(expr("x1^2"), SQUARE, (0, 2))
        dt = partial_derivative(f, (1, 0))
        assert np.max(np.abs(dt.coeffs)) == 0.0

    def test_second_derivative_of_sin_interpolant(self):
        dom = Domain(0.0, 0.5, 0.5, ((-math.pi, math.pi),))
        f = interpolate(expr("sin(x1)"), dom, (0, 20))
        d2 = partial_derivative(f, (0, 2))
        xs = np.linspace(-math.pi, math.pi, 200)
        vals = d2.eval_grid(np.array([0.0]), [xs])[0, 0]
        assert np.max(np.abs(vals + np.sin(xs))) <= 1e-8


class TestTimeIntegral:
    def test_zero_integrand(self):
        z = SepFunc(HALF, 1, 0, np.zeros((1, 1)))
        assert np.max(np.abs(iterated_time_integral(z, 1).coeffs)) == 0.0

    def test_two_fold_of_one(self):
        one = interpolate(expr("1", s=0), Domain(0.0, 1.0, 1.0), (0,))
        g = iterated_time_integral(one, 2)
        assert g.eval_grid(np.array([1.0]))[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_saturates_the_time_width_bound(self):
        one = interpolate(expr("1", s=0), HALF, (0,))
        g = iterated_time_integral(one, 1)
        assert graded_norm(g, 0) == pytest.approx(0.5, abs=1e-14)

    def test_degree_cap(self):
        f = SepFunc(HALF, 1, 0, np.zeros((1, 128)))
        with pytest.raises(FuncSpaceError, match="cap"):
            iterated_time_integral(f, 3)


class TestGradedNorm:
    def test_zero(self):
        z = SepFunc(SQUARE, 1, 0, np.zeros((1, 1, 1)))
        for k in range(4):
            assert graded_norm(z, k) == 0.0

    def test_x_squared(self):
        # sup over {x^2, |2x|, 2} on [0,1]x[-1,1] with p = 0
        dom = Domain(0.5, 0.5, 0.5, ((-1.0, 1.0),))
        f = interpolate(expr("x1^2"), dom, (0, 2))
        assert graded_norm(f, 2) == pytest.approx(2.0, abs=1e-12)

    def test_antiderivative_of_one(self):
        one = interpolate(expr("1", s=0), HALF, (0,))
        g = iterated_time_integral(one, 1)
        assert graded_norm(g, 1) == pytest.approx(0.5, abs=1e-14)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        f = SepFunc(SQUARE, 1, 2, rng.standard_normal((1, 4, 5)))
        norms = graded_norms_upto(f, 6)
        assert np.all(np.diff(norms) >= -1e-15)


class TestJointNorm:
    def test_integral_of_one(self):
        one = interpolate(expr("1", s=0), HALF, (0,))
        g = iterated_time_integral(one, 1)
        assert joint_norm(g, 1) == pytest.approx(1.0, abs=1e-14)

    def test_constant_one(self):
        one = interpolate(expr("1", s=0), HALF, (0,))
        assert joint_norm(one, 1) == pytest.approx(1.0, abs=1e-14)

    def test_zero(self):
        assert joint_norm(SepFunc(HALF, 1, 0, np.zeros((1, 1))), 2) == 0.0


class TestSupNormSeparation:
    def test_integral_counterexample_vs_graded_bound(self):
        # the jointly graded norm breaks the time-width bound, the separated
        # one does not (with equality on this instance)
        one = interpolate(expr("1", s=0), HALF, (0,))
        g = iterated_time_integral(one, 1)
        tbar = HALF.tbar
        assert joint_norm(g, 1) > tbar * joint_norm(one, 1)
        assert graded_norm(g, 1) <= tbar * graded_norm(one, 1) + 1e-14
        assert graded_norm(g, 1) == pytest.approx(tbar * graded_norm(one, 1))


class TestIntegralNormBound:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_polynomials(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(5):
            degs = (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            f = SepFunc(SQUARE, 1, 0, rng.standard_normal((1, degs[0] + 1, degs[1] + 1)))
            g = iterated_time_integral(f, d)
            nf = graded_norms_upto(f, 6)
            ng = graded_norms_upto(g, 6)
            for k in range(7):
                assert ng[k] <= SQUARE.tbar * nf[k] + 1e-10


def test_derivative_inverts_time_integral_exactly():
    rng = np.random.default_rng(11)
    for j in (1, 2, 3):
        f = SepFunc(SQUARE, 1, 0, rng.standard_normal((1, 4, 3)))
        g = iterated_time_integral(f, j)
        back = partial_derivative(g, (j, 0))
        a, b = back.coeffs, f.coeffs
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12


coeff_arrays = st.lists(
    st.floats(-10, 10, allow_nan=False), min_size=6, max_size=6
).map(lambda v: np.array(v).reshape(1, 2, 3))


class TestNormAxioms:
    @settings(max_examples=25, deadline=None)
    @given(coeff_arrays, coeff_arrays, st.integers(0, 3))
    def test_triangle_and_homogeneity(self, a, b, k):
        f = SepFunc(SQUARE, 1, 1, a)
        g = SepFunc(SQUARE, 1, 1, b)
        nf, ng = graded_norm(f, k), graded_norm(g, k)
        assert nf >= 0.0
        assert graded_norm(f + g, k) <= nf + ng + 1e-9
        assert graded_norm(f * -2.5, k) == pytest.approx(2.5 * nf, rel=1e-12)


class TestBallCheck:
    def test_center_is_member(self):
        f = interpolate(expr("x1^2"), SQUARE, (0, 2))
        rep = ball_check(f, f, Radii.constant(0.5), 3)
        assert rep.member and all(r.distance == 0.0 for r in rep.rows)

    def test_constant_offset_fails_at_k0(self):
        f = interpolate(expr("x1^2"), SQUARE, (0, 2))
        g = f + interpolate(expr("1"), SQUARE, (0, 0))
        rep = ball_check(g, f, Radii.constant(0.5), 2)
        assert not rep.member
        assert rep.rows[0].k == 0 and not rep.rows[0].within

    def test_infinite_radii(self):
        f = interpolate(expr("x1^2"), SQUARE, (0, 2))
        g = f + interpolate(expr("100"), SQUARE, (0, 0))
        assert ball_check(g, f, Radii.infinite(), 4).member

    def test_domain_mismatch(self):
        f = interpolate(expr("x1"), SQUARE, (0, 1))
        g = interpolate(expr("x1"), UNIT_T, (0, 1))
        with pytest.raises(FuncSpaceError):
            ball_check(f, g, Radii.infinite(), 1)


class TestRadii:
    def test_sentinel_and_extension(self):
        r = Radii.from_list([1.0, 2.0])
        assert r.value(0) == 1.0 and r.value(5) == 2.0
        assert math.isinf(Radii.infinite().value(10))

    def test_positive_required(self):
        with pytest.raises(FuncSpaceError):
            Radii.from_list([0.0])

    @pytest.mark.parametrize("values", [[-math.inf], [1.0, -math.inf], [math.nan]])
    def test_negative_infinity_and_nan_rejected(self, values):
        with pytest.raises(FuncSpaceError, match="positive"):
            Radii.from_list(values)

    def test_infinite_means_plus_infinity_on_every_index(self):
        assert Radii.infinite().is_infinite()
        assert Radii.from_list([math.inf, math.inf]).is_infinite()
        assert not Radii.from_list([math.inf, 1.0]).is_infinite()


def test_serialization_round_trip():
    f = interpolate(expr("sin(x1)"), SQUARE, (0, 12))
    g = SepFunc.loads(f.dumps())
    assert g == f  # domain, m, p compare; coefficients checked below
    assert np.array_equal(np.asarray(g.coeffs), np.asarray(f.coeffs))


def test_trim_drops_negligible_tail():
    c = np.zeros((1, 3, 5))
    c[0, 0, 0] = 1.0
    c[0, 2, 4] = 1e-20
    f = SepFunc(SQUARE, 1, 0, c)
    assert f.trim().degrees == (0, 0)


class TestEquality:
    def test_coefficients_take_part_in_eq_and_hash(self):
        f = SepFunc(SQUARE, 1, 0, np.ones((1, 1, 2)))
        g = SepFunc(SQUARE, 1, 0, 5 * np.ones((1, 1, 3)))
        assert f != g
        assert hash(f) != hash(g)
        assert len({f, g}) == 2

    def test_equal_tensors_are_equal_and_hash_alike(self):
        c = np.arange(6.0).reshape(1, 2, 3)
        f, g = SepFunc(SQUARE, 1, 0, c), SepFunc(SQUARE, 1, 0, c.copy())
        assert f == g and hash(f) == hash(g)
        assert f != SepFunc(SQUARE, 1, 0, c * (1 + 1e-15) + 1e-300)
        assert f != SepFunc(UNIT_T, 1, 0, c)
        assert f.__eq__("not a function") is NotImplemented

    def test_zero_padding_changes_the_tensor(self):
        f = SepFunc(SQUARE, 1, 0, np.ones((1, 1, 2)))
        assert f != SepFunc(SQUARE, 1, 0, np.pad(f.coeffs, [(0, 0), (0, 0), (0, 1)]))


def test_pad_to_common():
    from picard_lod.funcspace import pad_to_common

    a, b = pad_to_common(np.ones((1, 2, 1)), np.full((1, 1, 3), 2.0))
    assert a.shape == b.shape == (1, 2, 3)
    assert np.array_equal(a[0], [[1, 0, 0], [1, 0, 0]])
    assert np.array_equal(b[0], [[2, 2, 2], [0, 0, 0]])


CUBE = Domain(0.1, 0.25, 0.5, ((-1.0, 2.0), (0.0, 1.0)))
DOMAINS = {0: HALF, 1: SQUARE, 2: CUBE}


@st.composite
def functions_and_betas(draw):
    """A random SepFunc (s in 0..2, m in 1..2, degrees 0..6) and a beta list.

    The list is unsorted, repeats entries and reaches orders past the degree.
    """
    s = draw(st.integers(0, 2))
    m = draw(st.integers(1, 2))
    degrees = draw(st.lists(st.integers(0, 6), min_size=1 + s, max_size=1 + s))
    shape = (m, *[d + 1 for d in degrees])
    coeffs = draw(st.lists(
        st.floats(-10, 10, allow_nan=False), min_size=math.prod(shape),
        max_size=math.prod(shape),
    ))
    if draw(st.booleans()):  # the zero function, with signed zeros
        coeffs = [0.0 * c for c in coeffs]
    f = SepFunc(DOMAINS[s], m, 0, np.array(coeffs).reshape(shape))
    beta = st.tuples(*[st.integers(0, 8)] * (1 + s))
    betas = draw(st.lists(beta, min_size=1, max_size=12))
    betas += draw(st.lists(st.sampled_from(betas), max_size=4))
    return f, draw(st.permutations(betas))


class TestDerivativesOnGrid:
    @settings(max_examples=300, deadline=None)
    @given(functions_and_betas())
    def test_bit_identical_to_partial_derivative(self, case):
        from picard_lod.funcspace import derivatives_on_grid, uniform_grid

        f, betas = case
        pts = uniform_grid(f.domain, 5)
        got = list(derivatives_on_grid(f, betas, pts))
        assert [beta for beta, _ in got] == [tuple(b) for b in betas]
        for beta, vals in got:
            want = partial_derivative(f, beta).eval_grid(pts[0], pts[1:])
            assert np.array_equal(vals, want)
            assert vals.tobytes() == want.tobytes()  # down to the sign of zero

    def test_each_derivative_is_one_step_from_its_parent(self, monkeypatch):
        import picard_lod.funcspace as fs

        steps = []
        original = fs.cheb_derivative

        def spy(coef, m, *, scl, axis):
            steps.append((m, tuple(int(i == axis) for i in range(1, coef.ndim))))
            return original(coef, m, scl=scl, axis=axis)

        monkeypatch.setattr(fs, "cheb_derivative", spy)
        f = SepFunc(SQUARE, 1, 0, np.ones((1, 4, 4)))
        pts = fs.uniform_grid(SQUARE, 3)
        list(fs.derivatives_on_grid(f, [(2, 1), (0, 0), (2, 1), (1, 0)], pts))
        # (2, 1) is built from (2, 0) from (1, 0) from f; repeats build nothing
        assert steps == [(1, (1, 0)), (1, (1, 0)), (1, (0, 1))]

    @pytest.mark.parametrize("beta", [(0,), (0, 0, 0), (1, -1), (-1, 2)])
    def test_rejects_bad_multi_indices(self, beta):
        from picard_lod.funcspace import derivatives_on_grid, uniform_grid

        f = SepFunc(SQUARE, 1, 0, np.ones((1, 2, 2)))
        with pytest.raises(FuncSpaceError, match="multi-index"):
            list(derivatives_on_grid(f, [beta], uniform_grid(SQUARE, 3)))


    def test_zero_function_is_built_once_per_call(self, monkeypatch):
        import picard_lod.funcspace as fs

        steps = []
        original = fs.cheb_derivative

        def spy(coef, m, *, scl, axis):
            steps.append((m, axis))
            return original(coef, m, scl=scl, axis=axis)

        monkeypatch.setattr(fs, "cheb_derivative", spy)
        f = SepFunc(SQUARE, 1, 0, np.ones((1, 2, 2)))
        betas = [(0, k) for k in range(7)]
        got = list(fs.derivatives_on_grid(f, betas, fs.uniform_grid(SQUARE, 3)))
        # (0, 1) is a real step; (0, 2), (0, 3), ... are past the degree and build nothing
        assert steps == [(1, 2)]
        assert [beta for beta, _ in got] == betas
        assert all(not np.any(vals) for _, vals in got[2:])
        derivative = fs._derivative_chain(f.coeffs, f.domain)
        assert derivative((0, 2)) is derivative((0, 6)) is derivative((1, 3))
        assert derivative((0, 2)).shape == (1, 1, 1)

    def test_no_sepfunc_is_built(self, monkeypatch):
        """The chain differentiates coefficient arrays; only partial_derivative wraps one."""
        import picard_lod.funcspace as fs

        f = SepFunc(SQUARE, 1, 0, np.arange(16.0).reshape(1, 4, 4) - 7.5)
        built = []
        original = fs.SepFunc.__post_init__

        def spy(self):
            built.append(self.coeffs.shape)
            original(self)

        monkeypatch.setattr(fs.SepFunc, "__post_init__", spy)
        betas = fs.graded_indices(5, 1, 5)
        list(fs.derivatives_on_grid(f, betas, fs.uniform_grid(SQUARE, 3)))
        fs.graded_norms_upper(f, 5, p=5)
        assert built == []
        partial_derivative(f, (1, 2))
        assert built == [(1, 3, 2)]

    def test_a_non_finite_step_raises(self):
        import picard_lod.funcspace as fs

        # 1.5e308 T2(x1) is finite, its x1 derivative 4 * 1.5e308 T1(x1) is not
        f = SepFunc(SQUARE, 1, 0, np.array([[[0.0, 0.0, 1.5e308]]]))
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteCoefficients, match="^non-finite coefficients$"):
            list(fs.derivatives_on_grid(f, [(0, 1)], fs.uniform_grid(SQUARE, 3)))


@st.composite
def wide_functions(draw):
    """A SepFunc with s in 0..2, m in 1..2, degrees 0..30 and signed zeros.

    Coefficient magnitudes range from 1e-8 to 1e8; a drawn share of them
    (none, some or all) are zeros of either sign.
    """
    s = draw(st.integers(0, 2))
    m = draw(st.integers(1, 2))
    degrees = draw(st.lists(st.integers(0, 30), min_size=1 + s, max_size=1 + s))
    shape = (m, *[d + 1 for d in degrees])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    coeffs[zeros] = np.copysign(0.0, rng.standard_normal(shape))[zeros]
    return SepFunc(DOMAINS[s], m, 0, coeffs)


@st.composite
def functions_and_orders(draw):
    """A wide function and a multi-index reaching two orders past its degrees."""
    f = draw(wide_functions())
    beta = tuple(draw(st.integers(0, d + 2)) for d in f.degrees)
    return f, beta


@st.composite
def functions_and_grids(draw):
    """A wide function and, per axis, unsorted points with endpoints and repeats."""
    f = draw(wide_functions())
    grids = []
    for lo, hi in f.domain.intervals():
        fracs = draw(st.lists(st.floats(0.0, 1.0), max_size=8))
        pts = [lo, hi, *[lo + (hi - lo) * x for x in fracs]]
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))
        grids.append(np.array(draw(st.permutations(pts))))
    return f, grids


@st.composite
def integral_cases(draw):
    """Arguments of cheb.chebint: a rank 1-3 tensor with signed zeros, m in 0..3, any axis.

    lbnd is -1, 0 or a drawn point of [-1, 1]; coefficient magnitudes range
    from 1e-8 to 1e8.
    """
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    coeffs[zeros] = np.copysign(0.0, rng.standard_normal(shape))[zeros]
    lbnd = draw(st.sampled_from([-1.0, 0.0]) | st.floats(-1.0, 1.0))
    return dict(c=coeffs, m=draw(st.integers(0, 3)), lbnd=lbnd,
                scl=draw(st.floats(0.01, 10.0)), axis=draw(st.integers(0, len(shape) - 1)))


class TestNumpyReference:
    """The calculus and evaluation paths against numpy's own formulas, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(functions_and_orders())
    def test_partial_derivative_is_numpy_chebder(self, case):
        f, beta = case
        got = partial_derivative(f, beta).coeffs
        want = chebder_partial(f.coeffs, f.domain.intervals(), beta)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(functions_and_grids())
    def test_eval_grid_is_the_tensordot_formula(self, case):
        f, grids = case
        got = f.eval_grid(grids[0], grids[1:])
        want = tensordot_eval_grid(f.coeffs, f.domain.intervals(), grids)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(integral_cases())
    def test_cheb_derivative_is_numpy_chebder(self, case):
        """Byte for byte within the degree; past it +0.0 where numpy keeps coef[:1]'s signs."""
        from numpy.polynomial import chebyshev as cheb

        from picard_lod.funcspace import cheb_derivative

        c, m, scl, axis = case["c"], case["m"], case["scl"], case["axis"]
        want = cheb.chebder(c, m, scl=scl, axis=axis)
        got = cheb_derivative(c, m, scl=scl, axis=axis)
        assert got.shape == want.shape
        if m < c.shape[axis]:
            assert got.tobytes() == want.tobytes()
        else:
            assert got.tobytes() == np.zeros(want.shape).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(integral_cases())
    def test_cheb_integral_is_numpy_chebint(self, case):
        from numpy.polynomial import chebyshev as cheb

        from picard_lod.funcspace import cheb_integral

        want = cheb.chebint(**case)
        c = case.pop("c")
        got = cheb_integral(c, case.pop("m"), **case)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def callers_outside_funcspace(callee):
    """module.function (or module.<module>) of every call of callee outside funcspace.py."""
    import ast
    from pathlib import Path

    import picard_lod

    def calls(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == callee:
                yield where
        for child in ast.iter_child_nodes(node):
            yield from calls(child, where)

    callers = []
    for path in sorted(Path(picard_lod.__file__).parent.glob("*.py")):
        if path.name != "funcspace.py":
            tree = ast.parse(path.read_text())
            callers += [f"{path.stem}.{fn}" for fn in calls(tree, "<module>")]
    return callers


def test_partial_derivative_called_only_in_funcspace():
    """Every derivative on a grid goes through funcspace.derivatives_on_grid.

    The coefficient-space step of the linear-class recursions differentiates
    raw arrays with funcspace.cheb_derivative, so no module outside
    funcspace calls partial_derivative.
    """
    assert callers_outside_funcspace("partial_derivative") == []


@pytest.mark.parametrize("callee", ["chebder", "chebint", "chebvander", "chebpts2"])
def test_called_only_in_funcspace(callee):
    """Chebyshev derivatives, integrals and values-to-coefficients fits are funcspace's alone."""
    assert callers_outside_funcspace(callee) == []


@st.composite
def small_functions(draw):
    """A SepFunc with s in 0..2, m in 1..2, degrees 0..8, magnitudes 1e-4..1e4, both signs."""
    s = draw(st.integers(0, 2))
    m = draw(st.integers(1, 2))
    degrees = draw(st.lists(st.integers(0, 8), min_size=1 + s, max_size=1 + s))
    shape = (m, *[d + 1 for d in degrees])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape)
    return SepFunc(DOMAINS[s], m, draw(st.integers(0, 2)), coeffs)


def exact_chebder(c, scl):
    """Chebyshev coefficients of the derivative, in exact rational arithmetic."""
    from fractions import Fraction

    n = len(c)
    d = [Fraction(0)] * (n + 1)
    for k in range(n - 1, 0, -1):
        d[k - 1] = d[k + 1] + 2 * k * c[k]
    d[0] /= 2
    return [x * scl for x in d[:max(n - 1, 1)]]


class TestGradedNormsUpper:
    @settings(max_examples=150, deadline=None)
    @given(small_functions(), st.integers(0, 4))
    def test_bounds_the_grid_sup(self, f, k_max):
        from picard_lod.funcspace import graded_norms_upper

        upper = graded_norms_upper(f, k_max)
        assert np.all(graded_norms_upto(f, k_max) <= upper)
        assert np.all(np.diff(upper) >= 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([(-1.0, 1.0), (0.0, 0.3), (-7.0, 3.0)]))
    def test_bounds_the_exact_coefficient_sums(self, n, seed, interval):
        # alternating signs over 16 decades: the float derivative cancels
        # heavily, and the exact sums come from rational arithmetic
        from fractions import Fraction

        from picard_lod.funcspace import graded_norms_upper

        rng = np.random.default_rng(seed)
        c = (-1.0) ** np.arange(n) * 10.0 ** rng.uniform(-8, 8, n)
        f = SepFunc(Domain(0.0, 0.5, 0.5, (interval,)), 1, 0, c.reshape(1, 1, n))
        upper = graded_norms_upper(f, 5)
        lo, hi = interval
        scl = 2 / (Fraction(hi) - Fraction(lo))
        exact = [Fraction(float(x)) for x in c]
        for k in range(6):
            assert sum(abs(x) for x in exact) <= Fraction(float(upper[k]))
            exact = exact_chebder(exact, scl)

    @pytest.mark.parametrize("n", [0, 1, 5, 30])
    def test_a_single_chebyshev_polynomial_is_tight(self, n):
        from picard_lod.funcspace import graded_norms_upper

        c = np.zeros((1, 1, n + 1))
        c[0, 0, n] = 1.0
        upper = graded_norms_upper(SepFunc(SQUARE, 1, 0, c), 1)
        assert 1.0 <= upper[0] <= 1.0 + 1e-13
        # T_n' has coefficient sum n^2 on [-1, 1]
        assert n * n <= upper[1] <= max(1.0, n * n) * (1.0 + 1e-12)

    def test_time_derivatives_follow_p(self):
        from picard_lod.funcspace import graded_norms_upper

        # t^2 + x1 on SQUARE: coefficient sum 1/8 + 1/8 + 1, and d_t^2 = 2
        f = interpolate(expr("t^2 + x1"), SQUARE, (2, 1))
        assert graded_norms_upper(f, 2) == pytest.approx([1.25, 1.25, 1.25])
        assert graded_norms_upper(f, 2, p=2) == pytest.approx([1.25, 1.25, 2.0])


def expr_trees(names, depth=4):
    """Expression trees of depth <= depth over the variables ``names``.

    Nodes are + - * /, integer powers 0..4, sin, cos, exp and negation; a
    denominator is 2 + cos(.), so it stays in [1, 3].
    """
    from picard_lod.expr import Binary, Const, Power, Unary, Var

    leaf = st.one_of(
        st.sampled_from([Var("t"), *[Var("x", int(n[1:])) for n in names[1:]]]),
        st.floats(-2.0, 2.0, allow_nan=False).map(Const),
    )
    if depth == 0:
        return leaf
    sub = expr_trees(names, depth - 1)
    return st.one_of(
        leaf,
        st.builds(Binary, st.sampled_from("+-*"), sub, sub),
        st.builds(
            lambda num, den: Binary("/", num, Binary("+", Const(2.0), Unary("cos", den))),
            sub, sub,
        ),
        st.builds(Power, sub, st.integers(0, 4)),
        st.builds(Unary, st.sampled_from(["sin", "cos", "exp", "neg"]), sub),
    )


@st.composite
def trees_on_grids(draw):
    """One to three expression trees and a tensor grid of one to three axes."""
    s = draw(st.integers(0, 2))
    names = ["t", *[f"x{i}" for i in range(1, s + 1)]]
    pts = [
        np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9)))
        for _ in names
    ]
    return draw(st.lists(expr_trees(names), min_size=1, max_size=3)), pts


class TestOpenGrids:
    @settings(max_examples=150, deadline=None)
    @given(trees_on_grids())
    def test_open_bindings_evaluate_as_dense_meshgrids(self, case):
        from picard_lod.expr import NonFiniteValue

        exprs, pts = case
        shape = tuple(len(p) for p in pts)
        names = ["t", "x1", "x2"][:len(pts)]
        dense = dict(zip(names, np.meshgrid(*pts, indexing="ij")))

        def run(bindings):
            try:
                return eval_on_grid(exprs, bindings, shape)
            except NonFiniteValue:
                return None

        want = run(dense)
        got = run(grid_bindings(pts))
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape == (len(exprs), *shape)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("counts", [(5,), (4, 7), (3, 6, 9)])
    def test_bindings_hold_one_copy_of_each_axis(self, counts):
        dom = {1: HALF, 2: SQUARE, 3: CUBE}[len(counts)]
        pts = uniform_grid(dom, list(counts))
        bindings = grid_bindings(pts)
        assert sum(v.size for v in bindings.values()) == sum(counts)
        for axis, (name, v) in enumerate(bindings.items()):
            assert v.shape == tuple(n if i == axis else 1 for i, n in enumerate(counts))
            assert np.array_equal(v.ravel(), pts[axis]), name


class TestSupAbs:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["mixed", "negative", "positive", "signed zeros"]),
        st.booleans(),
    )
    def test_is_max_abs_bit_for_bit(self, shape, seed, kind, transpose):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        if kind == "negative":
            v = -np.abs(v)
        elif kind == "positive":
            v = np.abs(v)
        elif kind == "signed zeros":
            v = np.copysign(0.0, v)
        if transpose:
            v = v.T
        got, want = sup_abs(v), float(np.max(np.abs(v)))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_all_negative_zero_gives_positive_zero(self):
        got = sup_abs(np.full((3, 4), -0.0))
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("at", [0, 3, 7])
    def test_nan_anywhere_gives_nan(self, at):
        for fill in (-5.0, 0.0, 5.0, math.inf):
            v = np.full(8, fill)
            v[at] = math.nan
            assert math.isnan(sup_abs(v))
            assert math.isnan(sup_abs(v[::-1]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_an_infinity_gives_inf(self, bad):
        v = np.linspace(-3.0, 2.0, 9)
        v[4] = bad
        assert sup_abs(v) == math.inf


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_graded_norms_raise_when_a_derivative_overflows_on_the_grid():
    # f = 1.5e308 T1(x1) + 0.2e308 T2(x1) is finite on the grid, and so are
    # the coefficients 1.5e308, 0.8e308 of d_x1 f, but d_x1 f(1) overflows
    f = SepFunc(SQUARE, 1, 0, np.array([[[0.0, 1.5e308, 0.2e308]]]))
    assert np.all(np.isfinite(partial_derivative(f, (0, 1)).coeffs))
    assert math.isfinite(graded_norms_upto(f, 0)[0])
    with pytest.raises(NonFiniteCoefficients, match="norm grid"):
        graded_norms_upto(f, 1)


def test_every_meshgrid_of_the_package_is_open():
    """Grid coordinates are bound as broadcast axes, never as dense copies."""
    import ast
    from pathlib import Path

    import picard_lod

    calls = 0
    for path in sorted(Path(picard_lod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "meshgrid":
                calls += 1
                sparse = {kw.arg: kw.value for kw in node.keywords}.get("sparse")
                assert isinstance(sparse, ast.Constant) and sparse.value is True, path.name
    assert calls == 1
