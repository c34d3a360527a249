import numpy as np
import pytest

from picard_lod.expr import (
    Arity,
    Binary,
    Const,
    EvalError,
    ParseError,
    Placeholder,
    Unary,
    Var,
    eval_expr,
    free_variables,
    parse_expression,
    placeholder_key,
    print_expression,
    symbolic_partial,
)

from helpers import fd_derivative

AR = Arity(s=1, m=1, L=2, p=0)


class TestParsing:
    def test_bound_constant_times_placeholder(self):
        e = parse_expression("a*Dx2(y1)", AR, {"a": 1.0})
        assert e == Binary("*", Const(1.0), Placeholder((2,), 0, 1))

    def test_primitive_lookup(self):
        e = parse_expression("sin(x1)", AR)
        assert e == Unary("sin", Var("x", 1))

    def test_quadratic_transport_product(self):
        e = parse_expression("y1*Dx1(y1)", AR)
        assert e == Binary("*", Placeholder((0,), 0, 1), Placeholder((1,), 0, 1))

    def test_multidim_placeholders_nest_by_dimension(self):
        ar = Arity(s=2, m=2, L=3, p=1)
        e = parse_expression("Dt(Dx1(Dx2(y2)))", ar)
        assert e == Placeholder((1, 1), 1, 2)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("sin(x1", AR)
        assert "position" in str(err.value)

    def test_undeclared_name(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_expression("q*x1", AR)

    def test_spatial_variable_outside_arity(self):
        with pytest.raises(ParseError):
            parse_expression("x2", AR)

    def test_placeholder_beyond_derivative_budget(self):
        with pytest.raises(ParseError, match="exceeds declared L"):
            parse_expression("Dx3(y1)", AR)
        with pytest.raises(ParseError, match="exceeds declared p"):
            parse_expression("Dt(y1)", AR)

    def test_fractional_power_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x1^1.5", AR)

    def test_negation_binds_below_power(self):
        e = parse_expression("-x1^2", AR)
        assert eval_expr(e, {"x1": 3.0}) == -9.0


ROUND_TRIP_CASES = [
    "1.0*Dx2(y1)",
    "sin(x1)",
    "y1*Dx1(y1)",
    "1.0/(1.0+x1^2)",
    "t*x1-(x1-t)",
    "-(x1+t)^3",
    "exp(-x1)*cos(t)",
    "2.0*y1+3.0*Dx1(y1)-t/(x1+2.0)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_parse_print_round_trip(text):
    e = parse_expression(text, AR)
    assert parse_expression(print_expression(e), AR) == e


def test_round_trip_on_random_trees():
    rng = np.random.default_rng(7)
    leaves = [Const(2.5), Var("t"), Var("x", 1), Placeholder((1,), 0, 1)]

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            return leaves[rng.integers(len(leaves))]
        r = rng.random()
        if r < 0.5:
            op = "+-*/"[rng.integers(4)]
            return Binary(op, build(depth - 1), build(depth - 1))
        if r < 0.8:
            op = ("sin", "cos", "exp", "neg")[rng.integers(4)]
            return Unary(op, build(depth - 1))
        from picard_lod.expr import Power

        return Power(build(depth - 1), int(rng.integers(0, 4)))

    for _ in range(150):
        # normalize through one parse: generated trees may contain shapes the
        # parser folds away (double negation, constant arithmetic)
        e = parse_expression(print_expression(build(3)), AR)
        assert parse_expression(print_expression(e), AR) == e


class TestEval:
    def test_sin_zero(self):
        assert eval_expr(parse_expression("sin(x1)", AR), {"x1": 0.0}) == 0.0

    def test_param_arithmetic(self):
        e = parse_expression("2*z+1", AR, {"z": 3.0})
        assert eval_expr(e, {}) == 7.0

    def test_rational(self):
        e = parse_expression("1/(1+x1^2)", AR)
        assert eval_expr(e, {"x1": 1.0}) == 0.5

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound"):
            eval_expr(parse_expression("x1+t", AR), {"x1": 1.0})

    def test_division_by_zero_is_an_error(self):
        e = parse_expression("1/x1", AR)
        with pytest.raises(EvalError, match="division by zero"):
            eval_expr(e, {"x1": 0.0})
        with pytest.raises(EvalError):
            eval_expr(e, {"x1": np.array([1.0, 0.0])})

    def test_nonfinite_result_is_an_error(self):
        e = parse_expression("exp(x1)", AR)
        with pytest.raises(EvalError, match="non-finite"):
            eval_expr(e, {"x1": 1e9})

    def test_vectorized(self):
        e = parse_expression("x1^2+t", AR)
        out = eval_expr(e, {"x1": np.array([1.0, 2.0]), "t": np.array([0.5, 0.5])})
        assert np.allclose(out, [1.5, 4.5])

    def test_placeholder_binding_by_key(self):
        ph = Placeholder((2,), 0, 1)
        e = Binary("*", Const(3.0), ph)
        assert eval_expr(e, {placeholder_key(ph): 2.0}) == 6.0


class TestSymbolicPartial:
    def test_power_rule(self):
        d = symbolic_partial(parse_expression("x1^3", AR), "x1")
        assert eval_expr(d, {"x1": 2.0}) == 12.0

    def test_second_derivative_of_sin(self):
        d = symbolic_partial(parse_expression("sin(x1)", AR), "x1", 2)
        x = np.linspace(-2, 2, 17)
        assert np.allclose(eval_expr(d, {"x1": x}), -np.sin(x), atol=1e-14)

    def test_order_zero_is_identity(self):
        e = parse_expression("exp(x1)*t", AR)
        assert symbolic_partial(e, "x1", 0) == e

    def test_quotient_rule_vs_finite_differences(self):
        e = parse_expression("1/(1+x1^2)", AR)
        d = symbolic_partial(e, "x1")
        want = fd_derivative(lambda x: 1 / (1 + x * x), 0.3, 1, h=0.02)
        assert eval_expr(d, {"x1": 0.3}) == pytest.approx(want, abs=1e-8)

    def test_placeholders_are_opaque(self):
        e = parse_expression("t*Dx1(y1)", AR)
        d = symbolic_partial(e, "x1")
        assert eval_expr(d, {placeholder_key(Placeholder((1,), 0, 1)): 5.0}) == 0.0


CATALOG_FUNCTIONS = [
    ("sin(x1)*cos(x1)", lambda x: np.sin(x) * np.cos(x)),
    ("exp(-x1)*x1^3", lambda x: np.exp(-x) * x**3),
    ("1/(1+x1^2)", lambda x: 1 / (1 + x * x)),
    ("x1^4-2*x1^2+1", lambda x: x**4 - 2 * x * x + 1),
]


@pytest.mark.parametrize("text,fn", CATALOG_FUNCTIONS)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivatives_match_finite_differences(text, fn, order):
    e = parse_expression(text, AR)
    d = symbolic_partial(e, "x1", order)
    rng = np.random.default_rng(42 + order)
    pts = rng.uniform(-1.5, 1.5, 100)
    got = np.array([eval_expr(d, {"x1": float(x)}) for x in pts])
    want = np.array([fd_derivative(fn, float(x), order, h=0.03) for x in pts])
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-6 * scale


def test_structure_queries():
    e = parse_expression("t*y1+sin(x1)", AR)
    assert free_variables(e) == {"t", "x1"}
