"""Closed-form expression trees for right-hand sides, coefficients and initial data.

The grammar covers polynomials, ``sin``, ``cos``, ``exp`` and rational
expressions over the variables ``t``, ``x1`` .. ``xs``, named constants
supplied at parse time, and derivative placeholders ``y1`` .. ``ym`` /
``Dt..(..)`` / ``Dx..(..)`` standing for the unknown's partial derivatives.
Trees are immutable; evaluation is vectorised over numpy arrays and
derivatives are exact symbolic rewrites.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Union

import numpy as np

__all__ = [
    "Arity",
    "Expr",
    "Const",
    "Var",
    "Placeholder",
    "Unary",
    "Binary",
    "Power",
    "ExprError",
    "ParseError",
    "EvalError",
    "NonFiniteValue",
    "DerivativeError",
    "ReservedName",
    "parse_expression",
    "print_expression",
    "eval_expr",
    "symbolic_partial",
    "free_variables",
    "placeholders_in",
    "placeholder_key",
]


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    pass


class NonFiniteValue(EvalError):
    """An evaluation overflowed or gave NaN."""


class DerivativeError(ExprError):
    pass


class ReservedName(ExprError):
    """A ``params`` key that the grammar reads as a variable, placeholder, function or operator."""


@dataclass(frozen=True)
class Arity:
    """Declared shape of an expression's variable universe.

    s: spatial dimensions, m: components, L: max spatial derivative order
    of placeholders, p: max time derivative order of placeholders.
    """

    s: int
    m: int = 1
    L: int = 0
    p: int = 0

    def __post_init__(self) -> None:
        if self.s < 0 or self.m < 1 or self.L < 0 or self.p < 0:
            raise ValueError(f"invalid arity {self}")


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    # kind is "t" or "x"; index is 1-based for spatial variables, 0 for t
    kind: str
    index: int = 0

    @property
    def name(self) -> str:
        return "t" if self.kind == "t" else f"x{self.index}"


@dataclass(frozen=True)
class Placeholder:
    """Leaf standing for a partial derivative of the unknown.

    ``alpha`` is the spatial multi-index, ``gamma`` the time order and
    ``comp`` the 1-based component of the unknown.
    """

    alpha: tuple[int, ...]
    gamma: int
    comp: int

    @property
    def order(self) -> int:
        return sum(self.alpha)


@dataclass(frozen=True)
class Unary:
    op: str  # "sin" | "cos" | "exp" | "neg"
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # "+" | "-" | "*" | "/"
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int


Expr = Union[Const, Var, Placeholder, Unary, Binary, Power]

_FUNCTIONS = ("sin", "cos", "exp")

# names the grammar reads before it looks at params (_Parser.name)
_RESERVED_RE = re.compile(r"t|x\d+|y\d+|D[tx]\d*|" + "|".join(_FUNCTIONS))


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, arity: Arity, params: Mapping[str, float]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.arity = arity
        self.params = params

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", pos)

    def parse(self) -> Expr:
        e = self.expression()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return e

    def expression(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                e = Binary(val, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                e = Binary(val, e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return _fold_neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.primary()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "num" or not re.fullmatch(r"\d+", val):
                raise ParseError(
                    "exponent must be a nonnegative integer literal", pos
                )
            e = Power(e, int(val))
        return e

    def primary(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return Const(float(val))
        if kind == "op" and val == "(":
            e = self.expression()
            self.expect_op(")")
            return e
        if kind == "name":
            return self.name(val, pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def name(self, name: str, pos: int) -> Expr:
        if name == "t":
            return Var("t")
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            idx = int(m.group(1))
            if not 1 <= idx <= self.arity.s:
                raise ParseError(
                    f"spatial variable {name!r} outside declared dimension "
                    f"s={self.arity.s}", pos
                )
            return Var("x", idx)
        if name in _FUNCTIONS:
            self.expect_op("(")
            arg = self.expression()
            self.expect_op(")")
            return Unary(name, arg)
        m = re.fullmatch(r"y(\d+)", name)
        if m:
            return self.placeholder_leaf(int(m.group(1)), pos)
        m = re.fullmatch(r"D([tx])(\d*)", name)
        if m:
            return self.derivative_form(m.group(1), m.group(2), pos)
        if name in self.params:
            return Const(float(self.params[name]))
        raise ParseError(f"undeclared name {name!r}", pos)

    def placeholder_leaf(self, comp: int, pos: int) -> Placeholder:
        if not 1 <= comp <= self.arity.m:
            raise ParseError(
                f"component y{comp} outside declared m={self.arity.m}", pos
            )
        alpha = tuple(0 for _ in range(self.arity.s))
        return Placeholder(alpha, 0, comp)

    def derivative_form(self, which: str, digits: str, pos: int) -> Placeholder:
        self.expect_op("(")
        kind, val, ipos = self.next()
        if kind != "name":
            raise ParseError("derivative operators apply to y<h> leaves", ipos)
        m = re.fullmatch(r"y(\d+)", val)
        if m:
            inner = self.placeholder_leaf(int(m.group(1)), ipos)
        else:
            dm = re.fullmatch(r"D([tx])(\d*)", val)
            if dm is None:
                raise ParseError(
                    f"derivative operators apply to y<h> leaves, found {val!r}",
                    ipos,
                )
            inner = self.derivative_form(dm.group(1), dm.group(2), ipos)
        self.expect_op(")")
        if which == "t":
            order = int(digits) if digits else 1
            gamma = inner.gamma + order
            if gamma > self.arity.p:
                raise ParseError(
                    f"time derivative order {gamma} exceeds declared p="
                    f"{self.arity.p}", pos
                )
            return Placeholder(inner.alpha, gamma, inner.comp)
        # spatial: with one dimension the digits give the order, otherwise
        # they select the dimension and orders accumulate by nesting
        if self.arity.s == 0:
            raise ParseError("no spatial variables declared (s=0)", pos)
        if self.arity.s == 1:
            order = int(digits) if digits else 1
            alpha = (inner.alpha[0] + order,)
        else:
            dim = int(digits) if digits else 1
            if not 1 <= dim <= self.arity.s:
                raise ParseError(
                    f"Dx{dim} outside declared dimension s={self.arity.s}", pos
                )
            alpha = tuple(
                a + (1 if i == dim - 1 else 0) for i, a in enumerate(inner.alpha)
            )
        if sum(alpha) > self.arity.L:
            raise ParseError(
                f"spatial derivative order {sum(alpha)} exceeds declared L="
                f"{self.arity.L}", pos
            )
        return Placeholder(alpha, inner.gamma, inner.comp)


def parse_expression(
    text: str,
    arity: Arity,
    params: Mapping[str, float] | None = None,
) -> Expr:
    """Parse ``text`` against the declared arity.

    ``params`` binds free names to constants at parse time, so the returned
    tree is closed over ``t``, the spatial variables and the placeholders.
    A ``params`` key that the grammar reserves raises ReservedName.
    """
    params = params or {}
    for name in params:
        if _RESERVED_RE.fullmatch(name):
            raise ReservedName(f"params key {name!r} is a name the grammar reserves")
    return _Parser(text, arity, params).parse()


# ---------------------------------------------------------------------------
# Printing (round-trip stable: parse(print(e)) == e)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    if isinstance(e, Power):
        return _PREC_POW
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def print_expression(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Placeholder):
        return placeholder_key(e)
    if isinstance(e, Power):
        base = print_expression(e.base)
        if _prec(e.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Unary):
        if e.op == "neg":
            arg = print_expression(e.arg)
            if _prec(e.arg) < _PREC_NEG:
                arg = f"({arg})"
            return f"-{arg}"
        return f"{e.op}({print_expression(e.arg)})"
    if isinstance(e, Binary):
        lhs = print_expression(e.lhs)
        rhs = print_expression(e.rhs)
        mine = _prec(e)
        if _prec(e.lhs) < mine:
            lhs = f"({lhs})"
        if _prec(e.rhs) < mine or (_prec(e.rhs) == mine and e.op in "-/"):
            rhs = f"({rhs})"
        return f"{lhs}{e.op}{rhs}"
    raise ExprError(f"unknown node {e!r}")


def placeholder_key(ph: Placeholder) -> str:
    """Canonical text form of a placeholder, also its binding key."""
    s = f"y{ph.comp}"
    if len(ph.alpha) == 1:
        if ph.alpha[0] > 0:
            s = f"Dx{ph.alpha[0]}({s})"
    else:
        for dim in range(len(ph.alpha), 0, -1):
            for _ in range(ph.alpha[dim - 1]):
                s = f"Dx{dim}({s})"
    if ph.gamma == 1:
        s = f"Dt({s})"
    elif ph.gamma > 1:
        s = f"Dt{ph.gamma}({s})"
    return s


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_expr(e: Expr, bindings: Mapping[str, Any]) -> Any:
    """Evaluate the tree with variables/placeholders bound to floats or arrays.

    Placeholders are looked up under their canonical key (``placeholder_key``).
    Raises EvalError on unbound names, a zero denominator, or a non-finite
    result.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _eval(e, bindings)
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue("non-finite value in expression evaluation")
    if np.ndim(out) == 0:
        return float(out)
    return out


def _eval(e: Expr, b: Mapping[str, Any]) -> Any:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return b[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Placeholder):
        key = placeholder_key(e)
        try:
            return b[key]
        except KeyError:
            raise EvalError(f"unbound placeholder {key!r}") from None
    if isinstance(e, Unary):
        v = _eval(e.arg, b)
        if e.op == "neg":
            return -v
        if e.op == "sin":
            return np.sin(v)
        if e.op == "cos":
            return np.cos(v)
        if e.op == "exp":
            return np.exp(v)
        raise ExprError(f"unknown unary op {e.op!r}")
    if isinstance(e, Power):
        return _eval(e.base, b) ** e.exponent
    if isinstance(e, Binary):
        lv = _eval(e.lhs, b)
        rv = _eval(e.rhs, b)
        if e.op == "+":
            return lv + rv
        if e.op == "-":
            return lv - rv
        if e.op == "*":
            return lv * rv
        if e.op == "/":
            if np.any(rv == 0):
                raise EvalError("division by zero")
            return lv / rv
        raise ExprError(f"unknown binary op {e.op!r}")
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Constant folding (kept light: just enough to stop derivative blow-up)
# ---------------------------------------------------------------------------


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _fold_neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Unary) and e.op == "neg":
        return e.arg
    return Unary("neg", e)


def fold(e: Expr) -> Expr:
    """Bottom-up constant folding and unit/zero elimination."""
    if isinstance(e, (Const, Var, Placeholder)):
        return e
    if isinstance(e, Unary):
        arg = fold(e.arg)
        if e.op == "neg":
            return _fold_neg(arg)
        if isinstance(arg, Const):
            fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp}[e.op]
            return Const(float(fn(arg.value)))
        return Unary(e.op, arg)
    if isinstance(e, Power):
        base = fold(e.base)
        if e.exponent == 0:
            return Const(1.0)
        if e.exponent == 1:
            return base
        if isinstance(base, Const):
            return Const(base.value**e.exponent)
        return Power(base, e.exponent)
    if isinstance(e, Binary):
        lhs, rhs = fold(e.lhs), fold(e.rhs)
        if e.op == "+":
            if _is_const(lhs, 0.0):
                return rhs
            if _is_const(rhs, 0.0):
                return lhs
            if isinstance(lhs, Const) and isinstance(rhs, Const):
                return Const(lhs.value + rhs.value)
        elif e.op == "-":
            if _is_const(rhs, 0.0):
                return lhs
            if _is_const(lhs, 0.0):
                return _fold_neg(rhs)
            if isinstance(lhs, Const) and isinstance(rhs, Const):
                return Const(lhs.value - rhs.value)
        elif e.op == "*":
            if _is_const(lhs, 0.0) or _is_const(rhs, 0.0):
                return Const(0.0)
            if _is_const(lhs, 1.0):
                return rhs
            if _is_const(rhs, 1.0):
                return lhs
            if isinstance(lhs, Const) and isinstance(rhs, Const):
                return Const(lhs.value * rhs.value)
        elif e.op == "/":
            if _is_const(lhs, 0.0):
                return Const(0.0)
            if _is_const(rhs, 1.0):
                return lhs
            if isinstance(lhs, Const) and isinstance(rhs, Const):
                if rhs.value == 0:
                    raise EvalError("division by zero in constant folding")
                return Const(lhs.value / rhs.value)
        return Binary(e.op, lhs, rhs)
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------


def _diff1(e: Expr, match: Callable[[Expr], bool]) -> Expr:
    if isinstance(e, (Const, Placeholder)):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if match(e) else Const(0.0)
    if isinstance(e, Unary):
        d = _diff1(e.arg, match)
        if e.op == "neg":
            return Unary("neg", d)
        if e.op == "sin":
            return Binary("*", Unary("cos", e.arg), d)
        if e.op == "cos":
            return Binary("*", Unary("neg", Unary("sin", e.arg)), d)
        if e.op == "exp":
            return Binary("*", Unary("exp", e.arg), d)
        raise DerivativeError(f"non-differentiable node {e.op!r}")
    if isinstance(e, Power):
        d = _diff1(e.base, match)
        if e.exponent == 0:
            return Const(0.0)
        return Binary(
            "*",
            Binary("*", Const(float(e.exponent)), Power(e.base, e.exponent - 1)),
            d,
        )
    if isinstance(e, Binary):
        dl = _diff1(e.lhs, match)
        dr = _diff1(e.rhs, match)
        if e.op == "+":
            return Binary("+", dl, dr)
        if e.op == "-":
            return Binary("-", dl, dr)
        if e.op == "*":
            return Binary("+", Binary("*", dl, e.rhs), Binary("*", e.lhs, dr))
        if e.op == "/":
            num = Binary("-", Binary("*", dl, e.rhs), Binary("*", e.lhs, dr))
            return Binary("/", num, Power(e.rhs, 2))
        raise DerivativeError(f"non-differentiable node {e.op!r}")
    raise DerivativeError(f"unknown node {e!r}")


def symbolic_partial(e: Expr, variable: str, order: int = 1) -> Expr:
    """Exact partial derivative w.r.t. ``"t"`` or ``"x<i>"``.

    Placeholders are opaque leaves here (their derivative is zero); chain
    rule composition through the unknown is handled numerically elsewhere.
    """
    if order < 0:
        raise DerivativeError("order must be nonnegative")
    if variable == "t":
        match = lambda v: v.kind == "t"
    else:
        m = re.fullmatch(r"x(\d+)", variable)
        if m is None:
            raise DerivativeError(f"unknown variable {variable!r}")
        idx = int(m.group(1))
        match = lambda v: v.kind == "x" and v.index == idx
    out = e
    for _ in range(order):
        out = fold(_diff1(out, match))
    return out


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------


def _walk(e: Expr) -> Iterator[Expr]:
    yield e
    if isinstance(e, Unary):
        yield from _walk(e.arg)
    elif isinstance(e, Binary):
        yield from _walk(e.lhs)
        yield from _walk(e.rhs)
    elif isinstance(e, Power):
        yield from _walk(e.base)


def free_variables(e: Expr) -> set[str]:
    return {n.name for n in _walk(e) if isinstance(n, Var)}


def placeholders_in(e: Expr) -> set[Placeholder]:
    return {n for n in _walk(e) if isinstance(n, Placeholder)}
