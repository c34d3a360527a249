"""Separately regular functions on a time-space box as Chebyshev coefficient tensors.

A SepFunc stores, per component, a tensor of Chebyshev-series coefficients
over the time interval and each spatial interval (all affinely mapped to
[-1, 1]).  Differentiation and nested time integration act exactly on
coefficients.  Every derivative comes from one derivative chain over
coefficient arrays (_derivative_chain), one cheb_derivative step per
multi-index, with no SepFunc per derivative; derivatives_on_grid evaluates
them on a grid, and partial_derivative wraps one in a SepFunc.  The graded
seminorms take the sup of partial derivatives on a dense sampling grid (the
grid density is part of every reported norm), a lower bound on the exact
sup, and graded_norms_upper bounds them from above by coefficient sums.
Every grid sup of the program is one sup_abs call, and expressions see the
coordinates of a tensor grid as open (broadcasting) axes, from
grid_bindings.

Every sampling grid of the program is built here, and its sizes are
module constants, not options.  Those below give equispaced norm grids of
NORM_GRID_FACTOR * degree + 1 points per axis (at least NORM_GRID_MIN, or
RESIDUAL_GRID_MIN for residuals), CHECK_GRID_POINTS per axis for the
comparison grids, and Chebyshev extrema for interpolation; the sampled
Lipschitz grid (LIPSCHITZ_GRID_POINTS) and the t grid of the matrix norm
(MATRIX_NORM_POINTS) are constants of picard_pde.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .expr import Expr, eval_expr, free_variables

__all__ = [
    "Domain",
    "SepFunc",
    "Radii",
    "BallRow",
    "BallReport",
    "FuncSpaceError",
    "NonFiniteCoefficients",
    "interpolate",
    "from_values",
    "chebyshev_nodes",
    "uniform_grid",
    "norm_grid",
    "grid_bindings",
    "eval_on_grid",
    "sup_abs",
    "pad_to_common",
    "partial_derivative",
    "derivatives_on_grid",
    "iterated_time_integral",
    "cheb_derivative",
    "cheb_integral",
    "graded_norm",
    "graded_norms_upto",
    "graded_norms_upper",
    "graded_indices",
    "joint_norm",
    "ball_check",
    "DEGREE_CAP",
]

DEGREE_CAP = 128
NORM_GRID_FACTOR = 4
NORM_GRID_MIN = 64
RESIDUAL_GRID_MIN = 128
CHECK_GRID_POINTS = 65


class FuncSpaceError(Exception):
    pass


class NonFiniteCoefficients(FuncSpaceError):
    """Samples, coefficients or derivative values that overflowed or are NaN."""


@dataclass(frozen=True)
class Domain:
    """Time interval [t0-a, t0+b] times a box in R^s."""

    t0: float
    a: float
    b: float
    S: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise FuncSpaceError("time half-widths a, b must be positive")
        S = tuple((float(lo), float(hi)) for lo, hi in self.S)
        object.__setattr__(self, "S", S)
        for lo, hi in S:
            if not lo < hi:
                raise FuncSpaceError(f"empty spatial interval [{lo}, {hi}]")

    @property
    def s(self) -> int:
        return len(self.S)

    @property
    def tbar(self) -> float:
        return max(self.a, self.b)

    @property
    def t_interval(self) -> tuple[float, float]:
        return (self.t0 - self.a, self.t0 + self.b)

    def intervals(self) -> list[tuple[float, float]]:
        return [self.t_interval, *self.S]


def _to_unit(pts: np.ndarray, interval: tuple[float, float]) -> np.ndarray:
    lo, hi = interval
    return (2.0 * np.asarray(pts) - lo - hi) / (hi - lo)


def _halfwidth(interval: tuple[float, float]) -> float:
    lo, hi = interval
    return (hi - lo) / 2.0


def _nodes(deg: int) -> np.ndarray:
    if deg == 0:
        return np.array([0.0])
    return cheb.chebpts2(deg + 1)


@lru_cache(maxsize=256)
def _vander(n: int) -> np.ndarray:
    """Chebyshev-Vandermonde matrix of degree n - 1 at the n Chebyshev extrema."""
    return cheb.chebvander(_nodes(n - 1), n - 1)


def _values_to_coeffs(vals: np.ndarray, axis: int) -> np.ndarray:
    """Invert chebvander sampling at Chebyshev extrema along one axis."""
    n = vals.shape[axis]
    V = _vander(n)
    moved = np.moveaxis(vals, axis, 0)
    flat = moved.reshape(n, -1)
    coef = np.linalg.solve(V, flat).reshape(moved.shape)
    return np.moveaxis(coef, 0, axis)


def _axis_to_front(ndim: int, axis: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Transpositions that move ``axis`` to the front and back again."""
    rest = range(axis + 1, ndim)
    return (axis, *range(axis), *rest), (*range(1, axis + 1), 0, *rest)


def _grid_evaluator(
    f: SepFunc, pts: Sequence[np.ndarray]
) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluate on the tensor grid of pts any coefficient tensor no larger than f's.

    One Chebyshev-Vandermonde matrix per axis at f's degree is built here; a
    tensor of n coefficients on that axis uses its leading n columns, which
    the recurrence builds in order, so they equal chebvander(u, n - 1) bit
    for bit.  Each axis is one gemm, the call that tensordot makes.
    """
    if len(pts) != 1 + f.domain.s:
        raise FuncSpaceError("grid rank does not match spatial dimension")
    steps = [
        (axis, cheb.chebvander(_to_unit(u, iv), n - 1), *_axis_to_front(f.coeffs.ndim, axis))
        for axis, (u, iv, n) in enumerate(
            zip(pts, f.domain.intervals(), f.coeffs.shape[1:]), start=1
        )
    ]

    def evaluate(coeffs: np.ndarray) -> np.ndarray:
        out = coeffs
        for axis, V, front, back in steps:
            n = out.shape[axis]
            moved = out.transpose(front)
            prod = np.dot(V[:, :n], moved.reshape(n, -1))
            out = prod.reshape(V.shape[:1] + moved.shape[1:]).transpose(back)
        return out

    return evaluate


def pad_to_common(*arrays: np.ndarray) -> list[np.ndarray]:
    """Zero-pad every array at the end of each axis to their common shape."""
    shape = tuple(max(sizes) for sizes in zip(*(a.shape for a in arrays)))
    return [np.pad(a, [(0, s - n) for s, n in zip(shape, a.shape)]) for a in arrays]


# ---------------------------------------------------------------------------
# SepFunc
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SepFunc:
    """Element of C^p_t C^inf_x(T x S, R^m) as a coefficient tensor.

    ``coeffs`` has shape (m, deg_t+1, deg_x1+1, ..., deg_xs+1).  Equality
    and hash cover the domain, m, p and the coefficient tensor (shape and
    values), so zero-padded copies of one function compare unequal.
    """

    domain: Domain
    m: int
    p: int
    coeffs: np.ndarray = field(compare=False)
    interp_error: float | None = field(default=None, compare=False)
    truncation: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 2 + self.domain.s:
            raise FuncSpaceError(
                f"coefficient tensor rank {arr.ndim} does not match "
                f"1 (component) + 1 (time) + {self.domain.s} (space)"
            )
        if arr.shape[0] != self.m:
            raise FuncSpaceError("leading axis must equal component count m")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteCoefficients("non-finite coefficients")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SepFunc):
            return NotImplemented
        return (
            (self.domain, self.m, self.p) == (other.domain, other.m, other.p)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        # the coefficient array is read-only, so the hash is stable
        return hash((self.domain, self.m, self.p, self.coeffs.shape,
                     self.coeffs.tobytes()))

    # -- shape helpers ----------------------------------------------------

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.coeffs.shape[1:])

    @property
    def deg_t(self) -> int:
        return self.coeffs.shape[1] - 1

    def _check_compatible(self, other: "SepFunc") -> None:
        if self.domain != other.domain or self.m != other.m or self.p != other.p:
            raise FuncSpaceError("mismatched domains or shapes")

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "SepFunc") -> "SepFunc":
        self._check_compatible(other)
        a, b = pad_to_common(self.coeffs, other.coeffs)
        return SepFunc(self.domain, self.m, self.p, a + b)

    def __sub__(self, other: "SepFunc") -> "SepFunc":
        self._check_compatible(other)
        a, b = pad_to_common(self.coeffs, other.coeffs)
        return SepFunc(self.domain, self.m, self.p, a - b)

    def __mul__(self, scalar: float) -> "SepFunc":
        return SepFunc(self.domain, self.m, self.p, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SepFunc":
        return SepFunc(self.domain, self.m, self.p, -self.coeffs)

    # -- evaluation -----------------------------------------------------------

    def eval_grid(self, t_pts: np.ndarray, x_grids: Sequence[np.ndarray] = ()) -> np.ndarray:
        """Values on the tensor grid; result shape (m, len(t), len(x1), ...)."""
        return _grid_evaluator(self, [t_pts, *x_grids])(self.coeffs)

    def trim(self) -> "SepFunc":
        """Zero out coefficients below 1e-14 times the largest and drop trailing slices."""
        arr = np.array(self.coeffs)
        scale = np.max(np.abs(arr))
        if scale == 0:
            out = arr[(slice(None), *([slice(0, 1)] * (arr.ndim - 1)))]
            return replace(self, coeffs=out)
        arr[np.abs(arr) < 1e-14 * scale] = 0.0
        for axis in range(1, arr.ndim):
            mov = np.moveaxis(arr, axis, 0)
            n = mov.shape[0]
            while n > 1 and not np.any(mov[n - 1]):
                n -= 1
            arr = np.moveaxis(mov[:n], 0, axis)
        return replace(self, coeffs=arr)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": "sepfunc/1",
            "domain": {
                "t0": self.domain.t0,
                "a": self.domain.a,
                "b": self.domain.b,
                "S": [list(iv) for iv in self.domain.S],
            },
            "m": self.m,
            "p": self.p,
            "degrees": list(self.degrees),
            "coeffs": np.asarray(self.coeffs).ravel(order="C").tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SepFunc":
        if data.get("schema") != "sepfunc/1":
            raise FuncSpaceError("unknown sepfunc schema")
        dom = Domain(
            data["domain"]["t0"],
            data["domain"]["a"],
            data["domain"]["b"],
            tuple(tuple(iv) for iv in data["domain"]["S"]),
        )
        shape = (data["m"], *[d + 1 for d in data["degrees"]])
        coeffs = np.array(data["coeffs"], dtype=float).reshape(shape, order="C")
        return cls(dom, data["m"], data["p"], coeffs)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "SepFunc":
        return cls.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Radii
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Radii:
    """Per-index ball radii r_k > 0, +inf as an explicit sentinel; the last holds past the list."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise FuncSpaceError("empty radii list")
        for v in vals:
            if not v > 0:
                raise FuncSpaceError("radii must be positive (or +inf)")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, r: float) -> "Radii":
        return cls((r,))

    @classmethod
    def infinite(cls) -> "Radii":
        return cls((math.inf,))

    @classmethod
    def from_list(cls, values: Iterable[float]) -> "Radii":
        return cls(tuple(values))

    def value(self, k: int) -> float:
        return self.values[min(k, len(self.values) - 1)]

    def is_infinite(self) -> bool:
        return all(v == math.inf for v in self.values)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def interpolate(
    exprs: Expr | Sequence[Expr],
    dom: Domain,
    degrees: Sequence[int],
    m: int = 1,
    p: int = 0,
) -> SepFunc:
    """Chebyshev interpolant of closed-form expressions on the domain.

    ``degrees`` has one entry per axis (t first).  The max error sampled on
    a 3x finer equispaced grid is attached as ``interp_error``.
    """
    elist = list(exprs) if isinstance(exprs, (list, tuple)) else [exprs]
    if len(elist) != m:
        raise FuncSpaceError(f"expected {m} component expressions, got {len(elist)}")
    degrees = list(degrees)
    if len(degrees) != 1 + dom.s:
        raise FuncSpaceError("degrees must cover the t axis plus each x axis")
    if any(d > DEGREE_CAP for d in degrees):
        raise FuncSpaceError(f"degree cap {DEGREE_CAP} exceeded: {degrees}")
    allowed = set(_axis_names(dom.s))
    for e in elist:
        fv = free_variables(e)
        if not fv <= allowed:
            raise FuncSpaceError(f"expression uses undeclared variables {fv - allowed}")

    nodes = chebyshev_nodes(dom, degrees)
    vals = eval_on_grid(elist, grid_bindings(nodes), tuple(len(g) for g in nodes))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteCoefficients("non-finite sample value during interpolation")
    f = from_values(vals, dom, m, p)

    fine = uniform_grid(dom, [3 * (deg + 1) + 1 for deg in degrees])
    shape = tuple(len(g) for g in fine)
    fine_vals = eval_on_grid(elist, grid_bindings(fine), shape)
    fine_vals -= f.eval_grid(fine[0], fine[1:])
    err = sup_abs(fine_vals)
    # f is still private here: attach the error without a second copy
    object.__setattr__(f, "interp_error", err)
    return f


def from_values(
    vals: np.ndarray, dom: Domain, m: int, p: int
) -> SepFunc:
    """Build a SepFunc from values sampled at Chebyshev-extrema tensor nodes."""
    coef = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(coef)):
        raise NonFiniteCoefficients("non-finite sample value")
    for axis in range(1, coef.ndim):
        coef = _values_to_coeffs(coef, axis)
    return SepFunc(dom, m, p, coef)


# ---------------------------------------------------------------------------
# Sampling grids
# ---------------------------------------------------------------------------


def _axis_names(s: int) -> list[str]:
    return ["t", *[f"x{i}" for i in range(1, s + 1)]]


def chebyshev_nodes(dom: Domain, degrees: Sequence[int]) -> list[np.ndarray]:
    """Physical tensor-product interpolation nodes for the given degrees."""
    pts = []
    for deg, iv in zip(degrees, dom.intervals()):
        u = _nodes(deg)
        lo, hi = iv
        pts.append((lo + hi) / 2 + (hi - lo) / 2 * u)
    return pts


def uniform_grid(dom: Domain, counts: int | Sequence[int]) -> list[np.ndarray]:
    """Equispaced points on every axis (t first): one count for all, or one per axis."""
    if isinstance(counts, int):
        counts = [counts] * (1 + dom.s)
    return [np.linspace(lo, hi, n) for (lo, hi), n in zip(dom.intervals(), counts)]


def norm_grid(f: SepFunc, min_points: int = NORM_GRID_MIN) -> list[np.ndarray]:
    """Equispaced grid of NORM_GRID_FACTOR * degree + 1 (at least min_points) per axis."""
    return uniform_grid(
        f.domain, [max(min_points, NORM_GRID_FACTOR * deg + 1) for deg in f.degrees]
    )


def grid_bindings(pts: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
    """Bind t, x1, ..., xs to the coordinates of the tensor grid of ``pts``.

    The grid is open: axis i is bound to pts[i] shaped (1, ..., n_i, ..., 1),
    so an expression broadcasts to the grid only where its axes meet, and a
    factor in fewer variables is evaluated on those axes alone.  Every
    operation of an expression is elementwise, so each grid value is the
    one a dense meshgrid gives, bit for bit.
    """
    grids = np.meshgrid(*pts, indexing="ij", sparse=True)
    return dict(zip(_axis_names(len(pts) - 1), grids))


def eval_on_grid(
    exprs: Sequence[Expr], bindings: dict, shape: tuple[int, ...]
) -> np.ndarray:
    """Values of each expression on a grid of ``shape``, stacked on a leading axis."""
    return np.stack([
        np.broadcast_to(np.asarray(eval_expr(e, bindings), dtype=float), shape)
        for e in exprs
    ])


def sup_abs(vals: np.ndarray) -> float:
    """float(np.max(np.abs(vals))), bit for bit, from a max and a min reduction.

    max|v| is the larger of |max v| and |min v|, so no |vals| temporary is
    made; abs also turns a -0.0 extreme into 0.0.  A NaN propagates through
    both reductions and is returned as is, not left to an order-dependent
    comparison; an infinity comes out as inf.
    """
    hi = abs(float(np.max(vals)))
    if math.isnan(hi):
        return hi
    lo = abs(float(np.min(vals)))
    return hi if hi >= lo else lo


# ---------------------------------------------------------------------------
# Calculus
# ---------------------------------------------------------------------------


def cheb_derivative(coef: np.ndarray, m: int, *, scl: float, axis: int = 0) -> np.ndarray:
    """cheb.chebder(coef, m, scl=scl, axis=axis) with numpy's float operations.

    Per order numpy runs c *= scl, then c[j-2] += (j*c[j])/(j-2) for
    j = n..3, and sets der[j-1] = (2j)*c[j], der[0] = c[1].  The chains of
    even and odd j are independent, so both advance in one array operation
    here; der is formed in one multiply at the end, since c[j] is final once
    step j ran.  Every element sees the same operations in the same order.
    An order past the degree gives zeros of length one on the axis (numpy
    gives coef[:1] * 0, which is -0.0 where coef[0] < 0); order 0 returns
    coef itself.  The twin of cheb_integral.
    """
    if m == 0:
        return coef
    front, back = _axis_to_front(np.ndim(coef), axis)
    c = np.asarray(coef, dtype=np.double).transpose(front)
    if m > len(c) - 1:
        return np.zeros((1, *c.shape[1:])).transpose(back)
    for _ in range(m):
        c = c * scl
        n = len(c) - 1
        j = np.arange(n + 1.0).reshape(-1, *[1] * (c.ndim - 1))
        for hi in range(n, 2, -2):
            lo = max(hi - 1, 3)
            c[lo - 2:hi - 1] += (j[lo:hi + 1] * c[lo:hi + 1]) / (j[lo:hi + 1] - 2)
        der = np.empty_like(c[:n])
        der[0] = c[1]
        der[1:] = (2 * j[2:]) * c[2:]
        c = der
    return c.transpose(back)


def partial_derivative(f: SepFunc, beta: Sequence[int]) -> SepFunc:
    """Exact partial derivative; orders beyond the degree give the zero function."""
    beta = tuple(int(b) for b in beta)
    if len(beta) != 1 + f.domain.s:
        raise FuncSpaceError("multi-index rank mismatch")
    if any(b < 0 for b in beta):
        raise FuncSpaceError("negative derivative order")
    return SepFunc(f.domain, f.m, f.p, _derivative_chain(f.coeffs, f.domain)(beta))


def _derivative_chain(
    coeffs: np.ndarray, domain: Domain
) -> Callable[[Sequence[int]], np.ndarray]:
    """Coefficients of D^beta for any beta, each one cheb_derivative step from its parent.

    The parent of beta is beta with its last nonzero axis lowered by one, so
    the steps run axis by axis, t first, and as numpy's chebder takes its
    orders one at a time, the coefficients equal those of chebder applied
    axis by axis, bit for bit.  Every step is checked for finiteness, as a
    SepFunc is.  Every built array is kept while the returned function
    lives.  A step from a parent of one coefficient on the step axis gives
    the zero function, one zero coefficient per axis, built once.
    """
    built = {(0,) * (1 + domain.s): coeffs}
    zero = np.zeros((coeffs.shape[0], *[1] * (1 + domain.s)))
    scales = [1.0 / _halfwidth(iv) for iv in domain.intervals()]

    def build(beta: tuple[int, ...]) -> np.ndarray:
        if beta not in built:
            axis = max(i for i, b in enumerate(beta) if b)
            parent = build(tuple(b - (i == axis) for i, b in enumerate(beta)))
            if parent.shape[1 + axis] == 1:
                built[beta] = zero
            else:
                step = cheb_derivative(parent, 1, scl=scales[axis], axis=1 + axis)
                if not np.all(np.isfinite(step)):
                    raise NonFiniteCoefficients("non-finite coefficients")
                built[beta] = step
        return built[beta]

    def checked(beta: Sequence[int]) -> np.ndarray:
        beta = tuple(int(b) for b in beta)
        if len(beta) != 1 + domain.s or min(beta) < 0:
            raise FuncSpaceError(f"invalid multi-index {beta}")
        return build(beta)

    return checked


def derivatives_on_grid(
    f: SepFunc, betas: Iterable[Sequence[int]], pts: Sequence[np.ndarray]
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield (beta, values of D^beta f on the tensor grid of pts) for each beta.

    The derivatives come from one _derivative_chain, kept for this call only,
    so a derivative that several betas name is built once, and they share
    one Vandermonde matrix per axis, built at f's degrees.
    """
    evaluate = _grid_evaluator(f, pts)
    derivative = _derivative_chain(f.coeffs, f.domain)
    for beta in betas:
        beta = tuple(int(b) for b in beta)
        yield beta, evaluate(derivative(beta))


def iterated_time_integral(f: SepFunc, j: int) -> SepFunc:
    """The j-fold nested antiderivative from t0, exact on coefficients."""
    if j < 1:
        raise FuncSpaceError("fold count must be >= 1")
    if f.deg_t + j > DEGREE_CAP:
        raise FuncSpaceError(
            f"degree cap {DEGREE_CAP} exceeded by {j}-fold time integral"
        )
    iv = f.domain.t_interval
    u0 = float(_to_unit(np.array(f.domain.t0), iv))
    coef = cheb_integral(f.coeffs, j, lbnd=u0, scl=_halfwidth(iv), axis=1)
    return SepFunc(f.domain, f.m, f.p, coef)


def cheb_integral(
    coef: np.ndarray, m: int, *, lbnd: float, scl: float, axis: int = 0
) -> np.ndarray:
    """cheb.chebint(coef, m, lbnd=lbnd, scl=scl, axis=axis) with numpy's float operations.

    Per fold numpy runs c *= scl, then tmp[0] = c[0]*0, tmp[1] = c[0],
    tmp[2] = c[1]/4 and, for j = 2..n-1, tmp[j+1] = c[j]/(2(j+1)) and
    tmp[j-1] -= c[j]/(2(j-1)); last, tmp[0] += 0 - chebval(lbnd, tmp).
    Every tmp[j-1] is assigned before its one subtraction, so the loop is
    two slice operations here.  A fold of the zero constant adds 0 to it
    instead, as numpy does.  The result has numpy's axis order and strides.
    """
    c = np.array(coef, dtype=np.double, ndmin=1)
    if m == 0:
        return c
    c = np.moveaxis(c, axis, 0)
    for _ in range(m):
        n = len(c)
        c *= scl
        if n == 1 and np.all(c[0] == 0):
            c[0] += 0
            continue
        tmp = np.empty((n + 1,) + c.shape[1:])
        tmp[0] = c[0] * 0
        tmp[1] = c[0]
        if n > 1:
            tmp[2] = c[1] / 4
        j = np.arange(2, n).reshape(-1, *[1] * (c.ndim - 1))
        tmp[3:] = c[2:] / (2 * (j + 1))
        tmp[1:n - 1] -= c[2:] / (2 * (j - 1))
        tmp[0] += 0 - cheb.chebval(lbnd, tmp)
        c = tmp
    return np.moveaxis(c, 0, axis)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def _multi_indices(total_max: int, dims: int) -> Iterator[tuple[int, ...]]:
    if dims == 0:
        yield ()
        return
    for head in range(total_max + 1):
        for rest in _multi_indices(total_max - head, dims - 1):
            yield (head, *rest)


def graded_indices(k_max: int, s: int, t_max: int) -> list[tuple[int, ...]]:
    """Multi-indices (t first) with |beta| <= k_max and beta_t <= t_max."""
    return [beta for beta in _multi_indices(k_max, 1 + s) if beta[0] <= t_max]


def graded_norms_upto(f: SepFunc, k_max: int, *, p: int | None = None) -> np.ndarray:
    """Vector of graded norms for k = 0..k_max in one sweep."""
    betas = graded_indices(k_max, f.domain.s, f.p if p is None else p)
    best = np.zeros(k_max + 1)
    for beta, vals in derivatives_on_grid(f, betas, norm_grid(f)):
        sup = sup_abs(vals)
        if not math.isfinite(sup):
            raise NonFiniteCoefficients("non-finite derivative values on norm grid")
        best[sum(beta):] = np.maximum(best[sum(beta):], sup)
    return best


def graded_norms_upper(f: SepFunc, k_max: int, *, p: int | None = None) -> np.ndarray:
    """Upper bounds on the graded norms for k = 0..k_max, from coefficients alone.

    D^beta f is a Chebyshev series, and |T_n| <= 1 on [-1, 1], so
    sup|D^beta f| <= S_beta, the sum of |c| over its coefficients (max over
    components).  The two roundoffs in computing S_beta are covered, with
    eps = 2^-52:

    - The derivative coefficients are computed.  One derivative step on an
      axis of n coefficients rounds at most K = 3n + 3 times on the way to
      any output, and its weights (numpy's chebder recurrence) are all
      nonnegative, so the step applied to |c| is the step's absolute-value
      matrix |D|.  By induction over the steps, the computed coefficients of
      D^beta f are within ((1 + K eps)^|beta| - 1) |D|^beta |c| of the exact
      ones, and the same chain run on |c| (no cancellation) computes
      |D|^beta |c| within a factor (1 + K eps)^|beta|.  With m = 2|beta| K eps
      <= 1/2, (1 + K eps)^(2|beta|) - 1 <= e^m - 1 < 1.65 m, so
      S_beta <= S_hat + 2m A_hat, where S_hat and A_hat are the two computed
      sums and K is taken at f's largest axis.
    - A float sum of N nonnegative terms is within a factor 1 + 0.51 N eps of
      the exact sum while N eps < 0.01, and the few roundings after the sums
      add at most 2 eps, so the factor 1 + 2 (N + 2) eps covers them.
    """
    betas = graded_indices(k_max, f.domain.s, f.p if p is None else p)
    per_comp = int(np.prod(f.coeffs.shape[1:]))
    eps = float(np.finfo(float).eps)
    K = 3 * max(f.coeffs.shape[1:]) + 3
    if per_comp * eps >= 0.01 or 2 * k_max * K * eps > 0.5:
        raise FuncSpaceError("too many coefficients or derivatives for the roundoff bound")
    derivative = _derivative_chain(f.coeffs, f.domain)
    derivative_abs = _derivative_chain(np.abs(f.coeffs), f.domain)
    best = np.zeros(k_max + 1)
    for beta in betas:
        s_hat = np.abs(derivative(beta)).reshape(f.m, -1).sum(axis=1)
        a_hat = derivative_abs(beta).reshape(f.m, -1).sum(axis=1)
        m = 2 * sum(beta) * K * eps
        bound = float(np.max(s_hat + 2 * m * a_hat)) * (1.0 + 2 * (per_comp + 2) * eps)
        if not math.isfinite(bound):
            raise NonFiniteCoefficients("non-finite coefficient sums")
        best[sum(beta):] = np.maximum(best[sum(beta):], bound)
    return best


def graded_norm(f: SepFunc, k: int) -> float:
    """Graded seminorm: sup over derivatives with |beta| <= k, beta_t <= f.p."""
    if k < 0:
        raise FuncSpaceError("norm index must be nonnegative")
    return float(graded_norms_upto(f, k)[k])


def joint_norm(f: SepFunc, k: int) -> float:
    """Jointly graded norm: no restriction on the time order (contrast norm)."""
    if k < 0:
        raise FuncSpaceError("norm index must be nonnegative")
    return float(graded_norms_upto(f, k, p=k)[k])


# ---------------------------------------------------------------------------
# Ball membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallRow:
    k: int
    distance: float
    radius: float
    within: bool


@dataclass(frozen=True)
class BallReport:
    rows: tuple[BallRow, ...]
    member: bool

    def to_json_dict(self) -> dict:
        return {
            "member": self.member,
            "rows": [
                {"k": r.k, "distance": r.distance, "radius": r.radius,
                 "within": r.within}
                for r in self.rows
            ],
        }


def ball_check(
    f: SepFunc,
    center: SepFunc,
    radii: Radii,
    k_max: int,
) -> BallReport:
    """Distances ||f - center||_k against r_k for k = 0..k_max."""
    f._check_compatible(center)
    norms = graded_norms_upto(f - center, k_max)
    rows = []
    for k in range(k_max + 1):
        r = radii.value(k)
        dist = float(norms[k])
        rows.append(BallRow(k, dist, r, bool(dist <= r)))
    return BallReport(tuple(rows), all(r.within for r in rows))
