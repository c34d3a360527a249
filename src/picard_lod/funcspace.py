"""Separately regular functions on a time-space box as Chebyshev coefficient tensors.

A SepFunc stores, per component, a tensor of Chebyshev-series coefficients
over the time interval and each spatial interval (all affinely mapped to
[-1, 1]).  Differentiation and nested time integration act on
coefficients.  Every nested time integral from t0 (iterated_time_integral,
so the collocated Picard step and the forcing; LinearStep's step; the
Taylor factors (t - t0)^j / j! of the initial polynomial) is one banded
fold per order, _fold, whose columns come from a bounded per-process cache
keyed on the domain and the length.  Every derivative comes from one
derivative chain over coefficient arrays (_derivative_chain), one
cheb_derivative step per multi-index, with no SepFunc per derivative;
grid_derivatives evaluates them on grids, on the whole grid or on a block
of its t-rows, and partial_derivative wraps one in a SepFunc.  The graded
norms, which read every multi-index up to an order, sweep by derivative
Vandermonde matrices instead.  The linear class's step I_d[p . D^mu
d_t^gamma .] is coefficient arithmetic too: one LinearStep per problem, a
matrix in t built once and sliced.  Every grid evaluation is one _contract
call per axis; SepFunc.eval_grid and grid_derivatives go through
_grid_evaluator, whose values for a t-row do not depend on the block of
rows that computed them, bit for bit, so a large grid of two or more x
axes can be walked in blocks without holding a derivative at full size.
The graded seminorms take the sup of partial derivatives on a dense
sampling grid (the grid density is part of every reported norm), a lower
bound on the exact sup, and graded_norms_upper bounds them from above by
coefficient sums.  Every grid sup of the program is one sup_abs call, and
expressions see the coordinates of a tensor grid as open (broadcasting)
axes, from grid_bindings.  The Chebyshev-Vandermonde matrices of grid
evaluation and of values-to-coefficients fits come from bounded
per-process caches keyed on the exact points, and are read-only, since
every caller shares them.

Every sampling grid of the program is built here, and its sizes are
module constants, not options.  The norm grid (norm_grid) is the Chebyshev
extrema cos(j pi / N), j = 0..N, with N = GRID_PER_DEGREE * degree on each
axis, one midpoint on an axis of degree 0; the residual grid (residual_grid)
is equispaced, GRID_PER_DEGREE * degree + 1 points per axis and at least
RESIDUAL_GRID_MIN, since it samples the true p and q, which are not
polynomials; the comparison grids have CHECK_GRID_POINTS per axis, and
interpolation takes Chebyshev extrema at the degree.  A norm-grid sup is
still a lower end of the true sup: the true sup is at most the grid sup
times 1/cos(pi/8) = 1.082 per axis of positive degree (proved at
norm_grid), which is the factor an upper end will take.
"""

from __future__ import annotations

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
    "residual_grid",
    "grid_bindings",
    "eval_on_grid",
    "eval_components",
    "sup_abs",
    "sup_abs_blocks",
    "pad_to_common",
    "partial_derivative",
    "grid_derivatives",
    "iterated_time_integral",
    "cheb_derivative",
    "LinearStep",
    "graded_norm",
    "graded_norms_upto",
    "graded_norms_upper",
    "graded_indices",
    "joint_norm",
    "ball_check",
    "DEGREE_CAP",
]

DEGREE_CAP = 128
GRID_PER_DEGREE = 4
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
        ends = (self.t0, self.a, self.b, *self.t_interval, *(x for iv in S for x in iv))
        if not all(map(math.isfinite, ends)):
            raise FuncSpaceError("domain bounds must be finite")
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
    """Chebyshev-Vandermonde matrix of degree n - 1 at the n Chebyshev extrema, read-only."""
    V = cheb.chebvander(_nodes(n - 1), n - 1)
    V.setflags(write=False)
    return V


@lru_cache(maxsize=128)
def _grid_vander(raw: bytes, dtype: str, n: int) -> np.ndarray:
    """chebvander(u, n - 1), read-only, for the points u held in raw as dtype.

    Keyed on the exact points, so a hit returns the matrix that a fresh
    call would compute, bit for bit.
    """
    V = cheb.chebvander(np.frombuffer(raw, dtype=dtype), n - 1)
    V.setflags(write=False)
    return V


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


def _axis_vanders(f: SepFunc, pts: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The cached, read-only Chebyshev-Vandermonde matrix of each axis at f's degree on pts."""
    if len(pts) != 1 + f.domain.s:
        raise FuncSpaceError("grid rank does not match spatial dimension")
    vanders = []
    for u, iv, n in zip(pts, f.domain.intervals(), f.coeffs.shape[1:]):
        u = _to_unit(u, iv)
        vanders.append(_grid_vander(u.tobytes(), u.dtype.str, n))
    return vanders


def _contract(vals: np.ndarray, V: np.ndarray, axis: int, s: int) -> np.ndarray:
    """Axis ``axis`` (0 is t) of vals taken to grid values by V's leading columns, in one call.

    The t axis of (m, n, n1, ..., ns) is one np.dot on the whole t grid,
    into (T, m, n1, ..., ns); with one x axis, (T, m, n1) goes to
    (T, m, X1) by one np.dot too.  With two or more, x axis i of
    (m, R, X1, ..., n_i, ..., ns) ((R, m, ...) for i = 1) is one np.matmul
    over (component, t-row, earlier x) slices whose shape does not depend
    on R, into a new C-ordered array.
    """
    if axis == 0:
        m, n, *sizes = vals.shape
        flat = vals.transpose(1, 0, *range(2, vals.ndim)).reshape(n, -1)
        return np.dot(V[:, :n], flat).reshape(len(V), m, *sizes)
    if s == 1:
        T, m, n = vals.shape
        flat = vals.transpose(2, 1, 0).reshape(n, -1)
        return np.dot(V[:, :n], flat).reshape(-1, m, T).transpose(2, 1, 0)
    if axis == 1:
        vals = vals.swapaxes(0, 1)
    m, R, *shape = vals.shape
    n, earlier = shape[axis - 1], math.prod(shape[:axis - 1])
    if axis < s:
        later = math.prod(shape[axis:])
        out = np.matmul(V[:, :n], vals.reshape(m, R, earlier, n, later),
                        out=np.empty((m, R, earlier, len(V), later)))
    else:
        out = np.matmul(vals.reshape(m, R, earlier, n), V[:, :n].T,
                        out=np.empty((m, R, earlier, len(V))))
    return out.reshape(m, R, *shape[:axis - 1], len(V), *shape[axis:])


def _grid_evaluator(
    f: SepFunc, pts: Sequence[np.ndarray]
) -> Callable[..., np.ndarray]:
    """evaluate(coeffs, rows=slice(None)): values on t-rows of the tensor grid of pts.

    coeffs is any coefficient tensor no larger than f's.  Each axis uses
    one Chebyshev-Vandermonde matrix at f's degree (_axis_vanders); a
    tensor of n coefficients on that axis uses its leading n columns, which
    the recurrence builds in order, so they equal chebvander(u, n - 1) bit
    for bit.  Each axis is one _contract call.

    The t axis is contracted on the whole t grid in one gemm, of shape
    (t points, coefficients) by (coefficients, m * x coefficients).  Its
    output is small, and a tensor evaluated on several row blocks is
    contracted once: the evaluator keeps it while it lives.  The x axes are
    then contracted on the requested t-rows alone, in order, each by one
    np.matmul over stacked slices whose shapes do not depend on how many
    rows there are.  Every slice is one BLAS call of fixed shape, so the
    values of a t-row do not depend on the block that computed them, bit
    for bit, whatever the kernel's tiling.  The result is a new
    C-contiguous array, (m, rows, X1, ..., Xs), made with no transpose
    copies.  A grid of one x axis is small (at most 513^2 points), and a
    product per t-row would there be a gemv per row, about twice as slow as
    one gemm: its x axis is one gemm on the whole grid too, kept like the t
    contraction, and the result is a view of the whole-grid values,
    read-only for a block of rows.
    """
    V_t, *V_x = _axis_vanders(f, pts)
    s = len(V_x)
    kept: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def whole_grid(coeffs: np.ndarray) -> np.ndarray:
        """The contractions made on the whole grid, shape (T, m, n1, ..., ns) or (T, m, X1)."""
        hit = kept.get(id(coeffs))
        if hit is not None and hit[0] is coeffs:
            return hit[1]
        out = _contract(coeffs, V_t, 0, s)
        return _contract(out, V_x[0], 1, s) if s == 1 else out

    def evaluate(coeffs: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        part = whole_grid(coeffs)
        if rows != slice(None):
            kept[id(coeffs)] = (coeffs, part)
        out = part[rows]
        if s <= 1:
            out = out.swapaxes(0, 1)
            if rows != slice(None):
                out.flags.writeable = False  # later blocks read the kept values
            return out
        for axis, V in enumerate(V_x, start=1):
            out = _contract(out, V, axis, s)
        return out

    return evaluate


def pad_to_common(*arrays: np.ndarray) -> list[np.ndarray]:
    """Zero-pad every array at the end of each axis to their common shape.

    An array already at that shape is returned as it is, not copied.
    """
    shape = tuple(max(sizes) for sizes in zip(*(a.shape for a in arrays)))
    out = []
    for a in arrays:
        if a.shape != shape:
            padded = np.zeros(shape, dtype=a.dtype)
            padded[tuple(slice(n) for n in a.shape)] = a
            a = padded
        out.append(a)
    return out


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
        # each axis keeps up to its last index that holds a nonzero
        nonzero = np.nonzero(arr != 0)
        arr = arr[(slice(None), *(slice(int(i.max()) + 1) for i in nonzero[1:]))]
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

    ``degrees`` has one entry per axis (t first).
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
    return from_values(vals, dom, m, p)


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


def norm_grid(f: SepFunc) -> list[np.ndarray]:
    """Chebyshev extrema cos(j pi / N), j = 0..N, N = GRID_PER_DEGREE * degree per axis.

    An axis of degree 0 gets one point, its midpoint.  The grid sup of any
    D^beta f is a lower end of its sup, and the upper end is within a proven
    factor of it.  Let p have degree n >= 1 on [-1, 1] and N = 4n.  Then
    T(theta) = p(cos theta) is an even trigonometric polynomial of degree n,
    and by evenness and 2 pi-periodicity its values at the 2N angles
    j pi / N are its values at the N + 1 extrema, which include both ends.
    Every angle lies within pi / 2N of one of those angles.  Let |T| reach
    M = ||T|| = ||p|| at theta*, say T(theta*) = M > 0 (else take -p).  The
    van der Corput-Schaake inequality T'^2 + n^2 T^2 <= n^2 M^2 (Borwein &
    Erdelyi, Polynomials and Polynomial Inequalities, Springer 1995) says
    that g = arccos(T / M) changes no faster than n, so at the nearest node
    theta_j, g <= n pi / 2N = pi / 8 < pi / 2 and
    T(theta_j) >= M cos(n pi / 2N).  Hence
    ||p|| <= max_j |p(x_j)| / cos(n pi / 2N) <= max_j |p(x_j)| / cos(pi / 8),
    and the same holds for every derivative, whose degree is at most n.  On
    the tensor grid the factor applies axis by axis, since fixing the other
    coordinates leaves a polynomial in one variable, so
    sup|D^beta f| <= (1 / cos(pi / 8))^a * grid sup, with a the number of
    axes of positive degree: 1.082 per axis.  The computed grid values carry
    evaluation roundoff, which an upper end must add before the factor.
    """
    return chebyshev_nodes(f.domain, [GRID_PER_DEGREE * d for d in f.degrees])


def residual_grid(f: SepFunc) -> list[np.ndarray]:
    """Equispaced grid of GRID_PER_DEGREE * degree + 1 (at least RESIDUAL_GRID_MIN) per axis.

    The residual samples the true right-hand side and data, which are not
    polynomials, so no grid factor applies to it and its grid stays dense.
    """
    return uniform_grid(
        f.domain, [max(RESIDUAL_GRID_MIN, GRID_PER_DEGREE * deg + 1) for deg in f.degrees]
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


def eval_components(exprs: Sequence[Expr], bindings: dict) -> list[np.ndarray]:
    """Values of each expression on the grid of ``bindings``, one float array per expression.

    Each array is as the expression gives it: on an open grid it spans only
    the axes the expression uses, and it broadcasts to the grid.  Nothing
    is broadcast, stacked or copied, so a caller that takes one component
    at a time (a difference, a store into its own array) reads each value
    once.
    """
    return [np.asarray(eval_expr(e, bindings), dtype=float) for e in exprs]


def eval_on_grid(
    exprs: Sequence[Expr], bindings: dict, shape: tuple[int, ...]
) -> np.ndarray:
    """Values of each expression on a grid of ``shape``, stacked on a leading axis.

    The stack copies every value of eval_components once more; a caller that
    takes the components one at a time uses eval_components itself.
    """
    return np.stack([np.broadcast_to(v, shape) for v in eval_components(exprs, bindings)])


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


def sup_abs_blocks(blocks: Iterable[np.ndarray]) -> float:
    """sup_abs of the concatenation of blocks, bit for bit, one block at a time.

    Each block gives its max and its min; sup_abs of the array of these
    extremes is sup_abs of all the values, since the largest extreme is the
    largest value and the smallest the smallest.  A NaN in any block makes
    its extremes NaN and propagates through sup_abs, wherever it sits; a
    Python max over the extremes would depend on their order.  A block is
    released before the next is drawn, so blocks made on demand never
    coexist.
    """
    extremes = []
    for b in blocks:
        extremes += np.max(b), np.min(b)
        del b
    return sup_abs(np.array(extremes))


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
    coef itself.
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


@lru_cache(maxsize=64)
def _fold_columns(domain: Domain, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of _fold on domain's T, for folds whose results have t-length n at most.

    One fold is the banded matrix that takes T_0 to scl T_1, T_1 to
    scl T_2 / 4 and T_j, j >= 2, to scl (T_{j+1} / (2(j+1)) -
    T_{j-1} / (2(j-1))), scl the half-width of T.  Returned are its two
    nonzero diagonals, ``below`` (entry j at row j + 1, column j) and
    ``above`` (entry k at row k, column k + 1; above[0] is 0, so row 0 is
    zero), each of length n - 1, and T_0(u0), ..., T_{n-1}(u0) by the
    three-term recurrence (exact at u0 in {0, +-1}), u0 the image of t0 in
    [-1, 1].  All three are columns (shape (length, 1)), to scale the t-rows
    of a (component, t, rest) array.  Every caller shares them, so they are
    read-only.
    """
    lo, hi = domain.t_interval
    scl = (hi - lo) / 2
    j = np.arange(n - 1, dtype=float)
    below = scl / (2 * j + 2)
    below[0] = scl
    above = np.zeros(n - 1)
    above[1:] = -scl / (2 * j[1:])
    u0 = (2 * domain.t0 - lo - hi) / (hi - lo)
    at_u0 = [1.0, u0]
    for _ in range(n - 2):
        at_u0.append(2 * u0 * at_u0[-1] - at_u0[-2])
    columns = below, above, np.array(at_u0[:n])
    for col in columns:
        col.setflags(write=False)
    return tuple(col[:, None] for col in columns)


def _fold(c: np.ndarray, columns: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """One fold of the integral from t0 of c, laid out (component, t, rest).

    The banded fold by ``columns`` (_fold_columns at the result's t-length
    or more), then the constant term minus sum_j T_j(u0) c_j, summed from
    the highest j down (a reversed cumulative sum along t).  A fold of the
    zero constant stays of length 1.  c is overwritten: it holds the fold's
    terms, so that a fold allocates only its result.
    """
    below, above, at_u0 = columns
    m, r, x = c.shape
    if r == 1 and not c.any():
        return np.zeros_like(c)
    out = np.empty((m, r + 1, x))
    np.multiply(below[:r], c, out=out[:, 1:])
    c[:, 2:] *= above[1 : r - 1]
    out[:, 1 : r - 1] += c[:, 2:]
    np.multiply(at_u0[r:0:-1], out[:, :0:-1], out=c)
    out[:, 0] = 0.0 - np.cumsum(c, axis=1, out=c)[:, -1]
    return out


class LinearStep:
    """I_d[p . D^mu d_t^gamma .] on coefficient tensors: the linear class's step.

    A problem has one, picard_pde.CauchyProblem.linear_step, built on first
    use; apply_P and both recursions of linear_series.mu_eta_recursions read
    it.  P holds p(t), an m-by-m matrix, as (row, column, t-coefficient).  A
    tensor is laid out as a SepFunc's coefficients: component, t, then the
    other axes, of which mu differentiates the leading ones by
    cheb_derivative (D^mu commutes with the step; its matrix rounds
    otherwise, and moved the reports past tools/rules/roundoff.json).  In t
    the step is linear, and the image of T_i does not depend on the input's
    length, so one matrix, sliced, serves every input: d_t^gamma, then p(t)
    through T_a T_i = (T_{a+i} + T_{|a-i|}) / 2 (Toeplitz plus Hankel), cut
    at DEGREE_CAP in t.  It is built at four times the t-length of the first
    input longer than it serves, and applied as one 2-D product over
    (component and t, everything else).  The d-fold integral from t0 is
    d calls of _fold, as in iterated_time_integral.
    """

    def __init__(self, domain: Domain, d: int, P: np.ndarray, gamma: int):
        self.domain, self.d, self.P, self.gamma = domain, d, P, gamma
        self._n = 0  # the longest input t-length the matrix serves

    def _rows(self, n: int) -> tuple[int, bool]:
        """The product's t-length for input t-length n, and whether DEGREE_CAP cut it."""
        full = self.P.shape[2] + max(n - self.gamma, 1) - 1
        return min(full, DEGREE_CAP + 1), full > DEGREE_CAP + 1

    def _build(self, n: int) -> None:
        lo, hi = self.domain.t_interval
        der = cheb_derivative(np.eye(n), self.gamma, scl=2.0 / (hi - lo))  # column i: d_t^gamma T_i
        m, _, n_p = self.P.shape
        k = len(der)
        i = np.arange(k)
        prod = np.zeros((m, m, n_p + k - 1, k))  # prod[h, l, r, i]: T_i of y_l into T_r of row h
        for a in range(n_p):
            half = self.P[:, :, a, None] / 2
            prod[:, :, a + i, i] += half
            prod[:, :, abs(a - i), i] += half
        rows, _ = self._rows(n)
        op = prod[:, :, :rows] if self.gamma == 0 else prod[:, :, :rows] @ der
        self._op = np.ascontiguousarray(op.transpose(0, 2, 1, 3))  # (h, r, l, i)
        self._n = n

    def __call__(self, coef: np.ndarray, mu: Sequence[int] = ()) -> tuple[np.ndarray, bool]:
        """The step of ``coef``, and whether DEGREE_CAP cut a degree of its product.

        The result ends at t-degree DEGREE_CAP + d at most.  Overflow raises
        NonFiniteCoefficients.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            for axis, (order, (lo, hi)) in enumerate(zip(mu, self.domain.S), start=2):
                coef = cheb_derivative(coef, order, scl=2.0 / (hi - lo), axis=axis)
            m, n, *rest = coef.shape
            if n > self._n:
                self._build(4 * n)
            rows, cut = self._rows(n)
            op = self._op[:, :rows, :, :n].reshape(m * rows, m * n)
            c = (op @ coef.reshape(m * n, -1)).reshape(m, rows, -1)
            columns = _fold_columns(self.domain, rows + self.d)
            for _ in range(self.d):
                c = _fold(c, columns)
        if not np.isfinite(c).all():
            raise NonFiniteCoefficients("non-finite coefficients")
        return c.reshape(m, -1, *rest), cut


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
    lives, and no longer: the chain is walked in a loop, so it holds no
    reference cycle that only the cyclic collector frees.  A step from a parent of one coefficient on the step axis gives
    the zero function, one zero coefficient per axis, built once.
    """
    built = {(0,) * (1 + domain.s): coeffs}
    zero = np.zeros((coeffs.shape[0], *[1] * (1 + domain.s)))
    scales = [1.0 / _halfwidth(iv) for iv in domain.intervals()]

    def derivative(beta: Sequence[int]) -> np.ndarray:
        beta = tuple(int(b) for b in beta)
        if len(beta) != 1 + domain.s or min(beta) < 0:
            raise FuncSpaceError(f"invalid multi-index {beta}")
        missing = []  # (beta, step axis), from beta down to its nearest built ancestor
        while beta not in built:
            axis = max(i for i, b in enumerate(beta) if b)
            missing.append((beta, axis))
            beta = tuple(b - (i == axis) for i, b in enumerate(beta))
        parent = built[beta]
        for beta, axis in reversed(missing):
            if parent.shape[1 + axis] == 1:
                parent = zero
            else:
                parent = cheb_derivative(parent, 1, scl=scales[axis], axis=1 + axis)
                if not np.all(np.isfinite(parent)):
                    raise NonFiniteCoefficients("non-finite coefficients")
            built[beta] = parent
        return parent

    return derivative


def grid_derivatives(
    f: SepFunc,
) -> Callable[..., Iterator[tuple[tuple[int, ...], np.ndarray]]]:
    """on_grid(betas, pts, rows=slice(None)): yields (beta, D^beta f on t-rows of the grid of pts).

    Every call shares one _derivative_chain, kept while the function lives,
    so a derivative that several betas or calls name, on one grid or on
    several, is built once.  The values are those of _grid_evaluator on
    ``rows``, which equal the same rows of a whole-grid evaluation bit for
    bit.  The evaluator of the last grid is kept, so calls that walk one
    grid block by block contract each derivative on t once, not once per
    block.
    """
    derivative = _derivative_chain(f.coeffs, f.domain)
    last: list = [None, None]

    def on_grid(
        betas: Iterable[Sequence[int]], pts: Sequence[np.ndarray], rows: slice = slice(None)
    ) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
        key = tuple((g.dtype.str, g.tobytes()) for g in map(np.asarray, pts))
        if last[0] != key:
            last[:] = key, _grid_evaluator(f, pts)
        evaluate = last[1]
        for beta in betas:
            beta = tuple(int(b) for b in beta)
            yield beta, evaluate(derivative(beta), rows)

    return on_grid


def iterated_time_integral(f: SepFunc, j: int) -> SepFunc:
    """The j-fold nested antiderivative from t0, one _fold at a time.

    Each fold rounds, so the coefficients are within roundoff of the exact
    integral's, not equal to them.
    """
    if j < 1:
        raise FuncSpaceError("fold count must be >= 1")
    if f.deg_t + j > DEGREE_CAP:
        raise FuncSpaceError(
            f"degree cap {DEGREE_CAP} exceeded by {j}-fold time integral"
        )
    m, n, *rest = f.coeffs.shape
    c = f.coeffs.reshape(m, n, -1).copy()
    columns = _fold_columns(f.domain, n + j)
    for _ in range(j):
        c = _fold(c, columns)
    return SepFunc(f.domain, f.m, f.p, c.reshape(m, -1, *rest))


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
    """Vector of graded norms for k = 0..k_max in one sweep over the norm grid.

    Per axis, V^(j) = V^(j-1)[:, :n-1] D holds d^j T_0, ..., d^j T_{n-1} on
    the grid, from the evaluator's V^(0) and cheb_derivative's one-step
    matrix D.  An explicit stack walks the multi-indices axis by axis, t
    first: each prefix (beta_t, beta_1, ...) is contracted once (_contract)
    and shared by its children, and the last axis takes one product, then
    its sup, per beta.  Orders past an axis's degree are skipped.  At
    beta = 0 the matrices and calls are the evaluator's, so every k = 0
    norm is its grid sup bit for bit.  Non-finite values raise
    NonFiniteCoefficients.
    """
    s, t_max = f.domain.s, f.p if p is None else p
    vanders = []  # per axis: V^(0), V^(1), ... up to the highest order swept
    for axis, (V, n, iv) in enumerate(zip(_axis_vanders(f, norm_grid(f)), f.coeffs.shape[1:],
                                          f.domain.intervals())):
        top = min(k_max, n - 1, t_max if axis == 0 else k_max)
        D = cheb_derivative(np.eye(n), 1, scl=1.0 / _halfwidth(iv)) if top else None
        orders = [V]
        for _ in range(top):
            orders.append((D.T @ orders[-1][:, :len(D)].T).T)  # column-major, as chebvander's
        vanders.append(orders)
    best = np.zeros(k_max + 1)
    # (beta through its last axis, the tensor contracted by beta's orders on the axes before it)
    stack = [((j,), f.coeffs) for j in reversed(range(len(vanders[0])))]
    while stack:
        beta, parent = stack.pop()
        axis, k = len(beta) - 1, sum(beta)
        vals = _contract(parent, vanders[axis][beta[-1]], axis, s)
        if axis < s:
            orders = range(min(k_max - k + 1, len(vanders[axis + 1])))
            stack += [((*beta, j), vals) for j in reversed(orders)]
            continue
        # vals stays bound while the next product is made: freed first, its
        # pages went back to the system, and came back as page faults
        sup = sup_abs(vals)
        if not math.isfinite(sup):
            raise NonFiniteCoefficients("non-finite derivative values on norm grid")
        best[k:] = np.maximum(best[k:], sup)
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
