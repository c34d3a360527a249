"""Shared test oracles: finite-difference derivatives, bisection roots, the
numpy formulas that Chebyshev derivatives, grid values, padding and trimming
must match bit for bit, the graded norms one multi-index at a time, the
whole-grid forms of the right-hand side, of eval_G and of residual that the
blocked ones must match bit for bit, random members of a ball around the
initial polynomial, products of functions in coefficient space, the
linear-class step in exact rational arithmetic, a quadrature of the literal
contraction-constant recursion, the refusal of an F without certified
Lipschitz factors, the problem-file format as a JSON Schema, and the callers
of a function outside the one module that should own it."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as cheb


def fornberg_weights(z: float, x: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at z on nodes x."""
    n = len(x)
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def fd_derivative(f, x0: float, order: int, h: float = 0.08, npts: int = 11) -> float:
    """High-order central finite-difference derivative of a scalar callable."""
    offsets = (np.arange(npts) - (npts - 1) / 2) * h
    nodes = x0 + offsets
    w = fornberg_weights(x0, nodes, order)
    return float(np.dot(w, [f(x) for x in nodes]))


def to_unit(pts, lo: float, hi: float) -> np.ndarray:
    """The affine map of [lo, hi] onto [-1, 1], in funcspace's operation order."""
    return (2.0 * np.asarray(pts) - lo - hi) / (hi - lo)


def chebder_partial(coeffs: np.ndarray, intervals, beta) -> np.ndarray:
    """D^beta of a coefficient tensor (m, n_t, n_x1, ...) by cheb.chebder, axis by axis.

    An order past the degree on any axis gives the degree-0 zero tensor.
    """
    if any(b > n - 1 for b, n in zip(beta, coeffs.shape[1:])):
        return np.zeros((coeffs.shape[0], *[1] * len(beta)))
    for axis, (order, (lo, hi)) in enumerate(zip(beta, intervals), start=1):
        if order:
            coeffs = cheb.chebder(coeffs, m=order, scl=1.0 / ((hi - lo) / 2.0), axis=axis)
    return coeffs


def tensordot_eval_grid(coeffs: np.ndarray, intervals, grids) -> np.ndarray:
    """Values of a coefficient tensor on the tensor grid of ``grids`` (t first).

    Per axis: chebvander at that axis's degree, contracted by tensordot with
    the axis moved to the front, then moved back.
    """
    out = coeffs
    for axis, (pts, (lo, hi)) in enumerate(zip(grids, intervals), start=1):
        V = cheb.chebvander(to_unit(pts, lo, hi), out.shape[axis] - 1)
        out = np.moveaxis(np.tensordot(V, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


def rowwise_eval_grid(coeffs: np.ndarray, intervals, grids) -> np.ndarray:
    """Values of a coefficient tensor on the tensor grid of ``grids`` (t first), row by row.

    The t axis is one np.dot on the whole t grid.  Then, for each component
    and each t-row, the x axes are contracted in order by np.dot of 2-D
    arrays: V_i times each (n_i, later coefficients) matrix on every axis
    but the last, and the (earlier grid points, n_s) matrix times V_s.T on
    the last.  Every Vandermonde matrix is chebvander at the tensor's degree.
    With at most one x axis the grid is evaluated whole, by
    tensordot_eval_grid.
    """
    if coeffs.ndim <= 3:
        return tensordot_eval_grid(coeffs, intervals, grids)
    m, n_t, *sizes = coeffs.shape
    V_t, *V_x = [cheb.chebvander(to_unit(pts, lo, hi), n - 1)
                 for pts, (lo, hi), n in zip(grids, intervals, coeffs.shape[1:])]
    flat = np.moveaxis(coeffs, 1, 0).reshape(n_t, -1)
    t_vals = np.dot(V_t, flat).reshape(len(V_t), m, *sizes)
    grid = [len(V) for V in V_x]
    out = np.empty((m, len(V_t), *grid))
    for c in range(m):
        for r in range(len(V_t)):
            w = t_vals[r, c]
            for i, V in enumerate(V_x[:-1]):
                w = w.reshape(-1, sizes[i], int(np.prod(sizes[i + 1:])))
                w = np.array([np.dot(V, part) for part in w])
            w = np.dot(w.reshape(-1, sizes[-1]), V_x[-1].T)
            out[c, r] = w.reshape(grid)
    return out


def chain_graded_norms(f, k_max: int, *, p: int | None = None) -> np.ndarray:
    """Graded norms for k = 0..k_max, one multi-index at a time.

    For each beta of graded_indices, the sup over norm_grid(f) of
    grid_derivatives' values of D^beta f, whose coefficients come from the
    derivative chain, one cheb_derivative step per multi-index.
    """
    from picard_lod import funcspace as fs

    betas = fs.graded_indices(k_max, f.domain.s, f.p if p is None else p)
    best = np.zeros(k_max + 1)
    for beta, vals in fs.grid_derivatives(f)(betas, fs.norm_grid(f)):
        best[sum(beta):] = np.maximum(best[sum(beta):], fs.sup_abs(vals))
    return best


def np_pad_to_common(*arrays: np.ndarray) -> list[np.ndarray]:
    """Zero-pad every array at the end of each axis to their common shape, by np.pad."""
    shape = tuple(max(sizes) for sizes in zip(*(a.shape for a in arrays)))
    return [np.pad(a, [(0, s - n) for s, n in zip(shape, a.shape)]) for a in arrays]


def whole_grid_rhs(problem, y, pts) -> np.ndarray:
    """The right-hand side composed with y on the whole tensor grid of pts, one new array.

    Every placeholder's derivative and every expression is evaluated on the
    whole grid at once, and the expressions' values are stacked.
    """
    from picard_lod import funcspace as fs
    from picard_lod.expr import placeholder_key

    shape = tuple(len(g) for g in pts)
    bindings = fs.grid_bindings(pts)
    phs = problem.rhs_class.placeholders
    derivs = fs.grid_derivatives(y)([(ph.gamma, *ph.alpha) for ph in phs], pts)
    for ph, (_, vals) in zip(phs, derivs):
        bindings[placeholder_key(ph)] = np.broadcast_to(vals[ph.comp - 1], shape)
    return fs.eval_on_grid(problem.rhs, bindings, shape)


def whole_grid_eval_G(problem, y):
    """eval_G from whole_grid_rhs: the interpolant of G at _g_degrees, with its tail."""
    from dataclasses import replace

    from picard_lod import funcspace as fs
    from picard_lod.picard_pde import _g_degrees

    degrees = _g_degrees(problem, y)
    vals = whole_grid_rhs(problem, y, fs.chebyshev_nodes(problem.domain, degrees))
    out = fs.from_values(vals, problem.domain, problem.m, problem.p).trim()
    tail = 0.0
    arr = np.asarray(out.coeffs)
    scale = float(np.max(np.abs(arr))) or 1.0
    for axis in range(1, arr.ndim):
        if arr.shape[axis] - 1 >= degrees[axis - 1]:
            tail = max(tail, float(np.max(np.abs(np.take(arr, [-1], axis=axis)))) / scale)
    return replace(out, truncation=tail)


def whole_grid_residual(problem, y) -> tuple[float, tuple[float, ...]]:
    """(pde_residual, ic_residuals) of residual, each with its own grid_derivatives.

    The initial conditions are checked on the slice t = t0 of the residual
    grid; the defect d_t^d y - whole_grid_rhs is one array, reduced by
    sup_abs.
    """
    from picard_lod import funcspace as fs

    pts = fs.residual_grid(y)
    slice_pts = [np.array([problem.domain.t0]), *pts[1:]]
    zeros_x = [0] * problem.domain.s
    derivs = list(fs.grid_derivatives(y)([(j, *zeros_x) for j in range(problem.d)], slice_pts))
    [(_, lhs_vals)] = fs.grid_derivatives(y)([(problem.d, *zeros_x)], pts)
    defect = whole_grid_rhs(problem, y, pts)
    np.subtract(lhs_vals, defect, out=defect)
    bindings = fs.grid_bindings(slice_pts)
    shape = tuple(len(g) for g in slice_pts)
    ics = [fs.sup_abs(got - fs.eval_on_grid(row, bindings, shape))
           for row, (_, got) in zip(problem.initial, derivs)]
    return fs.sup_abs(defect), tuple(ics)


def ball_member(problem, radii, k_top: int, rng, theta: float, degrees=None):
    """i0 plus a random perturbation whose upper norms are theta * r_j at most, j <= k_top.

    The perturbation has the (t, x) ``degrees``, by default the problem's t
    degree d and x degrees, and its coefficient at Chebyshev indices i is
    standard normal times 2^-|i|.  graded_norms_upper bounds the true norms,
    so with theta <= 1 the result lies in the ball of ``radii`` around
    ``problem.i0``.
    """
    from picard_lod.funcspace import SepFunc, graded_norms_upper

    degrees = (problem.d, *problem.x_degrees) if degrees is None else degrees
    shape = tuple(n + 1 for n in degrees)
    raw = rng.standard_normal((problem.m, *shape)) * 0.5 ** np.indices(shape).sum(axis=0)
    pert = SepFunc(problem.domain, problem.m, problem.p, raw)
    upper = graded_norms_upper(pert, k_top)
    scale = min(radii.value(j) / upper[j] for j in range(k_top + 1))
    return problem.i0 + pert * (theta * scale)


def product_tx(f, g):
    """f * g for one-component SepFuncs on (t, x1), in coefficients: no interpolation, no aliasing.

    T_i T_k = (T_{i+k} + T_{|i-k|}) / 2 on the t axis and numpy's chebmul on
    the x axis, so each coefficient's roundoff is relative to the terms it sums.
    """
    from picard_lod.funcspace import SepFunc

    (a,), (b,) = f.coeffs, g.coeffs
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i, k in np.ndindex(a.shape[0], b.shape[0]):
        row = cheb.chebmul(a[i], b[k]) / 2
        for n in (i + k, abs(i - k)):
            out[n, :len(row)] += row
    return SepFunc(f.domain, 1, f.p, out[None])


def moveaxis_trim(coeffs: np.ndarray) -> np.ndarray:
    """The coefficients SepFunc.trim keeps, found axis by axis with moveaxis.

    Entries below 1e-14 times the largest become 0.0; then, per axis after
    the component axis, trailing slices with no nonzero entry are dropped,
    one np.any per slice, keeping at least one.  An all-zero tensor keeps
    its first coefficient on every such axis.
    """
    arr = np.array(coeffs)
    scale = np.max(np.abs(arr))
    if scale == 0:
        return arr[(slice(None), *([slice(0, 1)] * (arr.ndim - 1)))]
    arr[np.abs(arr) < 1e-14 * scale] = 0.0
    for axis in range(1, arr.ndim):
        mov = np.moveaxis(arr, axis, 0)
        n = mov.shape[0]
        while n > 1 and not np.any(mov[n - 1]):
            n -= 1
        arr = np.moveaxis(mov[:n], 0, axis)
    return arr


def _fraction_zeros(shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out.fill(Fraction(0))
    return out


def _fraction_chebder(c: np.ndarray, scl: Fraction) -> np.ndarray:
    """d/du of a Chebyshev series along axis 0, times scl.

    c'_{k-1} = c'_{k+1} + 2k c_k from the top down, then c'_0 is halved.
    """
    n = len(c)
    if n == 1:
        return _fraction_zeros(c.shape)
    der = _fraction_zeros((n + 1, *c.shape[1:]))
    for k in range(n - 1, 0, -1):
        der[k - 1] = der[k + 1] + 2 * k * c[k]
    der[0] = der[0] / 2
    return der[: n - 1] * scl


def _fraction_chebint(c: np.ndarray, lbnd: Fraction, scl: Fraction) -> np.ndarray:
    """The antiderivative along axis 0 that vanishes at u = lbnd, times scl.

    T_0 integrates to T_1, T_1 to T_2 / 4 and T_j, j >= 2, to
    T_{j+1} / (2(j+1)) - T_{j-1} / (2(j-1)).
    """
    n = len(c)
    out = _fraction_zeros((n + 1, *c.shape[1:]))
    out[1] = out[1] + c[0]
    if n > 1:
        out[2] = out[2] + c[1] / 4
    for j in range(2, n):
        out[j + 1] = out[j + 1] + c[j] / (2 * (j + 1))
        out[j - 1] = out[j - 1] - c[j] / (2 * (j - 1))
    t_prev, t_cur = Fraction(1), lbnd  # T_0(lbnd), T_1(lbnd)
    at_lbnd = out[0] + out[1] * lbnd
    for k in range(2, n + 1):
        t_prev, t_cur = t_cur, 2 * lbnd * t_cur - t_prev
        at_lbnd = at_lbnd + out[k] * t_cur
    out[0] = out[0] - at_lbnd
    return out * scl


def fraction_linear_step(P: np.ndarray, coef: np.ndarray, beta, d: int, intervals,
                         t0: float) -> np.ndarray:
    """I_d[p . D^beta coef] in exact rational arithmetic, as an object array of Fractions.

    ``P`` (m, m, n_p) holds the Chebyshev t-coefficients of p, ``coef`` a
    coefficient tensor (m, n_t, n_x1, ...) and ``intervals`` the (lo, hi) of
    t and of each x axis; every float is taken at its exact value.  The
    product T_a T_i = (T_{a+i} + T_{|a-i|}) / 2 is not cut at any degree.
    """
    to_fraction = np.vectorize(Fraction, otypes=[object])
    c, P = to_fraction(coef), to_fraction(P)
    for axis, (order, (lo, hi)) in enumerate(zip(beta, intervals), start=1):
        scl = 2 / (Fraction(hi) - Fraction(lo))
        c = np.moveaxis(c, axis, 0)
        for _ in range(order):
            c = _fraction_chebder(c, scl)
        c = np.moveaxis(c, 0, axis)
    m, _, n_p = P.shape
    n = c.shape[1]
    prod = _fraction_zeros((m, n_p + n - 1, *c.shape[2:]))
    for h in range(m):
        for l in range(m):
            for a in range(n_p):
                for i in range(n):
                    half = c[l, i] * P[h, l, a] / 2
                    prod[h, a + i] = prod[h, a + i] + half
                    prod[h, abs(a - i)] = prod[h, abs(a - i)] + half
    lo, hi = map(Fraction, intervals[0])
    lbnd, scl = (2 * Fraction(t0) - lo - hi) / (hi - lo), (hi - lo) / 2
    out = np.moveaxis(prod, 1, 0)
    for _ in range(d):
        out = _fraction_chebint(out, lbnd, scl)
    return np.moveaxis(out, 0, 1)


def _cumulative_trapezoid(f: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum((f[1:] + f[:-1]) * (h / 2.0), out=out[1:])
    return out


def _recursion_bar_trapezoid(lams, d: int, tbar: float, n_pts: int) -> float:
    tau_step = tbar / (n_pts - 1)
    env = np.ones(n_pts)
    for lam in reversed(lams):
        branches, cur = [], lam * env
        for _ in range(d):
            cur = _cumulative_trapezoid(cur, tau_step)
            branches.append(cur)
        env = np.max(branches, axis=0)
    return float(env[-1])


def recursion_bar(lams, d: int, tbar: float) -> float:
    """The literal recursion for LambdaBar_{k,n}, by quadrature on [0, Tbar].

    ``lams[i]`` is the factor Lambda_{k+iL} of level i, counted from the
    outermost.  From env = 1, each level, innermost first, has the branches
    lam * I^j env for j = 1..d, I the integral in tau from 0, and its env is
    their pointwise maximum; the result is the last env at tau = Tbar.  The
    trapezoid rule on 16,385 and 32,769 points is Richardson-extrapolated,
    which keeps the quadrature's own relative error below 1e-11 for n <= 30
    and Tbar <= 2.
    """
    coarse = _recursion_bar_trapezoid(lams, d, tbar, 16385)
    fine = _recursion_bar_trapezoid(lams, d, tbar, 32769)
    return (4.0 * fine - coarse) / 3.0


def bisection_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; requires a sign change on [lo, hi]."""
    flo = f(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return (lo + hi) / 2


# Frozen oracle values (computed with bisection_root before the build):
CUBIC_ROOT_005 = 0.049875928231106065  # x + x^3 = 0.05


# estimate_lipschitz's message for an F outside the certified classes
REFUSAL = ("Lipschitz factors need F linear, or a polynomial in the placeholders "
           "with constant coefficients and gamma + |alpha| <= L")


# The problem-file format of picard_lod.cli as a JSON Schema (draft 2020-12),
# the oracle that cli.load_problem's own reader is checked against: both
# accept the same files and name the same first violation.
PROBLEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "domain", "order", "rhs", "initial"],
    "properties": {
        "schema_version": {"const": 1},
        "domain": {
            "type": "object",
            "additionalProperties": False,
            "required": ["t0", "a", "b", "S"],
            "properties": {
                "t0": {"type": "number"},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "b": {"type": "number", "exclusiveMinimum": 0},
                "S": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
        "order": {
            "type": "object",
            "additionalProperties": False,
            "required": ["d", "p", "L"],
            "properties": {
                "d": {"type": "integer", "minimum": 1},
                "p": {"type": "integer", "minimum": 0},
                "L": {"type": "integer", "minimum": 0},
            },
        },
        "m": {"type": "integer", "minimum": 1},
        "rhs": {
            "oneOf": [
                {"type": "string"},
                {"type": "array", "items": {"type": "string"}, "minItems": 1},
            ]
        },
        "initial": {
            "type": "array",
            "minItems": 1,
            "items": {
                "oneOf": [
                    {"type": "string"},
                    {"type": "array", "items": {"type": "string"}, "minItems": 1},
                ]
            },
        },
        "params": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "growth": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["kind"],
                "properties": {
                    "kind": {
                        "enum": ["exponential", "analytic", "sigma", "free"]
                    },
                    "C": {"type": "number", "exclusiveMinimum": 0},
                    "sigma": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "radii": {
            "oneOf": [
                {"const": "infinite"},
                {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
            ]
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "n_max": {"type": "integer", "minimum": 1},
                "k_check": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                    "minItems": 1,
                },
                "degrees": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "x": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 0},
                        },
                    },
                },
                "seed": {"type": "integer", "minimum": 0},
                "residual_tol": {"type": "number", "exclusiveMinimum": 0},
                "certify_first": {"type": "boolean"},
            },
        },
    },
}


def callers_outside(module: str, callee: str) -> list[str]:
    """module.function (or module.<module>) of every call of callee in the
    package outside ``module``.py."""
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
        if path.stem != module:
            tree = ast.parse(path.read_text())
            callers += [f"{path.stem}.{fn}" for fn in calls(tree, "<module>")]
    return callers
