"""Generic engine for contractions with loss of derivatives.

Works over any graded space presented through callbacks: a seminorm family,
element arithmetic, and an iteration map.  Provides Weissinger-sum
certificates, whose every row and term ``weissinger_sum`` builds, the
iterate driver, a posteriori tail bounds and local inversion.

Verdicts are heuristic window tests over finitely many terms; the engine
never claims a proof, and every certificate records its window parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

__all__ = [
    "CONVERGED",
    "DIVERGING",
    "INCONCLUSIVE",
    "GradedCoreError",
    "GradedSpaceHandle",
    "LodConstants",
    "WeissingerRow",
    "LodCertificate",
    "TailBound",
    "IterationStop",
    "IterationResult",
    "weissinger_sum",
    "iterate_to_fixed_point",
    "a_posteriori_bound",
    "invert_locally",
    "series_verdict",
    "exp_or_inf",
]

CONVERGED = "converged"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"

DEFAULT_WINDOW = 10
DEFAULT_MARGIN = 0.05
DEFAULT_REL_FLOOR = 1e-14
PROBE_TOL = 1e-10  # right-inverse check S(D(v)) = v in invert_locally


class GradedCoreError(Exception):
    pass


def exp_or_inf(log_value: float) -> float:
    """exp of a log-scale term, or +inf where exp would overflow; NaN raises."""
    if math.isnan(log_value):
        raise GradedCoreError("NaN log-scale term")
    return math.exp(log_value) if log_value < 700 else math.inf


@dataclass
class GradedSpaceHandle:
    """A graded space presented by callbacks.

    ``seminorm(x, k)`` must be nondecreasing in k (spot-checked on iterates),
    ``sub`` gives element differences, ``P`` is the iteration map, and
    ``membership`` (optional) realises the requirement that iterates stay in
    the admissible set; when absent, membership is reported as unchecked.
    ``add`` is accepted for callers that describe a full vector space; the
    library never reads it.
    """

    seminorm: Callable[[Any, int], float]
    sub: Callable[[Any, Any], Any]
    add: Callable[[Any, Any], Any] | None = None
    P: Callable[[Any], Any] | None = None
    membership: Callable[[Any], bool] | None = None


# ---------------------------------------------------------------------------
# Contraction constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LodConstants:
    """Contraction constants alpha(k, n) with loss L per application.

    Kept in both scales: ``from_function`` takes alpha, ``from_log`` takes
    log alpha and reads alpha as exp_or_inf of it.  alpha(k, 0) is always 1
    regardless of the underlying rule; a zero constant (a map that does not
    depend on its argument) is allowed, with log alpha = -inf.
    """

    L: int
    _alpha: Callable[[int, int], float] = field(compare=False)
    _log_alpha: Callable[[int, int], float] = field(compare=False)

    def alpha(self, k: int, n: int) -> float:
        if n == 0:
            return 1.0
        a = float(self._alpha(k, n))
        if not a >= 0:
            raise GradedCoreError(f"alpha({k},{n}) must be nonnegative, got {a}")
        return a

    def log_alpha(self, k: int, n: int) -> float:
        return float(self._log_alpha(k, n)) if n else 0.0

    @classmethod
    def from_function(cls, L: int, fn: Callable[[int, int], float]) -> "LodConstants":
        def log_fn(k: int, n: int) -> float:  # NaN for a negative alpha: exp_or_inf refuses it
            a = float(fn(k, n))
            return math.log(a) if a > 0 else -math.inf if a == 0 else math.nan
        return cls(L, fn, log_fn)

    @classmethod
    def from_log(cls, L: int, log_fn: Callable[[int, int], float]) -> "LodConstants":
        return cls(L, lambda k, n: exp_or_inf(log_fn(k, n)), log_fn)


# ---------------------------------------------------------------------------
# Windowed series verdicts
# ---------------------------------------------------------------------------


def series_verdict(terms: Sequence[float]) -> tuple[str, float | None]:
    """Classify a nonnegative series from finitely many terms.

    Returns (verdict, ratio_estimate).  Converged needs the ratio estimate
    over the last DEFAULT_WINDOW terms below 1 - DEFAULT_MARGIN and a final
    term below DEFAULT_REL_FLOOR times the partial sum; strictly increasing
    terms over the window read as diverging.
    """
    terms = [float(t) for t in terms]
    if any(math.isnan(t) for t in terms):
        raise GradedCoreError("non-finite term in series")
    if not terms:
        raise GradedCoreError("empty series")
    if all(t == 0.0 for t in terms):
        return CONVERGED, 0.0
    w = terms[-min(DEFAULT_WINDOW, len(terms)):]
    total = math.fsum(t for t in terms if not math.isinf(t))
    if any(math.isinf(t) for t in terms):
        # overflowing terms: only a divergence reading is meaningful
        if len(w) >= 2 and all(w[i + 1] >= w[i] for i in range(len(w) - 1)):
            return DIVERGING, math.inf
        return INCONCLUSIVE, math.inf
    ratios = [
        w[i + 1] / w[i] for i in range(len(w) - 1) if w[i] > 0 and w[i + 1] > 0
    ]
    ratio_est = max(ratios) if ratios else 0.0
    if all(t == 0.0 for t in w):
        return CONVERGED, 0.0
    if ratio_est < 1.0 - DEFAULT_MARGIN and w[-1] <= DEFAULT_REL_FLOOR * max(total, 0.0):
        return CONVERGED, ratio_est
    if len(w) >= 2 and all(w[i + 1] > w[i] for i in range(len(w) - 1)):
        return DIVERGING, ratio_est
    return INCONCLUSIVE, ratio_est


@dataclass(frozen=True)
class WeissingerRow:
    """Per-k Weissinger data: terms alpha(k,n) * ||P(y0)-y0||_{k+nL}."""

    k: int
    terms: tuple[float, ...]
    verdict: str
    ratio_estimate: float | None
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def partial_sums(self) -> tuple[float, ...]:
        out, acc = [], 0.0
        for t in self.terms:
            acc += t
            out.append(acc)
        return tuple(out)

    def tail_bound(self, n: int) -> "TailBound":
        """Tail sum from index n, geometrically extrapolated past the data."""
        if self.verdict != CONVERGED:
            raise GradedCoreError(
                "a posteriori tail requested on a non-converged row"
            )
        finite = math.fsum(self.terms[n:])
        extr = 0.0
        if len(self.terms) >= 2:
            t_last, t_prev = self.terms[-1], self.terms[-2]
            if t_last > 0 and t_prev > 0:
                r = t_last / t_prev
                if r < 1.0:
                    extr = t_last * r / (1.0 - r)
        return TailBound(finite + extr, finite, extr)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "terms": list(self.terms),
            "partial_sums": list(self.partial_sums),
            "verdict": self.verdict,
            "ratio_estimate": self.ratio_estimate,
            "window": DEFAULT_WINDOW,
            "margin": DEFAULT_MARGIN,
            "rel_floor": DEFAULT_REL_FLOOR,
            "meta": self.meta,
        }


@dataclass(frozen=True)
class TailBound:
    """Finite partial tail plus a geometric extrapolation of the remainder.

    Only the finite part is a bound from computed terms; a nonzero
    extrapolated part makes the total an estimate.
    """

    value: float
    finite_part: float
    extrapolated_part: float

    @property
    def is_estimate(self) -> bool:
        return self.extrapolated_part > 0.0

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class LodCertificate:
    rows: tuple[WeissingerRow, ...]
    verdict: str
    meta: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_rows(cls, rows: Sequence[WeissingerRow], meta: dict | None = None) -> "LodCertificate":
        rows = tuple(rows)
        if any(r.verdict == DIVERGING for r in rows):
            verdict = DIVERGING
        elif rows and all(r.verdict == CONVERGED for r in rows):
            verdict = CONVERGED
        else:
            verdict = INCONCLUSIVE
        return cls(rows, verdict, meta or {})

    def row(self, k: int) -> WeissingerRow:
        for r in self.rows:
            if r.k == k:
                return r
        raise GradedCoreError(f"no certificate row for k={k}")

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rows": [r.to_json_dict() for r in self.rows],
            "meta": self.meta,
        }


def weissinger_sum(
    constants: LodConstants,
    increment_norms: Callable[[int], float],
    k: int,
    n_max: int,
    *, meta: dict | None = None, log_norms: bool = False,
) -> WeissingerRow:
    """Terms alpha(k,n) * ||P(y0)-y0||_{k+nL}, n <= n_max, with their verdict.

    ``increment_norms`` maps the index k + nL to the increment's norm, or
    with ``log_norms`` to its log.  One term rule: a zero increment gives a
    zero term, whatever the constant (inf * 0 would be NaN); otherwise the
    term is the plain product while alpha and the norm are finite, and past
    that, or for a log norm, exp_or_inf(log alpha + log norm).
    """
    terms = []
    for n in range(n_max + 1):
        inc = float(increment_norms(k + n * constants.L))
        if math.isnan(inc) or (inc < 0 and not log_norms):
            raise GradedCoreError(f"invalid increment norm at index {k + n * constants.L}")
        if inc == (-math.inf if log_norms else 0.0):
            terms.append(0.0)
            continue
        a = math.inf if log_norms else constants.alpha(k, n)  # a log norm stays in logs
        if a < math.inf and inc < math.inf:
            terms.append(a * inc)
        else:
            log_inc = inc if log_norms else math.log(inc)
            terms.append(exp_or_inf(constants.log_alpha(k, n) + log_inc))
    verdict, ratio = series_verdict(terms)
    return WeissingerRow(k, tuple(terms), verdict, ratio, {} if meta is None else meta)


def a_posteriori_bound(
    constants: LodConstants,
    increment_norms: Callable[[int], float],
    k: int,
    n: int,
    n_max: int,
) -> TailBound:
    """Tail bound on ||ybar - P^n(y0)||_k; requires a converged row."""
    row = weissinger_sum(constants, increment_norms, k, n_max)
    return row.tail_bound(n)


# ---------------------------------------------------------------------------
# Iterate driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterationStop:
    k_check: tuple[int, ...] = (0,)
    tol: float = 1e-12
    n_max: int = 100


@dataclass
class IterationResult:
    status: str  # "converged" | "inconclusive"
    candidate: Any
    n_steps: int
    increments: dict[int, list[float]]
    iterates: list[Any] | None
    membership: str  # "checked" | "unchecked"

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def iterate_to_fixed_point(
    space: GradedSpaceHandle,
    y0: Any,
    stop: IterationStop,
    *,
    store_iterates: bool = True,
) -> IterationResult:
    """Drive y, P(y), P^2(y), ... until increments fall below tolerance.

    Seminorm monotonicity in k is spot-checked on the first iterate; a
    supplied membership predicate is enforced at every step and its absence
    is reported rather than assumed.  A k named twice in ``stop.k_check`` is
    read once.
    """
    if space.P is None:
        raise GradedCoreError("the space handle carries no iteration map")
    ks = tuple(dict.fromkeys(stop.k_check))
    increments: dict[int, list[float]] = {k: [] for k in ks}
    iterates = [y0] if store_iterates else None
    membership = "checked" if space.membership is not None else "unchecked"
    if space.membership is not None and not space.membership(y0):
        raise GradedCoreError("membership predicate violated at n=0")
    y = y0
    status = INCONCLUSIVE
    n_done = 0
    for n in range(stop.n_max):
        y_next = space.P(y)
        if space.membership is not None and not space.membership(y_next):
            raise GradedCoreError(f"membership predicate violated at n={n + 1}")
        diff = space.sub(y_next, y)
        step = {}
        for k in ks:
            v = float(space.seminorm(diff, k))
            if math.isnan(v) or math.isinf(v):
                raise GradedCoreError(f"non-finite seminorm at n={n + 1}, k={k}")
            step[k] = v
            increments[k].append(v)
        if n == 0 and len(ks) >= 2:
            ordered = [step[k] for k in sorted(ks)]
            if any(a > b * (1 + 1e-9) + 1e-300 for a, b in zip(ordered, ordered[1:])):
                raise GradedCoreError("seminorms are not nondecreasing in k")
        if store_iterates:
            iterates.append(y_next)
        y = y_next
        n_done = n + 1
        if max(step.values()) < stop.tol:
            status = CONVERGED
            break
    return IterationResult(status, y, n_done, increments, iterates, membership)


# ---------------------------------------------------------------------------
# Local inversion
# ---------------------------------------------------------------------------


@dataclass
class InversionRow:
    k: int
    alpha: float
    r: float
    r_bar: float      # r_bar_{k+L_D}
    contraction_step: float  # alpha_k r_{k+L} + delta_{k+L_D} r_bar_{k+L_D}
    maps_ball: bool   # contraction_step <= r_{k+L} <= r_k


@dataclass
class InversionResult:
    solution: Any
    iteration: IterationResult
    rows: list[InversionRow]
    residual: dict[int, float]


def invert_locally(
    space_x: GradedSpaceHandle,
    space_y: GradedSpaceHandle,
    f: Callable[[Any], Any],
    D: Callable[[Any], Any],
    S: Callable[[Any], Any],
    x0: Any,
    y: Any,
    radii: "Radii | Callable[[int], float]",
    alpha_k: Callable[[int], float],
    delta_k: Callable[[int], float],
    L: int,
    L_D: int,
    stop: IterationStop,
) -> InversionResult:
    """Solve f(x) = y near x0 by iterating P_y(x) = x - D[f(x) - y].

    The right-inverse property S(D(v)) = v is verified to PROBE_TOL on the
    probe vectors y and f(x0); each checked alpha_k must be < 1 so that the
    derived radii r_bar stay positive, and every iterate is kept inside the
    ball of the given radii.  A k named twice in ``stop.k_check`` is read
    once.
    """
    r_of = radii.value if hasattr(radii, "value") else radii
    ks = tuple(dict.fromkeys(stop.k_check))

    fx0 = f(x0)
    for v in (y, fx0):
        back = S(D(v))
        for k in ks:
            err = float(space_y.seminorm(space_y.sub(back, v), k))
            if err > PROBE_TOL:
                raise GradedCoreError(
                    f"S is not a right inverse of D on a probe (k={k}, err={err:.3e})"
                )

    rows = []
    for k in ks:
        a = float(alpha_k(k))
        if not a < 1.0:
            raise GradedCoreError(
                f"alpha_{k}={a} >= 1: derived radii r_bar would be nonpositive"
            )
        r_k = float(r_of(k))
        r_kL = float(r_of(k + L))
        dlt = float(delta_k(k + L_D))
        r_bar = r_kL * (1.0 - a) / dlt
        step = a * r_kL + dlt * r_bar
        tol = 1 + 1e-12
        rows.append(InversionRow(
            k, a, r_k, r_bar, step,
            step <= r_kL * tol and r_kL <= r_k * tol,
        ))

    for row in rows:
        gap = float(space_y.seminorm(space_y.sub(y, fx0), row.k + L_D))
        if gap > row.r_bar * (1 + 1e-12):
            raise GradedCoreError(
                f"target y outside the admissible ball at k={row.k + L_D}: "
                f"|y - f(x0)| = {gap:.6e} > r_bar = {row.r_bar:.6e}"
            )

    def P(x: Any) -> Any:
        return space_x.sub(x, D(space_y.sub(f(x), y)))

    def member(x: Any) -> bool:
        for k in ks:
            if float(space_x.seminorm(space_x.sub(x, x0), k)) > r_of(k) * (1 + 1e-12):
                return False
        return True

    handle = replace(space_x, P=P, membership=member)
    try:
        iteration = iterate_to_fixed_point(handle, x0, stop)
    except GradedCoreError as exc:
        raise GradedCoreError(f"iterate escaped the ball: {exc}") from exc

    sol = iteration.candidate
    residual = {
        k: float(space_y.seminorm(space_y.sub(f(sol), y), k)) for k in ks
    }
    return InversionResult(sol, iteration, rows, residual)
