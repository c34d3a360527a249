"""Workload definitions: problem files from a seed, command lists, output checks.

Every expected value here is computed by the benchmark itself (closed-form
solutions, a characteristic fixed point, the paper's constant formulas, a
quadrature of the contraction-constant recursion), never read back from a
stored program output.  Only numpy and the standard library are used, so
the checks share no code with ``picard_lod``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as cheb

PI = math.pi
WORKLOADS = ("burgers-1d", "linear-2d", "catalog-1d")

# tolerances of the checks (see README: each has orders of magnitude of margin)
SOLVE_TOL = 1e-7        # candidate vs exact solution, max over a grid
# heat: each Picard step differentiates the degree-24 data interpolant twice,
# which leaves up to 2.2e-7 near x = +-pi at t = Tbar (16 seeds measured)
HEAT_SOLVE_TOL = 1e-5
SERIES_TOL = 1e-9       # 20-term series vs exact solution
CERT_REL_TOL = 1e-8     # certificate terms vs the benchmark's own constants

CATALOG_NMAX = {1: 20, 2: 12}  # conservative certificate length per time order d


class CheckError(Exception):
    """An output that disagrees with the benchmark's independent computation."""


@dataclass
class Command:
    """One CLI invocation, the directory it writes to, and the check of its files."""

    argv: list[str]
    out: Path
    check: Callable[[Path], None]


@dataclass
class Workload:
    problems: dict[str, dict] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)

    def write_problems(self, problem_dir: Path) -> list[Path]:
        problem_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for stem, doc in self.problems.items():
            p = problem_dir / f"{stem}.json"
            p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            paths.append(p)
        return paths


# ---------------------------------------------------------------------------
# Reading program outputs with numpy only
# ---------------------------------------------------------------------------


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"{path.name}: unreadable report: {exc}") from exc


def _to_unit(pts: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (2.0 * pts - lo - hi) / (hi - lo)


def eval_sepfunc(data: dict, grids: list[np.ndarray]) -> np.ndarray:
    """Values of a serialized Chebyshev tensor (component 0) on a tensor grid."""
    dom = data["domain"]
    intervals = [(dom["t0"] - dom["a"], dom["t0"] + dom["b"]), *map(tuple, dom["S"])]
    shape = (data["m"], *[d + 1 for d in data["degrees"]])
    out = np.array(data["coeffs"], dtype=float).reshape(shape)[0]
    for axis, (pts, (lo, hi)) in enumerate(zip(grids, intervals)):
        V = cheb.chebvander(_to_unit(pts, lo, hi), out.shape[axis] - 1)
        out = np.moveaxis(np.tensordot(V, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


def _check_grid(doc: dict, n: int = 41) -> list[np.ndarray]:
    d = doc["domain"]
    return [
        np.linspace(d["t0"] - d["a"], d["t0"] + d["b"], n),
        *[np.linspace(lo, hi, n) for lo, hi in d["S"]],
    ]


def _compare(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
    err = float(np.max(np.abs(got - want)))
    if not err <= tol:
        raise CheckError(f"{name}: max deviation {err:.3e} from the exact solution > {tol:.0e}")


def _rel_compare(name: str, got: list[float], want: list[float], tol: float) -> None:
    if len(got) != len(want):
        raise CheckError(f"{name}: {len(got)} terms, expected {len(want)}")
    for n, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= tol * abs(w):
            raise CheckError(f"{name}: term {n} is {g!r}, expected {w!r} (rel tol {tol:.0e})")


# ---------------------------------------------------------------------------
# Exact solutions
# ---------------------------------------------------------------------------


def burgers_exact(A: float, phi: float, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Characteristic solution u = A sin(x - u t + phi) by fixed-point iteration."""
    u = A * np.sin(x + phi)
    for _ in range(200):
        nxt = A * np.sin(x - u * t + phi)
        if np.max(np.abs(nxt - u)) < 1e-15:
            return nxt
        u = nxt
    raise CheckError("characteristic fixed point did not converge")


def _solve_check(stem: str, doc: dict, exact: Callable, tol: float = SOLVE_TOL) -> Callable[[Path], None]:
    grids = _check_grid(doc)
    want = exact(*np.meshgrid(*grids, indexing="ij"))

    def check(out: Path) -> None:
        rep = _read_json(out / f"{stem}.report.json")
        if rep.get("status") != "converged":
            raise CheckError(f"{stem}: solve status {rep.get('status')!r}")
        if rep.get("residual_ok") is not True:
            raise CheckError(f"{stem}: residual_ok is {rep.get('residual_ok')!r}")
        _compare(f"{stem} solve", eval_sepfunc(rep["candidate"], grids), want, tol)

    return check


def _series_check(stem: str, doc: dict, exact: Callable) -> Callable[[Path], None]:
    grids = _check_grid(doc)
    want = exact(*np.meshgrid(*grids, indexing="ij"))

    def check(out: Path) -> None:
        rep = _read_json(out / f"{stem}.series.report.json")
        _compare(f"{stem} series", eval_sepfunc(rep["solution"], grids), want, SERIES_TOL)

    return check


# ---------------------------------------------------------------------------
# Contraction constants, computed apart from the program
# ---------------------------------------------------------------------------


def _logsumexp(vals: list[float]) -> float:
    hi = max(vals)
    return hi + math.log(sum(math.exp(v - hi) for v in vals))


def increment_log(lam: float, d: int, gamma: int, L: int, C: float, k: int, n: int) -> float:
    """log of the growth-model increment bound for exponential data, Q = 0, Tbar <= 1.

    ||y0j||_K <= C^K with K = k + (n+1)L, times ||p|| / (j - gamma + d)!.
    """
    K = k + (n + 1) * L
    return math.log(lam) + _logsumexp([
        K * math.log(C) - math.lgamma(j - gamma + d + 1) for j in range(gamma, d)
    ])


def paper_bar_log(lam: float, d: int, tbar: float, n: int) -> float:
    """log of the closed form Tbar^{nd}/(nd)! * Lambda^n (constant factors)."""
    return n * d * math.log(tbar) - math.lgamma(n * d + 1) + n * math.log(lam)


def _cumint(f: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum((f[1:] + f[:-1]) * (h / 2.0), out=out[1:])
    return out


def recursion_bar_quadrature(lam: float, d: int, tbar: float, n_max: int, n_pts: int) -> list[float]:
    """Literal nested-integral recursion by the trapezoid rule on a tau grid.

    Branch j at level n is lam times the j-fold integral from 0 of the
    pointwise maximum of the level n-1 branches; bar_n is the largest branch
    value at tau = Tbar.
    """
    h = tbar / (n_pts - 1)
    env = np.ones(n_pts)
    bars = [1.0]
    for _ in range(n_max):
        branches = []
        cur = env
        for _ in range(d):
            cur = _cumint(cur, h)
            branches.append(lam * cur)
        env = np.max(branches, axis=0)
        bars.append(float(max(b[-1] for b in branches)))
    return bars


def recursion_bar(lam: float, d: int, tbar: float, n_max: int) -> list[float]:
    """Richardson extrapolation of two trapezoid grids: O(h^4) accurate."""
    coarse = recursion_bar_quadrature(lam, d, tbar, n_max, 4097)
    fine = recursion_bar_quadrature(lam, d, tbar, n_max, 8193)
    return [(4.0 * f - c) / 3.0 for f, c in zip(fine, coarse)]


def _certificate_check(stem: str, expected_terms: list[float]) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        rep = _read_json(out / f"{stem}.certificate.report.json")
        if rep.get("verdict") != "converged":
            raise CheckError(f"{stem}: exponential-class certificate is {rep.get('verdict')!r}")
        rows = rep.get("rows") or []
        if len(rows) != 1 or rows[0].get("k") != 0:
            raise CheckError(f"{stem}: expected one certificate row for k = 0")
        _rel_compare(f"{stem} certificate", rows[0]["terms"], expected_terms, CERT_REL_TOL)

    return check


# ---------------------------------------------------------------------------
# Problem documents
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _doc(domain: dict, order: tuple[int, int, int], rhs: str, initial: list[str],
         params: dict, solver: dict, **extra) -> dict:
    d, p, L = order
    doc = {
        "schema_version": 1,
        "domain": domain,
        "order": {"d": d, "p": p, "L": L},
        "rhs": rhs,
        "initial": initial,
        "params": params,
        "solver": solver,
    }
    doc.update(extra)
    return doc


def burgers_1d(seed: int) -> Workload:
    rng = _rng("burgers-1d", seed)
    A = round(rng.uniform(0.45, 0.55), 6)
    phi = round(rng.uniform(0.0, 2.0 * PI), 6)
    wl = Workload()
    doc = _doc(
        {"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[-PI, PI]]}, (1, 0, 1),
        "-y1*Dx1(y1)", ["A*sin(x1+phi)"], {"A": A, "phi": phi},
        {"tol": 1e-10, "n_max": 30, "k_check": [0], "degrees": {"x": [16]},
         "seed": seed % 2**31, "residual_tol": 1e-7},
        radii=[1.0],
    )
    wl.problems["burgers"] = doc
    return wl


def linear_2d(seed: int) -> Workload:
    rng = _rng("linear-2d", seed)
    dom = {"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[-PI, PI], [-PI, PI]]}
    solver = {"tol": 1e-10, "n_max": 30, "k_check": [0], "degrees": {"x": [24, 24]},
              "seed": seed % 2**31, "residual_tol": 1e-7}
    wl = Workload()
    A = [round(rng.uniform(0.5, 1.0), 6) for _ in range(3)]
    ph = [round(rng.uniform(0.0, 2.0 * PI), 6) for _ in range(4)]
    wl.problems["cos_dx1dx1"] = _doc(
        dom, (1, 0, 2), "cos(t)*Dx1(Dx1(y1))", ["A*sin(x1+p1)*cos(x2+p2)"],
        {"A": A[0], "p1": ph[0], "p2": ph[1]}, solver)
    wl.problems["dx1dx2"] = _doc(
        dom, (1, 0, 2), "Dx1(Dx2(y1))", ["A*sin(x1+x2+p1)"],
        {"A": A[1], "p1": ph[2]}, solver)
    wl.problems["dx2dx2_forced"] = _doc(
        dom, (1, 0, 2), "Dx2(Dx2(y1))+x1", ["A*sin(x2+p1)"],
        {"A": A[2], "p1": ph[3]}, solver)
    return wl


CATALOG = {
    # case: (d, p, L, rhs, initial rows)
    "heat": (1, 0, 2, "a*Dx2(y1)", ["A*sin(x1+phi)"]),
    "wave": (2, 0, 2, "a*Dx2(y1)", ["A*sin(x1+phi)", "0"]),
    "transport": (1, 0, 1, "a*Dx(y1)", ["A*sin(x1+phi)"]),
    "mixed_dt_dx": (2, 1, 1, "a*Dt(Dx(y1))", ["0", "A*x1"]),
    "dt2_dx": (2, 0, 1, "a*Dx(y1)", ["A*x1^2", "0"]),
}


def linear_exact(stem: str, P: dict) -> Callable:
    if stem == "cos_dx1dx1":
        return lambda t, x1, x2: P["A"] * np.exp(-np.sin(t)) * np.sin(x1 + P["p1"]) * np.cos(x2 + P["p2"])
    if stem == "dx1dx2":
        return lambda t, x1, x2: P["A"] * np.exp(-t) * np.sin(x1 + x2 + P["p1"])
    return lambda t, x1, x2: P["A"] * np.exp(-t) * np.sin(x2 + P["p1"]) + x1 * t


def catalog_exact(case: str, a: float, A: float, phi: float) -> Callable:
    if case == "heat":
        return lambda t, x: A * np.exp(-a * t) * np.sin(x + phi)
    if case == "wave":
        return lambda t, x: A * np.cos(math.sqrt(a) * t) * np.sin(x + phi)
    if case == "transport":
        return lambda t, x: A * np.sin(x + phi + a * t)
    if case == "mixed_dt_dx":
        return lambda t, x: A * (x * t + a * t ** 2 / 2.0)
    return lambda t, x: A * (x ** 2 + a * x * t ** 2 + a ** 2 * t ** 4 / 12.0)


def catalog_1d(seed: int) -> Workload:
    rng = _rng("catalog-1d", seed)
    dom = {"t0": 0.0, "a": 0.25, "b": 0.25, "S": [[-PI, PI]]}
    wl = Workload()
    for case, (d, p, L, rhs, init) in CATALOG.items():
        # for d = 2 the cost of the conservative recursion depends on the
        # factor a itself (see README), so a stays fixed there
        a = round(rng.uniform(0.8, 1.2), 6) if d == 1 else 1.0
        A = round(rng.uniform(0.5, 1.5), 6)
        phi = round(rng.uniform(0.0, 2.0 * PI), 6)
        params = {"a": a, "A": A}
        if "phi" in rhs + "".join(init):
            params["phi"] = phi
        growth = [{"kind": "free"}] * p + [{"kind": "exponential", "C": 1.0}] * (d - p)
        wl.problems[case] = _doc(
            dom, (d, p, L), rhs, init, params,
            {"tol": 1e-10, "n_max": 30, "k_check": [0], "degrees": {"x": [24]},
             "seed": seed % 2**31, "residual_tol": 1e-7},
            growth=growth,
        )
    return wl


BUILDERS = {"burgers-1d": burgers_1d, "linear-2d": linear_2d, "catalog-1d": catalog_1d}


def build(name: str, seed: int, problem_dir: Path, out_dir: Path) -> Workload:
    """Write the workload's problem files and attach its commands and checks.

    Each command writes into a directory of its own, so that every report
    of an operation survives until it is checked.
    """
    wl = BUILDERS[name](seed)
    wl.write_problems(problem_dir)

    def add(stem: str, label: str, args: list[str], check: Callable[[Path], None]) -> None:
        out = out_dir / f"{stem}.{label}"
        argv = [args[0], str(problem_dir / f"{stem}.json"), "--out", str(out), *args[1:]]
        wl.commands.append(Command(argv, out, check))

    if name == "burgers-1d":
        doc = wl.problems["burgers"]
        A, phi = doc["params"]["A"], doc["params"]["phi"]
        add("burgers", "solve", ["solve"],
            _solve_check("burgers", doc, lambda t, x: burgers_exact(A, phi, t, x)))
    elif name == "linear-2d":
        for stem, doc in wl.problems.items():
            add(stem, "solve", ["solve"], _solve_check(stem, doc, linear_exact(stem, doc["params"])))
    else:
        for case, doc in wl.problems.items():
            d, gamma, L = doc["order"]["d"], doc["order"]["p"], doc["order"]["L"]
            P = doc["params"]
            exact = catalog_exact(case, P["a"], P["A"], P.get("phi", 0.0))
            tbar = max(doc["domain"]["a"], doc["domain"]["b"])
            nmax = CATALOG_NMAX[d]
            inc = [increment_log(P["a"], d, gamma, L, 1.0, 0, n) for n in range(31)]
            paper = [math.exp(paper_bar_log(P["a"], d, tbar, n) + inc[n]) for n in range(31)]
            if d == 1:
                # the two modes coincide for d = 1
                conservative = paper[: nmax + 1]
            else:
                bars = recursion_bar(P["a"], d, tbar, nmax)
                conservative = [b * math.exp(inc[n]) for n, b in enumerate(bars)]
            tol = HEAT_SOLVE_TOL if case == "heat" else SOLVE_TOL
            add(case, "solve", ["solve"], _solve_check(case, doc, exact, tol))
            add(case, "series", ["series", "--terms", "20"], _series_check(case, doc, exact))
            add(case, "paper", ["certify", "--mode", "paper"],
                _certificate_check(case, paper))
            add(case, "conservative", ["certify", "--mode", "conservative", "--nmax", str(nmax)],
                _certificate_check(case, conservative))
    return wl


def output_digests(wl: Workload) -> dict[str, str]:
    """SHA-256 of every file the commands wrote, keyed by relative path."""
    out = {}
    for cmd in wl.commands:
        for p in sorted(cmd.out.iterdir()):
            out[f"{cmd.out.name}/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def run_commands(cli, wl) -> tuple[list[int], str]:
    """One operation: every command of the workload through the CLI entry point."""
    sink = io.StringIO()
    codes = []
    with redirect_stdout(sink), redirect_stderr(sink):
        for cmd in wl.commands:
            codes.append(cli.main(list(cmd.argv)))
    return codes, sink.getvalue()


def check_outputs(wl: Workload, codes: list[int], log: str, reference: dict | None):
    """Commands that failed, outputs that are wrong, and the digests of the files written.

    ``reference`` holds the digests of an earlier operation on the same
    input; every report must be byte-identical to it.
    """
    crashed, wrong = [], []
    for cmd, rc in zip(wl.commands, codes):
        if rc != 0:
            crashed.append(f"{' '.join(cmd.argv[:2])}: exit code {rc}; output: {log[-500:]}")
            continue
        try:
            cmd.check(cmd.out)
        except CheckError as exc:
            wrong.append(str(exc))
    digests = output_digests(wl)
    if reference is not None and digests != reference:
        changed = sorted(k for k in digests if digests[k] != reference.get(k))
        wrong.append(f"reports differ from the first operation's: {changed}")
    return crashed, wrong, digests
