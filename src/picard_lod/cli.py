"""Command-line surface: solve, certify, series, compare and demo runs.

Problem files are JSON documents validated against a published schema;
reports are JSON plus a comma-separated iterate-norm table.  Identical
problem file + flags + seed produce byte-identical report files (timings
go to stderr only).

Exit codes: 0 converged, 1 error, 2 diverging certificate, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

SCHEMA_VERSION = 1

PROBLEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "domain", "order", "rhs", "initial"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
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

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGING = 2
EXIT_INCONCLUSIVE = 3


def _load_json(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


class CliError(Exception):
    pass


@functools.cache
def _problem_validator():
    """Validator of PROBLEM_SCHEMA, built once; a test checks the schema itself."""
    from jsonschema.validators import validator_for

    return validator_for(PROBLEM_SCHEMA)(PROBLEM_SCHEMA)


def _validate(doc: dict, path: Path) -> None:
    from jsonschema.exceptions import best_match

    exc = best_match(_problem_validator().iter_errors(doc))
    if exc is not None:
        loc = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise CliError(f"{path}: schema violation at {loc}: {exc.message}") from exc


def load_problem(path: Path):
    """Parse and validate a problem file into (problem, solve config)."""
    from .expr import Arity, ParseError, parse_expression
    from .funcspace import Domain, Radii
    from .linear_series import GrowthClass
    from .picard_pde import CauchyProblem, PicardError, SolveConfig

    doc = _load_json(path)
    _validate(doc, path)
    dom = Domain(
        doc["domain"]["t0"], doc["domain"]["a"], doc["domain"]["b"],
        tuple(tuple(iv) for iv in doc["domain"]["S"]),
    )
    order = doc["order"]
    m = doc.get("m", 1)
    params = doc.get("params", {})
    arity = Arity(dom.s, m, order["L"], order["p"])
    rhs_raw = doc["rhs"]
    rhs_list = [rhs_raw] if isinstance(rhs_raw, str) else list(rhs_raw)
    x_arity = Arity(dom.s, m, 0, 0)
    try:
        rhs = tuple(parse_expression(e, arity, params) for e in rhs_list)
        initial = []
        for row in doc["initial"]:
            row_list = [row] if isinstance(row, str) else list(row)
            initial.append(tuple(
                parse_expression(e, x_arity, params) for e in row_list
            ))
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    try:
        problem = CauchyProblem(
            dom, m, order["d"], order["p"], order["L"], rhs, tuple(initial)
        )
    except PicardError as exc:
        raise CliError(f"{path}: {exc}") from exc

    growth = None
    if "growth" in doc:
        growth = tuple(
            GrowthClass(g["kind"], g.get("C"), g.get("sigma"))
            for g in doc["growth"]
        )
    radii = Radii.infinite()
    if "radii" in doc and doc["radii"] != "infinite":
        radii = Radii.from_list(doc["radii"])

    sol = doc.get("solver", {})
    degrees = sol.get("degrees", {})
    x_deg = tuple(degrees["x"]) if "x" in degrees else None
    config = SolveConfig(
        radii=radii,
        k_check=tuple(sol.get("k_check", [0])),
        tol=sol.get("tol", 1e-10),
        n_max=sol.get("n_max", 10),
        certify_first=sol.get("certify_first", False),
        residual_tol=sol.get("residual_tol", 1e-7),
        x_degrees=x_deg,
        growth=growth,
        seed=sol.get("seed", 0),
    )
    return problem, config


def _write_report(out_dir: Path, stem: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.report.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_norms_csv(out_dir: Path, stem: str, increments: dict) -> Path:
    path = out_dir / f"{stem}.norms.csv"
    ks = sorted(increments)
    n_rows = max((len(v) for v in increments.values()), default=0)
    lines = ["n," + ",".join(f"k{k}" for k in ks)]
    for n in range(n_rows):
        cells = [str(n + 1)]
        for k in ks:
            vals = increments[k]
            cells.append(repr(vals[n]) if n < len(vals) else "")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


def _verdict_exit(verdict: str) -> int:
    from .graded_core import CONVERGED, DIVERGING

    if verdict == CONVERGED:
        return EXIT_OK
    if verdict == DIVERGING:
        return EXIT_DIVERGING
    return EXIT_INCONCLUSIVE


def cmd_solve(args: argparse.Namespace) -> int:
    from .graded_core import DIVERGING
    from .picard_pde import BallEscape, CertifiedDivergence, solve

    path = Path(args.file)
    problem, config = load_problem(path)
    if args.certify_first:
        config.certify_first = True
    if args.paper_mode:
        config.lambda_mode = "paper"
    out_dir = Path(args.out) if args.out else path.parent
    stem = path.stem
    t0 = time.perf_counter()
    try:
        report = solve(problem, config)
    except CertifiedDivergence as exc:
        payload = {
            "status": "diverging-certificate",
            "certificate": exc.certificate.to_json_dict(),
        }
        rp = _write_report(out_dir, stem, payload)
        print(f"diverging certificate; report: {rp}")
        return EXIT_DIVERGING
    except BallEscape as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    payload = report.to_json_dict()
    rp = _write_report(out_dir, stem, payload)
    np_ = _write_norms_csv(out_dir, stem, report.increments)
    elapsed = time.perf_counter() - t0
    print(f"status: {report.status}; report: {rp}; norms: {np_}", flush=True)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if report.converged:
        if report.residual_ok is False:
            print(
                "error: converged but the residual exceeds tolerance "
                "(representation degree looks insufficient)", file=sys.stderr,
            )
            return EXIT_ERROR
        return EXIT_OK
    cert = report.certificate
    if cert is not None and cert.verdict == DIVERGING:
        return EXIT_DIVERGING
    return EXIT_INCONCLUSIVE


def cmd_certify(args: argparse.Namespace) -> int:
    from .linear_series import burgers_demo
    from .picard_pde import estimate_and_certify

    path = Path(args.file)
    problem, config = load_problem(path)
    out_dir = Path(args.out) if args.out else path.parent
    mode = {"conservative": "recursion", "paper": "paper", None: None}[args.mode]
    # the quadratic y * d_x^mu y takes the dedicated divergence demo
    if problem.rhs_class.kind == "quadratic":
        cert = burgers_demo(problem, config.radii, tuple(config.k_check), args.nmax)
    else:
        cert = estimate_and_certify(
            problem, config.radii, tuple(config.k_check), args.nmax,
            growth=config.growth, mode=mode, x_degrees=config.x_degrees, seed=config.seed,
        )
    payload = cert.to_json_dict()
    rp = _write_report(out_dir, f"{path.stem}.certificate", payload)
    print(f"verdict: {cert.verdict}; certificate: {rp}")
    return _verdict_exit(cert.verdict)


def cmd_series(args: argparse.Namespace) -> int:
    from .linear_series import LinearProblem, LinearSeriesError, series_solution

    path = Path(args.file)
    problem, config = load_problem(path)
    out_dir = Path(args.out) if args.out else path.parent
    try:
        lp = LinearProblem.from_cauchy(problem)
    except LinearSeriesError as exc:
        print(
            f"error: this command needs the linear class "
            f"p(t)*Dx^mu Dt^gamma y + q: {exc}", file=sys.stderr,
        )
        return EXIT_ERROR
    sol, diag = series_solution(lp, args.terms, growth=config.growth)
    payload = {
        "terms": args.terms,
        "diagnostics": diag,
        "solution": sol.to_json_dict(),
    }
    rp = _write_report(out_dir, f"{path.stem}.series", payload)
    print(
        f"series written with {args.terms} terms "
        f"(last-term sup {diag['last_term_sup']:.3e}); report: {rp}"
    )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    import numpy as np

    from . import funcspace as fs
    from .linear_series import (
        LinearProblem, LinearSeriesError, picard_closed_form, series_solution,
    )
    from .picard_pde import X_DEGREE, apply_P, initial_polynomial, solve

    path = Path(args.file)
    problem, config = load_problem(path)
    out_dir = Path(args.out) if args.out else path.parent
    try:
        lp = LinearProblem.from_cauchy(problem)
    except LinearSeriesError as exc:
        print(f"error: comparison needs the linear class: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.against == "generic":
        n = args.terms
        x_deg = config.x_degrees or (X_DEGREE,) * problem.domain.s
        if len(set(x_deg)) > 1:  # the closed form takes one x degree for all axes
            raise CliError(
                f"compare --against generic needs equal x degrees, got {list(x_deg)}"
            )
        i0 = initial_polynomial(problem, x_deg)
        y = i0
        for _ in range(n):
            y = apply_P(problem, y, i0)
        cf = picard_closed_form(lp, n, x_degree=x_deg[0])
        pa, pb = fs.pad_to_common(y.coeffs, cf.coeffs)
        dev = float(np.max(np.abs(pa - pb)))
        payload = {"against": "generic", "n": n, "max_coefficient_deviation": dev}
    else:
        rep = solve(problem, config)
        sol, diag = series_solution(lp, args.terms, growth=config.growth)
        pts = fs.uniform_grid(problem.domain, fs.CHECK_GRID_POINTS)
        va = rep.candidate.eval_grid(pts[0], pts[1:])
        vb = sol.eval_grid(pts[0], pts[1:])
        dev = fs.sup_abs(va - vb)
        payload = {
            "against": "oracle",
            "terms": args.terms,
            "solve_status": rep.status,
            "max_grid_deviation": dev,
        }
    rp = _write_report(out_dir, f"{path.stem}.compare", payload)
    print(f"max deviation: {dev:.6e}; report: {rp}")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    from . import funcspace as fs
    from .linear_series import LinearSeriesError, example_catalog, series_solution

    out_dir = Path(args.out) if args.out else Path.cwd()
    try:
        case = example_catalog(args.case)
    except LinearSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sol, diag = series_solution(case.problem, args.terms)
    dom = case.problem.domain
    pts = fs.uniform_grid(dom, fs.CHECK_GRID_POINTS)
    vals = sol.eval_grid(pts[0], pts[1:])[0]
    grid = fs.grid_bindings(pts)
    oracle_vals = case.oracle(grid["t"], grid["x1"])
    dev = fs.sup_abs(vals - oracle_vals)
    payload = {
        "case": case.name,
        "note": case.note,
        "terms": args.terms,
        "oracle_distance": dev,
        "diagnostics": diag,
    }
    rp = _write_report(out_dir, f"demo_{case.name}", payload)
    print(f"case {case.name}: oracle distance {dev:.3e}; report: {rp}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picard-lod",
        description=(
            "Certified Picard iteration for smooth normal PDE Cauchy problems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the iteration and validate the result")
    p.add_argument("file")
    p.add_argument("--out", help="output directory (default: next to the input)")
    p.add_argument("--certify-first", action="store_true")
    p.add_argument("--paper-mode", action="store_true",
                   help="use the constant-factor closed form for the contraction constants")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("certify", help="emit the Weissinger certificate only")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--mode", choices=["conservative", "paper"], default=None)
    p.add_argument("--nmax", type=int, default=30)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("series", help="write the truncated series solution")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--terms", type=int, default=20)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("compare", help="cross-check the series against the generic path")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--against", choices=["oracle", "generic"], default="generic")
    p.add_argument("--terms", type=int, default=6)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("demo", help="run a catalog case end to end")
    p.add_argument("case")
    p.add_argument("--out")
    p.add_argument("--terms", type=int, default=20)
    p.set_defaults(fn=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # solver errors surface verbatim
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
