"""Command-line surface: solve, certify, series, compare and demo runs.

Problem files are JSON documents that ``load_problem`` reads key by key,
each with its type, bound and default (the README's "Problem files"
table); the first value that breaks them exits 1 with
"<file>: schema violation at <path>: <message>".  Reports are JSON plus a
comma-separated iterate-norm table.  Identical problem file + flags
produce byte-identical report files (timings go to stderr only).

The argument parser is built once per process, by the first ``main`` call,
and each command runs as the module's ``cmd_<command>`` looked up at that
call, so a function put in its place after import is the one that runs.
Every error leaves through ``main``: it prints "error: <message>" to
stderr and exits 1.

Exit codes: 0 converged, 1 error (a usage error included), 2 diverging
certificate, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import funcspace as fs
from .expr import Arity, ParseError, ReservedName, parse_expression
from .funcspace import Domain, FuncSpaceError, Radii
from .graded_core import CONVERGED, DIVERGING
from .linear_series import (
    GrowthClass, LinearProblem, LinearSeriesError, example_catalog, picard_closed_form,
    series_solution,
)
from .picard_pde import (
    CauchyProblem, CertifiedDivergence, PicardError, SolveConfig, apply_P, estimate_and_certify,
    solve,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGING = 2
EXIT_INCONCLUSIVE = 3

# the keys of a problem file; the first five are required
_TOP_KEYS = ("schema_version", "domain", "order", "rhs", "initial",
            "m", "params", "growth", "radii", "solver")
_SOLVER_KEYS = ("tol", "n_max", "k_check", "degrees", "seed", "residual_tol", "certify_first")
_GROWTH_KINDS = ["exponential", "analytic", "sigma", "free"]


def _load_json(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc

    def reject(name: str):  # json reads NaN, Infinity and -Infinity; JSON has no such numbers
        raise CliError(f"{path}: invalid JSON: {name} is not a finite number")

    def finite(text: str) -> float:  # 1e400 would read as inf
        value = float(text)
        return value if math.isfinite(value) else reject(text)

    try:
        return json.loads(text, parse_constant=reject, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


class CliError(Exception):
    pass


class _Violation(Exception):
    """A value that breaks the problem-file format: (path of keys and indices, message)."""


def _is(value, kind: str) -> bool:
    """JSON Schema's types: a bool is never a number, and an integral float is an integer."""
    if isinstance(value, bool):
        return kind == "boolean"
    if kind == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    types = {"number": (int, float), "string": str, "array": list, "object": dict, "boolean": bool}
    return isinstance(value, types[kind])


def _value(value, where: tuple, kind: str, low=None, *, above: bool = False):
    """``value`` checked to be of ``kind`` and >= low (> low if ``above``); an integer as int."""
    if not _is(value, kind):
        raise _Violation(where, f"{value!r} is not of type {kind!r}")
    if low is not None and (value <= low if above else value < low):
        relation = "less than or equal to" if above else "less than"
        raise _Violation(where, f"{value!r} is {relation} the minimum of {low!r}")
    return int(value) if kind == "integer" else value


def _get(obj: dict, where: tuple, key: str, kind: str, low=None, *, above: bool = False,
         default=None):
    """``obj[key]`` checked by _value, or ``default`` if the key is absent."""
    if key not in obj:
        return default
    return _value(obj[key], (*where, key), kind, low, above=above)


def _object(value, where: tuple, keys, required=()) -> dict:
    """``value`` checked to be an object with keys among ``keys`` (None: any) and ``required``."""
    value = _value(value, where, "object")
    extra = [] if keys is None else sorted((k for k in value if k not in keys), key=str)
    if extra:
        names = ", ".join(map(repr, extra))
        verb = "was" if len(extra) == 1 else "were"
        raise _Violation(where, f"Additional properties are not allowed ({names} {verb} unexpected)")
    for key in required:
        if key not in value:
            raise _Violation(where, f"{key!r} is a required property")
    return value


def _array(value, where: tuple, min_items: int = 0, max_items: int | None = None) -> list:
    """``value`` checked to be a list of min_items..max_items items."""
    value = _value(value, where, "array")
    if len(value) < min_items:
        raise _Violation(where, f"{value!r} " + (
            "should be non-empty" if min_items == 1 else "is too short"))
    if max_items is not None and len(value) > max_items:
        raise _Violation(where, f"{value!r} is too long")
    return value


def _items(value, where: tuple, kind: str, low=None, *, above: bool = False,
           min_items: int = 0, max_items: int | None = None) -> list:
    """``value`` checked by _array, and each of its items by _value."""
    return [_value(v, (*where, i), kind, low, above=above)
            for i, v in enumerate(_array(value, where, min_items, max_items))]


def _one_of(value, where: tuple, single, kind: str, low=None, *, above: bool = False):
    """``value`` if ``single(value)``, else a non-empty list of ``kind`` items (JSON Schema's oneOf)."""
    if single(value):
        return value
    if not isinstance(value, list):
        raise _Violation(where, f"{value!r} is not valid under any of the given schemas")
    return _items(value, where, kind, low, above=above, min_items=1)


def _expressions(value, where: tuple) -> list[str]:
    """A string or a non-empty list of strings, as a list."""
    value = _one_of(value, where, lambda v: isinstance(v, str), "string")
    return [value] if isinstance(value, str) else value


def load_problem(path: Path):
    """Read and check a problem file into (problem, solve config).

    Every key is read once, with its type, bound and default; the first
    value that breaks them raises CliError "<file>: schema violation at
    <path>: <message>", worded as JSON Schema words it.  All keys are
    checked before any expression is parsed.
    """
    doc = _load_json(path)
    try:
        doc = _object(doc, (), _TOP_KEYS, _TOP_KEYS[:5])
        if not (_is(doc["schema_version"], "number") and doc["schema_version"] == SCHEMA_VERSION):
            raise _Violation(("schema_version",), f"{SCHEMA_VERSION!r} was expected")
        domain = _object(doc["domain"], ("domain",), ("t0", "a", "b", "S"), ("t0", "a", "b", "S"))
        t0 = _get(domain, ("domain",), "t0", "number")
        a, b = (_get(domain, ("domain",), k, "number", 0, above=True) for k in "ab")
        S = [tuple(_items(iv, ("domain", "S", i), "number", min_items=2, max_items=2))
             for i, iv in enumerate(_array(domain["S"], ("domain", "S")))]
        order = _object(doc["order"], ("order",), ("d", "p", "L"), ("d", "p", "L"))
        d = _get(order, ("order",), "d", "integer", 1)
        p, L = (_get(order, ("order",), k, "integer", 0) for k in "pL")
        m = _get(doc, (), "m", "integer", 1, default=1)
        rhs = _expressions(doc["rhs"], ("rhs",))
        initial = [_expressions(row, ("initial", i)) for i, row in
                   enumerate(_array(doc["initial"], ("initial",), 1))]
        params = {k: _value(v, ("params", k), "number")
                  for k, v in _object(doc.get("params", {}), ("params",), None).items()}
        growth = None
        if "growth" in doc:
            growth = []
            for i, g in enumerate(_array(doc["growth"], ("growth",))):
                g = _object(g, ("growth", i), ("kind", "C", "sigma"), ("kind",))
                if g["kind"] not in _GROWTH_KINDS:
                    raise _Violation(("growth", i, "kind"),
                                     f"{g['kind']!r} is not one of {_GROWTH_KINDS!r}")
                C, sigma = (_get(g, ("growth", i), k, "number", 0, above=True)
                            for k in ("C", "sigma"))
                growth.append((g["kind"], C, sigma))
        radii = _one_of(doc.get("radii", "infinite"), ("radii",), lambda v: v == "infinite",
                        "number", 0, above=True)
        sol = _object(doc.get("solver", {}), ("solver",), _SOLVER_KEYS)
        degrees = _object(sol.get("degrees", {}), ("solver", "degrees"), ("x",))
        x_degrees = (_items(degrees["x"], ("solver", "degrees", "x"), "integer", 0)
                     if "x" in degrees else None)
        k_check = _items(sol.get("k_check", [0]), ("solver", "k_check"), "integer", 0, min_items=1)
        config = dict(
            k_check=tuple(k_check),
            tol=_get(sol, ("solver",), "tol", "number", 0, above=True, default=1e-10),
            n_max=_get(sol, ("solver",), "n_max", "integer", 1, default=10),
            certify_first=_get(sol, ("solver",), "certify_first", "boolean", default=False),
            residual_tol=_get(sol, ("solver",), "residual_tol", "number", 0, above=True,
                              default=1e-7),
        )
        # checked and ignored: no route draws random numbers
        _get(sol, ("solver",), "seed", "integer", 0)
    except _Violation as exc:
        where, message = exc.args
        raise CliError(
            f"{path}: schema violation at {'/'.join(map(str, where)) or '(root)'}: {message}"
        ) from None

    try:
        dom = Domain(t0, a, b, tuple(S))
        arity = Arity(dom.s, m, L, p)
        x_arity = Arity(dom.s, m, 0, 0)
        rhs = tuple(parse_expression(e, arity, params) for e in rhs)
        initial = tuple(tuple(parse_expression(e, x_arity, params) for e in row)
                        for row in initial)
        problem = CauchyProblem(dom, m, d, p, L, rhs, initial, x_degrees)
        if growth is not None:
            growth = tuple(GrowthClass(*g) for g in growth)
    except (FuncSpaceError, ParseError, ReservedName, PicardError, LinearSeriesError) as exc:
        raise CliError(f"{path}: {exc}") from exc
    radii = Radii.infinite() if radii == "infinite" else Radii.from_list(radii)
    return problem, SolveConfig(radii=radii, growth=growth, **config)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_float(v: float) -> str:
    """json's text of a float: its repr, or Infinity, -Infinity and NaN as json writes them."""
    if v != v:
        return "NaN"
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
        return "-Infinity"
    return float.__repr__(v)


def _json_key(key) -> str:
    """json's text of a dict key, before quoting; TypeError where json raises one."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True or key is False or key is None:
        return _JSON_CONSTANTS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_chunks(o, indent: str, out: list[str]) -> None:
    """Append the text of o, nested at ``indent``, to out, as json.dumps(indent=2, sort_keys=True).

    The checks run in json's order, so bools are not ints, a float subclass
    (np.float64) is a float, and anything else raises json's TypeError.  A
    list whose items are all floats is formatted by float.__repr__ and one
    str.join, at C speed; json's pure-Python encoder, which an indent
    selects, formats it item by item to the same bytes.
    """
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or o is True or o is False:
        out.append(_JSON_CONSTANTS[o])
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_json_float(o))
    elif isinstance(o, (list, tuple, dict)):
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        if isinstance(o, dict):
            out.append("{\n" + inner)
            for i, (key, value) in enumerate(sorted(o.items())):
                if i:
                    out.append(sep)
                out.append(encode_basestring_ascii(_json_key(key)) + ": ")
                _json_chunks(value, inner, out)
            out.append("\n" + indent + "}")
            return
        out.append("[\n" + inner)
        try:
            text = sep.join(map(float.__repr__, o))
        except TypeError:  # an item that is not a float
            for i, value in enumerate(o):
                if i:
                    out.append(sep)
                _json_chunks(value, inner, out)
        else:
            # only inf, -inf and nan have an "n" in their repr
            out.append(sep.join(map(_json_float, o)) if "n" in text else text)
        out.append("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _report_json(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte, by one recursive writer.

    json.dumps takes its pure-Python encoder when an indent is set, and
    leaves a reference cycle of closures per call; this writer builds no
    closure and formats float lists at C speed.  Unlike json it does not
    look for a container that holds itself, which recurses until Python's
    recursion limit.
    """
    out: list[str] = []
    _json_chunks(payload, "", out)
    return "".join(out)


def _write_report(out_dir: Path, stem: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.report.json"
    path.write_text(_report_json(payload) + "\n")
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


def _load(args: argparse.Namespace) -> tuple[CauchyProblem, SolveConfig, Path, str]:
    """The problem file of ``args``: (problem, config, output directory, file stem)."""
    path = Path(args.file)
    problem, config = load_problem(path)
    return problem, config, Path(args.out) if args.out else path.parent, path.stem


def _linear(problem: CauchyProblem, needs: str) -> LinearProblem:
    """``problem`` in the linear class, or CliError "<needs>: <why not>"."""
    try:
        return LinearProblem.from_cauchy(problem)
    except LinearSeriesError as exc:
        raise CliError(f"{needs}: {exc}") from exc


def cmd_solve(args: argparse.Namespace) -> int:
    problem, config, out_dir, stem = _load(args)
    if args.certify_first:
        config.certify_first = True
    if args.paper_mode:
        config.lambda_mode = "paper"
    t0 = time.perf_counter()
    try:
        report = solve(problem, config)
    except CertifiedDivergence as exc:
        rp = _write_report(out_dir, stem, {"status": "diverging-certificate",
                                           "certificate": exc.certificate.to_json_dict()})
        print(f"diverging certificate; report: {rp}")
        return EXIT_DIVERGING
    rp = _write_report(out_dir, stem, report.to_json_dict())
    np_ = _write_norms_csv(out_dir, stem, report.increments)
    elapsed = time.perf_counter() - t0
    print(f"status: {report.status}; report: {rp}; norms: {np_}", flush=True)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if report.converged:
        if report.residual_ok is False:
            raise CliError("converged but the residual exceeds tolerance "
                           "(representation degree looks insufficient)")
        return EXIT_OK
    cert = report.certificate
    if cert is not None and cert.verdict == DIVERGING:
        return EXIT_DIVERGING
    return EXIT_INCONCLUSIVE


def cmd_certify(args: argparse.Namespace) -> int:
    problem, config, out_dir, stem = _load(args)
    mode = {"conservative": "recursion", "paper": "paper", None: None}[args.mode]
    cert = estimate_and_certify(
        problem, config.radii, tuple(config.k_check), args.nmax,
        growth=config.growth, mode=mode,
    )
    rp = _write_report(out_dir, f"{stem}.certificate", cert.to_json_dict())
    print(f"verdict: {cert.verdict}; certificate: {rp}")
    return {CONVERGED: EXIT_OK, DIVERGING: EXIT_DIVERGING}.get(cert.verdict, EXIT_INCONCLUSIVE)


def cmd_series(args: argparse.Namespace) -> int:
    problem, config, out_dir, stem = _load(args)
    lp = _linear(problem, "this command needs the linear class p(t)*Dx^mu Dt^gamma y + q")
    sol, diag = series_solution(lp, args.terms, growth=config.growth)
    payload = {
        "terms": args.terms,
        "diagnostics": diag,
        "solution": sol.to_json_dict(),
    }
    rp = _write_report(out_dir, f"{stem}.series", payload)
    print(
        f"series written with {args.terms} terms "
        f"(last-term sup {diag['last_term_sup']:.3e}); report: {rp}"
    )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    problem, config, out_dir, stem = _load(args)
    lp = _linear(problem, "comparison needs the linear class")
    if args.against == "generic":
        n = args.terms
        y = i0 = problem.i0
        for _ in range(n):
            y = apply_P(problem, y, i0)
        cf = picard_closed_form(lp, n)
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
    rp = _write_report(out_dir, f"{stem}.compare", payload)
    print(f"max deviation: {dev:.6e}; report: {rp}")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    out_dir = Path(args.out) if args.out else Path.cwd()
    case = example_catalog(args.case)
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


def _count(text: str) -> int:
    """The value of --terms or --nmax: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative; need an integer >= 0")
    return value


@functools.cache
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

    p = sub.add_parser("certify", help="emit the Weissinger certificate only")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--mode", choices=["conservative", "paper"], default=None)
    p.add_argument("--nmax", type=_count, default=30)

    p = sub.add_parser("series", help="write the truncated series solution")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--terms", type=_count, default=20)

    p = sub.add_parser("compare", help="cross-check the series against the generic path")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--against", choices=["oracle", "generic"], default="generic")
    p.add_argument("--terms", type=_count, default=6)

    p = sub.add_parser("demo", help="run a catalog case end to end")
    p.add_argument("case")
    p.add_argument("--out")
    p.add_argument("--terms", type=_count, default=20)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return globals()[f"cmd_{args.command}"](args)
    except Exception as exc:  # CliError and solver errors surface verbatim
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
