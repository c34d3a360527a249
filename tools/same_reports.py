"""Check that two source trees write byte-identical CLI reports.

    python3 tools/same_reports.py OLD_ROOT NEW_ROOT
    python3 tools/same_reports.py OLD_ROOT NEW_ROOT --workload burgers-1d --seed 0
    python3 tools/same_reports.py OLD_ROOT NEW_ROOT --rule tools/rules/roundoff.json

Runs every command of the benchmark workloads (default: all three, seeds 0
and 1) once per tree, in one fresh interpreter per tree with
``PYTHONPATH=<root>/src`` and the BLAS/OpenMP pools pinned to one thread.
The commands and problem files come from ``perfbench/workloads.py`` of the
repository holding this script, so both trees see the same inputs at the
same paths.  So that every CLI command and every error exit is covered,
the runs add what the benchmark leaves out (extra_commands): on burgers-1d
``certify`` on its file, whose quadratic F takes the certified Leibniz
factors that ``solve`` takes; ``certify`` and ``solve`` on SINE_TRANSPORT,
whose F is not polynomial, so that the refusal of Lipschitz factors runs
(``certify`` exits 1, ``solve`` iterates without a certificate); and the
error exits (each exits 1): ``series`` and ``compare`` on SINE_TRANSPORT,
which is not in the linear class, a ``solve`` of SINE_TRANSPORT with radii
[1e-6], whose first iterate leaves the ball, and a ``solve`` of the
workload's file with ``residual_tol`` 1e-300, which converges but fails the
residual check.  On linear-2d ``series --terms 20`` and ``compare`` in both
modes on each file, so the closed form, and a ``solve`` and a closed form
that share one 2-D problem, also meet a t-dependent p (``cos_dx1dx1``),
plus a ``solve`` of the 2-D quadratic problem QUADRATIC_2D, whose
right-hand side is collocated and whose residual grid spans several
t-blocks.  On catalog-1d ``compare`` in both modes on each file, ``demo``
on each catalog case and on the unknown case ``laplace`` (exits 1), and a
growth-model ``certify`` of FORCED_HEAT, whose forcing bound Q > 0 enters
the increment model.
Compared: every report file byte for byte, and each command's exit code,
standard output, and standard error without its ``elapsed:`` line.  Prints what differs; exits 0 if nothing
does, 1 otherwise.  For a JSON report or a norms.csv table that differs it
prints how far it moved: its largest relative move of a number,
|old - new| / max(|old|, |new|), and its largest absolute move, |old - new|,
each with the path of that number, and apart from that the paths of the
differences that are not numeric (keys, list lengths, strings, bools, null,
empty cells).

With ``--rule FILE`` a report may move within the rule the file states
(see load_rule and tools/rules/): each moved report is still named, and
every number that moved outside the rule, and every difference that is not
numeric, is printed with its path.  The exit code is then 1 only for those,
and for a command whose exit code, standard output or standard error
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import workloads  # noqa: E402

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# -y1 d_x1 y1 on [-0.1, 0.1] x [-pi, pi]^2: its candidate has x degrees 37 and
# 33, so the residual grid is 128 x 149 x 133, six t-rows per block
QUADRATIC_2D = {
    "schema_version": 1,
    "domain": {"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[-math.pi, math.pi], [-math.pi, math.pi]]},
    "order": {"d": 1, "p": 0, "L": 1},
    "rhs": "-y1*Dx1(y1)",
    "initial": ["A*sin(x1+p1)*cos(x2+p2)"],
    "params": {"A": 0.5, "p1": 0.3, "p2": 1.1},
    "solver": {"tol": 1e-10, "n_max": 30, "k_check": [0], "degrees": {"x": [16, 16]},
               "residual_tol": 1e-7},
    "radii": [1.0],
}


# sin(y1) d_x1 y1 on [-0.1, 0.1] x [-pi, pi]: not a polynomial in y1, so
# estimate_lipschitz refuses it with a PicardError
SINE_TRANSPORT = {
    "schema_version": 1,
    "domain": {"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[-math.pi, math.pi]]},
    "order": {"d": 1, "p": 0, "L": 1},
    "rhs": "sin(y1)*Dx1(y1)",
    "initial": ["0.5*sin(x1)"],
    "solver": {"degrees": {"x": [16]}},
    "radii": [1.0],
}


# d_t y = d_x^2 y + cos(x1) on [-0.25, 0.25] x [-pi, pi] with exponential
# data: its certificate reads Q = CauchyProblem.q_sup of the forcing
FORCED_HEAT = {
    "schema_version": 1,
    "domain": {"t0": 0.0, "a": 0.25, "b": 0.25, "S": [[-math.pi, math.pi]]},
    "order": {"d": 1, "p": 0, "L": 2},
    "rhs": "Dx2(y1)+cos(x1)",
    "initial": ["sin(x1)"],
    "growth": [{"kind": "exponential", "C": 1.0}],
    "solver": {"degrees": {"x": [24]}},
}


def extra_commands(name: str, problem_dir: Path, out_dir: Path) -> list[tuple[list[str], Path]]:
    """(argv, output directory) of the commands a workload adds to the benchmark's.

    Writes the problem files of these commands that the workload lacks.
    """
    runs = []

    def add(label: str, args: list[str]) -> None:
        out = out_dir / label
        runs.append(([*args, "--out", str(out)], out))

    def write(stem: str, doc: dict) -> str:
        path = problem_dir / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return str(path)

    if name == "burgers-1d":
        burgers = problem_dir / "burgers.json"
        add("burgers.certify", ["certify", str(burgers)])
        path = write("sine_transport", SINE_TRANSPORT)
        add("sine_transport.certify", ["certify", path])
        add("sine_transport.solve", ["solve", path])
        add("sine_transport.series", ["series", path])
        add("sine_transport.compare", ["compare", path])
        path = write("ball_escape", {**SINE_TRANSPORT, "radii": [1e-6]})
        add("ball_escape.solve", ["solve", path])
        doc = json.loads(burgers.read_text())
        doc["solver"] = {**doc["solver"], "residual_tol": 1e-300}
        add("residual_fails.solve", ["solve", write("residual_fails", doc)])
    elif name == "linear-2d":
        for path in sorted(problem_dir.glob("*.json")):
            add(f"{path.stem}.series", ["series", str(path), "--terms", "20"])
            add(f"{path.stem}.compare", ["compare", str(path)])
            add(f"{path.stem}.compare-oracle", ["compare", str(path), "--against", "oracle"])
        add("quadratic_2d.solve", ["solve", write("quadratic_2d", QUADRATIC_2D)])
    elif name == "catalog-1d":
        for case in workloads.CATALOG:
            path = str(problem_dir / f"{case}.json")
            add(f"{case}.compare-generic", ["compare", path])
            add(f"{case}.compare-oracle", ["compare", path, "--against", "oracle"])
            add(f"{case}.demo", ["demo", case])
        add("laplace.demo", ["demo", "laplace"])
        add("forced_heat.certify", ["certify", write("forced_heat", FORCED_HEAT)])
    return runs


def run_tree(work: Path, names: list[str], seeds: list[int]) -> dict:
    """Child side: run every command under ``work``; return their exit codes and output."""
    import picard_lod.cli as cli

    results = {}
    for name in names:
        for seed in seeds:
            base = work / f"{name}-{seed}"
            wl = workloads.build(name, seed, base / "problems", base / "reports")
            runs = [(cmd.argv, cmd.out) for cmd in wl.commands]
            for argv, out_dir in runs + extra_commands(name, base / "problems", base / "reports"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(list(argv))
                    except SystemExit as exc:
                        code = exc.code
                stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                                 if not line.startswith("elapsed:"))
                key = f"{name}-{seed}/{out_dir.name}"
                results[key] = {"code": code, "stdout": out.getvalue(), "stderr": stderr}
    return {"package": cli.__file__, "commands": results}


def run_child(root: Path, work: Path, names: list[str], seeds: list[int]) -> dict:
    env = {**os.environ, **PINNED, "PYTHONPATH": str(root / "src")}
    args = [sys.executable, str(Path(__file__).resolve()), "--child", str(work),
            "--workload", *names, "--seed", *map(str, seeds)]
    proc = subprocess.run(args, env=env, cwd=work.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run on {root} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout)
    if not Path(res["package"]).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"run on {root} imported picard_lod from {res['package']}")
    return res["commands"]


def report_files(tree: Path) -> dict[str, bytes]:
    return {str(p.relative_to(tree)): p.read_bytes()
            for p in sorted(tree.glob("*/reports/**/*")) if p.is_file()}


def json_differences(old, new) -> tuple[list[tuple[str, float, float]], list[str]]:
    """The numbers that differ between two JSON values, as (path, old, new), and
    the paths of the differences that are not numeric.

    A path is the keys and list indices from the root, each after a "/".  Two
    NaNs are equal.
    """
    moved, other = [], []

    def number(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def walk(a, b, at: str) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(a.keys() | b.keys()):
                if key in a and key in b:
                    walk(a[key], b[key], f"{at}/{key}")
                else:
                    other.append(f"{at}/{key} (only in the {'old' if key in a else 'new'})")
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{at}/{i}")
        elif number(a) and number(b):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                moved.append((at, a, b))
        elif isinstance(a, list) and isinstance(b, list):
            other.append(f"{at} (length {len(a)} -> {len(b)})")
        elif a != b:
            other.append(at)

    walk(old, new, "")
    return moved, other


def largest(moved: list[tuple[str, float, float]], size) -> tuple[float, str]:
    """The largest size(old, new) over the moved numbers, and its path ("" if none moved).

    A move whose size is not finite (a number turned non-finite) counts as inf.
    """
    worst, where = 0.0, ""
    for at, a, b in moved:
        move = size(a, b)
        move = move if math.isfinite(move) else math.inf
        if not where or move > worst:
            worst, where = move, at
    return worst, where


def relative_move(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def absolute_move(a: float, b: float) -> float:
    return abs(a - b)


def json_moves(old, new) -> tuple[float, str, list[str]]:
    """The largest relative move of a number between two JSON values, its path, and
    the paths of the differences that are not numeric.

    A relative move is |old - new| / max(|old|, |new|); a number that turns
    non-finite moves by inf.
    """
    moved, other = json_differences(old, new)
    return (*largest(moved, relative_move), other)


def norms_table(text: str) -> dict:
    """A norms.csv report as JSON: {"header": [...], "rows": [{column: value}]}.

    A cell is a float, or None where it is empty.
    """
    header, *rows = [line.split(",") for line in text.splitlines()]
    return {"header": header,
            "rows": [{key: float(cell) if cell else None for key, cell in zip(header, row)}
                     for row in rows]}


def describe_move(name: str, old: bytes, new: bytes) -> str:
    """One line on how far report ``name`` moved from ``old`` to ``new``.

    JSON reports and norms.csv tables are compared number by number: the
    line names the largest relative and the largest absolute move, each
    with its path.  A relative move of a number near roundoff says little
    (1.1e-16 -> 5.6e-17 is a relative move of 0.5), so both are printed.
    """
    try:
        if name.endswith(".norms.csv"):
            old_doc, new_doc = norms_table(old.decode()), norms_table(new.decode())
        else:
            old_doc, new_doc = json.loads(old), json.loads(new)
    except ValueError:
        return f"{name}: contents differ"
    moved, other = json_differences(old_doc, new_doc)
    parts = []
    if moved:
        for label, size in (("relative", relative_move), ("absolute", absolute_move)):
            worst, where = largest(moved, size)
            parts.append(f"largest {label} move {worst:.3g} at {where}")
    if other:
        parts.append("non-numeric differences at " + ", ".join(other))
    return f"{name}: contents differ: " + ("; ".join(parts) or "only in formatting")


RULE_CLASSES = ("exact", "absolute", "relative_to_list", "relative")


def load_rule(path: Path) -> dict:
    """A rule file: which move each number of a report may make.

    A JSON object with two maps, each from a pattern to a class:
    ``"json"`` from path patterns of JSON reports, ``"norms_csv"`` from
    column names of norms.csv tables.  A class is ``"exact"`` or a one-key
    object: ``{"absolute": tol}`` (|old - new| <= tol), ``{"relative": tol}``
    (<= tol * max(|old|, |new|)) or ``{"relative_to_list": tol}`` (<= tol
    times the largest |entry| of the list that holds the number, old or
    new; for a norms.csv table, its column).  A path pattern is matched one
    "/"-separated segment at a time, each with fnmatch, and ``**`` stands
    for any number of segments.  The first pattern that matches decides; a
    number that none matches is exact.  Other keys (an ``"about"`` text)
    are not read.
    """
    rule = json.loads(path.read_text())
    for section in ("json", "norms_csv"):
        for pattern, cls in rule.get(section, {}).items():
            name, tol = rule_class(cls)
            if name not in RULE_CLASSES or not tol >= 0:
                raise ValueError(f"{path}: {section} pattern {pattern!r}: bad class {cls!r}")
    return rule


def rule_class(cls) -> tuple[str, float]:
    if isinstance(cls, dict) and len(cls) == 1:
        (name, tol), = cls.items()
        return name, float(tol)
    return cls, 0.0


def path_matches(pattern: str, path: str) -> bool:
    def match(pat: list[str], seg: list[str]) -> bool:
        if not pat:
            return not seg
        if pat[0] == "**":
            return any(match(pat[1:], seg[i:]) for i in range(len(seg) + 1))
        return bool(seg) and fnmatch.fnmatchcase(seg[0], pat[0]) and match(pat[1:], seg[1:])

    return match(pattern.split("/"), path.split("/"))


def holding_list(doc, path: str) -> list | None:
    """The list that directly holds the value at ``path``, or None."""
    *parents, _ = path.split("/")[1:]
    for key in parents:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc if isinstance(doc, list) else None


def largest_entry(*lists) -> float:
    return max((abs(v) for values in lists for v in values
                if isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)),
               default=0.0)


def breaches(name: str, old: bytes, new: bytes, rule: dict) -> list[str]:
    """Lines naming every difference of report ``name`` that ``rule`` does not allow."""
    csv = name.endswith(".norms.csv")
    try:
        if csv:
            old_doc, new_doc = norms_table(old.decode()), norms_table(new.decode())
        else:
            old_doc, new_doc = json.loads(old), json.loads(new)
    except ValueError:
        return [f"{name}: contents differ"]
    moved, other = json_differences(old_doc, new_doc)
    out = [f"{name}: outside the rule at {at}" for at in other]
    for at, a, b in moved:
        if csv:
            key, patterns = at.rsplit("/", 1)[1], rule.get("norms_csv", {})
            scale_lists = [[row.get(key) for row in doc["rows"]] for doc in (old_doc, new_doc)]
        else:
            key, patterns = at, rule.get("json", {})
            scale_lists = [holding_list(doc, at) or [] for doc in (old_doc, new_doc)]
        match = next((p for p in patterns if
                      (fnmatch.fnmatchcase(key, p) if csv else path_matches(p, key))), None)
        cls, tol = rule_class(patterns[match]) if match is not None else ("exact", 0.0)
        scale = {"absolute": 1.0, "relative": max(abs(a), abs(b)),
                 "relative_to_list": largest_entry(*scale_lists) or max(abs(a), abs(b))}.get(cls)
        if scale is None or not abs(a - b) <= tol * scale:
            allowed = cls if cls == "exact" else f"{cls} {tol:g}"
            out.append(f"{name}: outside the rule at {at}: {a!r} -> {b!r} ({allowed})")
    return out


def compare(old_root: Path, new_root: Path, names: list[str], seeds: list[int],
            rule: dict | None = None) -> list[str]:
    """Lines naming every difference between the two trees' runs that ``rule`` does not allow.

    Without a rule every difference counts.  With one, a report that moved
    within it is named on standard output and counts for nothing.
    """
    diffs, within = [], []
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        work = Path(tmp) / "run"
        runs, files = [], []
        for label, root in (("old", old_root), ("new", new_root)):
            work.mkdir()
            runs.append(run_child(root, work, names, seeds))
            # both trees write to the same paths, in case a report names them
            work.rename(Path(tmp) / label)
            files.append(report_files(Path(tmp) / label))
    (old_cmds, new_cmds), (old_files, new_files) = runs, files
    for key in sorted(old_cmds.keys() | new_cmds.keys()):
        a, b = old_cmds.get(key), new_cmds.get(key)
        if a is None or b is None:
            diffs.append(f"{key}: command only in the {'new' if a is None else 'old'} run")
            continue
        for what in ("code", "stdout", "stderr"):
            if a[what] != b[what]:
                diffs.append(f"{key}: {what} differs: {a[what]!r} != {b[what]!r}")
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in new_files or name not in old_files:
            diffs.append(f"{name}: file only in the {'new' if name in new_files else 'old'} tree")
        elif old_files[name] != new_files[name]:
            line = describe_move(name, old_files[name], new_files[name])
            outside = [] if rule is None else breaches(name, old_files[name], new_files[name], rule)
            if rule is None or outside:
                diffs += [line, *outside]
            else:
                within.append(line)
    summary = (f"{len(old_files)} report files, commands run: {len(old_cmds)} "
               f"({', '.join(names)}; seeds {', '.join(map(str, seeds))})")
    if within:
        print("\n".join(f"within the rule: {line}" for line in within))
    if not diffs:
        print(f"{'within the rule' if within else 'identical'}: {summary}"
              + (f"; {len(within)} moved" if within else ""))
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", type=Path, nargs="?")
    parser.add_argument("new_root", type=Path, nargs="?")
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--seed", nargs="+", type=int, default=[0, 1])
    parser.add_argument("--rule", type=Path, help="a rule file of allowed report moves")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(run_tree(args.child, args.workload, args.seed)))
        return 0
    if args.old_root is None or args.new_root is None:
        parser.error("OLD_ROOT and NEW_ROOT are required")
    for root in (args.old_root, args.new_root):
        if not (root / "src" / "picard_lod" / "cli.py").is_file():
            parser.error(f"no picard_lod sources under {root / 'src'}")
    rule = None if args.rule is None else load_rule(args.rule)
    diffs = compare(args.old_root.resolve(), args.new_root.resolve(), args.workload, args.seed,
                    rule)
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
