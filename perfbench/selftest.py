"""Self-test: every output check accepts the program's real output and rejects a perturbed one.

Runs each workload's commands once on the default seed, then, per command,
copies its report directory, perturbs one thing in the copy (a coefficient,
a status, a certificate term) and asserts that the command's check raises.
The byte-identity check is shown the same way on a report with one byte
appended.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import workloads
from workloads import CheckError


def _edit_report(edit):
    """A perturbation that rewrites the command's main JSON report in place."""

    def apply(out: Path) -> None:
        path = next(p for p in sorted(out.iterdir()) if p.name.endswith(".report.json"))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    return apply


def _bump_coeff(key: str, delta: float):
    def edit(doc: dict) -> None:
        doc[key]["coeffs"][1] += delta

    return edit


def _set(key: str, value):
    def edit(doc: dict) -> None:
        doc[key] = value

    return edit


def _scale_term(n: int, factor: float):
    def edit(doc: dict) -> None:
        doc["rows"][0]["terms"][n] *= factor

    return edit


PERTURBATIONS = {
    "solve": [
        ("candidate coefficient + 1e-4", _edit_report(_bump_coeff("candidate", 1e-4))),
        ("status inconclusive", _edit_report(_set("status", "inconclusive"))),
        ("residual_ok false", _edit_report(_set("residual_ok", False))),
    ],
    "series": [
        ("solution coefficient + 1e-7", _edit_report(_bump_coeff("solution", 1e-7))),
    ],
    "certify": [
        ("term 5 relative + 1e-6", _edit_report(_scale_term(5, 1.0 + 1e-6))),
        ("verdict inconclusive", _edit_report(_set("verdict", "inconclusive"))),
    ],
}


def run(work: Path) -> dict:
    import picard_lod.cli as cli

    lines, passed = [], True

    def report(ok: bool, text: str) -> None:
        nonlocal passed
        passed = passed and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {text}")

    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 0, work / name / "problems", work / name / "reports")
        codes, log = workloads.run_commands(cli, wl)
        crashed, wrong, reference = workloads.check_outputs(wl, codes, log, None)
        report(not crashed and not wrong, f"{name}: real outputs pass every check {crashed + wrong}")
        for cmd in wl.commands:
            for label, perturb in PERTURBATIONS[cmd.argv[0]]:
                copy = work / "perturbed" / cmd.out.name
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(cmd.out, copy)
                perturb(copy)
                try:
                    cmd.check(copy)
                except CheckError as exc:
                    report(True, f"{name} {cmd.out.name}: {label} rejected ({exc})")
                else:
                    report(False, f"{name} {cmd.out.name}: {label} accepted")
        target = next(wl.commands[0].out.glob("*.report.json"))
        target.write_bytes(target.read_bytes() + b"\n")
        _, wrong, _ = workloads.check_outputs(wl, codes, log, reference)
        report(any(e.startswith("reports differ") for e in wrong),
               f"{name}: one byte appended to {target.name} rejected {wrong}")
    return {"passed": passed, "lines": lines}
