"""The maintenance scripts under tools/."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_same_reports_finds_a_tree_identical_to_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_reports.py"), str(ROOT), str(ROOT),
         "--workload", "burgers-1d", "--seed", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("identical: 5 report files, commands run: 4 ")


def _same_reports():
    path = ROOT / "tools" / "same_reports.py"
    spec = importlib.util.spec_from_file_location("same_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_moves_names_the_largest_relative_move_and_the_other_differences():
    old = {"status": "converged", "n": 3, "ok": True, "terms": [1.0, 1e-3, 1e-9, math.nan],
           "coeffs": [[0.5, -0.25], [2.0]], "gone": 1, "same": [1, 2]}
    new = {"status": "diverging", "n": 3, "ok": False,
           "terms": [1.0 + 1e-15, 1.1e-3, 1e-9, math.nan],
           "coeffs": [[0.5, -0.25], [2.0, 0.0]], "added": None, "same": [1, 2]}
    worst, where, other = _same_reports().json_moves(old, new)
    assert where == "/terms/1" and worst == pytest.approx(0.1e-3 / 1.1e-3)
    assert other == ["/added (only in the new)", "/coeffs/1 (length 1 -> 2)",
                     "/gone (only in the old)", "/ok", "/status"]


def test_json_moves_of_equal_values_and_of_an_overflow():
    json_moves = _same_reports().json_moves
    assert json_moves({"a": [1, 2.5]}, {"a": [1.0, 2.5]}) == (0.0, "", [])
    assert json_moves([0.0, 1.0], [0.0, math.inf]) == (math.inf, "/1", [])
