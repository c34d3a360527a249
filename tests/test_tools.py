"""The maintenance scripts under tools/."""

import importlib.util
import json
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
    assert proc.stdout.startswith("identical: 7 report files, commands run: 8 ")


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


def test_describe_move_names_the_largest_relative_and_absolute_moves():
    describe = _same_reports().describe_move
    old = b'{"max_grid_deviation": 1.1e-16, "residual": 2.0e-9, "status": "converged"}'
    new = b'{"max_grid_deviation": 5.6e-17, "residual": 2.5e-9, "status": "converged"}'
    assert describe("a.report.json", old, new) == (
        "a.report.json: contents differ: largest relative move 0.491 at /max_grid_deviation; "
        "largest absolute move 5e-10 at /residual")
    assert describe("b.report.json", b'{"x": 1}', b'{"x": 1.0}') == (
        "b.report.json: contents differ: only in formatting")
    assert describe("c.txt", b"a", b"b") == "c.txt: contents differ"


def test_norms_csv_is_compared_number_by_number():
    same_reports = _same_reports()
    old = b"n,k0,k1\n1,0.5,0.25\n2,1e-12,\n"
    new = b"n,k0,k1\n1,0.5,0.2500001\n2,3e-12,1e-13\n"
    assert same_reports.norms_table(old.decode()) == {
        "header": ["n", "k0", "k1"],
        "rows": [{"n": 1.0, "k0": 0.5, "k1": 0.25}, {"n": 2.0, "k0": 1e-12, "k1": None}]}
    line = same_reports.describe_move("burgers.norms.csv", old, new)
    assert line == ("burgers.norms.csv: contents differ: largest relative move 0.667 at "
                    "/rows/1/k0; largest absolute move 1e-07 at /rows/0/k1; "
                    "non-numeric differences at /rows/1/k1")
    short = same_reports.describe_move("burgers.norms.csv", old, b"n,k0,k1\n1,0.5,0.25\n")
    assert short == ("burgers.norms.csv: contents differ: "
                     "non-numeric differences at /rows (length 2 -> 1)")


RULE = ROOT / "tools" / "rules" / "roundoff.json"


def test_a_json_report_may_move_within_the_rule_and_no_further():
    same_reports = _same_reports()
    rule = same_reports.load_rule(RULE)
    old = {"status": "converged", "n_steps": 9, "residuals": {"pde_residual": 2e-9},
           "candidate": {"coeffs": [1.0, 0.25, 1e-20]},
           "certificate": {"rows": [{"terms": [1.0, 1e-3]}]}}
    within = {**old, "residuals": {"pde_residual": 2e-9 + 5e-16},
              "candidate": {"coeffs": [1.0, 0.25, 5e-15]},
              "certificate": {"rows": [{"terms": [1.0, 1e-3 * (1 + 5e-7)]}]}}
    assert same_reports.breaches("a.report.json", json.dumps(old).encode(),
                                 json.dumps(within).encode(), rule) == []
    outside = {**within, "n_steps": 10, "candidate": {"coeffs": [1.0, 0.25, 2e-14]},
               "certificate": {"rows": [{"terms": [1.0, 1e-3 * (1 + 2e-6)]}]}}
    lines = same_reports.breaches("a.report.json", json.dumps(old).encode(),
                                  json.dumps(outside).encode(), rule)
    assert [line.split(": ")[1] for line in lines] == [
        "outside the rule at /candidate/coeffs/2", "outside the rule at /certificate/rows/0/terms/1",
        "outside the rule at /n_steps"]
    assert lines[2].endswith("9 -> 10 (exact)")
    status = {**old, "status": "inconclusive"}
    assert same_reports.breaches("a.report.json", json.dumps(old).encode(),
                                 json.dumps(status).encode(), rule) == [
        "a.report.json: outside the rule at /status"]


def test_a_norms_csv_column_may_move_within_the_rule_and_no_further():
    same_reports = _same_reports()
    rule = same_reports.load_rule(RULE)
    old = b"n,k0\n1,0.5\n2,1e-12\n"
    assert same_reports.breaches("h.norms.csv", old, b"n,k0\n1,0.5\n2,1.000000001e-12\n",
                                 rule) == []
    assert same_reports.breaches("h.norms.csv", old, b"n,k0\n1,0.5\n2,2e-12\n", rule) == [
        "h.norms.csv: outside the rule at /rows/1/k0: 1e-12 -> 2e-12 (relative_to_list 1e-14)"]
    assert same_reports.breaches("h.norms.csv", old, b"n,k0\n1,0.5\n3,1e-12\n", rule) == [
        "h.norms.csv: outside the rule at /rows/1/n: 2.0 -> 3.0 (exact)"]


def test_a_rule_names_one_known_class_per_pattern(tmp_path):
    same_reports = _same_reports()
    assert same_reports.path_matches("**/rows/*/terms/*", "/certificate/rows/0/terms/3")
    assert same_reports.path_matches("**/rows/*/terms/*", "/rows/0/terms/3")
    assert not same_reports.path_matches("/increments/*/*", "/increments/0")
    bad = tmp_path / "bad.json"
    bad.write_text('{"json": {"/a": {"roughly": 1e-3}}}')
    with pytest.raises(ValueError, match="bad class"):
        same_reports.load_rule(bad)


def test_the_rule_decides_the_exit_code(tmp_path, monkeypatch, capsys):
    same_reports = _same_reports()
    report = {"old": b'{"residuals": {"pde_residual": 2e-9}}',
              "within": b'{"residuals": {"pde_residual": 2.0000001e-9}}',
              "outside": b'{"residuals": {"pde_residual": 3e-9}}'}

    def run_child(root, work, names, seeds):
        out = work / "w-0" / "reports" / "a"
        out.mkdir(parents=True)
        (out / "a.report.json").write_bytes(report[root.name])
        return {"w-0/a": {"code": 0, "stdout": "", "stderr": ""}}

    monkeypatch.setattr(same_reports, "run_child", run_child)
    for name in report:
        (tmp_path / name / "src" / "picard_lod").mkdir(parents=True)
        (tmp_path / name / "src" / "picard_lod" / "cli.py").write_text("")
    args = ["--workload", "burgers-1d", "--seed", "0", "--rule", str(RULE)]
    assert same_reports.main([str(tmp_path / "old"), str(tmp_path / "within"), *args]) == 0
    assert "within the rule: w-0/reports/a/a.report.json" in capsys.readouterr().out
    assert same_reports.main([str(tmp_path / "old"), str(tmp_path / "outside"), *args]) == 1
    assert "outside the rule at /residuals/pde_residual" in capsys.readouterr().out
    assert same_reports.main([str(tmp_path / "old"), str(tmp_path / "within"),
                              "--workload", "burgers-1d", "--seed", "0"]) == 1
