import copy
import functools
import json
import math
import operator
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PROBLEM_SCHEMA, REFUSAL
from picard_lod.cli import (
    EXIT_DIVERGING,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    CliError,
    load_problem,
    main,
)

PI = math.pi


def write_problem(path: Path, **overrides) -> Path:
    doc = {
        "schema_version": 1,
        "domain": {"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[-PI, PI]]},
        "order": {"d": 1, "p": 0, "L": 2},
        "rhs": "Dx2(y1)",
        "initial": ["sin(x1)"],
        "growth": [{"kind": "exponential", "C": 1.0}],
        "solver": {"tol": 1e-11, "n_max": 10, "k_check": [0]},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


# 1-D problem with the data of the quadratic demo (criterion 11) and a sigma
# growth block, which certify refuses for every F outside the linear class
BURGERS = dict(
    domain={"t0": 0.0, "a": 0.25, "b": 0.25, "S": [[0.0, 1.0]]},
    order={"d": 1, "p": 0, "L": 1},
    initial=["x1"],
    radii=[1.0],
    growth=[{"kind": "sigma", "sigma": 1.0}],
)


def certify_without_growth(tmp_path, rhs):
    """Run certify on BURGERS with another rhs and no growth block; the report."""
    p = write_problem(tmp_path / "f.json", **{**BURGERS, "rhs": rhs})
    doc = json.loads(p.read_text())
    del doc["growth"]
    p.write_text(json.dumps(doc))
    code = main(["certify", str(p), "--out", str(tmp_path), "--nmax", "20"])
    cert = json.loads((tmp_path / "f.certificate.report.json").read_text())
    assert code == {"converged": EXIT_OK, "diverging": EXIT_DIVERGING}.get(
        cert["verdict"], EXIT_INCONCLUSIVE)
    return cert


class TestSchema:
    def test_schema_is_valid(self):
        from jsonschema.validators import validator_for

        validator_for(PROBLEM_SCHEMA).check_schema(PROBLEM_SCHEMA)

    def test_missing_key_names_it(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        doc = json.loads(write_problem(tmp_path / "ok.json").read_text())
        del doc["order"]["d"]
        p.write_text(json.dumps(doc))
        assert main(["solve", str(p)]) == EXIT_ERROR
        assert "'d'" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        p = write_problem(tmp_path / "extra.json", extra_knob=1)
        assert main(["solve", str(p)]) == EXIT_ERROR
        assert "extra_knob" in capsys.readouterr().err

    def test_t_degree_rejected(self, tmp_path, capsys):
        """No t degree is read: the t degree of every iterate follows from the data."""
        p = write_problem(
            tmp_path / "tdeg.json",
            solver={"tol": 1e-11, "n_max": 10, "k_check": [0], "degrees": {"t": 3}},
        )
        assert main(["solve", str(p)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "solver/degrees" in err and "'t'" in err

    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{\n  \"schema_version\": 1,,\n}")
        assert main(["solve", str(p)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    @pytest.mark.parametrize("domain, literal", [
        ({"t0": 0.0, "a": math.inf, "b": 0.1, "S": [[-PI, PI]]}, "Infinity"),
        ({"t0": math.nan, "a": 0.1, "b": 0.1, "S": [[-PI, PI]]}, "NaN"),
        ({"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[-math.inf, 1.0]]}, "-Infinity"),
        ({"t0": 0.0, "a": math.inf, "b": 0.1, "S": [[-PI, PI]]}, "1e400"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, domain, literal):
        # Python's json reads the first three, which JSON does not have, and
        # reads 1e400 as inf; the last file holds 1e400 where inf was written
        p = write_problem(tmp_path / "nonfinite.json", domain=domain)
        if literal == "1e400":
            p.write_text(p.read_text().replace("Infinity", literal))
        assert literal in p.read_text()
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"nonfinite.json: invalid JSON: {literal} is not a finite number" in err
        assert not (tmp_path / "nonfinite.report.json").exists()

    def test_bad_expression_position(self, tmp_path, capsys):
        p = write_problem(tmp_path / "expr.json", rhs="Dx9(y1)")
        assert main(["solve", str(p)]) == EXIT_ERROR
        assert "exceeds declared L" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ({"domain": {"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[1.0, 1.0]]}},
         "empty spatial interval [1.0, 1.0]"),
        ({"growth": [{"kind": "exponential"}]}, "exponential class needs C > 0"),
    ], ids=["empty-interval", "growth-without-C"])
    def test_value_checks_past_the_format_name_the_file(
        self, tmp_path, capsys, override, message
    ):
        p = write_problem(tmp_path / "semantic.json", **override)
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert f"error: {p}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["t", "x1", "y1", "sin", "Dx2"])
    def test_params_key_the_grammar_reserves_is_refused(self, tmp_path, capsys, name):
        # the grammar reads these names before params, so the value would be ignored
        p = write_problem(tmp_path / "r.json", params={name: 0.5})
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {p}: params key {name!r} is a name the grammar reserves\n")
        assert not (tmp_path / "r.report.json").exists()

    def test_params_key_outside_the_grammar_still_runs(self, tmp_path):
        p = write_problem(tmp_path / "a.json", rhs="a_coef*Dx2(y1)", params={"a_coef": 1.0})
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_OK


# every key of a problem file, each form of rhs and initial, and two growth rows
FULL = {
    "schema_version": 1,
    "domain": {"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[-1.0, 1.0]]},
    "order": {"d": 2, "p": 1, "L": 1},
    "m": 1,
    "rhs": ["Dx1(y1)+c*Dt(y1)"],
    "initial": [["sin(x1)"], "cos(x1)"],
    "params": {"c": 0.5},
    "growth": [{"kind": "exponential", "C": 1.0}, {"kind": "sigma", "sigma": 1.0}],
    "radii": [1.0, 2.0],
    "solver": {"tol": 1e-10, "n_max": 10, "k_check": [0, 1], "degrees": {"x": [6]},
               "seed": 0, "residual_tol": 1e-7, "certify_first": False},
}


def _nodes(value, where=()):
    """(path, value) of value and of everything inside it."""
    yield where, value
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, item in items:
        yield from _nodes(item, (*where, key))


def _at(doc, where):
    """The value at path ``where`` in doc."""
    return functools.reduce(operator.getitem, where, doc)


NODES = list(_nodes(FULL))
# the paths of FULL that each kind of mutation changes
SITES = {
    "type": [w for w, _ in NODES],
    "bool": [w for w, v in NODES if type(v) in (int, float)],
    "bound": [w for w, v in NODES if type(v) in (int, float)],
    "missing": [w for w, _ in NODES if w and isinstance(w[-1], str)],
    "unknown": [w for w, v in NODES if isinstance(v, dict)],
    "empty": [w for w, v in NODES if isinstance(v, list)],
    "integral": [w for w, v in NODES if type(v) is int],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3.0, 3.0)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def single_mutations(draw):
    """FULL with one key changed: wrong type, bool for a number, out of bound,
    missing key, unknown key, empty list or integral float."""
    kind = draw(st.sampled_from(sorted(SITES)))
    where = draw(st.sampled_from(SITES[kind]))
    doc = copy.deepcopy(FULL)
    if kind == "unknown":
        node = _at(doc, where)
        node[draw(st.text(min_size=1, max_size=4).filter(lambda k: k not in node))] = 1
        return doc
    if not where:  # only a wrong type replaces the whole document
        return draw(JSON_VALUES)
    parent, key = _at(doc, where[:-1]), where[-1]
    if kind == "missing":
        del parent[key]
    else:
        parent[key] = {
            "type": lambda: draw(JSON_VALUES),
            "bool": lambda: draw(st.booleans()),
            "bound": lambda: draw(st.sampled_from([0, 0.0, -1, -0.5, -1e300])),
            "empty": lambda: [],
            "integral": lambda: float(parent[key]),
        }[kind]()
    return doc


class TestReaderMatchesTheSchema:
    """load_problem's reader against PROBLEM_SCHEMA, the problem-file format as a JSON Schema."""

    @settings(max_examples=400, deadline=None)
    @given(doc=single_mutations())
    def test_same_documents_and_same_failing_path(self, doc):
        from jsonschema.exceptions import best_match
        from jsonschema.validators import validator_for

        errors = list(validator_for(PROBLEM_SCHEMA)(PROBLEM_SCHEMA).iter_errors(doc))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.json"
            path.write_text(json.dumps(doc))
            try:
                load_problem(path)
                got = None
            except CliError as exc:
                got = str(exc)

        def line(error):
            at = "/".join(map(str, error.absolute_path)) or "(root)"
            return f"{path}: schema violation at {at}: {error.message}"

        def with_context(errors):
            for error in errors:
                yield error
                yield from with_context(error.context)

        if not errors:
            assert got is None or "schema violation" not in got
        elif len(errors) == 1:
            assert got == line(best_match(errors))
        else:
            # a value with several violations, such as [null, null] for the x
            # degrees: the reader names the first it reads, jsonschema's
            # best_match the last sibling; the reader's is one of them
            assert got in {line(error) for error in with_context(errors)}

    @pytest.mark.parametrize("where", [
        ("order", "d"), ("order", "p"), ("order", "L"), ("m",), ("solver", "n_max"),
        ("solver", "k_check", 0), ("solver", "degrees", "x", 0), ("solver", "seed"),
    ], ids=lambda where: "/".join(map(str, where)))
    def test_integral_float_runs_as_its_integer(self, tmp_path, where):
        doc = json.loads(write_problem(tmp_path / "int.json", m=1).read_text())
        doc["solver"].update(degrees={"x": [24]}, seed=0)
        (tmp_path / "int.json").write_text(json.dumps(doc))
        parent = _at(doc, where[:-1])
        parent[where[-1]] = float(parent[where[-1]])
        (tmp_path / "float.json").write_text(json.dumps(doc))
        runs = [
            (main(["solve", str(tmp_path / f"{stem}.json"), "--out", str(tmp_path)]),
             (tmp_path / f"{stem}.report.json").read_bytes())
            for stem in ("int", "float")
        ]
        assert runs[0] == runs[1] and runs[0][0] == EXIT_OK

    def test_bool_is_not_a_number(self, tmp_path, capsys):
        p = write_problem(tmp_path / "b.json",
                          domain={"t0": 0.0, "a": True, "b": 0.1, "S": [[-PI, PI]]})
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "b.json: schema violation at domain/a: True is not of type 'number'" in err


class TestXDegreesOfTheFile:
    """solver.degrees.x sets the x degrees of the problem for every command."""

    def test_load_problem_holds_the_degrees_and_interpolates_nothing(
        self, tmp_path, monkeypatch
    ):
        import picard_lod.picard_pde as pp
        from picard_lod.cli import load_problem

        def fail(*args, **kwargs):
            raise AssertionError("interpolate ran")

        monkeypatch.setattr(pp, "interpolate", fail)
        p = write_problem(tmp_path / "d.json", solver={"degrees": {"x": [10]}})
        problem, _ = load_problem(p)
        assert problem.x_degrees == (10,)
        problem, _ = load_problem(write_problem(tmp_path / "e.json", solver={}))
        assert problem.x_degrees == (pp.X_DEGREE,)

    def test_wrong_number_of_degrees_is_an_error(self, tmp_path, capsys):
        p = write_problem(tmp_path / "two.json", solver={"degrees": {"x": [8, 8]}})
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert "two.json: need 1 integer x degrees" in capsys.readouterr().err

    def test_series_takes_the_x_degree_of_solve(self, tmp_path):
        p = write_problem(
            tmp_path / "heat16.json",
            solver={"tol": 1e-11, "n_max": 10, "k_check": [0], "degrees": {"x": [16]}},
        )
        assert main(["series", str(p), "--terms", "4", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_OK
        series = json.loads((tmp_path / "heat16.series.report.json").read_text())
        solve = json.loads((tmp_path / "heat16.report.json").read_text())
        # sin(x1) at x degree 16 is odd: degree 15, where 24 gave 19
        assert series["solution"]["degrees"][1] == solve["candidate"]["degrees"][1] == 15


class TestSolveCommand:
    def test_heat_converges(self, tmp_path, capsys):
        p = write_problem(tmp_path / "heat.json")
        assert main(["solve", str(p), "--out", str(tmp_path / "out")]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "heat.report.json").read_text())
        assert report["status"] == "converged"
        assert report["residuals"]["pde_residual"] <= 1e-7
        csv = (tmp_path / "out" / "heat.norms.csv").read_text().splitlines()
        assert csv[0] == "n,k0"
        assert len(csv) == report["n_steps"] + 1

    def test_exhaustion_is_inconclusive(self, tmp_path):
        p = write_problem(
            tmp_path / "slow.json",
            solver={"tol": 1e-30, "n_max": 2, "k_check": [0]},
        )
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_INCONCLUSIVE

    def test_certify_first_divergence(self, tmp_path):
        p = write_problem(
            tmp_path / "kow.json",
            initial=["1/(1+x1^2)"],
            growth=[{"kind": "analytic", "C": 1.0}],
        )
        code = main([
            "solve", str(p), "--certify-first", "--out", str(tmp_path / "o")
        ])
        assert code == EXIT_DIVERGING

    def test_reports_are_deterministic(self, tmp_path):
        p = write_problem(tmp_path / "het.json")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["solve", str(p), "--out", str(out1)]) == EXIT_OK
        assert main(["solve", str(p), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "het.report.json").read_bytes() == \
            (out2 / "het.report.json").read_bytes()
        assert (out1 / "het.norms.csv").read_bytes() == \
            (out2 / "het.norms.csv").read_bytes()

    def test_a_repeated_k_check_entry_is_read_once(self, tmp_path):
        outputs = []
        for name, k_check in (("once", [1, 0]), ("twice", [1, 0, 1])):
            (tmp_path / name).mkdir()
            p = write_problem(tmp_path / name / "heat.json",
                              solver={"tol": 1e-11, "n_max": 10, "k_check": k_check})
            assert main(["solve", str(p)]) == EXIT_OK
            assert main(["certify", str(p)]) == EXIT_OK
            outputs.append([(p.parent / f).read_bytes() for f in (
                "heat.report.json", "heat.norms.csv", "heat.certificate.report.json")])
        assert outputs[0] == outputs[1]
        assert (tmp_path / "twice" / "heat.norms.csv").read_text().startswith("n,k0,k1\n")

    def test_growth_on_a_nonlinear_rhs_leaves_a_certificate_note(self, tmp_path):
        # the growth model needs the linear class; solve still iterates
        p = write_problem(tmp_path / "negb.json", **{
            **BURGERS, "rhs": "-y1*Dx1(y1)",
            "domain": {"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[0.0, 1.0]]},
            "solver": {"tol": 1e-10, "n_max": 40, "k_check": [0]},
        })
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "negb.report.json").read_text())
        assert report["certificate_note"] == (
            "certificate unavailable: growth-model increments need the linear "
            "class with |mu| > 0"
        )


    def test_overflow_under_a_diverging_certificate_exits_2(self, tmp_path):
        # a = 1e100: the iterates overflow, and the certificate reads diverging
        p = write_problem(
            tmp_path / "big.json",
            domain={"t0": 0.0, "a": 1.0, "b": 1.0, "S": [[-PI, PI]]},
            order={"d": 1, "p": 0, "L": 1},
            rhs="a*Dx1(y1)", params={"a": 1e100},
        )
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_DIVERGING
        report = json.loads((tmp_path / "big.report.json").read_text())
        assert report["status"] == "diverging-certificate"
        assert report["certificate"]["verdict"] == "diverging"

    def test_overflow_without_a_certificate_is_an_error(self, tmp_path, capsys):
        # y1^2 needs finite radii for its factors, so no certificate stands
        # behind the overflow
        p = write_problem(
            tmp_path / "sq.json",
            domain={"t0": 0.0, "a": 1.0, "b": 1.0, "S": [[-PI, PI]]},
            order={"d": 1, "p": 0, "L": 0},
            rhs="a*y1^2", initial=["1"], params={"a": 1e200},
        )
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "sq.report.json").exists()

    def test_a_linear_step_past_the_degree_cap_is_an_error(self, tmp_path, capsys):
        # exp(t) on [-5, 5] takes 33 t-coefficients, so the exact steps raise
        # the iterates' t-degree until one would pass DEGREE_CAP
        p = write_problem(
            tmp_path / "cap.json",
            domain={"t0": 0.0, "a": 5.0, "b": 5.0, "S": [[-PI, PI]]},
            order={"d": 1, "p": 0, "L": 0},
            rhs="exp(t)*y1", solver={"tol": 1e-12, "n_max": 30, "k_check": [0]},
        )
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(
            "error: degree cap 128 exceeded by 1-fold time integral\n")
        assert not (tmp_path / "cap.report.json").exists()


class TestCertifyRoutes:
    # a polynomial F takes the certified Leibniz factors, any other F is refused;
    # degree None marks a refusal, and y1^3 + Dx1(y1) leaves the ball in solve
    @pytest.mark.parametrize("rhs, degree, solved", [
        pytest.param("y1^3+Dx1(y1)", 3, False, id="y1^3+Dx1(y1)"),
        pytest.param("-y1*Dx1(y1)", 2, True, id="-y1*Dx1(y1)"),
        pytest.param("0.5*y1*Dx1(y1)", 2, True, id="0.5*y1*Dx1(y1)"),
        pytest.param("sin(y1)*Dx1(y1)", None, False, id="sin(y1)*Dx1(y1)"),
    ])
    def test_general_rhs_is_sampled_not_the_demo(self, tmp_path, capsys, rhs, degree, solved):
        if degree is not None:
            cert = certify_without_growth(tmp_path, rhs)
            assert "demo" not in cert["meta"]
            assert cert["meta"]["lambda_meta"] == {
                "method": "leibniz", "certified": True, "degree": degree, "k_max": 8}
            if solved:  # solve's certificate reads the same factors and increments
                main(["solve", str(tmp_path / "f.json"), "--out", str(tmp_path)])
                report = json.loads((tmp_path / "f.report.json").read_text())
                assert cert["rows"] == report["certificate"]["rows"]
            return
        p = write_problem(tmp_path / "f.json", **{**BURGERS, "rhs": rhs})
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {REFUSAL}\n"
        assert not (tmp_path / "f.certificate.report.json").exists()

    def test_quadratic_rhs_with_a_varying_coefficient_is_an_error(self, tmp_path, capsys):
        # refused with its growth block, and without it for want of factors
        p = write_problem(tmp_path / "c.json", **{**BURGERS, "rhs": "x1*y1*Dx1(y1)"})
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert "growth-model increments need the linear class" in capsys.readouterr().err
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {REFUSAL}\n"
        assert not (tmp_path / "c.certificate.report.json").exists()

    def test_growth_on_a_general_rhs_is_an_error(self, tmp_path, capsys):
        p = write_problem(tmp_path / "g.json", **{**BURGERS, "rhs": "sin(y1)*Dx1(y1)"})
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert "growth-model increments need the linear class" in capsys.readouterr().err
        assert not (tmp_path / "g.certificate.report.json").exists()

    @pytest.mark.parametrize("argv", [["certify"], ["solve", "--certify-first"]])
    def test_growth_is_refused_before_any_lipschitz_estimate(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        import picard_lod.picard_pde as pp

        def fail(*args, **kwargs):
            raise AssertionError("estimate_lipschitz ran")

        monkeypatch.setattr(pp, "estimate_lipschitz", fail)
        p = write_problem(tmp_path / "g.json", **{**BURGERS, "rhs": "sin(y1)*Dx1(y1)"})
        assert main([argv[0], str(p), "--out", str(tmp_path), *argv[1:]]) == EXIT_ERROR
        assert "growth-model increments need the linear class" in capsys.readouterr().err


    def test_affine_rhs_needs_no_radii(self, tmp_path):
        # the 2-D Laplacian is affine, not linear (two mu): factor 1 + 1
        p = write_problem(
            tmp_path / "lap.json",
            domain={"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[-PI, PI], [-PI, PI]]},
            rhs="Dx1(Dx1(y1))+Dx2(Dx2(y1))", initial=["sin(x1)*cos(x2)"],
            solver={"tol": 1e-10, "n_max": 10, "k_check": [0], "degrees": {"x": [12, 12]}},
        )
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_INCONCLUSIVE
        meta = json.loads((tmp_path / "lap.certificate.report.json").read_text())["meta"]
        assert meta["lambda_meta"]["method"] == "leibniz"

    def test_varying_coefficient_is_sampled_and_needs_radii(self, tmp_path, capsys):
        # x-dependent coefficients are outside the Leibniz tables, so even
        # finite radii give no factors
        p = write_problem(tmp_path / "sx.json", rhs="sin(x1)*Dx2(y1)", radii=[1.0])
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {REFUSAL}\n"
        assert not (tmp_path / "sx.certificate.report.json").exists()

    def test_solve_without_lipschitz_factors_still_iterates(self, tmp_path):
        p = write_problem(tmp_path / "s.json", **{**BURGERS, "rhs": "sin(y1)*Dx1(y1)"})
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        assert main(["solve", str(p), "--out", str(tmp_path)]) == EXIT_INCONCLUSIVE
        report = json.loads((tmp_path / "s.report.json").read_text())
        assert report["certificate"] is None
        assert report["certificate_note"] == f"certificate unavailable: {REFUSAL}"
        assert (report["status"], report["n_steps"]) == ("inconclusive", 10)


class TestCertifyCommand:
    def test_heat_exponential(self, tmp_path):
        p = write_problem(tmp_path / "heat.json")
        assert main(["certify", str(p), "--out", str(tmp_path), "--nmax", "40"]) == EXIT_OK
        row = json.loads((tmp_path / "heat.certificate.report.json").read_text())["rows"][0]
        # the verdict rule's constants, recorded in every row
        assert (row["window"], row["margin"], row["rel_floor"]) == (10, 0.05, 1e-14)

    def test_growth_certificate_samples_p_once(self, tmp_path, monkeypatch):
        # the Lipschitz factor and the growth-model increments read one
        # interpolant of p(t), the one the linear step applies
        import picard_lod.picard_pde as pp

        calls = []
        original = pp._t_interp_matrix

        def spy(domain, p_exprs):
            calls.append(p_exprs)
            return original(domain, p_exprs)

        monkeypatch.setattr(pp, "_t_interp_matrix", spy)
        p = write_problem(tmp_path / "heat.json")
        assert main(["certify", str(p), "--out", str(tmp_path), "--nmax", "40"]) == EXIT_OK
        assert len(calls) == 1

    def test_kowalevski_diverges(self, tmp_path):
        p = write_problem(
            tmp_path / "kow.json",
            initial=["1/(1+x1^2)"],
            growth=[{"kind": "analytic", "C": 1.0}],
        )
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_DIVERGING
        cert = json.loads((tmp_path / "kow.certificate.report.json").read_text())
        assert cert["verdict"] == "diverging"

    def test_ode_always_converges(self, tmp_path):
        p = write_problem(
            tmp_path / "ode.json",
            domain={"t0": 0.0, "a": 0.8, "b": 0.8, "S": []},
            order={"d": 1, "p": 0, "L": 0},
            rhs="3.0*y1",
            initial=["1"],
            growth=None,
        )
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        assert main(["certify", str(p), "--out", str(tmp_path), "--nmax", "40"]) == EXIT_OK

    def test_sigma_growth_on_a_quadratic_rhs_is_refused(self, tmp_path, capsys):
        # a growth model bounds increments of the linear class only, whatever sigma
        for sigma in (1.0, 0.01):
            p = write_problem(tmp_path / "burgers.json", **{
                **BURGERS, "rhs": "y1*Dx1(y1)", "growth": [{"kind": "sigma", "sigma": sigma}],
            })
            assert main(["certify", str(p), "--out", str(tmp_path), "--nmax", "20"]) \
                == EXIT_ERROR
            assert "growth-model increments need the linear class" in capsys.readouterr().err
            assert not (tmp_path / "burgers.certificate.report.json").exists()

    def test_affine_two_placeholders_skips_quadratic_demo(self, tmp_path):
        # Dx2(y1)+y1 is affine: its Leibniz factor 1 + 1 needs no radii.
        # sin(x1) data would be a stationary solution, whose increments are
        # roundoff alone.
        p = write_problem(tmp_path / "heatplus.json", rhs="Dx2(y1)+y1", initial=["cos(2*x1)"])
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_INCONCLUSIVE
        cert = json.loads((tmp_path / "heatplus.certificate.report.json").read_text())
        assert "demo" not in cert["meta"]
        assert cert["meta"]["lambda_meta"]["method"] == "leibniz"
        assert cert["meta"]["lambda_meta"]["certified"] is True

    def test_certify_reads_the_x_degrees_of_the_file(self, tmp_path):
        # exp(x1)/(2+x1) at x degree 10: certify and solve's certificate
        # must take their numeric increments from the same i0
        p = write_problem(
            tmp_path / "dx.json", rhs="Dx2(y1)+y1", initial=["exp(x1)/(2+x1)"],
            domain={"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[-1.0, 1.0]]},
            solver={"tol": 1e-11, "n_max": 10, "k_check": [0], "degrees": {"x": [10]}},
        )
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        main(["certify", str(p), "--out", str(tmp_path)])
        main(["solve", str(p), "--out", str(tmp_path)])
        certify = json.loads((tmp_path / "dx.certificate.report.json").read_text())
        solve = json.loads((tmp_path / "dx.report.json").read_text())["certificate"]
        assert certify["rows"][0]["terms"] == solve["rows"][0]["terms"]
        assert len(certify["rows"][0]["terms"]) == 5

    def test_numeric_only_certificate_is_inconclusive(self, tmp_path):
        p = write_problem(tmp_path / "nogrowth.json")
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_INCONCLUSIVE

    @pytest.mark.parametrize("mode", ["paper", "conservative"])
    @pytest.mark.parametrize("data, verdict", [("sin(x1)", "diverging"), ("1", "converged")])
    def test_constants_past_the_float_range(self, tmp_path, mode, data, verdict):
        # a = 1e100: log LambdaBar passes exp's range at n = 4; data 1 has a zero increment
        p = write_problem(
            tmp_path / "big.json",
            domain={"t0": 0.0, "a": 1.0, "b": 1.0, "S": [[-PI, PI]]},
            order={"d": 1, "p": 0, "L": 1},
            rhs="a*Dx1(y1)", initial=[data], params={"a": 1e100},
        )
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        code = main(["certify", str(p), "--out", str(tmp_path), "--mode", mode])
        assert code == {"converged": EXIT_OK, "diverging": EXIT_DIVERGING}[verdict]
        cert = json.loads((tmp_path / "big.certificate.report.json").read_text())
        assert cert["verdict"] == verdict
        terms = cert["rows"][0]["terms"]
        if data == "1":
            assert terms == [0.0] * len(terms)
        else:
            assert math.isinf(terms[-1])
        if mode == "paper" and data == "1":
            assert main(["solve", str(p), "--out", str(tmp_path), "--paper-mode"]) == EXIT_OK


class TestSeriesCommand:
    def test_series_carries_the_order_p_of_the_file(self, tmp_path):
        # F reads no d_t y, so gamma = 0 < p = 1: the series keeps the file's p, as solve does
        p = write_problem(
            tmp_path / "wave.json", order={"d": 2, "p": 1, "L": 2}, rhs="Dx1(Dx1(y1))",
            initial=["sin(x1)", "0"], growth=[{"kind": "exponential", "C": 1.0}] * 2,
        )
        assert main(["series", str(p), "--terms", "6", "--out", str(tmp_path)]) == EXIT_OK
        rep = json.loads((tmp_path / "wave.series.report.json").read_text())
        assert rep["solution"]["p"] == 1

    def test_zero_terms_emits_i0(self, tmp_path):
        p = write_problem(tmp_path / "heat.json")
        assert main(["series", str(p), "--terms", "0", "--out", str(tmp_path)]) == EXIT_OK
        rep = json.loads((tmp_path / "heat.series.report.json").read_text())
        assert rep["diagnostics"] == {"last_term_sup": 0.0, "terms": 0, "constant_case": True}
        assert rep["solution"]["degrees"][0] == 0  # time-constant

    @pytest.mark.parametrize("terms", ["0", "1"])
    def test_diverging_classification_is_refused_at_any_terms(self, tmp_path, capsys, terms):
        # analytic data with d = 1 < L = 2 is classified diverging
        p = write_problem(tmp_path / "heat.json", growth=[{"kind": "analytic", "C": 1.0}])
        assert main(["series", str(p), "--terms", terms, "--out", str(tmp_path)]) == EXIT_ERROR
        assert "classified as diverging" in capsys.readouterr().err
        assert not (tmp_path / "heat.series.report.json").exists()

    def test_parameter_coefficient_is_a_constant_case(self, tmp_path):
        # a*Dx2(y1) with a = 1 is the heat equation, by either route
        p = write_problem(tmp_path / "heat_a.json", rhs="a*Dx2(y1)", params={"a": 1.0})
        assert main(["series", str(p), "--out", str(tmp_path)]) == EXIT_OK
        assert main(["demo", "heat", "--out", str(tmp_path)]) == EXIT_OK
        series = json.loads((tmp_path / "heat_a.series.report.json").read_text())
        demo = json.loads((tmp_path / "demo_heat.report.json").read_text())
        assert series["diagnostics"]["constant_case"] is True
        assert series["diagnostics"]["constant_case"] == demo["diagnostics"]["constant_case"]

    def test_constant_factor_over_a_sum_is_linear(self, tmp_path):
        # 2*(Dx2(y1)+x1) expands to 2 Dx2(y1) + 2 x1
        p = write_problem(tmp_path / "twice.json", rhs="2*(Dx2(y1)+x1)")
        assert main(["series", str(p), "--out", str(tmp_path)]) == EXIT_OK

    def test_nonlinear_rejected_with_explanation(self, tmp_path, capsys):
        p = write_problem(
            tmp_path / "burgers.json",
            domain={"t0": 0.0, "a": 0.25, "b": 0.25, "S": [[0.0, 1.0]]},
            order={"d": 1, "p": 0, "L": 1},
            rhs="y1*Dx1(y1)",
            initial=["x1"],
        )
        assert main(["series", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert "linear class" in capsys.readouterr().err


    def test_overflow_is_one_error_line(self, tmp_path, capsys):
        # a = 1e100: the closed form's mu matrices overflow at the fourth step
        p = write_problem(
            tmp_path / "big.json",
            domain={"t0": 0.0, "a": 1.0, "b": 1.0, "S": [[-PI, PI]]},
            order={"d": 1, "p": 0, "L": 1},
            rhs="a*Dx1(y1)", params={"a": 1e100},
        )
        assert main(["series", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: non-finite coefficients\n"


class TestCompareCommand:
    def test_generic_route_agreement(self, tmp_path, capsys):
        p = write_problem(tmp_path / "heat.json")
        assert main([
            "compare", str(p), "--against", "generic", "--terms", "5",
            "--out", str(tmp_path),
        ]) == EXIT_OK
        rep = json.loads((tmp_path / "heat.compare.report.json").read_text())
        assert rep["max_coefficient_deviation"] <= 1e-10

    def test_oracle_route(self, tmp_path):
        p = write_problem(tmp_path / "heat.json")
        assert main([
            "compare", str(p), "--against", "oracle", "--out", str(tmp_path),
        ]) == EXIT_OK
        rep = json.loads((tmp_path / "heat.compare.report.json").read_text())
        assert rep["max_grid_deviation"] <= 1e-8


class TestCompareXDegrees:
    """The closed form and the series run at the per-axis x degrees of the file."""

    def _write(self, tmp_path, x):
        return write_problem(
            tmp_path / "heat2.json",
            domain={"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[-PI, PI], [-PI, PI]]},
            rhs="Dx1(Dx1(y1))", initial=["sin(x1)*cos(x2)"],
            solver={"degrees": {"x": x}},
        )

    def test_series_runs_at_unequal_x_degrees(self, tmp_path):
        p = self._write(tmp_path, [24, 16])
        assert main(["series", str(p), "--terms", "4", "--out", str(tmp_path)]) == EXIT_OK
        rep = json.loads((tmp_path / "heat2.series.report.json").read_text())
        _, x1, x2 = rep["solution"]["degrees"]
        assert x1 <= 24 and x2 <= 16

    def test_generic_compare_at_unequal_x_degrees(self, tmp_path):
        # at [16, 24] sin(x1) is under-resolved at degree 16 and reads 1.5e-8
        p = self._write(tmp_path, [24, 16])
        assert main([
            "compare", str(p), "--against", "generic", "--terms", "4",
            "--out", str(tmp_path),
        ]) == EXIT_OK
        rep = json.loads((tmp_path / "heat2.compare.report.json").read_text())
        assert rep["max_coefficient_deviation"] <= 1e-10

    def test_equal_x_degrees_still_compare(self, tmp_path):
        p = self._write(tmp_path, [8, 8])
        assert main([
            "compare", str(p), "--against", "generic", "--terms", "4",
            "--out", str(tmp_path),
        ]) == EXIT_OK
        rep = json.loads((tmp_path / "heat2.compare.report.json").read_text())
        assert rep["max_coefficient_deviation"] < 1e-2


class TestDemoCommand:
    @pytest.mark.parametrize("case", ["heat", "transport", "wave", "mixed_dt_dx", "dt2_dx"])
    def test_catalog_cases(self, tmp_path, case):
        assert main(["demo", case, "--out", str(tmp_path)]) == EXIT_OK
        rep = json.loads((tmp_path / f"demo_{case}.report.json").read_text())
        assert rep["oracle_distance"] <= 1e-8

    def test_unknown_case(self, tmp_path, capsys):
        assert main(["demo", "laplace", "--out", str(tmp_path)]) == EXIT_ERROR


class TestUsageErrors:
    """argparse's usage errors exit 1, not 2 (a diverging certificate), with its message."""

    @pytest.mark.parametrize("argv, message", [
        (["certify", "f.json", "--mode", "bogus"], "argument --mode: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        (["series", "f.json", "--terms", "abc"], "argument --terms: invalid int value: 'abc'"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, message):
        assert main(argv) == EXIT_ERROR
        assert message in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: picard-lod")

    @pytest.mark.parametrize("argv", [
        ["series", "{p}", "--terms", "-2"],
        ["compare", "{p}", "--terms", "-1"],
        ["demo", "heat", "--terms", "-1"],
        ["certify", "{p}", "--nmax", "-1"],
    ])
    def test_negative_count_is_rejected_naming_the_flag(self, tmp_path, capsys, argv):
        p = write_problem(tmp_path / "heat.json")
        out = tmp_path / "out"
        assert main([a.format(p=p) for a in argv] + ["--out", str(out)]) == EXIT_ERROR
        assert f"argument {argv[2]}: {argv[3]} is negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["compare", "{p}", "--terms", "0"], EXIT_OK),
        (["demo", "heat", "--terms", "0"], EXIT_OK),
        (["certify", "{p}", "--nmax", "0"], EXIT_INCONCLUSIVE),
    ])
    def test_zero_count_is_valid(self, tmp_path, argv, code):
        p = write_problem(tmp_path / "heat.json")
        assert main([a.format(p=p) for a in argv] + ["--out", str(tmp_path)]) == code


class TestOneParserOneErrorExit:
    """main builds its parser once, runs cmd_<command> as found at the call, and
    prints every error itself."""

    def test_the_parser_is_built_once_per_process_and_not_at_import(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "from picard_lod.cli import main\n"
            "at_import = len(built)\n"
            "codes = [main(['demo', 'laplace']) for _ in range(3)]\n"
            "print(at_import, built.count('picard-lod'), codes)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"0 1 {[EXIT_ERROR] * 3}"

    def test_a_command_replaced_after_the_first_call_is_the_one_that_runs(
        self, tmp_path, monkeypatch
    ):
        import picard_lod.cli as cli

        p = write_problem(tmp_path / "heat.json")
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_OK
        seen = []
        monkeypatch.setattr(cli, "cmd_certify", lambda args: seen.append(args.file) or 42)
        assert main(["certify", str(p), "--out", str(tmp_path)]) == 42
        assert seen == [str(p)]

    @pytest.mark.parametrize("command, overrides, line", [
        ("solve", {**BURGERS, "rhs": "-y1*Dx1(y1)", "radii": [1e-6]},
         "iterate 1 left the ball at k=0: distance 2.500000e-01 > radius 1.000000e-06"),
        ("solve", {"solver": {"tol": 1e-11, "n_max": 10, "residual_tol": 1e-300}},
         "converged but the residual exceeds tolerance "
         "(representation degree looks insufficient)"),
        ("series", {**BURGERS, "rhs": "-y1*Dx1(y1)"},
         "this command needs the linear class p(t)*Dx^mu Dt^gamma y + q: "
         "right-hand side is not of the linear class"),
        ("compare", {**BURGERS, "rhs": "-y1*Dx1(y1)"},
         "comparison needs the linear class: right-hand side is not of the linear class"),
        ("demo", None, "unknown catalog case 'laplace'; choose from "
         "['dt2_dx', 'heat', 'mixed_dt_dx', 'transport', 'wave']"),
    ], ids=["ball-escape", "residual", "series-linear-class", "compare-linear-class",
            "demo-unknown-case"])
    def test_an_error_exits_1_with_one_error_line(
        self, tmp_path, capsys, command, overrides, line
    ):
        target = "laplace" if overrides is None else str(
            write_problem(tmp_path / "f.json", **overrides))
        assert main([command, target, "--out", str(tmp_path / "out")]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert [e for e in err if e.startswith("error:")] == [f"error: {line}"]
        assert err[-1] == f"error: {line}"


def test_console_script_entry_point(tmp_path):
    p = write_problem(tmp_path / "heat.json")
    proc = subprocess.run(
        [sys.executable, "-m", "picard_lod.cli", "solve", str(p),
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "converged" in proc.stdout


def test_cli_path_does_not_import_jsonschema(tmp_path):
    # jsonschema is a test dependency: solve and certify must run without it
    p = write_problem(tmp_path / "heat.json")
    script = (
        "import sys\n"
        "from picard_lod.cli import main\n"
        f"codes = [main([cmd, {str(p)!r}, '--out', {str(tmp_path)!r}])"
        " for cmd in ('solve', 'certify')]\n"
        "print(codes, 'jsonschema' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


JSON_FLOATS = (
    st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16])
    | st.floats().map(np.float64)
)
JSON_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_FLOATS | st.text()
    | st.lists(JSON_FLOATS),
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(), children, max_size=5)
        | st.dictionaries(st.integers() | st.booleans(), children, max_size=3)
        | st.dictionaries(st.floats(), children, max_size=3)
    ),
    max_leaves=30,
)


class TestReportWriter:
    """Reports are written by one recursive writer, byte for byte json.dumps(indent=2, sort_keys=True)."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_PAYLOADS)
    def test_bytes_equal_json_dumps(self, payload):
        from picard_lod.cli import _report_json

        assert _report_json(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("payload", [
        {"n": np.int64(3)},
        [1.0, np.bool_(True)],
        {(1, 2): 0.5},
        {"rows": [{"set": {1}}]},
        {1: 0.5, "a": 0.5},
        [1.0, 2.0, object()],
    ], ids=["np-int", "np-bool-in-float-list", "tuple-key", "nested-set", "mixed-keys",
            "object-in-float-list"])
    def test_raises_the_type_error_of_json_dumps(self, payload):
        from picard_lod.cli import _report_json

        with pytest.raises(TypeError) as want:
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            _report_json(payload)
        assert str(got.value) == str(want.value)

    def test_a_report_write_leaves_no_cyclic_garbage(self, tmp_path):
        import gc

        import picard_lod.cli as cli

        payload = {"status": "converged", "norms": [0.5, math.inf, 1e-17],
                   "rows": [{"k": 0, "terms": [1.0, 2.0], "note": None}]}
        gc.collect()
        gc.disable()
        try:
            cli._write_report(tmp_path, "r", payload)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0
        assert (tmp_path / "r.report.json").read_text() == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
