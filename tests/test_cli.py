import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from picard_lod.cli import (
    EXIT_DIVERGING,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    PROBLEM_SCHEMA,
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


# 1-D problem of the quadratic demo; certify's routes depend on the form of F
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


class TestCertifyRoutes:
    # a polynomial F takes the certified Leibniz factors, any other F is sampled
    @pytest.mark.parametrize("rhs, method", [
        pytest.param("y1^3+Dx1(y1)", "leibniz", id="y1^3+Dx1(y1)"),
        pytest.param("sin(y1)*Dx1(y1)", "sampled", id="sin(y1)*Dx1(y1)"),
    ])
    def test_general_rhs_is_sampled_not_the_demo(self, tmp_path, rhs, method):
        cert = certify_without_growth(tmp_path, rhs)
        assert "demo" not in cert["meta"]
        assert cert["meta"]["lambda_meta"]["method"] == method
        assert cert["meta"]["lambda_meta"]["certified"] is (method == "leibniz")

    @pytest.mark.parametrize("rhs", ["-y1*Dx1(y1)", "0.5*y1*Dx1(y1)"])
    def test_quadratic_rhs_reaches_the_demo(self, tmp_path, rhs):
        cert = certify_without_growth(tmp_path, rhs)
        assert cert["verdict"] == "diverging"
        assert "hyperfactorial" in cert["meta"]["witness"]

    def test_quadratic_rhs_with_a_varying_coefficient_is_an_error(self, tmp_path, capsys):
        p = write_problem(tmp_path / "c.json", **{**BURGERS, "rhs": "x1*y1*Dx1(y1)"})
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert "constant coefficient" in capsys.readouterr().err
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
        # x-dependent coefficients are outside the Leibniz tables
        p = write_problem(tmp_path / "sx.json", rhs="sin(x1)*Dx2(y1)")
        doc = json.loads(p.read_text())
        del doc["growth"]
        p.write_text(json.dumps(doc))
        assert main(["certify", str(p), "--out", str(tmp_path)]) == EXIT_ERROR
        assert "sampled Lipschitz estimation needs finite radii" in capsys.readouterr().err


class TestCertifyCommand:
    def test_heat_exponential(self, tmp_path):
        p = write_problem(tmp_path / "heat.json")
        assert main(["certify", str(p), "--out", str(tmp_path), "--nmax", "40"]) == EXIT_OK
        row = json.loads((tmp_path / "heat.certificate.report.json").read_text())["rows"][0]
        # the verdict rule's constants, recorded in every row
        assert (row["window"], row["margin"], row["rel_floor"]) == (10, 0.05, 1e-14)

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

    def test_quadratic_demo_diverges_with_witness(self, tmp_path):
        p = write_problem(
            tmp_path / "burgers.json",
            domain={"t0": 0.0, "a": 0.25, "b": 0.25, "S": [[0.0, 1.0]]},
            order={"d": 1, "p": 0, "L": 1},
            rhs="y1*Dx1(y1)",
            initial=["x1"],
            radii=[1.0],
            growth=[{"kind": "sigma", "sigma": 1.0}],
        )
        assert main(["certify", str(p), "--out", str(tmp_path), "--nmax", "20"]) \
            == EXIT_DIVERGING
        cert = json.loads((tmp_path / "burgers.certificate.report.json").read_text())
        assert "hyperfactorial" in cert["meta"]["witness"]

    def test_affine_two_placeholders_skips_quadratic_demo(self, tmp_path):
        # Dx2(y1)+y1 is affine: it takes the Lipschitz path, not burgers_demo,
        # and its Leibniz factor 1 + 1 needs no radii.  sin(x1) data would be
        # a stationary solution, whose increments are roundoff alone.
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
    def test_zero_terms_emits_i0(self, tmp_path):
        p = write_problem(tmp_path / "heat.json")
        assert main(["series", str(p), "--terms", "0", "--out", str(tmp_path)]) == EXIT_OK
        rep = json.loads((tmp_path / "heat.series.report.json").read_text())
        assert rep["diagnostics"]["terms"] == 0
        assert rep["solution"]["degrees"][0] == 0  # time-constant

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
    """The closed form takes one x degree, so generic compare needs equal ones."""

    def _write(self, tmp_path, x):
        return write_problem(
            tmp_path / "heat2.json",
            domain={"t0": 0.0, "a": 0.1, "b": 0.1, "S": [[-PI, PI], [-PI, PI]]},
            rhs="Dx1(Dx1(y1))", initial=["sin(x1)*cos(x2)"],
            solver={"degrees": {"x": x}},
        )

    @pytest.mark.parametrize("x", [[8, 24], [24, 8]])
    def test_unequal_x_degrees_exit_with_error(self, tmp_path, capsys, x):
        p = self._write(tmp_path, x)
        assert main([
            "compare", str(p), "--against", "generic", "--terms", "4",
            "--out", str(tmp_path),
        ]) == EXIT_ERROR
        assert f"needs equal x degrees, got {x}" in capsys.readouterr().err
        assert not (tmp_path / "heat2.compare.report.json").exists()

    @pytest.mark.parametrize("argv, command, report", [
        (["series"], "series", "heat2.series.report.json"),
        (["compare", "--against", "oracle"], "compare --against oracle",
         "heat2.compare.report.json"),
    ])
    def test_series_and_oracle_refuse_unequal_x_degrees(
        self, tmp_path, capsys, argv, command, report
    ):
        p = self._write(tmp_path, [8, 24])
        assert main([argv[0], str(p), *argv[1:], "--out", str(tmp_path)]) == EXIT_ERROR
        assert f"{command} needs equal x degrees, got [8, 24]" in capsys.readouterr().err
        assert not (tmp_path / report).exists()

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


def test_console_script_entry_point(tmp_path):
    p = write_problem(tmp_path / "heat.json")
    proc = subprocess.run(
        [sys.executable, "-m", "picard_lod.cli", "solve", str(p),
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "converged" in proc.stdout
