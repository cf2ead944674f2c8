import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sobolex import cli
from sobolex.bases import rodrigues_basis
from sobolex.cli import main
from sobolex.polynomials import Polynomial
from sobolex.products import SingularProduct
from sobolex.scalars import ParamVector
from sobolex.spaces import u_space


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_basis_rodrigue_degree_one(capsys):
    code, out = run_cli(capsys, ["basis", "--d", "2", "--n", "1",
                                 "--gamma", "0,0,0", "--family", "rodrigue"])
    assert code == 0
    data = json.loads(out)
    polys = [Polynomial.from_json(e["poly"]) for e in data["elements"]]
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert 1 - 2 * x - y in polys and 1 - x - 2 * y in polys


def test_basis_monomial_degree_zero(capsys):
    code, out = run_cli(capsys, ["basis", "--d", "2", "--n", "0",
                                 "--gamma", "0,0,0", "--family", "monomial"])
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 1
    assert Polynomial.from_json(data["elements"][0]["poly"]) \
        == Polynomial.constant(2, 1)


def test_basis_u_family_vertex_constants(capsys):
    code, out = run_cli(capsys, ["basis", "--d", "2", "--n", "1",
                                 "--gamma", "-1,-1,-1", "--family", "u",
                                 "--lambda-vertex", "1,1,1"])
    assert code == 0
    data = json.loads(out)
    polys = [Polynomial.from_json(e["poly"]) for e in data["elements"]]
    third = __import__("fractions").Fraction(1, 3)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert polys == [x - third, y - third]


def test_basis_permuted_family(capsys):
    code, out = run_cli(capsys, ["basis", "--d", "2", "--n", "1",
                                 "--gamma", "0,0,0", "--family", "permuted",
                                 "--order", "3,2"])
    assert code == 0
    data = json.loads(out)
    polys = [Polynomial.from_json(e["poly"]) for e in data["elements"]]
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert x - y in polys  # the reflected degree-one element


def test_basis_face_family(capsys):
    code, out = run_cli(capsys, ["basis", "--d", "2", "--n", "2",
                                 "--gamma", "1/2,0,1", "--family", "h",
                                 "--zero-set", "3"])
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 1
    assert data["family"] == "h[2]"


def test_basis_json_round_trip(capsys):
    code, out = run_cli(capsys, ["basis", "--d", "3", "--n", "2",
                                 "--gamma", "1/2,0,1,1/3", "--family", "monomial"])
    assert code == 0
    data = json.loads(out)
    from sobolex.bases import monomial_basis
    from sobolex.scalars import ParamVector
    want = monomial_basis(ParamVector.parse("1/2,0,1,1/3"), 2)
    got = [Polynomial.from_json(e["poly"]) for e in data["elements"]]
    assert got == want.polys()


def test_gram_eigenspace_vs_lower(capsys):
    code, out = run_cli(capsys, ["gram", "--d", "2", "--n", "3",
                                 "--gamma", "1/2,-1,-1", "--spec", "sobolev",
                                 "--basis", "u", "--against", "lower"])
    assert code == 0
    data = json.loads(out)
    assert data["orthogonal_to_lower_degree"] is True


def test_gram_u_rows_belong_to_the_sobolev_form_built_once(capsys, monkeypatch):
    # at the all -1 weight, U_1 moves with the vertex coefficients; with
    # coefficients 2,3,5 it is orthogonal to the constants only under the
    # form of those coefficients, not under the default one
    real, calls = cli._sobolev_form, []
    monkeypatch.setattr(cli, "_sobolev_form", lambda *a: calls.append(a) or real(*a))
    code, out = run_cli(capsys, ["gram", "--d", "2", "--n", "1", "--gamma", "-1,-1,-1",
                                 "--spec", "sobolev", "--basis", "u",
                                 "--lambda-vertex", "2,3,5"])
    assert code == 0
    assert json.loads(out)["orthogonal_to_lower_degree"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("command, option", [("basis", "--family"), ("gram", "--basis")])
@pytest.mark.parametrize("family, flag", [("permuted", "--order"), ("h", "--zero-set")])
def test_a_family_without_its_flag_names_the_option_that_chose_it(capsys, command, option,
                                                                  family, flag):
    try:
        code = main([command, "--d", "2", "--n", "1", "--gamma", "0,0,0", option, family])
    except Exception as exc:  # a traceback is no refusal
        code = exc
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"usage error: {option} {family} needs {flag}\n")


def test_gram_against_lower_has_no_diagonal_even_when_square(capsys):
    # the three degree-2 elements meet the three monomials of degree <= 1: a
    # square matrix, but a cross one, so neither flag has a meaning
    code, out = run_cli(capsys, ["gram", "--d", "2", "--n", "2", "--gamma", "0,0,0",
                                 "--basis", "rodrigue", "--against", "lower"])
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == len(data["cols"]) == 3
    assert data["all_zero"] and data["orthogonal_to_lower_degree"]
    assert data["diagonal"] is None and data["positive_definite"] is None


def test_gram_against_self_does_not_claim_lower_degree_orthogonality(capsys):
    code, out = run_cli(capsys, ["gram", "--d", "2", "--n", "1", "--gamma", "-1,-1,-1",
                                 "--spec", "sobolev", "--basis", "u", "--against", "self"])
    assert code == 0
    data = json.loads(out)
    assert "orthogonal_to_lower_degree" not in data
    assert data["all_zero"] is False


def test_eigen_report_records_the_vertex_coefficients(capsys):
    argv = ["eigen", "--d", "2", "--n", "1", "--gamma", "-1,-1,-1"]
    code, plain = run_cli(capsys, argv)
    assert code == 0
    code, weighted = run_cli(capsys, argv + ["--lambda-vertex", "1,0,0"])
    assert code == 0
    assert plain != weighted
    assert json.loads(weighted)["spec"]["lambda_vertex"] == ["1", "0", "0"]


def test_gram_degenerate_spec_not_positive(capsys):
    code = main(["gram", "--d", "2", "--n", "2", "--gamma", "-1,-1,-1", "--spec", "sobolev",
                 "--basis", "monomials", "--against", "self", "--lambda-vertex", "0,0,0"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == ("error: NonPositiveForm: the Sobolev form is not positive: "
                   "vertex coefficients must be >= 0, at least one > 0\n")


def test_inner_example(capsys):
    f = json.dumps(Polynomial.variable(2, 0).to_json())
    g = json.dumps(Polynomial.variable(2, 1).to_json())
    code, out = run_cli(capsys, ["inner", "--d", "2", "--gamma", "0,0,-1",
                                 "--spec", "sobolev", "--f", f, "--g", g])
    assert code == 0
    assert json.loads(out)["value"] == "1/6"


def test_eigen_report(capsys):
    code, out = run_cli(capsys, ["eigen", "--d", "2", "--n", "3",
                                 "--gamma", "1/2,-1,-1"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["rank"] == 4


def test_verify_deterministic_output(capsys):
    argv = ["verify", "--suite", "triangle", "--d", "2", "--n-max", "2"]
    code1, out1 = run_cli(capsys, argv)
    code2, out2 = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    argv = ["verify", "--suite", "all", "--d", "1", "--n-max", "1"]
    code3, out3 = run_cli(capsys, argv)
    code4, out4 = run_cli(capsys, argv)
    assert code3 == code4 == 0 and out3 == out4


def test_verify_failure_exit_code(capsys, monkeypatch):
    import sobolex.suites as suites
    monkeypatch.setattr(suites, "run_suite",
                        lambda *a, **k: {"ok": False, "suite": "stub",
                                         "params": {}, "checks": []})
    code, out = run_cli(capsys, ["verify", "--suite", "jacobi"])
    assert code == 1


def _failed(*args, **kwargs):
    return {"ok": False, "params": {}, "suites": [], "checks": []}


# command -> (the library function it reads, patched to return "ok": false, or
# None; its exit code): 1 exactly when the printed "ok" is false, and 0 for
# basis, inner and gram, which print no "ok"
VERDICTS = {
    "eigen": ("sobolex.spaces.verify_u_space", 1),
    "report": ("sobolex.suites.run_suite", 1),
    "basis": (None, 0),
    "inner": (None, 0),
    "gram": (None, 0),
}


@pytest.mark.parametrize("command", sorted(VERDICTS))
def test_exit_code_is_the_printed_verdict(capsys, monkeypatch, command):
    target, want = VERDICTS[command]
    if target:
        monkeypatch.setattr(target, _failed)
    code, out = run_cli(capsys, PRETTY_COMMANDS[command])
    assert code == want
    assert json.loads(out).get("ok", True) is (want == 0)


# pairs of commands that print the same bytes, because the suite reads less
# of its input than the second command changes, and the params it reports
SAME_STDOUT = {
    # jacobi runs to degree max(n_max, 5)
    "jacobi-n-max-floor": (["verify", "--suite", "jacobi", "--n-max", "2"],
                           ["verify", "--suite", "jacobi", "--n-max", "5"],
                           {"n_max": 5}),
    # lemmas4 reads the leading d entries of each weight only
    "lemmas4-reads-the-leading-entries": (["verify", "--suite", "lemmas4", "--gamma", "1,2,7"],
                                          ["verify", "--suite", "lemmas4", "--gamma", "1,2,0"],
                                          {"d": 2, "leads": ["1,2"], "n_max": 3}),
}


@pytest.mark.parametrize("case", sorted(SAME_STDOUT))
def test_a_value_the_suite_does_not_read_changes_no_byte(capsys, case):
    *commands, params = SAME_STDOUT[case]
    first, second = (run_cli(capsys, argv) for argv in commands)
    assert first == second
    assert first[0] == 0 and json.loads(first[1])["params"] == params


_X1 = json.dumps(Polynomial.variable(1, 0).to_json())

# one small command per subcommand
PRETTY_COMMANDS = {
    "basis": ["basis", "--d", "2", "--n", "2", "--gamma", "1/2,0,1", "--family", "rodrigue"],
    "inner": ["inner", "--d", "1", "--gamma", "1/2,-1", "--spec", "sobolev",
              "--f", _X1, "--g", _X1],
    "gram": ["gram", "--d", "1", "--n", "2", "--gamma", "-1,-1", "--spec", "sobolev",
             "--basis", "monomials", "--against", "self", "--lambda-vertex", "2,3"],
    "eigen": ["eigen", "--d", "2", "--n", "2", "--gamma", "1/2,1/3,-1"],
    "verify": ["verify", "--suite", "thm36", "--d", "1", "--n-max", "2"],
    "report": ["report", "--d", "1", "--n-max", "1"],
}


@pytest.mark.parametrize("command", sorted(PRETTY_COMMANDS))
def test_pretty_prints_the_same_object_indented(capsys, command):
    argv = PRETTY_COMMANDS[command]
    code, plain = run_cli(capsys, argv)
    pretty_code, pretty = run_cli(capsys, [*argv, "--pretty"])
    assert pretty_code == code
    obj = json.loads(plain)
    assert json.loads(pretty) == obj
    assert pretty == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(capsys, ["basis", "--d", "2", "--n", "1",
                               "--gamma", "0,0"])
    assert code == 2
    code, _ = run_cli(capsys, ["basis", "--d", "2", "--n", "1",
                               "--gamma", "0,-1,0", "--family", "u"])
    assert code == 2


MALFORMED_POLYNOMIALS = {
    "fractional-exponent": '{"d":2,"terms":[{"exp":[1.5,0],"coef":"1"}]}',
    "boolean-exponent": '{"d":2,"terms":[{"exp":[true,0],"coef":"1"}]}',
    "float-coefficient": '{"d":2,"terms":[{"exp":[1,0],"coef":1.5}]}',
    "non-object": '[{"exp":[1,0],"coef":"1"}]',
    "zero-denominator": '{"d":2,"terms":[{"exp":[1,0],"coef":"1/0"}]}',
    "not-json": '{"d":2,',
    "no-d": '{"terms":[]}',
    "no-coef": '{"d":2,"terms":[{"exp":[1,0]}]}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_POLYNOMIALS))
def test_malformed_polynomial_is_a_usage_error(capsys, case):
    good = json.dumps(Polynomial.variable(2, 0).to_json())
    code, out = run_cli(capsys, ["inner", "--d", "2", "--gamma", "0,0,0",
                                 "--f", MALFORMED_POLYNOMIALS[case], "--g", good])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("case, key", [("no-d", '"d"'), ("no-coef", '"coef"')])
def test_a_missing_polynomial_key_is_named(capsys, case, key):
    good = json.dumps(Polynomial.variable(2, 0).to_json())
    code = main(["inner", "--d", "2", "--gamma", "0,0,0",
                 "--f", MALFORMED_POLYNOMIALS[case], "--g", good])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error: ") and err.endswith(f" has no {key}\n")


_X = json.dumps(Polynomial.variable(2, 0).to_json())

# flags that the command would otherwise drop without a word
IGNORED_FLAGS = {
    **{f"gamma-{suite}": ["verify", "--suite", suite, "--d", "2", "--n-max", "1",
                          "--gamma", "0,0,0"]
       for suite in ("jacobi", "thm31", "thm34", "thm36", "all")},
    "lambda-vertex-basis-u": ["basis", "--d", "2", "--n", "1", "--gamma", "0,-1,-1",
                              "--family", "u", "--lambda-vertex", "1,1,1"],
    "lambda-vertex-inner": ["inner", "--d", "2", "--gamma", "0,0,-1", "--spec", "sobolev",
                            "--lambda-vertex", "1,1,1", "--f", _X, "--g", _X],
    "lambda-vertex-gram": ["gram", "--d", "2", "--n", "2", "--gamma", "1/2,-1,-1",
                           "--spec", "sobolev", "--lambda-vertex", "1,1,1"],
    "lambda-vertex-eigen": ["eigen", "--d", "2", "--n", "2", "--gamma", "1/2,-1,-1",
                            "--lambda-vertex", "1,1,1"],
}
# --lambda-vertex where neither the family nor the spec has vertex terms
_FAMILY_FLAGS = {"rodrigue": [], "monomial": [], "permuted": ["--order", "1,2"],
                 "h": ["--zero-set", "3"]}
IGNORED_FLAGS.update({
    f"lambda-vertex-basis-{family}": ["basis", "--d", "2", "--n", "1", "--gamma", "0,0,0",
                                      "--family", family, *extra, "--lambda-vertex", "1,1,1"]
    for family, extra in _FAMILY_FLAGS.items()})
IGNORED_FLAGS.update({
    f"lambda-vertex-inner-{spec}": ["inner", "--d", "2", "--gamma", "0,0,0", "--spec", spec,
                                    "--lambda-vertex", "1,1,1", "--f", _X, "--g", _X]
    for spec in ("classical", "epd")})
IGNORED_FLAGS.update({
    f"lambda-vertex-gram-{spec}-{basis}": ["gram", "--d", "2", "--n", "1", "--gamma", "0,0,0",
                                           "--spec", spec, "--basis", basis, *extra,
                                           "--lambda-vertex", "1,1,1"]
    for spec in ("classical", "epd")
    for basis, extra in {**_FAMILY_FLAGS, "monomials": []}.items()})
# --order and --zero-set where the family (or gram's --basis) is not the one
# that reads them, and --epd-order where the spec is not epd
_READERS = {"--order": ("permuted", "1,2"), "--zero-set": ("h", "3")}
for flag, (reader, value) in _READERS.items():
    for family, extra in {**_FAMILY_FLAGS, "u": []}.items():
        if family != reader:
            gamma, spec = ("0,-1,-1", "sobolev") if family == "u" else ("0,0,0", "classical")
            IGNORED_FLAGS[f"{flag[2:]}-basis-{family}"] = [
                "basis", "--d", "2", "--n", "1", "--gamma", gamma, "--family", family, *extra,
                flag, value]
            IGNORED_FLAGS[f"{flag[2:]}-gram-{family}"] = [
                "gram", "--d", "2", "--n", "1", "--gamma", gamma, "--spec", spec,
                "--basis", family, *extra, flag, value]
    IGNORED_FLAGS[f"{flag[2:]}-gram-monomials"] = [
        "gram", "--d", "2", "--n", "1", "--gamma", "0,0,0", flag, value]
for spec, gamma in (("classical", "0,0,0"), ("sobolev", "0,0,-1")):
    IGNORED_FLAGS[f"epd-order-inner-{spec}"] = [
        "inner", "--d", "2", "--gamma", gamma, "--spec", spec, "--epd-order", "2",
        "--f", _X, "--g", _X]
    IGNORED_FLAGS[f"epd-order-gram-{spec}"] = [
        "gram", "--d", "2", "--n", "1", "--gamma", gamma, "--spec", spec, "--epd-order", "5"]


@pytest.mark.parametrize("case", sorted(IGNORED_FLAGS))
def test_ignored_flag_is_a_usage_error(capsys, case):
    code, out = run_cli(capsys, IGNORED_FLAGS[case])
    assert code == 2
    assert out == ""


# arguments outside what the command can run: a negative degree or degree
# bound, a --d below 1, or a --d other than the one dimension a suite runs in
BAD_ARGUMENTS = {
    "n-basis": ["basis", "--d", "2", "--n", "-1", "--gamma", "0,0,0"],
    "n-gram": ["gram", "--d", "2", "--n", "-1", "--gamma", "0,0,0"],
    "n-eigen": ["eigen", "--d", "2", "--n", "-1", "--gamma", "1/2,1/3,-1"],
    "n-max-rodrigue": ["verify", "--suite", "rodrigue", "--d", "2", "--n-max", "-1"],
    "n-max-jacobi": ["verify", "--suite", "jacobi", "--n-max", "-1"],
    "n-max-all": ["verify", "--suite", "all", "--n-max", "-1"],
    "n-max-report": ["report", "--n-max", "-1"],
    "d-triangle": ["verify", "--suite", "triangle", "--d", "3", "--n-max", "1"],
    "d-thm31": ["verify", "--suite", "thm31", "--d", "3", "--n-max", "1"],
    "d-jacobi": ["verify", "--suite", "jacobi", "--d", "3", "--n-max", "1"],
    "d-jacobi-2": ["verify", "--suite", "jacobi", "--d", "2", "--n-max", "1"],
    "d-negative": ["verify", "--suite", "thm36", "--d", "-1", "--n-max", "1"],
    "d-negative-basis": ["basis", "--d", "-1", "--n", "1", "--gamma", "0,0"],
    "d-negative-gram": ["gram", "--d", "-1", "--n", "1", "--gamma", "0,0"],
    "d-negative-eigen": ["eigen", "--d", "-1", "--n", "1", "--gamma", "0,-1"],
    "d-zero-inner": ["inner", "--d", "0", "--gamma", "0", "--f", _X, "--g", _X],
    "gamma-zero-denominator": ["verify", "--suite", "rodrigue", "--d", "2", "--gamma", "0,0,1/0"],
    "lambda-vertex-zero-denominator": ["inner", "--d", "2", "--gamma", "-1,-1,-1", "--spec",
                                       "sobolev", "--lambda-vertex", "1/0,1,1", "--f", _X,
                                       "--g", _X],
    "order-repeated": ["basis", "--d", "2", "--n", "2", "--family", "permuted",
                       "--gamma", "0,0,0", "--order", "1,1"],
    "zero-set-repeated": ["basis", "--d", "2", "--n", "2", "--family", "h",
                          "--gamma", "0,0,0", "--zero-set", "1,1"],
    "epd-order-zero": ["inner", "--d", "2", "--gamma", "0,0,0", "--spec", "epd",
                       "--epd-order", "0", "--f", _X, "--g", _X],
    # an empty --lambda-vertex is given, not absent: below k = d+1 it is
    # refused like any other, and at k = d+1 it has no entry to read
    "lambda-vertex-empty": ["eigen", "--d", "2", "--n", "1", "--gamma", "0,-1,-1",
                            "--lambda-vertex="],
    "lambda-vertex-empty-all-singular": ["eigen", "--d", "2", "--n", "1",
                                         "--gamma", "-1,-1,-1", "--lambda-vertex="],
    "lambda-vertex-empty-basis-u": ["basis", "--d", "2", "--n", "1", "--family", "u",
                                    "--gamma", "-1,-1,-1", "--lambda-vertex", ""],
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_argument_is_a_usage_error(capsys, case):
    argv = BAD_ARGUMENTS[case]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    if case in ("n-basis", "n-gram", "n-eigen"):
        assert "--n " in err
    if case.startswith("d-negative") or case == "d-zero-inner":
        assert "--d must be >= 1" in err
    if case.endswith("-repeated"):
        assert "index 1 repeated" in err


NOT_SINGULAR = "a singular weight needs a trailing block of -1 entries"

# every command that builds a Sobolev form, at a weight with no -1 entry
NO_MINUS_ONE = {
    "basis-u": ["basis", "--d", "2", "--n", "1", "--gamma", "0,0,0", "--family", "u"],
    "eigen": ["eigen", "--d", "2", "--n", "1", "--gamma", "0,0,0"],
    "inner": ["inner", "--d", "2", "--gamma", "0,0,0", "--spec", "sobolev",
              "--f", _X, "--g", _X],
    "gram": ["gram", "--d", "2", "--n", "1", "--gamma", "0,0,0", "--spec", "sobolev"],
}


def test_the_library_refuses_a_weight_with_no_minus_one_in_its_split():
    # u_space takes only a form, so a form is the only way to reach it
    gamma = ParamVector([0, 0, 0])
    for reach in (gamma.singular_split, lambda: SingularProduct(gamma),
                  lambda: u_space(SingularProduct(gamma), 1)):
        with pytest.raises(ValueError, match=NOT_SINGULAR):
            reach()


@pytest.mark.parametrize("case", sorted(NO_MINUS_ONE))
def test_every_command_refuses_a_weight_with_no_minus_one_alike(capsys, case):
    code = main(NO_MINUS_ONE[case])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"usage error: {NOT_SINGULAR}\n"


@pytest.mark.parametrize("suite, d", [("jacobi", "1"), ("triangle", "2"), ("thm31", "2")])
def test_fixed_dimension_suite_accepts_its_own_d(capsys, suite, d):
    assert run_cli(capsys, ["verify", "--suite", suite, "--d", d, "--n-max", "1"]) \
        == run_cli(capsys, ["verify", "--suite", suite, "--n-max", "1"])


_ONE = json.dumps(Polynomial.constant(2, 1).to_json())

# Sobolev forms whose --lambda-vertex has a negative entry or no positive one:
# they are no inner product, on every path that reads --lambda-vertex
NOT_POSITIVE = {
    "eigen": ["eigen", "--d", "2", "--n", "1", "--gamma", "-1,-1,-1",
              "--lambda-vertex", "-1,0,0"],
    "inner": ["inner", "--d", "2", "--gamma", "-1,-1,-1", "--spec", "sobolev",
              "--lambda-vertex", "-1,0,0", "--f", _ONE, "--g", _ONE],
    "basis-u": ["basis", "--d", "2", "--n", "1", "--gamma", "-1,-1,-1", "--family", "u",
                "--lambda-vertex", "1,-1,0"],
    "gram-sobolev": ["gram", "--d", "2", "--n", "1", "--gamma", "-1,-1,-1", "--spec",
                     "sobolev", "--basis", "monomials", "--against", "self",
                     "--lambda-vertex", "0,0,0"],
    "gram-basis-u": ["gram", "--d", "2", "--n", "1", "--gamma", "-1,-1,-1", "--basis", "u",
                     "--lambda-vertex", "2,-1,0"],
}


@pytest.mark.parametrize("case", sorted(NOT_POSITIVE))
def test_sobolev_form_that_is_not_positive_is_refused(capsys, case):
    code = main(NOT_POSITIVE[case])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "NonPositiveForm" in err


def test_math_precondition_exit_code(capsys):
    f = json.dumps(Polynomial.constant(1, 1).to_json())
    code, _ = run_cli(capsys, ["inner", "--d", "1", "--gamma", "-2,0",
                               "--spec", "classical", "--f", f, "--g", f])
    assert code == 3
    code, _ = run_cli(capsys, ["basis", "--d", "2", "--n", "1",
                               "--gamma", "-1,-1,-1", "--family", "monomial"])
    assert code == 3  # degrees 0 and 1 share the eigenvalue 0


def test_report_summary(capsys):
    code, out = run_cli(capsys, ["report", "--d", "1", "--n-max", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and "suite_verdicts" in data


# an accepted weight whose basis prints numbers of about 8,000 digits, and
# numerals one digit inside and one outside the package's own bound
BIG_OUTPUT = ["basis", "--d", "1", "--n", "2", "--gamma", "1/" + "1" * 4000 + ",0"]
LONG_NUMERALS = {
    "4300-digit": (["basis", "--d", "1", "--n", "1", "--gamma", "9" * 4300 + ",0"], 0, ""),
    "4301-digit": (["basis", "--d", "1", "--n", "1", "--gamma", "9" * 4301 + ",0"], 2,
                   "usage error: a 4301-character numeral is too long to read\n"),
    "big-output": (BIG_OUTPUT, 0, ""),
    # read under a lifted limit, this --n would never finish monomials_of_degree
    "5000-digit-n": (["basis", "--d", "1", "--gamma", "0,0", "--n", "1" * 5000], 2,
                     "usage error: a 5000-character numeral is too long to read\n"),
    "5000-digit-d": (["basis", "--d", "1" * 5000, "--n", "1", "--gamma", "0,0"], 2,
                     "usage error: a 5000-character numeral is too long to read\n"),
}


@pytest.mark.parametrize("argv, code, err", LONG_NUMERALS.values(), ids=LONG_NUMERALS)
def test_no_interpreter_setting_changes_what_the_cli_reads_or_prints(argv, code, err):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    runs = []
    for setting in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}, {"PYTHONINTMAXSTRDIGITS": "640"}):
        done = subprocess.run([sys.executable, "-m", "sobolex.cli", *argv], env={**env, **setting},
                              capture_output=True, text=True, timeout=60)
        runs.append((done.returncode, done.stdout, done.stderr))
    assert runs[0][::2] == (code, err)
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_main_lifts_the_interpreter_limit_while_it_runs_and_restores_it(capsys):
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = rodrigues_basis(ParamVector.parse(BIG_OUTPUT[-1]), 2).to_json()
        for setting in (limit, 0, 640):
            sys.set_int_max_str_digits(setting)
            code, out = run_cli(capsys, BIG_OUTPUT)
            assert (code, sys.get_int_max_str_digits()) == (0, setting)
            assert json.loads(out) == want
            code, _ = run_cli(capsys, LONG_NUMERALS["4301-digit"][0])
            assert (code, sys.get_int_max_str_digits()) == (2, setting)
    finally:
        sys.set_int_max_str_digits(limit)
