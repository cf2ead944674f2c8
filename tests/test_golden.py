"""Golden-output gate: fixed lists of CLI commands whose output must not change.

Each command runs in-process.  The sha256 digest of its stdout and its exit
code are compared with `golden/digests.json`; for the refusals, the exit code
and the whole stderr (argparse's usage lines at 80 columns included) are
compared with `golden/refusals.json`.  A refactor is done only when every
record still matches.  To record the commands that have no record yet, run

    PYTHONPATH=src python tests/test_golden.py

It never rewrites a record: when one no longer matches, it names it, writes
nothing and exits 1.  To change a record on purpose, after a change of output
that is intended, delete its entry from the file by hand and run it.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

import pytest

from sobolex.cli import main

DIGESTS = pathlib.Path(__file__).with_name("golden") / "digests.json"
REFUSED = DIGESTS.with_name("refusals.json")

# two polynomials per dimension for `inner`, in the JSON that `--f`/`--g` take
F1 = '{"d":1,"terms":[{"exp":[3],"coef":"2/3"},{"exp":[1],"coef":"-1"},{"exp":[0],"coef":"1/2"}]}'
G1 = '{"d":1,"terms":[{"exp":[2],"coef":"5"},{"exp":[0],"coef":"-3/4"}]}'
F2 = ('{"d":2,"terms":[{"exp":[2,0],"coef":"1"},{"exp":[0,1],"coef":"-1/3"},'
      '{"exp":[0,0],"coef":"2"}]}')
G2 = '{"d":2,"terms":[{"exp":[1,1],"coef":"3/2"},{"exp":[1,0],"coef":"-1"}]}'
F3 = '{"d":3,"terms":[{"exp":[1,1,1],"coef":"1"},{"exp":[0,0,2],"coef":"-2/3"}]}'
G3 = '{"d":3,"terms":[{"exp":[2,0,1],"coef":"5"},{"exp":[0,1,0],"coef":"1/4"}]}'

COMMANDS = [
    *(["basis", "--family", "rodrigue", "--d", "3", "--n", "4", "--gamma", gamma]
      for gamma in ("1/2,0,1,1/3", "0,-1,1/2,-1")),
    *(["basis", "--family", "permuted", "--d", "2", "--n", "6", "--gamma", "1/2,-1,2/3",
       "--order", order]
      for order in ("1,2", "1,3", "2,1", "2,3", "3,1", "3,2")),
    ["verify", "--suite", "triangle", "--d", "2", "--n-max", "4"],
    ["verify", "--suite", "all", "--d", "2", "--n-max", "3"],
    ["inner", "--d", "2", "--gamma", "1/2,0,1", "--spec", "classical", "--f", F2, "--g", G2],
    ["inner", "--d", "3", "--gamma", "0,1/2,1,1/3", "--spec", "epd", "--epd-order", "2",
     "--f", F3, "--g", G3],
    ["inner", "--d", "2", "--gamma", "-1,-1,-1", "--spec", "sobolev", "--lambda-vertex", "2,3,5",
     "--f", F2, "--g", G2],
    ["inner", "--d", "1", "--gamma", "1/2,-1", "--spec", "sobolev", "--f", F1, "--g", G1],
    ["inner", "--d", "2", "--gamma", "1/2,1/3,-1", "--spec", "sobolev", "--f", F2, "--g", G2],
    *(["inner", "--d", "3", "--gamma", gamma, "--spec", "sobolev", *extra, "--f", F3, "--g", G3]
      for gamma, extra in (("1/2,1/3,-1,-1", []), ("1/2,-1,-1,-1", []),
                           ("-1,-1,-1,-1", ["--lambda-vertex", "1,2,3,5"]))),
    *(["inner", "--d", "3", "--gamma", "0,1/2,1,1/3", "--spec", "epd", "--epd-order", order,
       "--f", F3, "--g", G3]
      for order in ("1", "3")),
    ["gram", "--d", "2", "--n", "3", "--gamma", "1/2,-1,-1", "--spec", "sobolev", "--basis", "u",
     "--against", "lower"],
    ["gram", "--d", "2", "--n", "2", "--gamma", "0,1/2,1", "--spec", "epd", "--against", "self"],
    ["eigen", "--d", "2", "--n", "3", "--gamma", "1/2,1/3,-1"],
    ["eigen", "--d", "2", "--n", "3", "--gamma", "-1,-1,-1", "--lambda-vertex", "1,2,3"],
    *(["verify", "--suite", suite, "--d", "1", "--n-max", "4"]
      for suite in ("rodrigue", "monomial", "lemmas4")),
    ["verify", "--suite", "lemmas4", "--d", "3", "--n-max", "4"],
    ["verify", "--suite", "thm34", "--d", "3", "--n-max", "3"],
    ["verify", "--suite", "thm36", "--d", "3", "--n-max", "3"],
    *(["basis", "--family", "monomial", "--d", "3", "--n", "4", "--gamma", gamma]
      for gamma in ("1/2,0,1,1/3", "1/2,1/3,2/3,-1")),
    # s < 0 here, and (g_1+1)_2 vanishes in the next one, where V_nu exists all the same
    ["basis", "--family", "monomial", "--d", "2", "--n", "5", "--gamma", "-5/2,1/3,0"],
    ["basis", "--family", "monomial", "--d", "2", "--n", "2", "--gamma", "0,-2,1/2"],
    # face blocks through the hyperplane and through the coordinate faces,
    # a permuted basis at d = 4, and every trailing -1 block at d = 3
    *(["basis", "--family", "h", "--d", "3", "--n", "3", "--gamma", "1/2,1/3,2,1/4",
       "--zero-set", zset]
      for zset in ("4", "1,4", "2")),
    ["basis", "--family", "h", "--d", "4", "--n", "3", "--gamma", "1/2,1/3,2,1/4,0",
     "--zero-set", "2,3,5"],
    ["basis", "--family", "permuted", "--d", "4", "--n", "3", "--gamma", "1/2,1/3,2,1/4,0",
     "--order", "5,2,1,3"],
    *(["basis", "--family", "u", "--d", "3", "--n", "4", "--gamma", gamma, *extra]
      for gamma, extra in (("1/2,1/3,2,-1", []), ("1/2,1/3,-1,-1", []),
                           ("1/2,-1,-1,-1", []),
                           ("-1,-1,-1,-1", ["--lambda-vertex", "1,2,3,5"]))),
    # the one-variable case: the interval families, and the d = 1 Sobolev
    # forms on T^1 that check them
    ["verify", "--suite", "jacobi", "--n-max", "7"],
    ["verify", "--suite", "thm36", "--d", "1", "--n-max", "4"],
    ["gram", "--d", "1", "--n", "4", "--gamma", "1/2,-1", "--spec", "sobolev", "--basis",
     "monomials", "--against", "self"],
    ["gram", "--d", "1", "--n", "4", "--gamma", "-1,-1", "--spec", "sobolev", "--basis",
     "monomials", "--against", "self", "--lambda-vertex", "2,3"],
    # the paper's four d = 2 forms, written out term by term, against SingularProduct
    *(["verify", "--suite", "thm31", "--n-max", n] for n in ("2", "5")),
    # the d = 3 positive-definite and biorthogonality paths, a d = 3 eigenspace,
    # and a d = 3 Gram against lower-degree columns
    *(["verify", "--suite", suite, "--d", "3", "--n-max", "3"]
      for suite in ("rodrigue", "monomial")),
    ["eigen", "--d", "3", "--n", "4", "--gamma", "1/2,0,1,-1"],
    ["gram", "--d", "3", "--n", "4", "--gamma", "0,1,-1,-1", "--spec", "sobolev", "--basis", "u",
     "--against", "lower"],
    # a square Gram against lower-degree columns: no diagonal, no definiteness
    ["gram", "--d", "2", "--n", "2", "--gamma", "0,0,0", "--basis", "rodrigue", "--against",
     "lower"],
    # the eigenspaces and bases of more trailing -1 blocks, at d = 1, 2, 3
    ["eigen", "--d", "1", "--n", "3", "--gamma", "1/2,-1"],
    ["eigen", "--d", "1", "--n", "3", "--gamma", "-1,-1", "--lambda-vertex", "2,3"],
    ["eigen", "--d", "2", "--n", "3", "--gamma", "1/2,-1,-1"],
    *(["eigen", "--d", "3", "--n", "3", "--gamma", gamma, *extra]
      for gamma, extra in (("1/2,1/3,-1,-1", []), ("1/2,-1,-1,-1", []),
                           ("-1,-1,-1,-1", ["--lambda-vertex", "1,2,3,5"]))),
    ["basis", "--family", "u", "--d", "1", "--n", "3", "--gamma", "1/2,-1"],
    ["basis", "--family", "u", "--d", "2", "--n", "3", "--gamma", "0,-1,-1"],
    ["gram", "--d", "2", "--n", "2", "--gamma", "1/2,-1,-1", "--spec", "sobolev", "--basis", "u",
     "--against", "self"],
    # the weights a singular construction refuses (exit 2), and a vertex
    # coefficient list that leaves the form not positive (exit 3)
    *(["basis", "--family", "u", "--d", "2", "--n", "1", "--gamma", gamma]
      for gamma in ("0,-1,0", "0,0,-3/2")),
    ["inner", "--d", "2", "--gamma", "0,0,0", "--spec", "sobolev", "--f", F2, "--g", G2],
    ["eigen", "--d", "2", "--n", "2", "--gamma", "-1,-1,-1", "--lambda-vertex", "0,0,0"],
    # which suites `all` runs, and at which d, away from d = 2
    *(["verify", "--suite", "all", "--d", d, "--n-max", "2"] for d in ("1", "3")),
    ["report", "--d", "1", "--n-max", "2"],
    # every suite that `all` runs at d = 4 and 5, which no other digest reaches
    *(["verify", "--suite", "all", "--d", d, "--n-max", n] for d, n in (("4", "2"), ("5", "1"))),
    # U_1 at the all -1 weight, the one place the vertex coefficients change
    # the space, and two more refused weights: no -1 entry, and one below -1
    *([command, *family, "--d", d, "--n", "1", "--gamma", gamma, "--lambda-vertex", lams]
      for command, family in (("basis", ["--family", "u"]), ("eigen", []))
      for d, gamma, lams in (("1", "-1,-1", "2,3"), ("2", "-1,-1,-1", "1,2,3"),
                             ("3", "-1,-1,-1,-1", "1,2,3,5"))),
    ["basis", "--family", "u", "--d", "2", "--n", "1", "--gamma", "0,0,0"],
    ["eigen", "--d", "2", "--n", "1", "--gamma", "0,-1,-2"],
    # an accepted weight whose basis prints numbers of more than 4,300 digits
    ["basis", "--d", "1", "--n", "2", "--gamma", "1/" + "1" * 4000 + ",0"],
]


_D2 = ["--d", "2", "--n", "1", "--gamma"]

# commands that the CLI refuses, with the message of each refusal: every flag
# that only some families and specs read, given where none reads it; both
# "needs" rules under `basis` and under `gram`; an invalid choice of each
# option that has choices; a wrong-length --gamma; which of two faults is
# named first; a non-integrable weight and a form that is not positive; and a
# float and a bool JSON coefficient and a --gamma entry in exponent or decimal
# notation, none of which is an exact rational; a numeral of each integer
# option and of JSON that the one integer rule refuses; and a monic element
# that does not exist
REFUSALS = [
    ["basis", *_D2, "0,0,0", "--lambda-vertex", "1,1,1"],
    ["basis", *_D2, "0,0,0", "--family", "h", "--zero-set", "3", "--order", "1,2"],
    ["gram", *_D2, "0,0,0", "--basis", "permuted", "--order", "1,2", "--zero-set", "3"],
    ["inner", "--d", "2", "--gamma", "0,0,0", "--epd-order", "2", "--f", F2, "--g", G2],
    ["basis", *_D2, "0,0,0", "--order", "1,2", "--lambda-vertex", "1,1,1"],
    *([command, *_D2, "0,0,0", option, family]
      for command, option in (("basis", "--family"), ("gram", "--basis"))
      for family in ("permuted", "h")),
    ["basis", *_D2, "0,0,0", "--family", "x"],
    ["gram", *_D2, "0,0,0", "--basis", "x"],
    ["inner", "--d", "2", "--gamma", "0,0,0", "--spec", "x", "--f", F2, "--g", G2],
    ["verify", "--suite", "x"],
    ["basis", "--d", "2"],
    ["basis", *_D2, "0,0"],
    ["verify", "--suite", "rodrigue", "--n-max", "1", "--gamma", "0,0"],
    ["basis", *_D2, "0,0", "--order", "1,2"],
    ["basis", *_D2, "0,0", "--family", "permuted"],
    ["gram", *_D2, "0,0,0", "--spec", "epd", "--epd-order", "0", "--basis", "h"],
    ["basis", *_D2, "0,0,0", "--family", "permuted", "--order", "1,4"],
    ["gram", *_D2, "0,0,0", "--basis", "h", "--zero-set", "1,1"],
    ["gram", *_D2, "0,0,0", "--basis", "u"],
    ["inner", "--d", "1", "--gamma", "-2,0", "--f", F1, "--g", G1],
    ["eigen", *_D2, "-1,-1,-1", "--lambda-vertex", "-1,0,0"],
    *(["inner", "--d", "2", "--gamma", "0,0,0", "--f",
       '{"d":2,"terms":[{"exp":[1,0],"coef":%s}]}' % coef, "--g", G2]
      for coef in ("1.5", "true")),
    *(["basis", "--d", "1", "--n", "1", "--gamma", gamma] for gamma in ("1e1000000,0", "0.5,0")),
    # one integer rule for every numeral the package reads: ASCII digits, and
    # no more of them than int() converts
    *(["basis", "--d", "1", "--n", "1", "--gamma", gamma]
      for gamma in ("1" * 5000 + ",0", "1/" + "1" * 4301 + ",0")),
    ["basis", *_D2, "0,0,0", "--family", "permuted", "--order", "1" * 5000 + ",2"],
    ["basis", *_D2, "0,0,0", "--family", "permuted", "--order", "\u0661,\u0662"],
    ["basis", *_D2, "0,0,0", "--family", "h", "--zero-set", "1_0"],
    *(["basis", "--d", d, "--n", n, "--gamma", "0,0"]
      for d, n in (("1", "\u0663"), ("1", "1_0"), ("\u0661", "1"), ("1", "1" * 5000))),
    ["verify", "--suite", "rodrigue", "--n-max", "1_0"],
    ["gram", *_D2, "0,0,0", "--spec", "epd", "--epd-order", "\u0661"],
    ["inner", "--d", "1", "--gamma", "0,0", "--f",
     '{"d":1,"terms":[{"exp":[1],"coef":%s}]}' % ("1" * 5000), "--g", G1],
    # a monic element where degrees 0 and 1 share the eigenvalue 0
    ["basis", "--family", "monomial", *_D2, "-1,-1,-1"],
]


def replay(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def refuse(argv: list[str]) -> dict:
    """The exit code and stderr of a command that prints nothing on stdout;
    argparse's own refusals exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert out.getvalue() == "", argv
    return {"exit": code, "stderr": err.getvalue()}


def _recorded(path: pathlib.Path | None = None) -> dict:
    return json.loads((path or DIGESTS).read_text())


def test_every_command_has_a_digest():
    assert sorted(_recorded()) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stdout_matches_the_recorded_digest(argv):
    assert replay(argv) == _recorded()[" ".join(argv)]


def test_every_refusal_has_a_record():
    assert sorted(_recorded(REFUSED)) == sorted(" ".join(argv) for argv in REFUSALS)


@pytest.mark.parametrize("argv", REFUSALS, ids=" ".join)
def test_refusal_matches_the_recorded_message(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert refuse(argv) == _recorded(REFUSED)[" ".join(argv)]


def test_recorder_adds_missing_digests_and_rewrites_none(tmp_path, monkeypatch):
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "REFUSALS", [])
    monkeypatch.setattr(module, "REFUSED", tmp_path / "refusals.json")
    cheap = [["basis", "--family", "monomial", "--d", "1", "--n", n, "--gamma", "0,0"]
             for n in ("1", "2")]
    first, second = (" ".join(argv) for argv in cheap)
    monkeypatch.setattr(module, "COMMANDS", cheap)
    monkeypatch.setattr(module, "DIGESTS", tmp_path / "digests.json")
    module.DIGESTS.write_text(json.dumps({first: replay(cheap[0])}))
    assert module.record() == []
    assert module._recorded() == {first: replay(cheap[0]), second: replay(cheap[1])}
    wrong = {first: {"exit": 0, "sha256": "0" * 64}}
    module.DIGESTS.write_text(json.dumps(wrong))
    assert module.record() == [first]
    assert module._recorded() == wrong


def record() -> list[str]:
    """Add the record of every command that has none; return the records that
    no longer match, and write nothing if there are any."""
    stale, files = [], {}
    for commands, path, run in ((COMMANDS, DIGESTS, replay), (REFUSALS, REFUSED, refuse)):
        recorded = files[path] = _recorded(path) if path.exists() else {}
        for argv in commands:
            key = " ".join(argv)
            got = run(argv)
            if key not in recorded:
                recorded[key] = got
            elif recorded[key] != got:
                stale.append(key)
    if not stale:
        for path, recorded in files.items():
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return stale


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # the width of argparse's usage lines in a refusal
    stale = record()
    if stale:
        sys.exit("record no longer matches (delete its entry to record it "
                 "again): " + "; ".join(stale))
