"""Golden-output gate: a fixed list of CLI commands whose stdout must not change.

Each command runs in-process; the sha256 digest of its stdout and its exit
code are compared with `golden/digests.json`.  A refactor is done only when
every digest still matches.  To record the digests of commands that have none
yet, run

    PYTHONPATH=src python tests/test_golden.py

It never rewrites a recorded digest: when one no longer matches, it names it,
writes nothing and exits 1.  To change a digest on purpose, after a change of
output that is intended, delete its entry from the file by hand and run it.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from sobolex.cli import main

DIGESTS = pathlib.Path(__file__).with_name("golden") / "digests.json"

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
    # (s)_{2n} < 0 here, and (-1)_2 vanishes in the next one (exit 3)
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
    # U_1 at the all -1 weight, the one place the vertex coefficients change
    # the space, and two more refused weights: no -1 entry, and one below -1
    *([command, *family, "--d", d, "--n", "1", "--gamma", gamma, "--lambda-vertex", lams]
      for command, family in (("basis", ["--family", "u"]), ("eigen", []))
      for d, gamma, lams in (("1", "-1,-1", "2,3"), ("2", "-1,-1,-1", "1,2,3"),
                             ("3", "-1,-1,-1,-1", "1,2,3,5"))),
    ["basis", "--family", "u", "--d", "2", "--n", "1", "--gamma", "0,0,0"],
    ["eigen", "--d", "2", "--n", "1", "--gamma", "0,-1,-2"],
]


def replay(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _recorded() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_command_has_a_digest():
    assert sorted(_recorded()) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stdout_matches_the_recorded_digest(argv):
    assert replay(argv) == _recorded()[" ".join(argv)]


def test_recorder_adds_missing_digests_and_rewrites_none(tmp_path, monkeypatch):
    module = sys.modules[__name__]
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
    """Add the digest of every command that has none; return the recorded
    digests that no longer match, and write nothing if there are any."""
    recorded = _recorded()
    stale = []
    for argv in COMMANDS:
        key = " ".join(argv)
        got = replay(argv)
        if key not in recorded:
            recorded[key] = got
        elif recorded[key] != got:
            stale.append(key)
    if not stale:
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return stale


if __name__ == "__main__":
    stale = record()
    if stale:
        sys.exit("recorded digest no longer matches (delete its entry to record it "
                 "again): " + "; ".join(stale))
