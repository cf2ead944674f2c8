"""Golden-output gate: a fixed list of CLI commands whose stdout must not change.

Each command runs in-process; the sha256 digest of its stdout and its exit
code are compared with `golden/digests.json`.  A refactor is done only when
every digest still matches.  To record the digests again, after a change of
output that is intended, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from sobolex.cli import main

DIGESTS = pathlib.Path(__file__).with_name("golden") / "digests.json"

# two polynomials per dimension for `inner`, in the JSON that `--f`/`--g` take
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


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({" ".join(argv): replay(argv) for argv in COMMANDS},
                                  indent=1, sort_keys=True) + "\n")
