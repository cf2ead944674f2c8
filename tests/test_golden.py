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

COMMANDS = [
    *(["basis", "--family", "rodrigue", "--d", "3", "--n", "4", "--gamma", gamma]
      for gamma in ("1/2,0,1,1/3", "0,-1,1/2,-1")),
    *(["basis", "--family", "permuted", "--d", "2", "--n", "6", "--gamma", "1/2,-1,2/3",
       "--order", order]
      for order in ("1,2", "1,3", "2,1", "2,3", "3,1", "3,2")),
    ["verify", "--suite", "triangle", "--d", "2", "--n-max", "4"],
    ["verify", "--suite", "all", "--d", "2", "--n-max", "3"],
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
