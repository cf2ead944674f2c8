"""Run a fixed grid of CLI argument lists and compare what two trees print.

The grid crosses, per command, a few values of each of its options (absent,
valid, malformed, out of range), so that most lists are refusals and the rest
are cheap runs at d <= 2.  Malformed numerals (another script's digits, an
underscore, more digits than int() converts) are given to each option whose
numerals the package reads itself, and as a JSON coefficient of `inner`,
each in one otherwise valid list.  For each list the record keeps the exit
code, the sha256 of stdout (the whole text for a `--help`) and the whole
stderr.

    python tests/cli_sweep.py record OUT.json     # the sobolex on the import path
    python tests/cli_sweep.py compare OLD NEW     # two checkouts of the repository

`compare` records each tree in its own process (PYTHONPATH=TREE/src, 80
columns for argparse), prints the exit-code counts of each, and then every
list whose exit code, stdout or stderr differs, the `--help` texts as a diff.
It exits 1 when anything differs.  OLD is typically a `git worktree` or a
`git archive` of the parent commit.  pytest does not collect this file.
"""

from __future__ import annotations

import collections
import contextlib
import difflib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

X1 = '{"d":1,"terms":[{"exp":[1],"coef":"1"}]}'
X2 = '{"d":2,"terms":[{"exp":[1,0],"coef":"1/2"},{"exp":[0,0],"coef":"-1"}]}'
FAMILIES = [None, "rodrigue", "monomial", "permuted", "h", "u", "x"]
SPECS = [None, "classical", "epd", "sobolev", "x"]
SUITES = ["jacobi", "triangle", "rodrigue", "monomial", "lemmas4", "thm31", "thm34", "thm36",
          "all", "x"]

# command -> option -> its values: None leaves the option out, True gives a
# bare flag, and a list repeats the option once per entry
GRID = {
    "basis": {
        "--d": [None, "1", "0"],
        "--n": [None, "1", "-1"],
        "--gamma": [None, "0,0,0", "0,0", "-1,-1,-1", "0,-1,-1"],
        "--family": FAMILIES,
        "--order": [None, "3,2", "1,4"],
        "--zero-set": [None, "3", "1,1"],
        "--lambda-vertex": [None, "1,1,1", "-1,0,0"],
    },
    "gram": {
        "--d": [None, "1"],
        "--n": ["1"],
        "--gamma": ["0,0,0", "0,0", "-1,-1,-1", "0,-1,-1"],
        "--spec": SPECS,
        "--epd-order": [None, "2"],
        "--basis": [*FAMILIES, "monomials"],
        "--against": [None, "self"],
        "--order": [None, "3,2"],
        "--zero-set": [None, "3"],
        "--lambda-vertex": [None, "1,1,1"],
    },
    "inner": {
        "--d": [None, "1", "0"],
        "--gamma": ["0,0,0", "0,0", "-1,-1,-1", "0,0,-1", "-2,0"],
        "--spec": SPECS,
        "--epd-order": [None, "2", "0"],
        "--lambda-vertex": [None, "1,1,1", "2,3"],
        "--f": [X2, X1, '{"d":2,'],
        "--g": [X2, None],
    },
    "eigen": {
        "--d": [None, "1", "3"],
        "--n": [None, "1", "2", "-1"],
        "--gamma": [None, "-1,-1,-1", "1/2,-1", "0,0,0", "1/2,1/3,-1", "-1,-1"],
        "--lambda-vertex": [None, "1,2,3", "2,3", "-1,0,0", ""],
        "--pretty": [None, True],
    },
    "verify": {
        "--suite": SUITES,
        "--d": [None, "1", "2", "0"],
        "--n-max": ["0", "1", "-1"],
        "--gamma": [None, ["0,0,0"], ["0,0"], ["0,0,0", "1/2,0,1"]],
        "--pretty": [None, True],
    },
    "report": {
        "--d": [None, "1", "2", "0"],
        "--n-max": ["0", "1", "-1"],
        "--pretty": [None, True],
    },
}
HELP = [[], ["--help"], ["x"], *([command, "--help"] for command in GRID)]
# each given in one list: crossed with the grid they would multiply its size
MALFORMED = [
    [*argv, option, numeral]
    for numeral in ("\u0661,\u0662", "1_0", "1" * 5000 + ",2")
    for *argv, option in (
        ["basis", "--n", "1", "--gamma", "0,0,0", "--family", "permuted", "--order"],
        ["gram", "--n", "1", "--gamma", "0,0,0", "--basis", "permuted", "--order"],
        ["basis", "--n", "1", "--gamma", "0,0,0", "--family", "h", "--zero-set"],
        ["gram", "--n", "1", "--gamma", "0,0,0", "--basis", "h", "--zero-set"],
        ["basis", "--n", "1", "--gamma"],
        ["eigen", "--n", "1", "--gamma"],
        ["verify", "--suite", "rodrigue", "--n-max", "1", "--gamma"],
        ["eigen", "--n", "1", "--gamma", "-1,-1,-1", "--lambda-vertex"],
    )] + [
    [*argv, option, numeral]
    for numeral in ("\u0663", "1_0", "1" * 5000)
    for *argv, option in (
        ["basis", "--gamma", "0,0,0", "--n"],
        ["basis", "--n", "1", "--gamma", "0,0", "--d"],
        ["verify", "--suite", "rodrigue", "--n-max"],
        ["gram", "--n", "1", "--gamma", "0,0,0", "--spec", "epd", "--epd-order"],
    )] + [
    ["inner", "--gamma", "0,0,0", "--g", X2, "--f",
     '{"d":2,"terms":[{"exp":[1,0],"coef":%s}]}' % numeral]
    for numeral in ("\u0663", "1_0", "1" * 5000)]


def grid() -> list[list[str]]:
    out = HELP + MALFORMED
    for command, options in GRID.items():
        for values in itertools.product(*options.values()):
            argv = [command]
            for option, value in zip(options, values):
                if value is True:
                    argv.append(option)
                elif isinstance(value, list):
                    argv += [part for entry in value for part in (option, entry)]
                elif value is not None:
                    argv += [option, value]
            out.append(argv)
    return out


def run(argv: list[str]) -> dict:
    from sobolex.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    shown = text if "--help" in argv else hashlib.sha256(text.encode()).hexdigest()
    return {"exit": code, "stdout": shown, "stderr": err.getvalue()}


def record(path: str) -> None:
    Path(path).write_text(json.dumps({json.dumps(argv): run(argv) for argv in grid()}))


def compare(old_tree: str, new_tree: str) -> int:
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, tree in (("old", old_tree), ("new", new_tree)):
            out = Path(tmp) / f"{name}.json"
            env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
                       PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")
            subprocess.run([sys.executable, __file__, "record", str(out)], env=env, check=True)
            records.append(json.loads(out.read_text()))
    old, new = records
    for name, rec in (("old", old), ("new", new)):
        counts = collections.Counter(r["exit"] for r in rec.values())
        print(f"{name}: {len(rec)} lists, exit codes {dict(sorted(counts.items()))}")
    differ = 0
    for key in old:
        for field in ("exit", "stdout", "stderr"):
            a, b = old[key][field], new[key][field]
            if a == b:
                continue
            differ += 1
            print(f"{field} differs: {' '.join(json.loads(key))}")
            if field == "stdout" and isinstance(a, str) and "\n" in a:
                sys.stdout.writelines(difflib.unified_diff(
                    a.splitlines(True), b.splitlines(True), "old", "new", n=0))
            else:
                print(f"  old: {a!r}\n  new: {b!r}")
    print(f"{differ} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["record"] and len(sys.argv) == 3:
        record(sys.argv[2])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
