"""The arithmetic of `tests/request_split.py`, on fixed timings: other load
from each repetition's own four runs, and a negative time printed as it is,
marked and explained; and one run of a request given with --request."""

import subprocess
import sys
from pathlib import Path

import pytest

from request_split import NEGATIVE, parts, table

SCRIPT = Path(__file__).with_name("request_split.py")

# seconds of each kind of run, three repetitions of two requests
POSITIVE = {"start": [0.040, 0.060, 0.050], "fresh": [0.200, 0.150, 0.180],
            "compile": [0.020, 0.020, 0.020], "math": [0.130, 0.060, 0.090]}
# noise makes two of the three repetitions spend less than start + compile + math
NEGATIVE_RUNS = {"start": [0.040, 0.040, 0.040], "fresh": [0.130, 0.140, 0.150],
                 "compile": [0.025, 0.025, 0.025], "math": [0.070, 0.080, 0.075]}


def test_other_load_is_the_median_over_the_repetitions_of_their_own_differences():
    got = parts(POSITIVE)
    # per repetition 10, 10 and 20 ms; the difference of the medians would be 20
    assert got == pytest.approx({"start": 0.050, "compile": 0.020, "other load": 0.010,
                                 "math": 0.090})
    assert parts(NEGATIVE_RUNS)["other load"] == pytest.approx(-0.005)


def test_a_negative_time_prints_as_it_is_with_a_mark_and_a_note():
    lines = table([("a", parts(POSITIVE)), ("b", parts(NEGATIVE_RUNS))])
    assert lines == [
        "     start    compile other load       math   ms, then the request",
        "        50         20         10         90   a",
        "        40         25         -5*        75   b",
        "        90         45          5        165   (the pass)",
        NEGATIVE,
    ]


def test_no_note_without_a_negative_time():
    lines = table([("a", parts(POSITIVE))])
    assert "*" not in "".join(lines)
    assert lines[-1] == "        50         20         10         90   (the pass)"


def _split(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True)


def test_a_request_given_on_the_command_line_prints_its_row_and_the_pass():
    done = _split("--request", "basis --d 1 --n 1 --gamma 0,0", "--reps", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("--request: 1 requests, median of 1 runs each")
    assert sum(line.endswith("  basis --d 1 --n 1 --gamma 0,0") for line in lines) == 1
    assert sum(line.endswith("  (the pass)") for line in lines) == 1


@pytest.mark.parametrize("argv", [(), ("classical-d3", "--request", "basis --d 1 --n 1")])
def test_exactly_one_of_a_workload_or_requests(argv):
    done = _split(*argv)
    assert done.returncode == 2
    assert "exactly one of WORKLOAD or --request" in done.stderr
