"""Split the time of each request of a benchmark workload, or of requests
given on the command line, into interpreter start, compile, other load and
mathematics.

    python tests/request_split.py WORKLOAD [--seed N] [--reps R]
    python tests/request_split.py --request "ARGS" [--request "ARGS" ...] [--reps R]

WORKLOAD is a name of `perfbench/workloads.py` (classical-d3, sobolev-d3,
identities-d2); its pass 0 at seed N (default 1) is read from that file as it
is.  Each --request is instead one request of its own, its CLI arguments ARGS
split as a shell would (`shlex`), which must exit 0; the pass is then those
requests in the order given.  Exactly one of the two is given.  For each
request, the median of R runs (default 5) of each of:

    start     `python -c pass`
    fresh     the request as the benchmark sends it, `python -m sobolex.cli
              ARGS`, against a copy of src/ with no bytecode cache
              (PYTHONDONTWRITEBYTECODE=1, so every module is compiled)
    compile   the seconds the same request spends compiling the package's
              modules, timed in a probe run by a hook on
              `SourceFileLoader.source_to_code`
    math      `cli.main(argv)` alone, timed in a fresh process after every
              module of the package is loaded

gives start, compile, other load and math, in milliseconds, for each request
and summed over the pass.  Other load is fresh - start - compile - math of each
repetition's own four runs, whose median is reported; noise can make it
negative, and a negative time is printed as it is, marked with a "*".  The four
kinds of run alternate within each repetition.  The copy of src/ lives in a
temporary directory; nothing is written in the checkout.  pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in the child with argv[1:] the CLI arguments: loads every module,
# then times cli.main alone and prints the seconds.
MATH = """\
import contextlib, importlib, io, pkgutil, sys, time
import sobolex, sobolex.cli
for info in pkgutil.iter_modules(sobolex.__path__):
    getattr(importlib.import_module("sobolex." + info.name), "__name__")  # runs a lazy module
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    try:
        sobolex.cli.main(sys.argv[1:])
    except SystemExit:
        pass
print(time.perf_counter() - start)
"""

# Runs in the child as `python -m sobolex.cli ARGS` would, with argv[1:] the
# CLI arguments, and prints the seconds spent compiling the package's sources.
COMPILE = """\
import contextlib, io, os, runpy, sys, time
from importlib.machinery import SourceFileLoader
src, to_code, spent = os.environ["PYTHONPATH"], SourceFileLoader.source_to_code, []
def timed(self, data, path, *args, **kwargs):
    start = time.perf_counter()
    try:
        return to_code(self, data, path, *args, **kwargs)
    finally:
        if str(path).startswith(src):
            spent.append(time.perf_counter() - start)
SourceFileLoader.source_to_code = timed
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    try:
        runpy.run_module("sobolex.cli", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
print(sum(spent))
"""


def _timed(argv: list[str], env: dict, expected_exit: int | None = None) -> float:
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, capture_output=True)
    seconds = time.perf_counter() - start
    if expected_exit is not None and done.returncode != expected_exit:
        raise RuntimeError(f"{argv}: exit {done.returncode}, expected {expected_exit}: "
                           f"{done.stderr.decode(errors='replace')}")
    return seconds


def _copy(tmp: Path) -> dict:
    """The environment of a copy of src/ with no bytecode cache."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


KINDS = ["start", "compile", "other load", "math"]
NEGATIVE = "* below zero: run-to-run noise exceeds this time; printed as measured, not clamped"


def parts(runs: dict[str, list[float]]) -> dict[str, float]:
    """The seconds of each of KINDS: the median over the repetitions of
    `runs[kind]`, and for other load that of each repetition's
    fresh - start - compile - math."""
    other = [f - s - c - m for f, s, c, m
             in zip(runs["fresh"], runs["start"], runs["compile"], runs["math"])]
    return {kind: statistics.median(other if kind == "other load" else runs[kind])
            for kind in KINDS}


def table(rows: list[tuple[str, dict[str, float]]]) -> list[str]:
    """The lines that print `rows` and their sum in milliseconds, a negative
    time marked with a "*" and explained in a last line."""
    shown = [*rows, ("(the pass)", {k: sum(times[k] for _, times in rows) for k in KINDS})]
    lines = ["".join(f"{k:>10} " for k in KINDS) + "  ms, then the request"]
    lines += ["".join(f"{1000 * times[k]:10.0f}{'*' if times[k] < 0 else ' '}" for k in KINDS)
              + "  " + key for key, times in shown]
    if any(t < 0 for _, times in shown for t in times.values()):
        lines.append(NEGATIVE)
    return lines


def split(requests, reps: int) -> list[tuple[str, dict[str, float]]]:
    """(request key, `parts` of its `reps` repetitions) per request."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        env = _copy(Path(tmp))
        for request in requests:
            cli = [sys.executable, "-m", "sobolex.cli", *request.argv]
            runs: dict[str, list[float]] = {"start": [], "fresh": [], "compile": [], "math": []}
            for _ in range(reps):
                runs["start"].append(_timed([sys.executable, "-c", "pass"], env))
                runs["fresh"].append(_timed(cli, env, request.exit_code))
                for kind, probe in (("compile", COMPILE), ("math", MATH)):
                    done = subprocess.run([sys.executable, "-c", probe, *request.argv], env=env,
                                          stdin=subprocess.DEVNULL, capture_output=True,
                                          text=True, check=True)
                    runs[kind].append(float(done.stdout))
            rows.append((request.key, parts(runs)))
    return rows


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, Request

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    parser.add_argument("--request", action="append", metavar="ARGS",
                        help="the CLI arguments of one request that must exit 0; repeatable")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.request is None):
        parser.error("give exactly one of WORKLOAD or --request")
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.request:
        requests = [Request(tuple(shlex.split(value))) for value in args.request]
        source = "--request:"
    else:
        requests = WORKLOADS[args.workload].passes(args.seed, 1)[0]
        source = f"{args.workload} seed {args.seed}, pass 0:"
    print(f"{source} {len(requests)} requests, "
          f"median of {args.reps} runs each; Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs")
    print(*table(split(requests, args.reps)), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
