"""Split the time of each request of a benchmark workload into interpreter
start, compile, other load and mathematics.

    python tests/request_split.py WORKLOAD [--seed N] [--reps R]

WORKLOAD is a name of `perfbench/workloads.py` (classical-d3, sobolev-d3,
identities-d2); its pass 0 at seed N (default 1) is read from that file as it
is.  For each request, the median of R runs (default 5) of each of:

    start     `python -c pass`
    fresh     the request as the benchmark sends it, `python -m sobolex.cli
              ARGS`, against a copy of src/ with no bytecode cache
              (PYTHONDONTWRITEBYTECODE=1, so every module is compiled)
    compiled  the same request against a `compileall`ed copy of src/
    math      `cli.main(argv)` alone, timed in a fresh process after every
              module of the package is loaded (from the compiled copy)

gives start, compile = fresh - compiled, other load = compiled - start - math
and math, in milliseconds, for each request and summed over the pass.  The
four kinds of run alternate within each repetition.  Both copies of src/ live
in a temporary directory; nothing is written in the checkout.  pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import compileall
import os
import platform
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


def _timed(argv: list[str], env: dict, expected_exit: int | None = None) -> float:
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, capture_output=True)
    seconds = time.perf_counter() - start
    if expected_exit is not None and done.returncode != expected_exit:
        raise RuntimeError(f"{argv}: exit {done.returncode}, expected {expected_exit}: "
                           f"{done.stderr.decode(errors='replace')}")
    return seconds


def _copies(tmp: Path) -> tuple[dict, dict]:
    """The environments of an uncached and of a compiled copy of src/."""
    envs = []
    for name in ("fresh", "compiled"):
        src = tmp / name / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if name == "compiled" and not compileall.compile_dir(src, quiet=1):
            raise RuntimeError(f"compileall failed in {src}")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        env.pop("SOBOLEX_THREADS", None)
        envs.append(env)
    return envs[0], envs[1]


def split(requests, reps: int) -> list[tuple[str, dict[str, float]]]:
    """(request key, {"start", "compile", "other load", "math"} in seconds)
    per request, each from the medians of `reps` runs of each kind."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        fresh, compiled = _copies(Path(tmp))
        for request in requests:
            cli = [sys.executable, "-m", "sobolex.cli", *request.argv]
            runs: dict[str, list[float]] = {"start": [], "fresh": [], "compiled": [], "math": []}
            for _ in range(reps):
                runs["start"].append(_timed([sys.executable, "-c", "pass"], compiled))
                runs["fresh"].append(_timed(cli, fresh, request.exit_code))
                runs["compiled"].append(_timed(cli, compiled, request.exit_code))
                done = subprocess.run([sys.executable, "-c", MATH, *request.argv], env=compiled,
                                      stdin=subprocess.DEVNULL, capture_output=True, text=True,
                                      check=True)
                runs["math"].append(float(done.stdout))
            med = {kind: statistics.median(values) for kind, values in runs.items()}
            rows.append((request.key, {
                "start": med["start"],
                "compile": med["fresh"] - med["compiled"],
                "other load": med["compiled"] - med["start"] - med["math"],
                "math": med["math"],
            }))
    return rows


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    requests = WORKLOADS[args.workload].passes(args.seed, 1)[0]
    print(f"{args.workload} seed {args.seed}, pass 0: {len(requests)} requests, "
          f"median of {args.reps} runs each; Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs")
    rows = split(requests, args.reps)
    kinds = ["start", "compile", "other load", "math"]
    print("".join(f"{k:>11}" for k in kinds) + "   ms, then the request")
    total = {k: sum(parts[k] for _, parts in rows) for k in kinds}
    for key, parts in [*rows, ("(the pass)", total)]:
        print("".join(f"{1000 * parts[k]:11.0f}" for k in kinds) + "   " + key)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
