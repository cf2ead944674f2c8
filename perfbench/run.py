"""sobolex benchmark: CLI workloads timed end to end, layers traced from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  One client sends the requests of a workload one
after another, each as a fresh `python -m sobolex.cli` process with
SOBOLEX_THREADS unset (a closed loop with one client).  Every verdict and
payload is checked.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics over `passes` repetitions of the
request list, where `passes` is --seconds divided by the workload's nominal
pass time.  --trace 1 sends pass 0 once untraced and once under the tracer
(traced_cli.py) and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from verdicts import failure, load_references
from workloads import WORKLOADS, Request

HERE = Path(__file__).resolve().parent
SETUP_PROBES_PER_PASS = 3
MIN_TAIL_BEYOND = 10  # samples above the reported tail percentile
SUITES = ("rodrigue", "monomial", "thm36", "thm31", "triangle", "lemmas4")  # in the workloads


@dataclass
class Outcome:
    seconds: float
    exit_code: int
    stdout: str
    stderr: str
    maxrss_kb: int


class Runner:
    """Starts one child process at a time and waits for it with wait4."""

    def __init__(self, root: Path):
        self.root = root
        self.work = root / ".perfbench"
        self.work.mkdir(exist_ok=True)
        env = dict(os.environ)
        env.pop("SOBOLEX_THREADS", None)
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def run(self, argv: list[str]) -> Outcome:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env,
                                    cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(seconds, proc.returncode,
                       out_path.read_text(errors="replace"),
                       err_path.read_text(errors="replace"), usage.ru_maxrss)

    def cli(self, request: Request) -> Outcome:
        return self.run([sys.executable, "-m", "sobolex.cli", *request.argv])

    def traced_cli(self, request: Request, prefix: Path, request_id: str) -> Outcome:
        return self.run([sys.executable, str(HERE / "traced_cli.py"), str(prefix),
                         request_id, "--", *request.argv])

    def setup_probe(self) -> float:
        """A CLI process that does no mathematical work: interpreter start,
        `import sobolex`, argument parsing, exit."""
        out = self.run([sys.executable, "-m", "sobolex.cli", "--help"])
        if out.exit_code != 0 or not out.stdout.startswith("usage: sobolex"):
            raise RuntimeError(f"setup probe failed: exit {out.exit_code}: {out.stderr}")
        return out.seconds


def preflight(root: Path) -> Runner:
    """Refuse to run unless ./src holds the sobolex package that gets imported."""
    if not (root / "src" / "sobolex" / "cli.py").is_file():
        raise RuntimeError("no src/sobolex/cli.py here; run from the root of a checkout")
    runner = Runner(root)
    out = runner.run([sys.executable, "-c", "import sobolex; print(sobolex.__file__)"])
    where = Path(out.stdout.strip()).resolve()
    if out.exit_code != 0 or root / "src" not in where.parents:
        raise RuntimeError(f"sobolex does not import from ./src: {out.stdout}{out.stderr}")
    return runner


def environment(runner: Runner) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (runner.root / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=runner.root, text=True,
                              capture_output=True)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "SOBOLEX_THREADS_unset": "SOBOLEX_THREADS" not in runner.env,
        "SOBOLEX_THREADS_of_caller": os.environ.get("SOBOLEX_THREADS"),
    }


def pass_count(workload, seconds: float) -> int:
    per_pass = len(workload.passes(0, 1)[0])
    enough_for_tail = math.ceil((MIN_TAIL_BEYOND + 1) / per_pass)
    return max(enough_for_tail, round(seconds / workload.nominal_pass_s))


def nearest_rank(values: list[float], p: int) -> float:
    """The p-th percentile by nearest rank: a sample, never an average."""
    rank = max(1, math.ceil(p * len(values) / 100))
    return sorted(values)[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least MIN_TAIL_BEYOND of n samples
    above it by nearest rank."""
    return (100 * (n - MIN_TAIL_BEYOND)) // n


class Gate:
    """Counts attempted and failed requests and remembers why each failed."""

    def __init__(self):
        self.references = load_references()
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, request: Request, out: Outcome) -> bool:
        self.attempted += 1
        why = failure(request, out.exit_code, out.stdout, out.stderr, self.references)
        if why is not None:
            self.failures.append(f"{shlex.join(request.argv)}: {why}")
        return why is None


def run_pass(gate: Gate, requests: list[Request], send, log) -> tuple[float, list[Outcome]]:
    """Send each request with `send(index, request)` after the previous one
    ended; return the pass's wall time and the outcomes."""
    outcomes = []
    start = time.perf_counter()
    for i, req in enumerate(requests):
        out = send(i, req)
        ok = gate.check(req, out)
        log(f"  {out.seconds:8.3f} s  exit {out.exit_code}  {'ok' if ok else 'FAILED'}  "
            f"python -m sobolex.cli {shlex.join(req.argv)}")
        outcomes.append(out)
    return time.perf_counter() - start, outcomes


def end_to_end(runner: Runner, gate: Gate, passes: list[list[Request]], log) -> dict:
    walls, latencies, rss, setups = [], [], [], []
    for p, requests in enumerate(passes):
        setups += [runner.setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        log(f"pass {p}:")
        wall, outcomes = run_pass(gate, requests, lambda i, req: runner.cli(req), log)
        walls.append(wall)
        latencies += [o.seconds for o in outcomes]
        rss += [o.maxrss_kb for o in outcomes]
    pct = tail_percentile(len(latencies))
    log(f"wall_s: median of {len(walls)} passes; setup_s: median of {len(setups)} probes")
    # Printed, not reported as metrics: with 20-28 requests a run, single
    # request latencies spread more between runs than the largest bound allows.
    log(f"request_s.p50 {nearest_rank(latencies, 50)} s; request_s.tail "
        f"{nearest_rank(latencies, pct)} s, p{pct} of {len(latencies)} requests")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
    }


def per_layer(runner: Runner, gate: Gate, requests: list[Request], name: str, log) -> dict:
    log("pass 0, untraced:")
    untraced_wall, _ = run_pass(gate, requests, lambda i, req: runner.cli(req), log)
    trace_dir = runner.work / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir()
    prefixes = [trace_dir / f"{name}-{i}" for i in range(len(requests))]
    log("pass 0, traced:")
    traced_wall, outcomes = run_pass(
        gate, requests, lambda i, req: runner.traced_cli(req, prefixes[i], f"{name}/{i}"), log)
    log(f"spans written to {trace_dir}")
    summaries = [json.loads(Path(f"{prefix}.json").read_text()) for prefix in prefixes]
    missing = sorted({name for s in summaries for name in s["missing"]})
    if missing:
        log("not traced, absent from this version of the program: " + ", ".join(missing))
    stdout_bytes = sum(len(o.stdout.encode()) for o in outcomes)
    return layer_metrics(summaries, stdout_bytes, traced_wall, untraced_wall)


def layer_metrics(summaries: list[dict], stdout_bytes: int, traced_wall: float,
                  untraced_wall: float) -> dict:
    calls, total, own, counts, distinct = Counter(), Counter(), Counter(), Counter(), Counter()
    for s in summaries:
        for name, c, t, x in zip(s["names"], s["calls"], s["total_s"], s["self_s"]):
            calls[name] += c
            total[name] += t
            own[name] += x
        counts.update(s["counts"])
        distinct.update(s["distinct"])

    def ratio(name):
        return distinct[name] / calls[name] if calls[name] else 0.0

    m = {
        "polynomials.constructed": (counts["polynomials.constructed"], "count"),
        "polynomials.mul.calls": (calls["polynomials.mul"], "count"),
        "polynomials.mul.term_products": (counts["polynomials.mul.term_products"], "count"),
        "polynomials.mul.self_s": (own["polynomials.mul"], "s"),
        "polynomials.add.calls": (calls["polynomials.add"], "count"),
        "polynomials.add.self_s": (own["polynomials.add"], "s"),
        "polynomials.partial.calls": (calls["polynomials.partial"], "count"),
        "polynomials.substitute.calls": (calls["polynomials.substitute"], "count"),
        "polynomials.restrict.calls": (calls["polynomials.restrict"], "count"),
        "polynomials.restrict.self_s": (own["polynomials.restrict"], "s"),
        "polynomials.restrict.distinct_ratio": (ratio("polynomials.restrict"), "ratio"),
        "weighted.derivative.calls": (calls["weighted.derivative"], "count"),
        "weighted.divide_by_weight.calls": (calls["weighted.divide_by_weight"], "count"),
        "bases.eigencheck.calls": (calls["bases.eigencheck"], "count"),
        "bases.eigencheck.self_s": (own["bases.eigencheck"], "s"),
        "bases.eigencheck.s": (total["bases.eigencheck"], "s"),
        "bases.construct.calls": (calls["bases.construct"], "count"),
        "bases.construct.self_s": (own["bases.construct"], "s"),
        "bases.construct.s": (total["bases.construct"], "s"),
        "bases.construct.distinct_ratio": (ratio("bases.construct"), "ratio"),
        "moments.inner_product.calls": (calls["moments.inner_product"], "count"),
        "moments.integral.calls": (calls["moments.integral"], "count"),
        "moments.integral.terms": (counts["moments.integral.terms"], "count"),
        "moments.face_inner_product.calls": (calls["moments.face_inner_product"], "count"),
        "moments.vertex_eval.calls": (calls["moments.vertex_eval"], "count"),
        "products.gram.calls": (calls["products.gram"], "count"),
        "products.gram.entries": (counts["products.gram.entries"], "count"),
        "products.gram.s": (total["products.gram"], "s"),
        "products.value.calls": (calls["products.value"], "count"),
        "linalg.rank.calls": (calls["linalg.rank"], "count"),
        "linalg.rank.cells": (counts["linalg.rank.cells"], "count"),
        "linalg.determinant.calls": (calls["linalg.determinant"], "count"),
        "linalg.in_span.calls": (calls["linalg.in_span"], "count"),
        "spaces.u_space.calls": (calls["spaces.u_space"], "count"),
        "spaces.h_space.calls": (calls["spaces.h_space"], "count"),
    }
    for layer in ("weighted", "moments", "products", "linalg", "spaces"):
        m[f"{layer}.self_s"] = (sum(t for n, t in own.items() if n.startswith(layer + ".")), "s")
    for suite in SUITES:
        m[f"suites.{suite}.s"] = (total[f"suites.{suite}"], "s")
    m["cli.self_s"] = (own["cli.main"], "s")
    m["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return m


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(line: str) -> None:
        print(line, flush=True)

    root = Path.cwd().resolve()
    workload = WORKLOADS[args.workload]
    try:
        runner = preflight(root)
        gate = Gate()
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    count = 1 if args.trace else pass_count(workload, args.seconds)
    passes = workload.passes(args.seed, count)
    log(f"workload {workload.name}, seed {args.seed}, {count} pass(es), one client, "
        f"closed loop: {workload.why}")
    log("environment " + json.dumps(environment(runner), sort_keys=True))
    log("replay from the checkout root with PYTHONPATH=src and SOBOLEX_THREADS unset")
    try:
        if args.trace:
            metrics = per_layer(runner, gate, passes[0], workload.name, log)
        else:
            metrics = end_to_end(runner, gate, passes, log)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = len(gate.failures)
    for line in gate.failures:
        log("FAILED " + line)
    log(f"failed_ratio {failed}/{gate.attempted} = {failed / gate.attempted:.4f} ratio")
    for name, (value, unit) in metrics.items():
        log(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
