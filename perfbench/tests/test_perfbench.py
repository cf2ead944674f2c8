"""Tests of the benchmark itself: generator, tracer, and correctness gate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# small requests from the recorded universe of the identities-d2 workload
SMALL_BASIS = ("basis", "--d", "2", "--n", "8", "--family", "permuted",
               "--gamma", "0,1/3,1/2", "--order", "1,2")
SMALL_EIGEN = ("eigen", "--d", "2", "--n", "2", "--gamma", "1/2,-1,-1")


def _env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SOBOLEX_THREADS", None)
    return env


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_covered_by_references(name):
    workload = WORKLOADS[name]
    first = workload.passes(11, 6)
    assert first == workload.passes(11, 6)
    assert first != workload.passes(12, 6)
    universe = {r.key for r in workload.universe()}
    refs = run.load_references()
    for requests in first:
        for req in requests:
            assert req.key in universe
            assert req.exit_code != 0 or req.key in refs


def test_self_time_on_a_toy_nested_call():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def bookkeeping(tr, args, kwargs, result):
        now[0] += 100.0  # hook cost: tracer overhead, not anyone's time

    def inner():
        now[0] += 5.0

    inner = tracer.wrap(inner, "inner", after=bookkeeping)

    def outer():
        now[0] += 1.0
        inner()
        now[0] += 2.0

    outer = tracer.wrap(outer, "outer")
    outer()
    s = tracer.summary()
    by_name = {n: (c, t, x) for n, c, t, x in
               zip(s["names"], s["calls"], s["total_s"], s["self_s"])}
    assert by_name["inner"] == (1, 5.0, 5.0)
    assert by_name["outer"] == (1, 108.0, 3.0)
    assert s["overhead_s"] == 100.0
    # spans are stored as they end: inner (id 1) first, under outer (id 0)
    assert list(tracer.span_id) == [1, 0]
    assert list(tracer.span_parent) == [0, -1]


def _traced(tmp_path, tag):
    prefix = tmp_path / tag
    done = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(prefix),
                           tag, "--", *SMALL_EIGEN],
                          capture_output=True, text=True, env=_env(), cwd=ROOT)
    assert done.returncode == 0, done.stderr
    summary = json.loads((tmp_path / f"{tag}.json").read_text())
    spans = (tmp_path / f"{tag}.spans").stat().st_size
    assert spans == summary["spans"] * (8 + 4 + 8 + 8 + 8)
    return done.stdout, summary


def test_two_traced_runs_give_identical_counts(tmp_path):
    out_a, a = _traced(tmp_path, "a")
    out_b, b = _traced(tmp_path, "b")
    plain = subprocess.run([sys.executable, "-m", "sobolex.cli", *SMALL_EIGEN],
                           capture_output=True, text=True, env=_env(), cwd=ROOT)
    assert out_a == out_b == plain.stdout
    assert a["counts"]["polynomials.constructed"] > 0
    for key in ("names", "calls", "counts", "distinct", "spans"):
        assert a[key] == b[key], key


def test_corrupted_reference_fails_the_request():
    req = run.Request(SMALL_BASIS)
    outcome = run.Runner(ROOT).cli(req)
    gate = run.Gate()
    assert gate.check(req, outcome)
    assert gate.attempted == 1 and not gate.failures

    gate.references = dict(gate.references, **{req.key: "0" * 64})
    assert not gate.check(req, outcome)
    assert len(gate.failures) / gate.attempted > 0

    payload = json.loads(outcome.stdout)
    payload["elements"][0]["poly"]["terms"][0]["coef"] = "12345/7"
    assert run.failure(req, 0, json.dumps(payload), "", run.load_references())


def test_added_keys_do_not_fail_the_request():
    req = run.Request(SMALL_BASIS)
    outcome = run.Runner(ROOT).cli(req)
    payload = json.loads(outcome.stdout)
    payload["evaluated"] = 3
    assert run.failure(req, 0, json.dumps(payload), "", run.load_references()) is None


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: unit for name, (_, unit) in run.layer_metrics([], 0, 1.0, 1.0).items()}
    assert emitted == declared


def test_targets_the_program_lacks_are_listed_not_fatal():
    script = (
        "import tracer\n"
        "tracer.TARGETS.append(('polynomials', 'Polynomial.gone', 'polynomials.gone', None))\n"
        "tracer.TARGETS.append(('nomodule', 'f', 'nomodule.f', None))\n"
        "t = tracer.Tracer()\n"
        "tracer.instrument(t)\n"
        "print(','.join(t.missing))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(_env(), PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{BENCH}"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["polynomials:Polynomial.gone,nomodule:f"]


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    values = [float(v) for v in range(1, 26)]  # 25 samples
    p = run.tail_percentile(len(values))
    assert p == 60
    tail = run.nearest_rank(values, p)
    assert sum(v > tail for v in values) == 10
    assert sum(v > run.nearest_rank(values, p + 1) for v in values) < 10
    assert run.nearest_rank(values, 50) <= tail
