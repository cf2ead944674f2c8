"""Acceptance battery: one test per stated criterion, every check exact.

Each criterion prints a single PASS line on success; any failure surfaces the
exact identities that broke.  Nothing here carries a tolerance.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import sobolex
from sobolex.scalars import ParamVector
from sobolex.suites import (suite_jacobi, suite_lemmas4, suite_monomial,
                            suite_rodrigue, suite_thm31, suite_thm34,
                            suite_thm36, suite_triangle)

from oracles import normalized_moment, oracle_normalized_moment

_cache: dict = {}


def battery(name, fn, *args, **kwargs):
    if name not in _cache:
        _cache[name] = fn(*args, **kwargs)
    return _cache[name]


def checks_named(result, prefix):
    hits = [c for c in result["checks"] if c["name"].startswith(prefix)]
    assert hits, f"no checks named {prefix!r} in suite {result['suite']}"
    return hits


def assert_checks(result, prefix, label):
    bad = [c["name"] for c in checks_named(result, prefix) if not c["ok"]]
    assert not bad, f"{label}: failed checks {bad}"


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS  ({text})")


def test_criterion_01_eigenfunction_identities():
    for d in (1, 2, 3):
        result = battery(f"rodrigue{d}", suite_rodrigue, d=d, n_max=4)
        assert_checks(result, "eigenfunctions[", f"criterion 1 d={d}")
    report("C1", "L P + n(n+|g|+d) P = 0 for all families, d in 1..3, n <= 4")


def test_criterion_02_classical_orthogonality():
    for d in (1, 2, 3):
        result = battery(f"rodrigue{d}", suite_rodrigue, d=d, n_max=4)
        assert_checks(result, "orthogonal-to-lower-degree[", f"criterion 2 d={d}")
        assert_checks(result, "gram-positive-definite[", f"criterion 2 d={d}")
    report("C2", "exact orthogonality to lower degrees; Gram minors positive")


def test_criterion_03_singular_eigenspaces():
    for d in (2, 3):
        result = battery(f"thm34-{d}", suite_thm34, d=d, n_max=4)
        assert_checks(result, "solution-space[", f"criterion 3 d={d}")
    report("C3", "rank binom(n+d-1,n) and exact eigenvalue for k = 1..d+1")


def test_criterion_04_sobolev_orthogonality():
    for d in (2, 3):
        result = battery(f"thm36-{d}", suite_thm36, d=d, n_max=4)
        assert_checks(result, "sobolev-orthogonality[", f"criterion 4 d={d}")
        assert_checks(result, "positive-definite[", f"criterion 4 d={d}")
        assert_checks(result, "k1-block-orthogonality", f"criterion 4 d={d}")
    report("C4", "eigenspaces orthogonal to lower degrees; forms positive definite")


def test_criterion_05_triangle_specializations():
    result = battery("thm31", suite_thm31, n_max=4)
    assert result["ok"], [c["name"] for c in result["checks"] if not c["ok"]]
    report("C5", "d=2 decompositions, named forms, degree-one vertex constants")


def test_criterion_06_section2_lemmas():
    tri = battery("triangle", suite_triangle, n_max=4)
    assert_checks(tri, "edge-restriction", "criterion 6: face restrictions")
    assert_checks(tri, "swapped-closed-form", "criterion 6: closed forms")
    assert_checks(tri, "reflected-closed-form", "criterion 6: closed forms")
    for d in (2, 3):
        mono = battery(f"monomial{d}", suite_monomial, d=d, n_max=4)
        assert_checks(mono, "derivative-identity[", f"criterion 6 d={d}")
        assert_checks(mono, "derivative-product-orthogonality[",
                      f"criterion 6 d={d}")
        rod = battery(f"rodrigue{d}", suite_rodrigue, d=d, n_max=4)
        assert_checks(rod, "partial-orthogonality[", f"criterion 6 d={d}")
    report("C6", "restrictions = shifted Jacobi; derivative and partial "
                 "orthogonality identities")


def test_criterion_07_section4_lemmas():
    for d in (2, 3):
        result = battery(f"lemmas4-{d}", suite_lemmas4, d=d, n_max=4)
        assert result["ok"], [c["name"] for c in result["checks"] if not c["ok"]]
    report("C7", "product-rule identities, span membership, homogeneous blocks")


def test_criterion_08_degenerate_interval_families():
    result = battery("jacobi", suite_jacobi, n_max=5)
    assert_checks(result, "neg-beta-", "criterion 8: alpha=-1 family")
    assert_checks(result, "neg-both-", "criterion 8: alpha=beta=-1 family")
    report("C8", "interval Sobolev orthogonality incl. the mu coupling, n <= 5")


def test_criterion_09_moment_oracle_cross_check():
    rng = random.Random(20260810)
    for _ in range(200):
        d = rng.randint(1, 3)
        gamma = tuple(rng.randint(0, 3) for _ in range(d + 1))
        a = tuple(rng.randint(0, 5) for _ in range(d + 1))
        assert normalized_moment(ParamVector(gamma), a) \
            == oracle_normalized_moment(gamma, a)
    report("C9", "normalized moments equal the brute-force integrator, 200 cases")


def test_criterion_10_cli_determinism():
    cmd = [sys.executable, "-m", "sobolex.cli", "verify", "--suite", "all",
           "--d", "2", "--n-max", "3"]
    # the package under test, also where PYTHONPATH does not name it
    env = dict(os.environ, PYTHONPATH=str(Path(sobolex.__file__).parents[1]))
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["ok"] is True
    report("C10", "byte-identical verify --suite all output, exit 0")
