"""Every check of every suite must be able to fail.

A check is `ok` when every identity it evaluates holds, so a check that
evaluates nothing reads `ok` whatever the code computes, and the golden
digests cannot tell it from a working one.  Here each suite runs once as it
is (every check must pass) and once per tamper paired with it, where a
tamper replaces one function bound in `sobolex.suites` by a wrong one.
Every check must fail under at least one of its suite's tampers.

A second gate counts the identities: each suite runs at each (d, n_max) of
RUNS with `_add` wrapped to list each stream, and each check must evaluate
exactly as many identities as `golden/identity_counts.json` records.  A
rewrite that drops half of a check's samples keeps every verdict `ok`, so
only the count can see it.  To record the counts of checks that have none
yet, run

    PYTHONPATH=src python tests/test_suites.py

It never rewrites a recorded count: when one no longer matches, it names it,
writes nothing and exits 1.  To change a count on purpose, delete its entry
from the file by hand and run it.

The last tests check that `run_suite` reads the suite table, refuses what
it rules out, passes the default weights, and fails a suite, an `all` and
`verify` on one failed check.
"""

import json
import pathlib
import sys
from fractions import Fraction

import pytest

from sobolex import suites
from sobolex.bases import Basis
from sobolex.scalars import ParamVector

# (d, n_max) per suite: every dimension the suite takes, at the smallest n_max
# at which its checks evaluate something (EMPTY_BELOW lists the checks that
# evaluate nothing one lower).  jacobi raises n_max to 5 itself.
RUNS = {
    "jacobi": [(1, 0)],
    "triangle": [(2, 2)],
    "thm31": [(2, 2)],
    "rodrigue": [(d, 3) for d in (1, 2, 3)],
    "monomial": [(d, 2) for d in (1, 2, 3)],
    "lemmas4": [(d, 3) for d in (1, 2, 3)],
    "thm34": [(d, 2) for d in (1, 2, 3)],
    "thm36": [(d, 2) for d in (1, 2, 3)],
}

# Checks that evaluate no identity at d = 1, so no tamper can fail them there:
# drop-inner-block needs 2 <= k <= d, and the others read face blocks
# (h_space with a zeroed coordinate), which are empty at d = 1.
EMPTY = {
    ("lemmas4", 1): {"drop-inner-block", "homogeneous-face-block"},
    ("thm34", 1): {"face-restriction-law", "face-block-convention-independence"},
    ("thm36", 1): {"k1-block-orthogonality"},
}

# Checks that evaluate no identity at an n_max below RUNS', so their `ok`
# there says nothing: partial-orthogonality[m=(1,1)] starts at degree 3,
# drop-last-exponent at degree d.
EMPTY_BELOW = {
    ("rodrigue", 2, 2): {"partial-orthogonality[m=(1,1)]"},
    ("lemmas4", 3, 2): {"drop-last-exponent"},
}


def _plus_one(real):
    """Adds 1 to what `real` returns: to a number, a polynomial, or every
    element of a basis."""
    def tampered(*args, **kwargs):
        out = real(*args, **kwargs)
        if isinstance(out, Basis):
            return Basis(out.params, out.label,
                         [(key, p + 1) for key, p in out.elements])
        return out + 1
    return tampered


def _corner_negative(real):
    """Hands `real` a copy of its matrix with entry (0, 0) set to -1."""
    def tampered(matrix):
        matrix = [list(line) for line in matrix]
        if matrix and matrix[0]:
            matrix[0][0] = Fraction(-1)
        return real(matrix)
    return tampered


def _not_ok(real):
    return lambda *args, **kwargs: {**real(*args, **kwargs), "ok": False}


def _tail_plus_one(real):
    """A SingularProduct with every exponent but the -1 entries one higher."""
    return lambda gamma, **kwargs: real(
        ParamVector([g if g == -1 else g + 1 for g in gamma]), **kwargs)


def _args_plus_one(real):
    return lambda *args: real(*(a + 1 for a in args))


# name bound in sobolex.suites -> (tamper, the suites it is run against).
# named-vs-general-* and derivative-identity compare two computations of one
# value, so they fail only under a tamper that changes one side: the general
# form (SingularProduct), the named form (named_k3), or the shifted-weight
# element, which _plus_one changes in a different way than the derivative of
# the unshifted one.  k1-block-orthogonality pairs two blocks of U_n, and U_n
# is orthogonal to every lower degree, so adding a constant to either block
# keeps it true; it fails when the form is taken at another weight.
TAMPERS = {
    "positive_definite": (_corner_negative, ["rodrigue", "thm36"]),
    "monomial_basis": (_plus_one, ["rodrigue", "monomial"]),
    "monomial_element": (_plus_one, ["monomial"]),
    "rodrigues_element": (_plus_one, ["triangle", "rodrigue", "lemmas4", "thm31"]),
    "permuted_element": (_plus_one, ["triangle"]),
    "jacobi_p": (_plus_one, ["jacobi"]),
    "jacobi_shifted": (_plus_one, ["triangle"]),
    "jacobi_negative_one_beta": (_plus_one, ["jacobi"]),
    "jacobi_negative_one_one": (_plus_one, ["jacobi"]),
    "h_space": (_plus_one, ["lemmas4", "thm34"]),
    "u_space": (_plus_one, ["thm31"]),
    "poly_rank": (_plus_one, ["thm34"]),
    "verify_u_space": (_not_ok, ["thm36"]),
    "SingularProduct": (_tail_plus_one, ["thm31", "thm36"]),
    "named_k3": (_args_plus_one, ["thm31"]),
}


def _failed(suite, d, n_max):
    return {c["name"] for c in suites.run_suite(suite, d=d, n_max=n_max)["checks"]
            if not c["ok"]}


@pytest.mark.parametrize("suite", RUNS)
def test_every_check_fails_under_some_tamper(suite, monkeypatch):
    for d, n_max in RUNS[suite]:
        result = suites.run_suite(suite, d=d, n_max=n_max)
        assert result["ok"], f"{suite} d={d} fails untampered"
        caught = set()
        for name, (tamper, targets) in TAMPERS.items():
            if suite in targets:
                with monkeypatch.context() as patch:
                    patch.setattr(suites, name, tamper(getattr(suites, name)))
                    caught |= _failed(suite, d, n_max)
        uncaught = {c["name"] for c in result["checks"]} - caught
        assert uncaught == EMPTY.get((suite, d), set()), f"{suite} d={d}"


def test_every_completeness_identity_reads_the_dimension_formula(monkeypatch):
    """Each check that compares a rank with dim V_n = C(n+d-1, n) reads that
    number from `expected_dimension`: with it one too high, each one fails."""
    monkeypatch.setattr(suites, "expected_dimension", _plus_one(suites.expected_dimension))
    assert "permuted-singular-pair" in _failed("thm31", 2, 2)
    for d in (2, 3):
        checks = suites.run_suite("thm34", d=d, n_max=2)["checks"]
        reads = [c for c in checks if c["name"].startswith("solution-space[")
                 or c["name"] == "face-restriction-law"]
        assert len(reads) == 1 + len(list(suites._singular_weights(d)))
        assert not any(c["ok"] for c in reads), d


def _times(factor):
    """Multiplies what `real` returns at degree n by factor(n)."""
    return lambda real: lambda n, *args: real(n, *args) * factor(n)


@pytest.mark.parametrize("name,tamper,failing,count", [
    ("jacobi_p", _times(lambda n: (-1) ** n), "interval-ode[", 4),
    ("jacobi_negative_one_beta", _times(lambda n: 2 if n else 1), "neg-beta-ode[", 3),
    ("u_space", _plus_one, ("neg-beta-ode[", "neg-both-ode["), 6),
])
def test_jacobi_pins_its_families_by_scale_and_by_u_space(name, tamper, failing, count,
                                                          monkeypatch):
    """Eigen-equations, squared norms and positive diagonals cannot see a
    nonzero scalar; the value at x = -1 sees a sign flip of the odd degrees of
    P_n^(a,b) and a doubling of the alpha = -1 family past degree 0.  The
    singular families must each span the d = 1 U_n, which one check per
    degree reads together with the eigen-equation."""
    monkeypatch.setattr(suites, name, tamper(getattr(suites, name)))
    failed = _failed("jacobi", 1, 0)
    assert len(failed) == count and all(c.startswith(failing) for c in failed)


COUNTS = pathlib.Path(__file__).with_name("golden") / "identity_counts.json"


def identity_counts(suite, d, n_max) -> dict[str, int]:
    """"<suite> d=<d> n_max=<n_max> <check>" -> the number of identities the
    check evaluates, for every check of the suite run as it is."""
    counts = {}
    real = suites._add

    def counting(checks, name, identities, detail=None):
        identities = list(identities)
        key = f"{suite} d={d} n_max={n_max} {name}"
        assert key not in counts, f"two checks named {key}"
        counts[key] = len(identities)
        real(checks, name, identities, detail)

    suites._add = counting
    try:
        assert suites.run_suite(suite, d=d, n_max=n_max)["ok"], f"{suite} d={d} fails"
    finally:
        suites._add = real
    return counts


def _recorded_counts() -> dict[str, int]:
    return json.loads(COUNTS.read_text())


@pytest.mark.parametrize("suite", RUNS)
def test_every_check_evaluates_the_recorded_number_of_identities(suite):
    recorded = _recorded_counts()
    for d, n_max in RUNS[suite]:
        got = identity_counts(suite, d, n_max)
        prefix = f"{suite} d={d} n_max={n_max} "
        assert got == {key: n for key, n in recorded.items() if key.startswith(prefix)}


@pytest.mark.parametrize("suite,d,n_max", EMPTY_BELOW)
def test_below_runs_n_max_the_listed_checks_evaluate_nothing(suite, d, n_max):
    prefix = f"{suite} d={d} n_max={n_max} "
    empty = {key.removeprefix(prefix) for key, n in identity_counts(suite, d, n_max).items()
             if not n}
    assert empty == EMPTY_BELOW[suite, d, n_max]


def test_count_recorder_adds_missing_counts_and_rewrites_none(tmp_path, monkeypatch):
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "RUNS", {"jacobi": [(1, 0)]})
    monkeypatch.setattr(module, "COUNTS", tmp_path / "identity_counts.json")
    got = identity_counts("jacobi", 1, 0)
    first = min(got)
    module.COUNTS.write_text(json.dumps({first: got[first]}))
    assert module.record() == []
    assert module._recorded_counts() == got
    wrong = {first: got[first] + 1}
    module.COUNTS.write_text(json.dumps(wrong))
    assert module.record() == [first]
    assert module._recorded_counts() == wrong


def record() -> list[str]:
    """Add the count of every check of RUNS that has none; return the
    recorded counts that no longer match, and write nothing if there are any."""
    recorded = _recorded_counts() if COUNTS.exists() else {}
    stale = []
    for suite, runs in RUNS.items():
        for d, n_max in runs:
            for key, n in identity_counts(suite, d, n_max).items():
                if key not in recorded:
                    recorded[key] = n
                elif recorded[key] != n:
                    stale.append(key)
    if not stale:
        COUNTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return stale


def test_positive_diagonal_needs_every_diagonal_entry_positive():
    assert all(suites._positive_diagonal([[Fraction(1), 0], [0, Fraction(1, 2)]]))
    for bad in ([[1, 0], [0, 0]], [[1, 0], [0, -1]], [[1, 0], [Fraction(1, 3), 1]]):
        assert not all(suites._positive_diagonal(bad)), bad


# inputs the library refuses before running anything; each message names the
# rule, not a CLI flag
REFUSED = {
    "triangle-at-d3": ("triangle", {"d": 3}, "does not run at d = 3"),
    "thm31-at-d3": ("thm31", {"d": 3}, "does not run at d = 3"),
    "jacobi-at-d2": ("jacobi", {"d": 2}, "does not run at d = 2"),
    "rodrigue-long-weight": ("rodrigue", {"d": 2, "gammas": [ParamVector([0, 0, 0, 0])]},
                             "d = 2 has 3 entries"),
    "triangle-long-weight": ("triangle", {"gammas": [ParamVector([0, 0, 0, 0])]},
                             "d = 2 has 3 entries"),
    "lemmas4-short-weight": ("lemmas4", {"d": 3, "gammas": [ParamVector([0, 0, 0])]},
                             "d = 3 has 4 entries"),
    # without d, the first weight states it
    "rodrigue-weights-of-two-d": ("rodrigue", {"gammas": [ParamVector([0, 0]),
                                                          ParamVector([0, 0, 0])]},
                                  "d = 1 has 2 entries"),
    "thm34-weights": ("thm34", {"gammas": [ParamVector([0, 0, 0])]}, "takes no weights"),
    "all-weights": ("all", {"gammas": [ParamVector([0, 0, 0])]}, "takes no weights"),
    # only None means the default weights
    "rodrigue-no-weights": ("rodrigue", {"gammas": []}, "needs at least one weight"),
    "unknown": ("thm99", {}, "unknown suite"),
    "d-zero": ("all", {"d": 0}, "does not run at d = 0"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_run_suite_refuses_what_the_table_rules_out(case, monkeypatch):
    name, kwargs, message = REFUSED[case]
    for suite in suites.SUITES:  # a refusal must come before any suite runs
        monkeypatch.setattr(suites, f"suite_{suite}", None)
    with pytest.raises(ValueError, match=message):
        suites.run_suite(name, **kwargs)


def test_the_cli_offers_the_suites_of_the_table():
    from sobolex import cli
    assert set(cli.SUITE_NAMES) == {*suites.SUITES, "all"}


@pytest.mark.parametrize("name", [*suites.SUITES, "all"])
def test_run_suite_without_d_is_verify_without_d(name, capsys):
    from sobolex import cli
    assert cli.main(["verify", "--suite", name, "--n-max", "1"]) == 0
    result = suites.run_suite(name, n_max=1)
    assert capsys.readouterr().out \
        == json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_all_runs_the_suites_the_table_allows_at_d(d, monkeypatch):
    # a suite of fixed d runs in `all` at its own d, or at every d when the
    # table says so: jacobi at d = 1 always, triangle and thm31 only at d = 2;
    # each suite that takes weights gets the default ones of its d
    for name in suites.SUITES:
        monkeypatch.setattr(suites, f"suite_{name}", lambda checks, *args: {"args": args})
    got = [(r["suite"], r["params"]["args"])
           for r in suites.run_suite("all", d=d, n_max=0)["suites"]]
    fixed = [("triangle", (0, suites.default_gammas(2))), ("thm31", (0,))] if d == 2 else []
    weighted = [(name, (d, 0, suites.default_gammas(d)))
                for name in ("rodrigue", "monomial", "lemmas4")]
    assert got == [("jacobi", (0,)), *fixed, *weighted, ("thm34", (d, 0)), ("thm36", (d, 0))]


def test_run_suite_calls_what_is_bound_to_the_suite_name(monkeypatch):
    # so a wrapper bound to suite_<name>, as the benchmark's tracer binds one, sees the call
    def fake(checks, d, n_max):
        checks.append({"name": "fake", "ok": True})
        return {"d": d, "n_max": n_max}

    monkeypatch.setattr(suites, "suite_thm36", fake)
    assert suites.run_suite("thm36", n_max=0) == {
        "suite": "thm36", "params": {"d": 2, "n_max": 0}, "ok": True,
        "checks": [{"name": "fake", "ok": True}]}


def test_run_suite_writes_the_d_and_n_max_it_chose_and_what_the_suite_adds(monkeypatch):
    # a suite that adds nothing still gets its params; a fixed-d suite gets no d
    def adds_nothing(checks, d, n_max):
        checks.append({"name": "fake", "ok": True})

    weights = [str(g) for g in suites.default_gammas(2)]
    monkeypatch.setattr(suites, "suite_thm36", adds_nothing)
    monkeypatch.setattr(suites, "suite_triangle", lambda checks, n_max, gammas: {"gammas": weights})
    assert suites.run_suite("thm36", n_max=0)["params"] == {"d": 2, "n_max": 0}
    assert suites.run_suite("triangle", n_max=0)["params"] == {"n_max": 0, "gammas": weights}


def test_d_none_is_the_suites_own_d_else_its_first_weights_else_2(monkeypatch):
    for name in suites.SUITES:
        monkeypatch.setattr(suites, f"suite_{name}", lambda checks, *args: {"args": args})

    def args(name, gammas=None):
        try:
            return suites.run_suite(name, n_max=0, gammas=gammas)["params"]["args"]
        except ValueError as exc:  # a refusal is a wrong answer here, not a crash
            return str(exc)

    one, three = [ParamVector([0, 0])], [ParamVector([0, 0, 0, 0])]
    assert args("rodrigue", one) == (1, 0, one)
    assert args("lemmas4", three) == (3, 0, three)
    assert args("monomial") == (2, 0, suites.default_gammas(2))
    assert args("triangle", [ParamVector([0, 0, 0])]) == (0, [ParamVector([0, 0, 0])])
    assert args("jacobi") == (0,)  # at its own d = 1, where d = 2 is refused


def test_one_failed_check_fails_the_suite_all_and_verify(monkeypatch, capsys):
    # the verdict is the conjunction of the checks, and of the suites in `all`;
    # rodrigues_element + 1 fails only partial-orthogonality, from degree 2
    from sobolex import cli
    tamper, _ = TAMPERS["rodrigues_element"]
    monkeypatch.setattr(suites, "rodrigues_element", tamper(suites.rodrigues_element))
    result = suites.run_suite("rodrigue", d=2, n_max=2)
    assert [c["name"] for c in result["checks"] if not c["ok"]] \
        == ["partial-orthogonality[m=(1)]"]
    assert not result["ok"]
    everything = suites.run_suite("all", d=2, n_max=2)
    assert any(r["ok"] for r in everything["suites"]) and not everything["ok"]
    assert cli.main(["verify", "--suite", "rodrigue", "--n-max", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


if __name__ == "__main__":
    stale = record()
    if stale:
        sys.exit("recorded count no longer matches (delete its entry to record it "
                 "again): " + "; ".join(stale))
