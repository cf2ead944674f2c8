"""Every check of every suite must be able to fail.

A check is `ok` when every identity it evaluates holds, so a check that
evaluates nothing reads `ok` whatever the code computes, and the golden
digests cannot tell it from a working one.  Here each suite runs once as it
is (every check must pass) and once per tamper paired with it, where a
tamper replaces one function bound in `sobolex.suites` by a wrong one.
Every check must fail under at least one of its suite's tampers.
"""

from fractions import Fraction

import pytest

from sobolex import suites
from sobolex.bases import Basis

# (d, n_max) per suite: every dimension the suite takes, at the smallest n_max
# at which its checks evaluate something (partial-orthogonality[m=(1,1)]
# starts at degree 3, drop-last-exponent at degree d).  jacobi raises n_max
# to 5 itself.
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


def _plus_one(real):
    """Adds 1 to what `real` returns: to a number, a polynomial, or every
    element of a basis."""
    def tampered(*args, **kwargs):
        out = real(*args, **kwargs)
        if isinstance(out, Basis):
            return Basis(out.dim, out.params, out.label,
                         [(key, p + 1) for key, p in out.elements])
        return out + 1
    return tampered


def _corner_negative(real):
    """Sets entry (0, 0) of every Gram matrix to -1."""
    def tampered(*args, **kwargs):
        report = real(*args, **kwargs)
        if report.matrix and report.matrix[0]:
            report.matrix[0][0] = Fraction(-1)
        return report
    return tampered


def _not_ok(real):
    return lambda *args, **kwargs: {**real(*args, **kwargs), "ok": False}


def _tail_plus_one(real):
    """A SingularProduct with every leading exponent one higher."""
    return lambda d, tail, k, **kwargs: real(d, tuple(t + 1 for t in tail), k, **kwargs)


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
    "gram": (_corner_negative, ["rodrigue", "thm36"]),
    "monomial_basis": (_plus_one, ["rodrigue", "monomial"]),
    "monomial_element": (_plus_one, ["monomial"]),
    "rodrigues_element": (_plus_one, ["triangle", "rodrigue", "lemmas4", "thm31"]),
    "permuted_element": (_plus_one, ["triangle"]),
    "jacobi_p": (_plus_one, ["jacobi"]),
    "jacobi_shifted": (_plus_one, ["jacobi"]),
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
