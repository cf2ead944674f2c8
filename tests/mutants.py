"""Hand-made faults ("mutants") that the tests must catch, and their runner.

Each mutant replaces one exact text of one file under `src/` by a wrong one,
and names the test subset that must fail on the result.  `tests/test_mutants.py`
checks, in every tier-1 run, that each old text still occurs exactly once in
`src/`, so that the list cannot silently stop applying.  Running the mutants
is opt-in, because each one runs its subset in a fresh copy of the repository:

    python tests/mutants.py

It exits 0 when every mutant is caught, that is, when its subset fails an
assertion (a crash of the code under test does not count), and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str         # relative to the repository root
    old: str          # occurs exactly once in src/
    new: str
    tests: list[str]  # pytest arguments that select the subset that must fail


MUTANTS = [
    # a skipped column leaves a 0 on the diagonal, and only "> 0" refuses it
    Mutant("positive-definite-accepts-a-zero-minor", "src/sobolex/linalg.py",
           "all(rows[k][k] > 0 for k in range(n))",
           "all(rows[k][k] >= 0 for k in range(n))",
           ["tests/test_linalg.py", "-k", "positive_definite"]),
    # past a row swap, the pivots are no longer leading minors
    Mutant("positive-definite-ignores-a-swap", "src/sobolex/linalg.py",
           "return not swaps and all(",
           "return all(",
           ["tests/test_linalg.py", "-k", "positive_definite"]),
    Mutant("determinant-drops-the-swap-sign", "src/sobolex/linalg.py",
           "Fraction((-1) ** len(swaps) * (rows[-1][-1]",
           "Fraction((rows[-1][-1]",
           ["tests/test_linalg.py", "-k", "determinant"]),
    # the solve on the integer rows gives c_j for q_j b_j and q t
    Mutant("in-span-drops-the-row-rescale", "src/sobolex/linalg.py",
           "[c * q / dens[-1] for c, q in zip(coeffs, dens)]",
           "coeffs",
           ["tests/test_linalg.py", "-k", "in_span"]),
    # the same fault, seen by a suite: reverse-membership's mixed-tail spans
    Mutant("in-span-drops-the-row-rescale", "src/sobolex/linalg.py",
           "[c * q / dens[-1] for c, q in zip(coeffs, dens)]",
           "coeffs",
           ["tests/test_suites.py", "-k", "lemmas4"]),
    Mutant("orthogonal-reads-the-first-row-only", "src/sobolex/products.py",
           "return not any(any(line) for line in self.matrix(rows, cols))",
           "return not any(any(line) for line in self.matrix(rows, cols)[:1])",
           ["tests/test_products.py", "-k", "orthogonal"]),
    Mutant("positive-diagonal-accepts-a-zero-entry", "src/sobolex/suites.py",
           "v > 0 if i == j else not v",
           "v >= 0 if i == j else not v",
           ["tests/test_suites.py", "-k", "positive_diagonal"]),
    Mutant("gram-u-rows-from-default-vertex-coefficients", "src/sobolex/cli.py",
           "spaces.u_space(product, args.n)",
           "spaces.u_space(products.SingularProduct(product.gamma), args.n)",
           ["tests/test_cli.py", "-k", "gram"]),
    Mutant("positivity-accepts-all-zero-vertex-coefficients", "src/sobolex/products.py",
           "min(self.lam_vertex) >= 0 < max(self.lam_vertex)",
           "min(self.lam_vertex) >= 0 <= max(self.lam_vertex)",
           ["tests/test_products.py", "-k", "positive_coefficients"]),
    Mutant("positivity-accepts-a-zero-face-coefficient", "src/sobolex/products.py",
           "all(v > 0 for v in self.lam_face.values())",
           "all(v >= 0 for v in self.lam_face.values())",
           ["tests/test_products.py", "-k", "positive_coefficients"]),
    Mutant("lam-accepted-at-k-d-plus-1", "src/sobolex/products.py",
           '("lam", lam, k <= dim)',
           '("lam", lam, k <= dim + 1)',
           ["tests/test_products.py", "-k", "does_not_take"]),
    Mutant("sobolev-form-drops-lambda-vertex", "src/sobolex/cli.py",
           "products.SingularProduct(gamma, lam_vertex=lams)",
           "products.SingularProduct(gamma)",
           ["tests/test_cli.py", "-k", "not_positive or vertex"]),
    Mutant("gram-diagonal-against-separate-columns", "src/sobolex/products.py",
           "if i != j) if own_rows else None",
           "if i != j) if self.matrix else None",
           ["tests/test_products.py", "-k", "gram_report_flags"]),
    Mutant("gram-all-zero-reads-the-first-row-only", "src/sobolex/products.py",
           "all_zero = not any(any(row) for row in self.matrix)",
           "all_zero = not any(any(row) for row in self.matrix[:1])",
           ["tests/test_products.py", "-k", "gram_report_flags"]),
    Mutant("u-space-failure-records-no-counterexample", "src/sobolex/spaces.py",
           '{"check": check, "element": str(key), "counterexample": p.to_json()}',
           '{"check": check, "element": str(key)}',
           ["tests/test_spaces.py", "-k", "every_check"]),
    Mutant("vertex-check-below-k-d-plus-1", "src/sobolex/spaces.py",
           "if k == dim + 1 and n >= 2:",
           "if n >= 2:",
           ["tests/test_spaces.py", "-k", "verify_u_space_examples"]),
    Mutant("dropped-sign-one-power-too-high", "src/sobolex/suites.py",
           "mult = (-1) ** len(axes) * prod(",
           "mult = (-1) ** (len(axes) + 1) * prod(",
           ["tests/test_suites.py", "-k", "lemmas4"]),
    # every identity still holds, so only the count gate sees the missing half
    Mutant("drop-inner-exponent-samples-last-0-only", "src/sobolex/suites.py",
           "for i in range(d) for last in (0, HALF)",
           "for i in range(d) for last in (0,)",
           ["tests/test_suites.py", "-k", "recorded_number and lemmas4"]),
    Mutant("summed-starts-one-degree-later", "src/sobolex/suites.py",
           "for n in range(k, n_max + 1):",
           "for n in range(k + 1, n_max + 1):",
           ["tests/test_suites.py", "-k", "recorded_number and lemmas4"]),
    # the hyperplane's slots taken as the true zeros of the face (the zero set
    # without index d), not as the first len(zset) slots
    Mutant("h-space-hyperplane-slots-are-the-zero-set", "src/sobolex/spaces.py",
           "range(len(zset))",
           "zset - {d}",
           ["tests/test_spaces.py"]),
    # each check of a degree-n space then skips the degree n - 1 columns; at the
    # smallest n_max some checks evaluate no column, so no tamper fails them
    Mutant("orthogonal-below-skips-the-top-degree", "src/sobolex/products.py",
           "monomial_polys(self.dim, n - 1)",
           "monomial_polys(self.dim, n - 2)",
           ["tests/test_suites.py", "-k", "tamper and (rodrigue or thm31)"]),
    Mutant("derivative-product-accepts-a-negative-lambda", "src/sobolex/products.py",
           "min(self.lambdas.values(), default=0) < 0",
           "min(self.lambdas.values(), default=0) < -1",
           ["tests/test_products.py", "-k", "judges_its_lambdas"]),
    # older mutants, re-created against the code as it is
    Mutant("empty-vertex-list-is-the-default", "src/sobolex/products.py",
           "((1,) * (dim + 1) if lam_vertex is None else lam_vertex)",
           "(lam_vertex or (1,) * (dim + 1))",
           ["tests/test_products.py", "-k", "empty_coefficient"]),
    Mutant("u-space-ignores-the-form-vertex-coefficients", "src/sobolex/spaces.py",
           "shift = -form.lam_vertex[j] / total",
           "shift = -total / (d + 1) / total",
           ["tests/test_spaces.py", "-k", "degree_one"]),
    Mutant("matrix-ignores-lambda", "src/sobolex/products.py",
           "(t for t in self.terms if t.lam)",
           "(t._replace(lam=ONE) for t in self.terms if t.lam)",
           ["tests/test_products.py", "-k", "oracle"]),
    Mutant("describe-normalizes-the-first-term-only", "src/sobolex/products.py",
           "for t in self.terms if t.tag}}",
           "for t in self.terms[:1] if t.tag}}",
           ["tests/test_golden.py"]),
    # the CLI builds no form with lam_face, so only the describe() golden sees it
    Mutant("singular-spec-drops-lambda-face", "src/sobolex/products.py",
           "if self.lam_face:",
           "if False:",
           ["tests/test_products.py", "-k", "recorded_payload"]),
    # the one integer rising factorial: every moment numerator and denominator
    # is one factor off, and so is every Leibniz coefficient
    Mutant("rising-off-by-one", "src/sobolex/scalars.py",
           "start + i * step",
           "start + (i + 1) * step",
           ["tests/test_moments.py", "-k", "brute_force"]),
    Mutant("pochhammer-scale-one-power-too-high", "src/sobolex/scalars.py",
           "a.denominator ** k)",
           "a.denominator ** (k + 1))",
           ["tests/test_scalars.py", "-k", "pochhammer"]),
    Mutant("pairings-lift-by-the-row-degree-only", "src/sobolex/moments.py",
           "lift[da + db]",
           "lift[da]",
           ["tests/test_products.py", "-k", "oracle"]),
    # each term's block and the running sum meet over their lcm
    Mutant("matrix-does-not-rescale-the-running-sum", "src/sobolex/products.py",
           "s, t = common // den,",
           "s, t = 1,",
           ["tests/test_products.py", "-k", "oracle"]),
    Mutant("pairings-drop-the-column-scale", "src/sobolex/moments.py",
           "c * (cden // q)",
           "c",
           ["tests/test_products.py", "-k", "oracle"]),
    Mutant("leibniz-denominator-one-power-too-high", "src/sobolex/bases.py",
           "slots, D ** n)",
           "slots, D ** (n + 1))",
           ["tests/test_bases.py", "-k", "rodrigues_examples"]),
    Mutant("all-runs-every-suite-at-every-d", "src/sobolex/suites.py",
           "if suite.every_all or suite.d == d]",
           "if suite.every_all or suite.d]",
           ["tests/test_suites.py", "-k", "all_runs"]),
    Mutant("eigencheck-off-diagonal-factor", "src/sobolex/bases.py",
           "c * ai * ((ai - 1) * D + lows[i])",
           "c * ai * (ai * D + lows[i])",
           ["tests/test_kernels.py", "-k", "eigencheck"]),
    Mutant("matrix-does-not-mirror", "src/sobolex/products.py",
           "out.append([out[j][i] for j in range(start)]",
           "out.append([ZERO for j in range(start)]",
           ["tests/test_products.py", "-k", "oracle"]),
    # the interval ODE of (a, b) is the d = 1 operator at (b, a), not at (a, b)
    Mutant("interval-ode-at-the-unswapped-weight", "src/sobolex/suites.py",
           "(eigencheck(shifted_params, g, n) for n, g in enumerate(pulled))",
           "(eigencheck(ParamVector([a, b]), g, n) for n, g in enumerate(pulled))",
           ["tests/test_suites.py", "-k", "jacobi"]),
    Mutant("no-jacobi-floor", "src/sobolex/suites.py",
           "n_max = max(n_max, 5)",
           "n_max = max(n_max, 0)",
           ["tests/test_golden.py", "-k", "suite and all"]),
    # the Sobolev form's terms come from one subset family, the last subset
    # (all of the differentiated axes) the main term's, whose lambda is 1
    Mutant("face-key-may-name-the-main-term", "src/sobolex/products.py",
           "set(map(frozenset, subsets[:-1]))",
           "set(map(frozenset, subsets))",
           ["tests/test_products.py", "-k", "lam_face"]),
    Mutant("main-term-tagged-as-a-face", "src/sobolex/products.py",
           '"main" if len(s) == k - 1 else',
           '"main" if len(s) == 1 else',
           ["tests/test_products.py", "-k", "recorded_payload"]),
    # the one index guard of every family; without it a negative entry sums
    # an empty box to 0 and no other test fails
    Mutant("every-family-skips-the-index-guard", "src/sobolex/bases.py",
           "    if len(nu) != gamma.d or any(type(k) is not int or k < 0 for k in nu):\n"
           "        raise ValueError(f\"bad multi-index {nu}\")\n",
           "",
           ["tests/test_bases.py", "-k", "bad_multi_index"]),
    # True == 1, so without the int test (True, 0) builds the (1, 0) element
    Mutant("multi-index-accepts-a-bool", "src/sobolex/bases.py",
           "any(type(k) is not int or k < 0 for k in nu)",
           "any(k < 0 for k in nu)",
           ["tests/test_bases.py", "-k", "bad_multi_index"]),
    Mutant("zero-set-accepts-a-bool", "src/sobolex/scalars.py",
           "if type(i) is not int or not 0 <= i <= d]",
           "if not 0 <= i <= d]",
           ["tests/test_scalars.py", "-k", "zero_set"]),
    # the constant alone reads |nu| unchecked: zip truncates a long index
    Mutant("biorthogonal-constant-skips-the-index-guard", "src/sobolex/bases.py",
           "d, n = gamma.d, _degree(gamma, nu)\n    value",
           "d, n = gamma.d, sum(nu)\n    value",
           ["tests/test_bases.py", "-k", "bad_multi_index"]),
    # the CLI's one verdict: 1 exactly when the printed "ok" is false
    Mutant("a-payload-without-ok-fails", "src/sobolex/cli.py",
           'payload.get("ok", True)',
           'payload.get("ok", False)',
           ["tests/test_cli.py", "-k", "printed_verdict"]),
    Mutant("pretty-prints-canonical", "src/sobolex/cli.py",
           '{"indent": 2} if args.pretty else',
           '{"indent": 2} if False else',
           ["tests/test_cli.py", "-k", "pretty"]),
    # an unreduced result keeps zero terms and a common factor, so equal
    # polynomials compare unequal
    Mutant("from-ints-skips-the-reduction", "src/sobolex/polynomials.py",
           "self._terms, self._den = _reduced(acc, den)\n        return self",
           "self._terms, self._den = acc, den\n        return self",
           ["tests/test_polynomial_oracle.py", "-k", "agrees"]),
    Mutant("integral-pairs-with-zero", "src/sobolex/moments.py",
           "inner_product(f, Polynomial.constant(f.dim, 1), gamma)",
           "inner_product(f, Polynomial.zero(f.dim), gamma)",
           ["tests/test_moments.py", "-k", "brute_force"]),
    Mutant("integral-pairs-with-zero", "src/sobolex/moments.py",
           "inner_product(f, Polynomial.constant(f.dim, 1), gamma)",
           "inner_product(f, Polynomial.zero(f.dim), gamma)",
           ["tests/test_kernels.py", "-k", "integral"]),
]


# how pytest's short summary starts the reason of a failed check, as opposed
# to an exception raised in the code under test
ASSERTED = ("assert", "AssertionError", "Failed: DID NOT RAISE")


def run(mutant: Mutant) -> str:
    """"caught" when the mutant's test subset fails an assertion in a mutated
    copy of the repository, "crashed" when it fails otherwise, else "MISSED"."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench"))
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text does not occur once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        # a wide terminal, so that the short summary keeps each failure's reason
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
                   COLUMNS="100000")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=copy, env=env, capture_output=True, text=True)
    # pytest exits 1 when tests ran and some failed; 5 (none collected) is no catch
    if done.returncode != 1:
        return "MISSED"
    summary = [line for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    asserted = all(line.startswith("FAILED ") and line.partition(" - ")[2].startswith(ASSERTED)
                   for line in summary)
    return "caught" if summary and asserted else "crashed"


def main() -> int:
    missed = []
    start = time.perf_counter()
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        verdict = run(mutant)
        print(f"{verdict:7}  {time.perf_counter() - t0:6.1f} s  {mutant.name}")
        if verdict != "caught":
            missed.append(mutant.name)
    print(f"{len(missed)} missed or crashed, {time.perf_counter() - start:.1f} s in total")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
