"""Hand-made faults ("mutants") that the tests must catch, and their runner.

Each mutant replaces one exact text of one file under `src/` by a wrong one,
and names the test subset that must fail on the result.  `tests/test_mutants.py`
checks, in every tier-1 run, that each old text still occurs exactly once in
`src/`, so that the list cannot silently stop applying.  Running the mutants
is opt-in, because each one runs its subset in a fresh copy of the repository:

    python tests/mutants.py

It exits 0 when every mutant is caught, that is, when its subset fails an
assertion (a crash of the code under test does not count), and 1 otherwise.
On SIGTERM it kills the running subset, removes its copy and exits 143.
"""

from __future__ import annotations

import os
import shutil
import signal
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
           'form = product if args.spec == "sobolev" else None',
           'form = products.SingularProduct(product.gamma) if args.spec == "sobolev" else None',
           ["tests/test_cli.py", "-k", "gram"]),
    # the permuted family then reads a missing --order, and crashes on it
    Mutant("permuted-family-does-not-need-its-order", "src/sobolex/cli.py",
           '"permuted": Choice("--order", True)',
           '"permuted": Choice("--order")',
           ["tests/test_cli.py", "-k", "names_the_option"]),
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
    # the same fault, seen by each test that pulls U_n back or stacks it
    Mutant("h-space-hyperplane-slots-are-the-zero-set", "src/sobolex/spaces.py",
           "range(len(zset))",
           "zset - {d}",
           ["tests/test_spaces.py", "-k", "every_pattern"]),
    Mutant("h-space-hyperplane-slots-are-the-zero-set", "src/sobolex/spaces.py",
           "range(len(zset))",
           "zset - {d}",
           ["tests/test_spaces.py", "-k", "swapped_targets"]),
    Mutant("h-space-hyperplane-slots-are-the-zero-set", "src/sobolex/spaces.py",
           "range(len(zset))",
           "zset - {d}",
           ["tests/test_spaces.py", "-k", "term_by_term"]),
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
    # a row then fails only when it pairs nonzero with every lower monomial
    Mutant("lower-degree-failure-needs-every-column", "src/sobolex/spaces.py",
           "map(any, product.matrix(polys, product.below(n)))",
           "map(all, product.matrix(polys, product.below(n)))",
           ["tests/test_spaces.py", "-k", "recorded_order"]),
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
           "math.prod(range(start, start + k * step, step))",
           "math.prod(range(start + step, start + (k + 1) * step, step))",
           ["tests/test_moments.py", "-k", "brute_force"]),
    # a weight is the tuple of its exponents and takes no other state
    Mutant("param-vector-takes-attributes", "src/sobolex/scalars.py",
           "    __slots__ = ()\n",
           "",
           ["tests/test_scalars.py", "-k", "param_vector_is_immutable"]),
    # the product of barycentric coordinates without y_d = 1-|x|: lemmas4's
    # factor (1-|x|) x^S loses its first factor
    Mutant("barycentric-product-drops-the-hyperplane", "src/sobolex/polynomials.py",
           "chosen = zero_set(slots, dim)",
           "chosen = zero_set(slots, dim) - {dim}",
           ["tests/test_suites.py", "-k", "lemmas4"]),
    Mutant("power-one-factor-short", "src/sobolex/polynomials.py",
           "[self] * n",
           "[self] * (n - 1)",
           ["tests/test_polynomials.py", "-k", "repeated_product"]),
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
    # one numerator memo for every weight: a monomial met under a second
    # weight reads the first weight's numerator
    Mutant("numerators-shared-across-weights", "src/sobolex/moments.py",
           "_NUMERATORS.setdefault(gamma, {})",
           "_NUMERATORS.setdefault((), {})",
           ["tests/test_moments.py", "-k", "own_numerators"]),
    Mutant("leibniz-denominator-one-power-too-high", "src/sobolex/bases.py",
           "slots, D ** n)",
           "slots, D ** (n + 1))",
           ["tests/test_bases.py", "-k", "rodrigues_examples"]),
    Mutant("all-runs-every-suite-at-every-d", "src/sobolex/suites.py",
           "if suite.every_all or suite.d == d]",
           "if suite.every_all or suite.d]",
           ["tests/test_suites.py", "-k", "all_runs"]),
    # one verdict for a suite (its checks) and for `all` (its suites)
    Mutant("verdict-is-any-part", "src/sobolex/suites.py",
           'all(p["ok"] for p in parts)',
           'any(p["ok"] for p in parts)',
           ["tests/test_suites.py", "-k", "one_failed_check"]),
    Mutant("suites-get-fewer-default-weights", "src/sobolex/suites.py",
           "gammas or default_gammas(d)",
           "gammas or default_gammas(d)[1:]",
           ["tests/test_suites.py", "-k", "all_runs"]),
    Mutant("eigencheck-off-diagonal-factor", "src/sobolex/bases.py",
           "c * ai * ((ai - 1) * D + lows[i])",
           "c * ai * (ai * D + lows[i])",
           ["tests/test_kernels.py", "-k", "eigencheck"]),
    # a zero residual stays zero, so only the residual's value sees the missing D
    Mutant("eigen-residual-drops-the-weight-denominator", "src/sobolex/bases.py",
           "residual, q * D)",
           "residual, q)",
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
           "    if len(nu) != gamma.d or not all(is_index(k, 0) for k in nu):\n"
           "        raise ValueError(f\"bad multi-index {nu}\")\n",
           "",
           ["tests/test_bases.py", "-k", "bad_multi_index"]),
    # True == 1, so without the int test (True, 0) builds the (1, 0) element
    Mutant("multi-index-accepts-a-bool", "src/sobolex/bases.py",
           "not all(is_index(k, 0) for k in nu)",
           "any(k < 0 for k in nu)",
           ["tests/test_bases.py", "-k", "bad_multi_index"]),
    # True == 1, so as an int it would pass as the rational 1
    Mutant("as-fraction-accepts-a-bool", "src/sobolex/scalars.py",
           "if isinstance(value, int) and not isinstance(value, bool):",
           "if isinstance(value, int):",
           ["tests/test_scalars.py", "-k", "rational_entry"]),
    # without the guard, the division it stands in front of raises first
    Mutant("jacobi-neg-one-one-divides-by-zero", "src/sobolex/bases.py",
           "        if l1 + l2 == 0:\n"
           "            raise ZeroDenominator(\"lam1 + lam2 must be nonzero\")\n",
           "",
           ["tests/test_bases.py", "-k", "sum_to_zero"]),
    Mutant("zero-set-accepts-a-bool", "src/sobolex/scalars.py",
           "if not is_index(i, 0, d)]",
           "if not 0 <= i <= d]",
           ["tests/test_scalars.py", "-k", "zero_set"]),
    # the one judge of every index: as isinstance it admits True as 1, and
    # one past its high bound it admits the slot after the last
    Mutant("index-admits-a-bool", "src/sobolex/scalars.py",
           "return type(value) is int and",
           "return isinstance(value, int) and",
           ["tests/test_scalars.py", "-k", "is_index or index_guard"]),
    Mutant("index-admits-one-past-the-high-bound", "src/sobolex/scalars.py",
           "low <= value <= high\n",
           "low <= value <= high + 1\n",
           ["tests/test_scalars.py", "-k", "is_index or index_guard"]),
    # the constant alone reads |nu| unchecked: zip truncates a long index
    Mutant("biorthogonal-constant-skips-the-index-guard", "src/sobolex/bases.py",
           "d, n = gamma.d, _degree(gamma, nu)\n    value = Fraction",
           "d, n = gamma.d, sum(nu)\n    value = Fraction",
           ["tests/test_bases.py", "-k", "bad_multi_index"]),
    # a dimension 0 has binom(n-1, n) = 0 monomials of degree n, not 1 at n = 0
    Mutant("expected-dimension-admits-dimension-zero", "src/sobolex/spaces.py",
           "is_index(dim, 1) and is_index(n, 0)",
           "is_index(dim, 0) and is_index(n, 0)",
           ["tests/test_scalars.py", "-k", "expected_dimension"]),
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
           "inner_product(f, Polynomial(f.dim), gamma)",
           ["tests/test_moments.py", "-k", "brute_force"]),
    Mutant("integral-pairs-with-zero", "src/sobolex/moments.py",
           "inner_product(f, Polynomial.constant(f.dim, 1), gamma)",
           "inner_product(f, Polynomial(f.dim), gamma)",
           ["tests/test_kernels.py", "-k", "integral"]),
    # jacobi_norm judges (1-x)^alpha x^beta by the weight's own rule, both exponents
    Mutant("jacobi-norm-judges-alpha-only", "src/sobolex/bases.py",
           "b, a = ParamVector([beta, alpha]).integrable()",
           "b, a = as_fraction(beta), ParamVector([0, alpha]).integrable()[1]",
           ["tests/test_bases.py", "-k", "jacobi_norm"]),
    # every identity still holds, so only the count gate sees the missing lead
    Mutant("partial-orthogonality-drops-the-half-lead", "src/sobolex/suites.py",
           "default_tails(d, m_len)[:2]",
           "default_tails(d, m_len)[:1]",
           ["tests/test_suites.py", "-k", "recorded_number and rodrigue"]),
    # a Gram against the lower-degree monomials prints its labels swapped
    Mutant("gram-report-swaps-its-labels", "src/sobolex/products.py",
           "    row_labels: list[str]\n    col_labels: list[str]\n",
           "    col_labels: list[str]\n    row_labels: list[str]\n",
           ["tests/test_golden.py", "-k", "digest and gram"]),
    Mutant("substitute-drops-the-top-power", "src/sobolex/polynomials.py",
           "range(max(groups, default=0), -1, -1)",
           "range(max(groups, default=0) - 1, -1, -1)",
           ["tests/test_polynomials.py", "-k", "substitute"]),
    # the one integer rule: ASCII digits, at most MAX_DIGITS of them, refused
    # in the package's words whatever the interpreter's own limit
    Mutant("numeral-admits-any-script", "src/sobolex/scalars.py",
           r'_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")',
           r'_RATIONAL = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")',
           ["tests/test_scalars.py", "-k", "integer_rule"]),
    Mutant("numeral-limit-leaks-pythons-advice", "src/sobolex/scalars.py",
           "if len(digits) > MAX_DIGITS:",
           "if False:",
           ["tests/test_scalars.py", "-k", "integer_rule"]),
    # the pieces are read by int() under any interpreter limit, each shifted by its own length
    Mutant("numeral-pieces-lose-their-place", "src/sobolex/scalars.py",
           "10 ** len(piece)",
           "10 ** 640",
           ["tests/test_scalars.py", "-k", "least_limit"]),
    Mutant("numeral-limit-one-digit-short", "src/sobolex/scalars.py",
           "> MAX_DIGITS:",
           ">= MAX_DIGITS:",
           ["tests/test_scalars.py", "-k", "digit_bound"]),
    # the interpreter's limit then refuses to print a result of an accepted input
    Mutant("cli-keeps-the-interpreter-limit", "src/sobolex/cli.py",
           "    sys.set_int_max_str_digits(0)\n",
           "",
           ["tests/test_cli.py", "-k", "lifts_the_interpreter_limit"]),
    Mutant("indices-read-by-int", "src/sobolex/cli.py",
           "i = scalars.parse_int(part)",
           "i = int(part)",
           ["tests/test_golden.py", "-k", "refusal"]),
    Mutant("json-ints-read-by-int", "src/sobolex/cli.py",
           "json.loads(text, parse_int=scalars.parse_int)",
           "json.loads(text)",
           ["tests/test_golden.py", "-k", "refusal"]),
    # the monic element: the level is (s+n)_k over (s+n)_n, and the one
    # refusal is a vanishing (s+n)_n, where two degrees share an eigenvalue
    Mutant("monic-level-shifted-by-one", "src/sobolex/bases.py",
           "(-1) ** (n + k) * rising(top, D, k)",
           "(-1) ** (n + k) * rising(top + D, D, k)",
           ["tests/test_kernels.py", "-k", "monomial_element"]),
    Mutant("monic-refusal-dropped", "src/sobolex/bases.py",
           "if not den:  # lambda_m = lambda_n",
           "if den is None:  # lambda_m = lambda_n",
           ["tests/test_bases.py", "-k", "monomial_examples"]),
    # a pairing under a weight with no integral: -1, or a ZeroDivisionError
    Mutant("biorthogonal-accepts-a-nonintegrable-weight", "src/sobolex/bases.py",
           "zip(gamma.integrable()[:-1], nu)",
           "zip(gamma[:-1], nu)",
           ["tests/test_bases.py", "-k", "not_integrable"]),
    # a mixed partial is the fold of one partial per axis
    Mutant("derivative-takes-the-first-axis-only", "src/sobolex/products.py",
           "return lambda f: reduce(Polynomial.partial, axes, f)\n",
           "return lambda f: reduce(Polynomial.partial, axes[:1], f)\n",
           ["tests/test_products.py", "-k", "oracle"]),
    # |g| counts g_{d+1}
    Mutant("eigenvalue-drops-the-last-exponent", "src/sobolex/bases.py",
           "n + sum(gamma) + gamma.d",
           "n + sum(gamma[:-1]) + gamma.d",
           ["tests/test_bases.py", "-k", "jacobi_ode"]),
    # a benchmark request that compiles a module it does not use: each fails
    # one row of the load test, and no other
    Mutant("products-loads-bases", "src/sobolex/products.py",
           "from .errors import NonPositiveForm\n",
           "from .bases import eigenvalue\nfrom .errors import NonPositiveForm\n",
           ["tests/test_package.py", "-k", "loads_only and inner"]),
    Mutant("eigen-reaches-spaces-through-suites", "src/sobolex/cli.py",
           "return spaces.verify_u_space(form, args.n)",
           "return suites.verify_u_space(form, args.n)",
           ["tests/test_package.py", "-k", "loads_only and eigen"]),
    Mutant("gram-reaches-monomials-through-suites", "src/sobolex/cli.py",
           "rows = products.labeled(polynomials.monomial_polys(gamma.d, args.n)",
           "rows = products.labeled(suites.monomial_polys(gamma.d, args.n)",
           ["tests/test_package.py", "-k", "loads_only and gram"]),
    # a missing --d read as 2 again, so a weight of other than 3 entries needs --d
    Mutant("missing-d-is-2-for-the-cli", "src/sobolex/cli.py",
           "if d not in (None, gamma.d):",
           "if (d := d or 2) != gamma.d:",
           ["tests/test_cli.py", "-k", "dimension_of_the_weight"]),
    Mutant("missing-d-is-2-for-run-suite", "src/sobolex/suites.py",
           "d = (row.d or (gammas[0].d if gammas else 2)) if d is None else d",
           "d = (row.d or 2) if d is None else d",
           ["tests/test_suites.py", "-k", "first_weights"]),
    # zip would cut the exponents to the weight's d and return a wrong value
    Mutant("pairings-skip-the-dimension-check", "src/sobolex/moments.py",
           "    if {p.dim for p in (*rows, *cols)} | {gamma.d if shift is None else len(shift)}"
           " != {gamma.d}:\n"
           '        raise ValueError(f"dimension mismatch: the weight has {gamma.d} variables")\n',
           "",
           ["tests/test_moments.py", "-k", "dimension"]),
    # one support merged across dimensions: x_0 in two and in three variables
    # would count as two independent vectors
    Mutant("coefficient-matrix-merges-dimensions", "src/sobolex/linalg.py",
           "    if len(dims := {p.dim for p in polys}) > 1:\n"
           '        raise ValueError(f"dimension mismatch: polynomials in {sorted(dims)} variables")\n',
           "",
           ["tests/test_linalg.py", "-k", "different_dimensions"]),
    # the same empty lists, reached by walking |degree| + 1 heads and their tails
    Mutant("negative-degree-walks-its-absolute-value", "src/sobolex/polynomials.py",
           "for head in range(degree + 1)",
           "for head in range(abs(degree) + 1)",
           ["tests/test_polynomials.py", "-k", "negative_degree"]),
]


# how pytest's short summary starts the reason of a failed check, as opposed
# to an exception raised in the code under test
ASSERTED = ("assert", "AssertionError", "Failed: DID NOT RAISE")


# 128 + the signal once SIGTERM came, and the subset that it kills
_stopped = 0
_child: subprocess.Popen | None = None


def run(mutant: Mutant) -> str:
    """"caught" when the mutant's test subset fails an assertion in a mutated
    copy of the repository, "crashed" when it fails otherwise, else "MISSED"."""
    global _child
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench"))
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text does not occur once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        # a wide terminal, so that the short summary keeps each failure's reason.
        # A killed subset leaves behind what it was writing in TMPDIR (Python's
        # probe of the directory, say), so TMPDIR is the copy's own directory; and
        # it loads pytest's own plugins only, since a third-party one may start
        # processes that outlive it (pytest-benchmark runs git, hg and file).
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
                   COLUMNS="100000", TMPDIR=tmp, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
        with subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=copy, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as _child:
            if _stopped:  # SIGTERM came while the subset started
                _child.kill()
            stdout = _child.communicate()[0]
    # pytest exits 1 when tests ran and some failed; 5 (none collected) is no catch
    if _child.returncode != 1:
        return "MISSED"
    summary = [line for line in stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    asserted = all(line.startswith("FAILED ") and line.partition(" - ")[2].startswith(ASSERTED)
                   for line in summary)
    return "caught" if summary and asserted else "crashed"


def _terminate(signum: int, frame: object) -> None:
    """SIGTERM kills the running subset; `main` stops once `TemporaryDirectory`
    has removed its copy.  Raising here instead could interrupt that removal,
    or a start of the subset, and leave either behind."""
    global _stopped
    _stopped = 128 + signum
    if _child is not None:
        _child.kill()  # a no-op on a subset that has ended


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    missed = []
    start = time.perf_counter()
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        verdict = run(mutant)
        if _stopped:
            return _stopped
        print(f"{verdict:7}  {time.perf_counter() - t0:6.1f} s  {mutant.name}")
        if verdict != "caught":
            missed.append(mutant.name)
    print(f"{len(missed)} missed or crashed, {time.perf_counter() - start:.1f} s in total")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
