"""Hand-made faults ("mutants") that the tests must catch, and their runner.

Each mutant replaces one exact text of one file under `src/` by a wrong one,
and names the test subset that must fail on the result.  `tests/test_mutants.py`
checks, in every tier-1 run, that each old text still occurs exactly once in
`src/`, so that the list cannot silently stop applying.  Running the mutants
is opt-in, because each one runs its subset in a fresh copy of the repository:

    python tests/mutants.py

It exits 0 when every mutant is caught (its subset fails) and 1 otherwise.
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
    Mutant("positive-definite-accepts-a-zero-minor", "src/sobolex/linalg.py",
           "return all(m > 0 for m in leading_principal_minors(matrix))",
           "return all(m >= 0 for m in leading_principal_minors(matrix))",
           ["tests/test_linalg.py", "-k", "positive_definite"]),
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
           "(t for t in self._terms if t.lam)",
           "(t._replace(lam=ONE) for t in self._terms if t.lam)",
           ["tests/test_products.py", "-k", "oracle"]),
    Mutant("moment-table-recurrence-off-by-one", "src/sobolex/moments.py",
           "self._step * (len(row) - 1)",
           "self._step * len(row)",
           ["tests/test_moments.py", "-k", "brute_force"]),
]


def run(mutant: Mutant) -> bool:
    """Whether the mutant's test subset fails in a mutated copy of the repository."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench"))
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text does not occur once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=copy, env=env, capture_output=True, text=True)
    # pytest exits 1 when tests ran and some failed; 5 (none collected) is no catch
    return done.returncode == 1


def main() -> int:
    missed = []
    start = time.perf_counter()
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        caught = run(mutant)
        print(f"{'caught' if caught else 'MISSED'}  {time.perf_counter() - t0:6.1f} s  {mutant.name}")
        if not caught:
            missed.append(mutant.name)
    print(f"{len(missed)} missed, {time.perf_counter() - start:.1f} s in total")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
