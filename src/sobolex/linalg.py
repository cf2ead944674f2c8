"""Exact linear algebra over the rationals: rank, span tests, definiteness.

Rank, determinants, membership solves and the definiteness test share one
fraction-free (Bareiss) elimination of integer matrices, after clearing
denominators row by row.  When that pass makes no row swap and skips no
column, its k-th diagonal pivot is the leading k x k minor of the integer
rows, so `positive_definite` reads Sylvester's criterion off the pivots of
one pass.  No tolerance parameter exists anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from .polynomials import Exponents, Polynomial, graded_lex_key
from .scalars import clear_denominators


def _eliminate(m: list[list[int]], ncols: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Bareiss elimination of the integer rows `m` in place, pivoting on the
    first `ncols` columns and carrying later ones along; returns the pivot
    positions (row, column) and the rows at which it swapped.  Each pivot is
    the first nonzero entry at or below the current row, so the pivot columns
    are the column rank profile; every entry stays an integer minor of the
    input, so each division is exact."""
    nrows = len(m)
    pivots: list[tuple[int, int]] = []
    swaps: list[int] = []
    prev, r = 1, 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            swaps.append(r)
        for i in range(r + 1, nrows):
            for j in range(col + 1, len(m[i])):
                m[i][j] = (m[r][col] * m[i][j] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        pivots.append((r, col))
        prev = m[r][col]
        r += 1
        if r == nrows:
            break
    return pivots, swaps


def _integer_rows(matrix: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], list[int]]:
    """Each row cleared of its denominators, and the lcm it was scaled by."""
    cleared = [clear_denominators(row) for row in matrix]
    return [ints for ints, _ in cleared], [den for _, den in cleared]


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Exact rank via fraction-free Gaussian elimination; entries may be
    Fractions or ints."""
    m = _integer_rows(rows)[0]
    return len(_eliminate(m, len(m[0]) if m else 0)[0])


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant (Bareiss with row pivoting)."""
    rows, scales = _integer_rows(matrix)
    pivots, swaps = _eliminate(rows, len(rows))
    if len(pivots) < len(rows):
        return Fraction(0)
    return Fraction((-1) ** len(swaps) * (rows[-1][-1] if rows else 1), prod(scales))


def leading_principal_minors(matrix: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Determinants of the leading k x k blocks, k = 1..n."""
    return [determinant([row[:k] for row in matrix[:k]]) for k in range(1, len(matrix) + 1)]


def positive_definite(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Sylvester's criterion on one elimination: a symmetric matrix is
    positive definite exactly when every leading principal minor is positive.
    Row scales are positive, so until the pass swaps or skips a column, the
    k-th diagonal entry has the sign of the leading k x k minor.  A swap
    means that minor is 0, and a skipped column leaves its 0 on the diagonal."""
    n = len(matrix)
    rows, _ = _integer_rows(matrix)
    swaps = _eliminate(rows, n)[1]
    return not swaps and all(rows[k][k] > 0 for k in range(n))


def solve_combination(target: Sequence[Fraction | int],
                      vectors: Sequence[Sequence[Fraction | int]]) -> list[Fraction] | None:
    """Coefficients c with sum c_i * vectors[i] == target, or None.

    Free coefficients are set to zero.  The other coefficients belong to the
    pivot columns, which are linearly independent, so the answer is unique.
    """
    ncols = len(vectors)
    nrows = len(target)
    if any(len(v) != nrows for v in vectors):
        raise ValueError("vector lengths disagree")
    aug = [clear_denominators([v[i] for v in vectors] + [target[i]])[0]
           for i in range(nrows)]
    pivots, _ = _eliminate(aug, ncols)
    if any(row[ncols] for row in aug[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * ncols
    for row, col in reversed(pivots):
        line = aug[row]
        rest = line[ncols] - sum(line[c] * coeffs[c] for _, c in pivots[row + 1:])
        coeffs[col] = Fraction(rest) / line[col]
    return coeffs


def coefficient_matrix(polys: Sequence[Polynomial]
                       ) -> tuple[list[list[int]], list[int], list[Exponents]]:
    """(rows, dens, support): row i over dens[i] is the coefficient vector of
    polys[i] over a common graded-lex support.  Scaling a row by its
    denominator keeps the rank, so rank tests can use the rows alone."""
    if len(dims := {p.dim for p in polys}) > 1:
        raise ValueError(f"dimension mismatch: polynomials in {sorted(dims)} variables")
    views = [p.scaled_to_integers() for p in polys]
    support = sorted(set().union(*(terms for terms, _ in views)), key=graded_lex_key)
    rows = [[terms.get(exp, 0) for exp in support] for terms, _ in views]
    return rows, [den for _, den in views], support


def poly_rank(polys: Sequence[Polynomial]) -> int:
    return rank(coefficient_matrix(polys)[0])


def spans_equal(left: Sequence[Polynomial], right: Sequence[Polynomial]) -> bool:
    """Exact span equality via mutual rank checks."""
    rows = coefficient_matrix(list(left) + list(right))[0]
    return rank(rows[:len(left)]) == rank(rows[len(left):]) == rank(rows)


def in_span(target: Polynomial, basis: Sequence[Polynomial]) -> list[Fraction] | None:
    """Coefficients expressing target in the basis, or None.  Solved on the
    integer rows q_j b_j and q t, each c_j becomes c_j q_j / q."""
    rows, dens, _ = coefficient_matrix(list(basis) + [target])
    coeffs = solve_combination(rows[-1], rows[:-1])
    return None if coeffs is None else [c * q / dens[-1] for c, q in zip(coeffs, dens)]
