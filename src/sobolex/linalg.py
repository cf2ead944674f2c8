"""Exact linear algebra over the rationals: rank, span tests, minors.

Rank, determinants and membership solves share one fraction-free (Bareiss)
elimination of integer matrices, after clearing denominators row by row;
leading principal minors take their own pass without pivoting.  No tolerance
parameter exists anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polynomials import Exponents, Polynomial, graded_lex_key
from .scalars import clear_denominators

Matrix = list[list[Fraction]]


def _eliminate(m: list[list[int]], ncols: int) -> tuple[list[tuple[int, int]], int]:
    """Bareiss elimination of the integer rows `m` in place, pivoting on the
    first `ncols` columns and carrying later ones along; returns the pivot
    positions (row, column) and the sign of the row swaps.  Each pivot is the
    first nonzero entry at or below the current row, so the pivot columns are
    the column rank profile; every entry stays an integer minor of the input,
    so each division is exact."""
    nrows = len(m)
    pivots: list[tuple[int, int]] = []
    sign, prev, r = 1, 1, 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for j in range(col + 1, len(m[i])):
                m[i][j] = (m[r][col] * m[i][j] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        pivots.append((r, col))
        prev = m[r][col]
        r += 1
        if r == nrows:
            break
    return pivots, sign


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Exact rank via fraction-free Gaussian elimination; entries may be
    Fractions or ints."""
    m = [clear_denominators(row)[0] for row in rows]
    if not m or not m[0]:
        return 0
    return len(_eliminate(m, len(m[0]))[0])


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant (Bareiss with row pivoting)."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    scale = 1
    rows = []
    for row in matrix:
        ints, denom = clear_denominators(row)
        scale *= denom
        rows.append(ints)
    pivots, sign = _eliminate(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * rows[n - 1][n - 1], scale)


def leading_principal_minors(matrix: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Determinants of the leading k x k blocks, k = 1..n.

    One Bareiss pass without pivoting: after k steps the pivot of the
    integer-scaled matrix is its leading (k+1) x (k+1) minor.  A zero pivot
    stops the pass, and the remaining sizes fall back to `determinant`.
    """
    n = len(matrix)
    rows, scales = [], []
    for row in matrix:
        ints, denom = clear_denominators(row)
        rows.append(ints)
        scales.append(denom)
    minors: list[Fraction] = []
    prev, scale = 1, 1
    for k in range(n):
        pivot = rows[k][k]
        scale *= scales[k]
        minors.append(Fraction(pivot, scale))
        if not pivot:
            minors.extend(determinant([row[:size] for row in matrix[:size]])
                          for size in range(k + 2, n + 1))
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (pivot * rows[i][j] - rows[i][k] * rows[k][j]) // prev
        prev = pivot
    return minors


def solve_combination(target: Sequence[Fraction],
                      vectors: Sequence[Sequence[Fraction]]) -> list[Fraction] | None:
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


def _numerator_rows(polys: Sequence[Polynomial]
                    ) -> tuple[list[list[int]], list[int], list[Exponents]]:
    """(rows, dens, support): row i over dens[i] is the coefficient vector of
    polys[i] over a common graded-lex support.  Scaling a row by its
    denominator keeps the rank, so rank tests can use the rows alone."""
    views = [p.scaled_to_integers() for p in polys]
    support = sorted(set().union(*(terms for terms, _ in views)), key=graded_lex_key)
    rows = [[terms.get(exp, 0) for exp in support] for terms, _ in views]
    return rows, [den for _, den in views], support


def coefficient_matrix(polys: Sequence[Polynomial]) -> tuple[Matrix, list[Exponents]]:
    """Stack coefficient vectors over a common graded-lex support."""
    rows, dens, support = _numerator_rows(polys)
    return [[Fraction(v, den) for v in row] for row, den in zip(rows, dens)], support


def poly_rank(polys: Sequence[Polynomial]) -> int:
    if not polys:
        return 0
    rows, _, _ = _numerator_rows(polys)
    return rank(rows) if rows and rows[0] else 0


def spans_equal(left: Sequence[Polynomial], right: Sequence[Polynomial]) -> bool:
    """Exact span equality via mutual rank checks."""
    rows, _, _ = _numerator_rows(list(left) + list(right))
    nl = len(left)
    rl = rank(rows[:nl]) if nl else 0
    rr = rank(rows[nl:]) if len(right) else 0
    return rl == rr == rank(rows)


def in_span(target: Polynomial, basis: Sequence[Polynomial]) -> list[Fraction] | None:
    """Exact membership: coefficients expressing target in the basis, or None."""
    rows, support = coefficient_matrix(list(basis) + [target])
    vecs = rows[:-1]
    return solve_combination(rows[-1], vecs)
