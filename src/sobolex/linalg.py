"""Exact linear algebra over the rationals: rank, span tests, minors.

Rank and determinants run fraction-free (Bareiss) on integer matrices after
clearing denominators row by row; membership solves use plain Fraction
elimination.  No tolerance parameter exists anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .polynomials import Exponents, Polynomial, graded_lex_key

Matrix = list[list[Fraction]]


def _integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    denom = lcm(*(v.denominator for v in row))
    return [v.numerator * (denom // v.denominator) for v in row], denom


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Exact rank via fraction-free Gaussian elimination; entries may be
    Fractions or ints."""
    m = [_integer_row(row)[0] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[r][col] * m[i][j] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        prev = m[r][col]
        r += 1
        if r == nrows:
            break
    return r


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant (Bareiss with row pivoting)."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    rows = []
    for row in matrix:
        ints, denom = _integer_row(row)
        scale *= denom
        rows.append(ints)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not rows[k][k]:
            pivot = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pivot is None:
                return Fraction(0)
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[k][k] * rows[i][j] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return Fraction(sign * rows[n - 1][n - 1], 1) / scale


def leading_principal_minors(matrix: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Determinants of the leading k x k blocks, k = 1..n.

    One Bareiss pass without pivoting: after k steps the pivot of the
    integer-scaled matrix is its leading (k+1) x (k+1) minor.  A zero pivot
    stops the pass, and the remaining sizes fall back to `determinant`.
    """
    n = len(matrix)
    rows, scales = [], []
    for row in matrix:
        ints, denom = _integer_row(row)
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

    Free coefficients are set to zero, so the answer is deterministic.
    """
    ncols = len(vectors)
    nrows = len(target)
    if any(len(v) != nrows for v in vectors):
        raise ValueError("vector lengths disagree")
    aug = [[vectors[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols]:
            return None
    coeffs = [Fraction(0)] * ncols
    for row, col in pivots:
        coeffs[col] = aug[row][ncols]
    return coeffs


def _numerator_rows(polys: Sequence[Polynomial], support: Sequence[Exponents] | None = None
                    ) -> tuple[list[list[int]], list[int], list[Exponents]]:
    """(rows, dens, support): row i over dens[i] is the coefficient vector of
    polys[i] over a common graded-lex support.  Scaling a row by its
    denominator keeps the rank, so rank tests can use the rows alone."""
    views = [p.scaled_to_integers() for p in polys]
    if support is None:
        support = sorted(set().union(*(terms for terms, _ in views)), key=graded_lex_key)
    support = list(support)
    rows = [[terms.get(exp, 0) for exp in support] for terms, _ in views]
    return rows, [den for _, den in views], support


def coefficient_matrix(polys: Sequence[Polynomial],
                       support: Sequence[Exponents] | None = None) -> tuple[Matrix, list[Exponents]]:
    """Stack coefficient vectors over a common graded-lex support."""
    rows, dens, support = _numerator_rows(polys, support)
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
