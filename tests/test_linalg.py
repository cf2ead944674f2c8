import random
from fractions import Fraction

import pytest

from sobolex import linalg
from sobolex.linalg import (coefficient_matrix, determinant, in_span, leading_principal_minors,
                            poly_rank, positive_definite, rank, solve_combination, spans_equal)
from sobolex.polynomials import Polynomial, graded_lex_key, monomials_up_to

from oracles import oracle_determinant, oracle_solve_combination


def naive_rank(rows):
    """Plain Fraction row reduction, independent of the Bareiss path."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def test_rank_matches_naive_reduction():
    rng = random.Random(314)
    for _ in range(120):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(nc)] for _ in range(nr)]
        # plant dependencies now and then
        if nr >= 2 and rng.random() < 0.4:
            c = Fraction(rng.randint(-2, 2))
            rows[-1] = [c * v for v in rows[0]]
        assert rank(rows) == naive_rank(rows)


def test_determinant_basics():
    # hand-computed values, which the oracle gives too
    cases = [([], 1), ([[2]], 2), ([[1, 2], [3, 4]], -2), ([[1, 2], [2, 4]], 0),
             ([[0, 1], [1, 0]], -1)]
    for rows, want in cases:
        m = [[Fraction(v) for v in row] for row in rows]
        assert determinant(m) == oracle_determinant(m) == want
    # random sparse matrices, so that many need one or more row swaps
    rng = random.Random(315)
    swapped = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        m = [[Fraction(rng.choice((0, 0, rng.randint(-3, 3))), rng.randint(1, 3))
              for _ in range(n)] for _ in range(n)]
        got = determinant(m)
        assert got == oracle_determinant(m)
        swapped += bool(got) and not m[0][0]
    assert swapped > 10


def test_leading_principal_minors():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    assert leading_principal_minors(m) == [Fraction(2), Fraction(3)]
    assert leading_principal_minors([]) == []


def _minors_by_determinant(m):
    return [oracle_determinant([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def test_leading_principal_minors_match_determinants():
    rng = random.Random(316)
    singular_leads = 0
    for trial in range(150):
        n = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
              for _ in range(n)] for _ in range(n)]
        if n >= 2 and trial % 3 == 0:
            # a singular leading block: row k repeats row 0 on its first k+1 entries
            k = rng.randint(1, n - 1)
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            m[k][:k + 1] = [c * v for v in m[0][:k + 1]]
        if trial % 7 == 0:
            m[0][0] = Fraction(0)
        got = leading_principal_minors(m)
        assert got == _minors_by_determinant(m)
        singular_leads += any(v == 0 for v in got[:-1])
    assert singular_leads > 20


def test_positive_definite_is_sylvesters_criterion(monkeypatch):
    # against "every leading minor by the oracle is > 0", on symmetric
    # matrices: Gram matrices B^T B (definite, or singular when B is), plain
    # symmetric ones, and the edge cases first.  The verdict reads the pivots
    # of one elimination and builds no determinant.
    cases = [
        [],
        [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(2)]],  # zero first pivot
        [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]],  # zero pivot, semidefinite
        [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]],  # negative later minor
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],  # singular semidefinite
        # 3 x 3: a zero first pivot, so a row swap; a negative second minor
        [[Fraction(v) for v in row] for row in ((0, 1, 2), (1, 2, 0), (2, 0, 3))],
        [[Fraction(v) for v in row] for row in ((1, 2, 0), (2, 1, 1), (0, 1, 5))],
    ]
    rng = random.Random(1968)
    for trial in range(120):
        n = rng.randint(1, 5)
        b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        if trial % 3 == 0:
            cases.append([[b[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
            continue
        if trial % 3 == 2:
            b[-1] = b[0]  # B singular (from n = 2 on), and so is B^T B
        cases.append([[sum((r[i] * r[j] for r in b), Fraction(0)) for j in range(n)]
                      for i in range(n)])

    def no_determinant(matrix):
        raise AssertionError("positive_definite built a determinant")

    monkeypatch.setattr(linalg, "determinant", no_determinant)
    verdicts = [positive_definite(m) for m in cases]
    assert verdicts == [all(v > 0 for v in _minors_by_determinant(m)) for m in cases]
    assert verdicts[:7] == [True] + [False] * 6
    assert 30 < sum(verdicts) < len(cases) - 30


def test_solve_combination():
    v1 = [Fraction(1), Fraction(0), Fraction(2)]
    v2 = [Fraction(0), Fraction(1), Fraction(1)]
    target = [Fraction(2), Fraction(3), Fraction(7)]
    coeffs = solve_combination(target, [v1, v2])
    assert coeffs == [Fraction(2), Fraction(3)]
    assert solve_combination([Fraction(0), Fraction(0), Fraction(1)], [v1]) is None


def test_solve_combination_refuses_vectors_of_another_length():
    with pytest.raises(ValueError, match="vector lengths disagree"):
        solve_combination([Fraction(1), Fraction(2)], [[Fraction(1)]])


def _random_system(rng, trial):
    """A random rational system (target, vectors): wide, tall or square, with
    dependent columns, zero rows, and consistent and inconsistent targets."""
    nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
    vectors = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(nrows)]
               for _ in range(ncols)]
    if ncols >= 2 and trial % 3 == 0:
        a, b = rng.sample(range(ncols), 2)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        vectors[b] = [v + c * w for v, w in zip(vectors[b], vectors[a])] if trial % 2 \
            else [c * w for w in vectors[a]]
    if nrows and trial % 4 == 0:
        zero = rng.randrange(nrows)
        for v in vectors:
            v[zero] = Fraction(0)
    if trial % 2:
        # consistent: a combination of the columns
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in vectors]
        target = [sum((c * v[i] for c, v in zip(coeffs, vectors)), Fraction(0))
                  for i in range(nrows)]
    else:
        target = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(nrows)]
    return target, vectors


def test_solve_combination_matches_the_fraction_oracle():
    rng = random.Random(317)
    found = none = 0
    for trial in range(600):
        target, vectors = _random_system(rng, trial)
        got = solve_combination(target, vectors)
        assert got == oracle_solve_combination(target, vectors)
        if got is None:
            none += 1
        else:
            found += 1
            assert [sum((c * v[i] for c, v in zip(got, vectors)), Fraction(0))
                    for i in range(len(target))] == target
    assert found > 200 and none > 100


def test_poly_span_helpers():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert poly_rank([x, y, x + y]) == 2
    assert spans_equal([x, y], [x + y, x - y])
    assert not spans_equal([x], [x, y])
    # empty lists and zero polynomials span {0}
    zero = Polynomial(2)
    assert [poly_rank(c) for c in ([], [zero], [zero, zero], [x], [x, zero])] == [0, 0, 0, 1, 1]
    pairs = [([], []), ([], [zero]), ([zero], []), ([], [x]), ([x], []), ([zero], [x, zero]),
             ([x, zero], [2 * x])]
    assert [spans_equal(a, b) for a, b in pairs] == [True, True, True, False, False, False, True]
    coeffs = in_span(2 * x + 3 * y, [x, y])
    assert coeffs == [Fraction(2), Fraction(3)]
    assert in_span(x * x, [x, y]) is None
    # rows over different denominators
    assert in_span(x * Fraction(1, 2) + y * Fraction(1, 3), [x * Fraction(1, 4), 3 * y]) \
        == [Fraction(2), Fraction(1, 9)]


def test_the_span_helpers_refuse_polynomials_of_different_dimensions():
    # one support merged across dimensions would read x_0 in two and in three
    # variables as two independent vectors
    x2, x3 = Polynomial.variable(2, 0), Polynomial.variable(3, 0)
    calls = [lambda: coefficient_matrix([Polynomial(2), Polynomial(3)]),
             lambda: poly_rank([x2, x3]), lambda: spans_equal([x2], [x3]),
             lambda: in_span(x3, [x2])]
    for call in calls:
        with pytest.raises(ValueError, match="dimension mismatch"):
            call()


DENOMINATORS = (3, 5, 7, 11)


def _random_poly(rng):
    """A d = 2 polynomial of degree <= 2 with coefficients over 3, 5, 7 and 11."""
    return Polynomial(2, {e: Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS))
                          for e in monomials_up_to(2, 2) if rng.random() < 0.6})


def _vector(p, support):
    coeffs = dict(p.items())
    return [coeffs.get(e, Fraction(0)) for e in support]


def test_coefficient_matrix_rows_over_their_denominators():
    rng = random.Random(319)
    polys = [_random_poly(rng) for _ in range(6)] + [Polynomial(2)]
    rows, dens, support = coefficient_matrix(polys)
    assert support == sorted({e for p in polys for e, _ in p.items()}, key=graded_lex_key)
    assert len(rows) == len(dens) == len(polys)
    for p, row, den in zip(polys, rows, dens):
        assert all(type(v) is int for v in row) and type(den) is int and den > 0
        assert [Fraction(v, den) for v in row] == _vector(p, support)
    assert coefficient_matrix([]) == ([], [], [])


def test_in_span_matches_the_fraction_oracle():
    # the integer solve's coefficients, rescaled by q_j / q_target, against
    # the Fraction solve on the coefficient vectors: dependent bases, zero
    # targets, members and non-members
    rng = random.Random(318)
    zero = Polynomial(2)
    found = none = zeros = 0
    for trial in range(400):
        basis = [_random_poly(rng) for _ in range(rng.randint(0, 4))]
        if len(basis) >= 2 and trial % 3 == 0:
            c = Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS))
            basis[-1] = c * basis[0] + (basis[1] if trial % 2 else zero)
        if trial % 5 == 0:
            target = zero
        elif trial % 2:
            target = sum((Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS)) * b
                          for b in basis), zero)
        else:
            target = _random_poly(rng)
        support = sorted({e for p in basis + [target] for e, _ in p.items()})
        got = in_span(target, basis)
        assert got == oracle_solve_combination(_vector(target, support),
                                               [_vector(b, support) for b in basis])
        if got is None:
            none += 1
        else:
            found += 1
            zeros += target.is_zero
            assert sum((c * b for c, b in zip(got, basis)), zero) == target
    assert found > 150 and none > 100 and zeros > 50
