import random
from fractions import Fraction

from sobolex.linalg import (determinant, in_span, leading_principal_minors,
                            poly_rank, rank, solve_combination, spans_equal)
from sobolex.polynomials import Polynomial

from oracles import oracle_solve_combination


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
    assert determinant([[Fraction(2)]]) == 2
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert determinant(m) == -2
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert determinant(singular) == 0
    rng = random.Random(315)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
              for _ in range(n)] for _ in range(n)]
        t = [[m[i][j] for i in range(n)] for j in range(n)]
        assert determinant(m) == determinant(t)


def test_leading_principal_minors():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    assert leading_principal_minors(m) == [Fraction(2), Fraction(3)]
    assert leading_principal_minors([]) == []


def _minors_by_determinant(m):
    return [determinant([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


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


def test_solve_combination():
    v1 = [Fraction(1), Fraction(0), Fraction(2)]
    v2 = [Fraction(0), Fraction(1), Fraction(1)]
    target = [Fraction(2), Fraction(3), Fraction(7)]
    coeffs = solve_combination(target, [v1, v2])
    assert coeffs == [Fraction(2), Fraction(3)]
    assert solve_combination([Fraction(0), Fraction(0), Fraction(1)], [v1]) is None


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
    coeffs = in_span(2 * x + 3 * y, [x, y])
    assert coeffs == [Fraction(2), Fraction(3)]
    assert in_span(x * x, [x, y]) is None
    # rows over different denominators
    assert in_span(x * Fraction(1, 2) + y * Fraction(1, 3), [x * Fraction(1, 4), 3 * y]) \
        == [Fraction(2), Fraction(1, 9)]
