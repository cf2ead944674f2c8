import random
from fractions import Fraction

import pytest

from sobolex.errors import NonIntegrableWeight
from sobolex.linalg import positive_definite
from sobolex.moments import face_inner_product, inner_product, integral, pairings, vertex_eval
from sobolex.polynomials import Polynomial, complement, monomials_up_to
from sobolex.scalars import ParamVector

from oracles import (interval_integral, normalized_moment, oracle_inner_product,
                     oracle_normalized_moment, simplex_integral)

H = Fraction(1, 2)
X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


def test_normalized_moment_examples():
    g = ParamVector([0, 0, 0])
    assert normalized_moment(g, (0, 0, 0)) == 1
    assert normalized_moment(g, (1, 0, 0)) == Fraction(1, 3)
    assert normalized_moment(ParamVector([H, H, H]), (1, 0, 0)) == Fraction(1, 3)


def test_moment_errors():
    with pytest.raises(NonIntegrableWeight):
        normalized_moment(ParamVector([-1, 0, 0]), (1, 0, 0))
    with pytest.raises(ValueError):
        normalized_moment(ParamVector([0, 0, 0]), (1, 0))
    # an exponent that is not an int is refused, not truncated or read as 0/1;
    # these refusals test the oracle helper `normalized_moment`: a caller's
    # exponents enter the library through the `Polynomial` constructor, which
    # tests/test_polynomials.py::test_constructor_rejects_inexact_terms checks
    for bad in (1.5, 1.0, True, False, Fraction(1), "1", -1):
        with pytest.raises(ValueError):
            normalized_moment(ParamVector([0, 0, 0]), (bad, 0, 0))


def test_inner_product_examples():
    g = ParamVector([0, 0, 0])
    assert inner_product(Polynomial.constant(2, 1), Polynomial.constant(2, 1), g) == 1
    assert inner_product(1 - 2 * X - Y, X, g) == Fraction(-1, 12)
    assert inner_product(1 - 2 * X - Y, Polynomial.constant(2, 1), g) == 0


def test_face_inner_product_examples():
    face = {2}  # the hyperplane 1-|x| = 0
    fp = ParamVector([0, 0])
    assert face_inner_product(X, X, face, fp) == Fraction(1, 3)
    one = Polynomial.constant(2, 1)
    assert face_inner_product(one, one, face, fp) == 1
    assert face_inner_product(X, 1 - X, face, fp) == Fraction(1, 6)
    with pytest.raises(ValueError):
        face_inner_product(X, X, {0, 1}, fp)
    with pytest.raises(ValueError):
        face_inner_product(X, X, {2}, ParamVector([0, 0, 0]))


def test_vertex_eval():
    assert vertex_eval(X, 1) == 1
    assert vertex_eval(X, 0) == 0
    w = complement(2)
    assert vertex_eval(w, 1) == 0 and vertex_eval(w, 2) == 0
    assert vertex_eval(w, 0) == 1


def test_interval_oracle_self_consistency():
    # the binomial-expansion integral matches direct expansion of small cases
    assert interval_integral(0, 0) == 1
    assert interval_integral(1, 1) == Fraction(1, 6)
    assert interval_integral(2, 0) == Fraction(1, 3)
    assert simplex_integral((0, 0, 0)) == H
    assert simplex_integral((1, 0, 0)) == Fraction(1, 6)
    assert simplex_integral((1, 1, 0)) == Fraction(1, 24)


def test_moment_matches_brute_force_oracle():
    rng = random.Random(240814)
    for _ in range(80):
        d = rng.randint(1, 3)
        gamma = tuple(rng.randint(0, 3) for _ in range(d + 1))
        for _ in range(3):  # later draws for the same weight hit its numerator memo
            a = tuple(rng.randint(0, 4) for _ in range(d + 1))
            want = oracle_normalized_moment(gamma, a)
            assert normalized_moment(ParamVector(gamma), a) == want
            if a[-1] == 0:
                assert integral(Polynomial.monomial(d, a[:-1]), ParamVector(gamma)) == want


def test_each_weight_has_its_own_numerators():
    # x paired with 1 under two weights in one process; with one numerator
    # memo for both, the two values would share a numerator over 3 and 4
    one = Polynomial.constant(2, 1)
    assert [inner_product(X, one, ParamVector(g)) for g in ([0, 0, 0], [1, 0, 0])] \
        == [Fraction(1, 3), Fraction(1, 2)]


def test_pairings_are_ints_over_one_denominator():
    # pairwise coprime denominators, 3, 5, 7 on the rows and 11, 13 on the
    # columns, so that each is a factor that only its own scale supplies
    gamma = ParamVector([H, Fraction(1, 3), 2])
    rows = [Fraction(1, 3) * (1 - 2 * X + Y * Y), Fraction(1, 5) * (X * Y - 4),
            Fraction(2, 7) * (X ** 3 + Y)]
    cols = [Fraction(1, 11) * (X - 3 * Y), Fraction(4, 13) * (1 + X * X)]
    for shift in (None, (1, 2)):
        right = Polynomial.monomial(2, shift or (0, 0))
        nums, den = pairings(gamma, rows, cols, shift)
        assert [[Fraction(n, den) for n in line] for line in nums] \
            == [[oracle_inner_product(f, g * right, gamma) for g in cols] for f in rows]
        # with `upper`, the entries below the diagonal are left 0
        nums, den = pairings(gamma, rows, rows, shift, upper=True)
        assert [[Fraction(n, den) for n in line] for line in nums] \
            == [[oracle_inner_product(f, g * right, gamma) if j >= i else 0
                 for j, g in enumerate(rows)] for i, f in enumerate(rows)]


def test_inner_product_symmetric_bilinear():
    rng = random.Random(31)
    g = ParamVector([H, 1, Fraction(1, 3)])
    for _ in range(20):
        f1 = Polynomial(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                            rng.randint(-4, 4) for _ in range(3)})
        f2 = Polynomial(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                            rng.randint(-4, 4) for _ in range(3)})
        f3 = Polynomial(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                            rng.randint(-4, 4) for _ in range(3)})
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert inner_product(f1, f2, g) == inner_product(f2, f1, g)
        assert inner_product(f1 + c * f3, f2, g) \
            == inner_product(f1, f2, g) + c * inner_product(f3, f2, g)


def test_monomial_gram_positive_definite():
    for gamma in (ParamVector([0, 0, 0]), ParamVector([H, 1, Fraction(1, 3)])):
        polys = [Polynomial.monomial(2, e) for e in monomials_up_to(2, 4)]
        matrix = [[inner_product(p, q, gamma) for q in polys] for p in polys]
        assert positive_definite(matrix)


def test_integral_requires_matching_dimension():
    with pytest.raises(ValueError):
        integral(Polynomial.variable(3, 0), ParamVector([0, 0, 0]))
