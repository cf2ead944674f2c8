import itertools
import random
from fractions import Fraction

import pytest

from sobolex.polynomials import (Polynomial, complement, monomial_polys,
                                 monomials_of_degree, monomials_up_to)

from oracles import evaluate


def rand_poly(rng: random.Random, dim: int, degree: int) -> Polynomial:
    terms = {}
    for exp in monomials_up_to(dim, degree):
        if rng.random() < 0.5:
            terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Polynomial(dim, terms)


X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


def test_ring_basics():
    assert X * X == Polynomial.monomial(2, (2, 0))
    f = 1 - 2 * X - Y
    assert f + Polynomial.zero(2) == f
    assert 2 * (X + Y) == 2 * X + 2 * Y
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
    with pytest.raises(ValueError):
        X + Polynomial.variable(3, 0)


def test_power_is_the_repeated_product():
    f = Polynomial(3, {(1, 0, 2): Fraction(-2, 3), (0, 1, 0): 1, (0, 0, 0): 5})
    want = Polynomial.constant(3, 1)
    for n in range(6):
        assert f ** n == want, n
        want = want * f
    with pytest.raises(ValueError, match="power must be an int >= 0"):
        f ** -1


def test_a_polynomial_equals_no_number():
    # __eq__ compares polynomials only: the constant 1 is no int 1
    assert (Polynomial.constant(2, 1) == 1) is False
    assert Polynomial.constant(2, 1) != 1


def test_repr_lists_the_terms_in_graded_lex_order():
    assert repr(Polynomial.zero(2)) == "Polynomial(0)"
    f = 3 * X * X * Y + Y - Fraction(1, 2)
    assert repr(f) == "Polynomial(-1/2 + 1*x1 + 3*x0^2*x1)"


def test_zero_terms_dropped():
    f = X - X
    assert f.is_zero and len(f) == 0 and f.degree() == -1


def test_partial_examples():
    assert (X * X * Y).partial(0) == 2 * X * Y
    assert X.partial(1).is_zero
    assert (1 - 2 * X - Y).partial(0) == Polynomial.constant(2, -2)
    with pytest.raises(ValueError):
        X.partial(2)


def test_mixed_partials_commute():
    rng = random.Random(7)
    for _ in range(30):
        f = rand_poly(rng, 3, 4)
        assert f.partial(0).partial(2) == f.partial(2).partial(0)


def test_degree_multiplicative():
    rng = random.Random(8)
    for _ in range(30):
        f = rand_poly(rng, 2, 3)
        g = rand_poly(rng, 2, 3)
        if f.is_zero or g.is_zero:
            continue
        assert (f * g).degree() == f.degree() + g.degree()


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(9)
    for _ in range(30):
        f = rand_poly(rng, 2, 3)
        g = rand_poly(rng, 2, 3)
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2)]
        assert evaluate(f * g, pt) == evaluate(f, pt) * evaluate(g, pt)
        assert evaluate(f + g, pt) == evaluate(f, pt) + evaluate(g, pt)


def test_permute():
    # a permutation of the variables is the pullback by that permutation
    f = X * Y * Y
    assert f.pullback((1, 0)) == X * X * Y
    assert f.pullback((0, 1)) == f
    rng = random.Random(10)
    for _ in range(20):
        g = rand_poly(rng, 3, 3)
        order = [0, 1, 2]
        rng.shuffle(order)
        inverse = [order.index(i) for i in range(3)]
        assert g.pullback(tuple(order)).pullback(tuple(inverse)) == g


def test_pullback_to_barycentric_coordinates():
    # u = (1-x-y, 0, y): the complement, a zeroed variable and a variable
    f = Polynomial.variable(3, 0) * 2 + Polynomial.variable(3, 2) ** 2 - Polynomial.variable(3, 1)
    assert f.pullback((2, None, 1), 2) == 2 * complement(2) + Y * Y
    # three slot coordinates pulled back to the triangle's y = (x, y, 1-x-y)
    assert f.pullback((0, 1, 2), 2) == 2 * X - Y + complement(2) ** 2
    assert f.pullback((None, None, None), 0) == Polynomial.zero(0)
    assert Polynomial.constant(1, 3).pullback((None,), 2) == Polynomial.constant(2, 3)


@pytest.mark.parametrize("targets, dim", [
    ((0, 1), None),          # too few targets
    ((0, 1, 4), None),       # past the complement index
    ((0, -1, 1), None),
    ((0, 1.0, 2), None),
    ((0, 1, 2), -1),
    ((0, 1, 2), 1.0),
])
def test_pullback_rejects_bad_targets(targets, dim):
    with pytest.raises(ValueError):
        Polynomial.variable(3, 0).pullback(targets, dim)


def test_restrict_simple_face():
    f = 1 - X - 2 * Y
    r = f.restrict({0})
    assert r == Polynomial(1, {(0,): 1, (1,): -2})


def test_restrict_hyperplane():
    w = complement(2)
    assert w.restrict({2}).is_zero
    c = Polynomial.constant(2, Fraction(5, 3))
    assert c.restrict({1}) == Polynomial.constant(1, Fraction(5, 3))
    assert c.restrict({1, 2}) == Polynomial.constant(0, Fraction(5, 3))
    # eliminating y means substituting y = 1 - x
    assert Y.restrict({2}) == Polynomial(1, {(0,): 1, (1,): -1})
    assert X.restrict({2}) == Polynomial.variable(1, 0)


def test_restrict_is_ring_homomorphism():
    rng = random.Random(11)
    for zeroed in ({0}, {2}, {1, 3}, {0, 3}):
        for _ in range(10):
            f = rand_poly(rng, 3, 3)
            g = rand_poly(rng, 3, 3)
            assert (f * g).restrict(zeroed) == f.restrict(zeroed) * g.restrict(zeroed)
            assert (f + g).restrict(zeroed) == f.restrict(zeroed) + g.restrict(zeroed)


def test_substitute_composition():
    f = Polynomial(1, {(0,): 1, (1,): -3, (2,): 2})
    g = Polynomial(1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    h = f.substitute(0, g)
    for t in (Fraction(0), Fraction(1, 3), Fraction(-2)):
        assert evaluate(h, [t]) == evaluate(f, [evaluate(g, [t])])


def test_sorted_terms_graded_lex():
    f = X * X + Y + X + Polynomial.constant(2, 1) + X * Y
    exps = [e for e, _ in f.sorted_terms()]
    assert exps == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]


def test_json_round_trip():
    rng = random.Random(12)
    for _ in range(10):
        f = rand_poly(rng, 3, 3)
        assert Polynomial.from_json(f.to_json()) == f


def test_monomial_enumeration():
    assert monomials_of_degree(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(monomials_up_to(3, 4)) == 35
    assert monomials_of_degree(0, 0) == [()]


def test_monomials_of_degree_are_lexicographic():
    # one degree, so lexicographic order is graded-lex order
    for d in range(1, 5):
        for n in range(-1, 6):
            want = sorted(e for e in itertools.product(range(n + 1), repeat=d) if sum(e) == n)
            assert monomials_of_degree(d, n) == want, (d, n)


def test_monomial_polys_is_one_cached_tuple_of_the_monomials():
    for d in range(1, 5):
        for m in range(-1, 5):
            got = monomial_polys(d, m)
            assert got == tuple(Polynomial.monomial(d, e) for e in monomials_up_to(d, m))
            assert monomial_polys(d, m) is got


def test_restrict_drops_one_variable_per_face_index():
    assert Polynomial.variable(2, 0).restrict({2}).dim == 1
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0).restrict({5})
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0).restrict({0, 1, 2})
    # True and 1.0 equal 1, but neither names a coordinate
    for zeroed in ({True}, {1.0}):
        with pytest.raises(ValueError, match="bad face index"):
            Polynomial.variable(2, 0).restrict(zeroed)


def _is_canonical(p: Polynomial) -> bool:
    return all(type(c) is Fraction and c and len(e) == p.dim
               and all(type(k) is int and k >= 0 for k in e)
               for e, c in p.items())


def test_ring_results_are_canonical():
    # the ring operations build their results without re-validation; each
    # must still hold int exponents and nonzero Fractions, and equal its
    # rebuild through the validating constructor
    rng = random.Random(13)
    for _ in range(20):
        f = rand_poly(rng, 3, 3)
        g = rand_poly(rng, 3, 2)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        results = [f + g, f - f, -f, f * g, f * c, c * f, f * 0,
                   f.partial(rng.randrange(3)), f.pullback((2, 0, 1))]
        results += [f.restrict(z) for z in ({0}, {3}, {1, 3}, {0, 1, 3}, {0, 1, 2})]
        for r in results:
            assert _is_canonical(r)
            assert Polynomial(r.dim, dict(r.items())) == r


def test_restrict_matches_evaluation_on_the_face():
    rng = random.Random(14)
    d = 3
    for zeroed in ({0}, {2}, {3}, {0, 3}, {1, 3}, {0, 1, 3}):
        survivors = [i for i in range(d) if i not in zeroed]
        keep = survivors[:-1] if d in zeroed else survivors
        for _ in range(5):
            f = rand_poly(rng, d, 4)
            r = f.restrict(zeroed)
            pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in keep]
            full = [Fraction(0)] * d
            for i, v in zip(keep, pt):
                full[i] = v
            if d in zeroed:
                full[survivors[-1]] = 1 - sum(pt)
            assert evaluate(r, pt) == evaluate(f, full)


@pytest.mark.parametrize("terms", [
    {(Fraction(3, 2), 0): 1},   # fractional exponent
    {(1.5, 0): 1},
    {(1.0, 0): 1},             # a float equal to an int
    {(True, 0): 1},            # boolean exponent
    {(False, 0): 1},
    {(Fraction(1), 0): 1},     # a Fraction equal to an int
    {("1", 0): 1},             # a string
    {(-1, 0): 1},
    {(1,): 1},                 # wrong length
    {(1, 0): 1.5},             # float coefficient
    {(1, 0): True},
    {(1, 0): None},
])
def test_constructor_rejects_inexact_terms(terms):
    with pytest.raises(ValueError):
        Polynomial(2, terms)


def test_constructor_rejects_bad_dimension():
    for dim in (-1, 1.0, True, "2"):
        with pytest.raises(ValueError):
            Polynomial(dim)


@pytest.mark.parametrize("data", [
    [1, 2], 3, "x", None,
    {"d": 2, "terms": {"exp": [1, 0], "coef": "1"}},
    {"d": 2, "terms": [[1, 0]]},
    {"d": 2, "terms": [{"exp": 1, "coef": "1"}]},
    {"d": 2, "terms": [{"exp": [1.5, 0], "coef": "1"}]},
    {"d": 2, "terms": [{"exp": [True, 0], "coef": "1"}]},
    {"d": 2, "terms": [{"exp": [1, 0], "coef": 1.5}]},
    {"d": 2, "terms": [{"exp": [1, 0], "coef": "one"}]},
    {"d": 2.0, "terms": []},
    {"terms": []},
    {"d": 2, "terms": [{"exp": [1, 0]}]},
])
def test_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        Polynomial.from_json(data)


def test_from_json_accepts_integer_coefficients():
    got = Polynomial.from_json({"d": 2, "terms": [{"exp": [1, 0], "coef": -3}]})
    assert got == -3 * X
