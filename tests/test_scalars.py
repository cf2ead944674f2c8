import math
import random
from fractions import Fraction

import pytest

from sobolex.bases import (eigencheck, eigenvalue, jacobi_negative_one_beta,
                           jacobi_negative_one_one, permuted_element, rodrigues_element)
from sobolex.moments import vertex_eval
from sobolex.polynomials import (Polynomial, complement_power, monomial_polys, monomials_of_degree,
                                 monomials_up_to)
from sobolex.products import DerivativeProduct, SingularProduct
from sobolex.scalars import (ParamVector, as_fraction, factorial, is_index, parse_rational,
                             pochhammer, rising, zero_set)
from sobolex.spaces import expected_dimension, u_space, verify_u_space
from sobolex.suites import run_suite

from oracles import binomial


def test_pochhammer_values():
    assert pochhammer(Fraction(5), 0) == 1
    assert pochhammer(3, 2) == 12
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(-2, 3) == 0


def test_rising_is_its_definition():
    # a -1 weight entry gives start 0, and start + i * step crosses zero
    for step in (1, 2, 6):
        for start in range(-13, 14):
            for k in range(8):
                want = 1
                for i in range(k):
                    want *= start + i * step
                assert rising(start, step, k) == want, (start, step, k)


def test_pochhammer_is_a_fraction_product():
    for a in (Fraction(-3, 2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(5, 2)):
        for k in range(8):
            want = Fraction(1)
            for j in range(k):
                want *= a + j
            got = pochhammer(a, k)
            assert type(got) is Fraction and got == want, (a, k)
    assert pochhammer("1/3", 2) == Fraction(4, 9)
    with pytest.raises(ValueError):
        pochhammer(Fraction(1, 3), -1)


def test_pochhammer_composition():
    rng = random.Random(1309)
    for _ in range(200):
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        j = rng.randint(0, 6)
        k = rng.randint(0, 6)
        assert pochhammer(a, j + k) == pochhammer(a, j) * pochhammer(a + j, k)


def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(7, 0) == 1
    assert binomial(2, 3) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_factorial():
    assert factorial(0) == 1
    assert factorial(5) == 120


def test_rational_round_trip():
    assert parse_rational("-2/4") == Fraction(-1, 2)
    # every rational the library prints is str() of a Fraction
    assert parse_rational(str(Fraction(-22, 7))) == Fraction(-22, 7)


def test_as_fraction_rejects_floats():
    # a bool is an int to Python, but not an exact rational to the library
    for value in (0.5, True, False):
        with pytest.raises(TypeError):
            as_fraction(value)


def test_zero_set_takes_only_ints_in_range():
    # True == 1 == 1.0 == Fraction(1), so each would pass as the index 1
    assert zero_set([2, 0, 2], 2) == frozenset({0, 2})
    for zeroed in ([True], [0, 1.0], [Fraction(1)], [-1], [3], ["0"]):
        with pytest.raises(ValueError, match="bad face index"):
            zero_set(zeroed, 2)


def test_is_index_takes_exactly_the_ints_in_range():
    assert [v for v in range(-3, 6) if is_index(v, 0, 2)] == [0, 1, 2]
    assert is_index(10 ** 30, 1) and is_index(-7, -math.inf)
    # True == 1 == 1.0 == Fraction(1), yet none of them is an index
    for value in (True, False, 1.0, Fraction(1), "1", None):
        assert not is_index(value, 0, 2), value


ONE_VAR = Polynomial.variable(2, 0)
FLAT = ParamVector([0, 0, 0])

# each entry point that takes an index, exponent, degree or dimension (at
# d = 2), the message of its own guard, and the values it must refuse: a bool
# and a float always, the low bound - 1 and the high bound + 1 where it has one
INDEX_GUARDS = [
    ("Polynomial dim", lambda v: Polynomial(v), "dimension must be", (True, 1.0, -1)),
    ("constant dim", lambda v: Polynomial.constant(v, 1), "dimension must be", (True, 1.0, -1)),
    ("Polynomial exponent", lambda v: Polynomial(2, {(v, 0): 1}), "bad exponent",
     (True, 1.0, -1)),
    ("variable", lambda v: Polynomial.variable(2, v), "axis", (True, 1.0, -1, 2)),
    ("partial", lambda v: ONE_VAR.partial(v), "axis", (True, 1.0, -1, 2)),
    ("substitute", lambda v: ONE_VAR.substitute(v, ONE_VAR), "axis", (True, 1.0, -1, 2)),
    ("pullback dim", lambda v: ONE_VAR.pullback((0, 1), v), "bad targets", (True, 1.0, -1)),
    ("pullback target", lambda v: ONE_VAR.pullback((v, 0)), "bad targets", (True, 1.0, -1, 3)),
    ("power", lambda v: ONE_VAR ** v, "power", (True, 1.0, -1)),
    ("zero_set", lambda v: zero_set([v], 2), "bad face index", (True, 1.0, -1, 3)),
    ("with_values", lambda v: FLAT.with_values({v: 5}), "bad entry ind", (True, 1.0, -1, 3)),
    ("multi-index", lambda v: rodrigues_element(FLAT, (v, 0)), "bad multi-index",
     (True, 1.0, -1)),
    ("permuted order", lambda v: permuted_element(FLAT, (v, 2), (1, 0)),
     "bad coordinate order", (True, 1.0, -1, 3)),
    ("key axis", lambda v: DerivativeProduct(FLAT, 1, {frozenset({v}): 2}), "key",
     (True, 1.0, -1, 2)),
    ("derivative order", lambda v: DerivativeProduct(FLAT, v), "order must lie in",
     (True, 1.0, 0, 3)),
    ("vertex_eval", lambda v: vertex_eval(ONE_VAR, v), "vertex index", (True, 1.0, -1, 3)),
    ("eigenvalue", lambda v: eigenvalue(FLAT, v), "degree", (True, 1.0, -1)),
    ("eigencheck", lambda v: eigencheck(FLAT, ONE_VAR, v), "degree", (True, 1.0, -1)),
    ("pochhammer", lambda v: pochhammer(Fraction(1, 3), v), "pochhammer", (True, 1.0, -1)),
    ("factorial", lambda v: factorial(v), "factorial needs", (True, 1.0, -1)),
    ("jacobi_negative_one_beta", lambda v: jacobi_negative_one_beta(v, 0), "bad degree",
     (True, 1.0, -1)),
    ("jacobi_negative_one_one", lambda v: jacobi_negative_one_one(v), "bad degree",
     (True, 1.0, 0.0, -1)),
    ("expected_dimension dim", lambda v: expected_dimension(v, 2), "expected_dimension needs",
     (True, 1.0, 0)),
    ("expected_dimension n", lambda v: expected_dimension(2, v), "expected_dimension needs",
     (True, 1.0, -1)),
    ("monomials_of_degree dim", lambda v: monomials_of_degree(v, 2), "dimension",
     (True, 1.0, -1)),
    # a negative degree has no monomials
    ("monomials_of_degree degree", lambda v: monomials_of_degree(2, v), "degree", (True, 1.0)),
    ("monomials_up_to dim", lambda v: monomials_up_to(v, 2), "dimension", (True, 1.0, -1)),
    ("monomials_up_to degree", lambda v: monomials_up_to(2, v), "degree", (True, 1.0)),
    ("verify_u_space", lambda v: verify_u_space(SingularProduct(ParamVector([0, 0, -1])), v),
     "n must be", (True, 1.0, -1)),
    # a negative degree has an empty eigenspace
    ("u_space", lambda v: u_space(SingularProduct(ParamVector([0, 0, -1])), v), "n must be",
     (True, 1.0)),
    ("run_suite d", lambda v: run_suite("rodrigue", v, 1), "does not run at", (True, 1.0, 0)),
    ("run_suite n_max", lambda v: run_suite("rodrigue", 2, v), "n_max must be",
     (True, 1.0, -1)),
]


@pytest.mark.parametrize("call, message, values", [row[1:] for row in INDEX_GUARDS],
                         ids=[row[0] for row in INDEX_GUARDS])
def test_every_index_guard_refuses_a_bool_a_float_and_out_of_range(call, message, values):
    for value in values:
        with pytest.raises(ValueError, match=message):
            call(value)


def test_a_negative_degree_has_an_empty_eigenspace():
    assert u_space(SingularProduct(ParamVector([0, 0, -1])), -1).elements == []


def test_a_cache_keyed_by_an_int_refuses_a_bool_or_a_float():
    # True == 1 == 1.0 and all three hash alike, so a cache warmed with 1 that
    # keyed them alike would answer True and 1.0 from the entry of 1
    for cached in (monomial_polys, complement_power):
        cached(1, 1)
        for args in ((True, 1), (1.0, 1), (1, True), (1, 1.0)):
            with pytest.raises(ValueError):
                cached(*args)
