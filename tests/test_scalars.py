import random
from fractions import Fraction

import pytest

from sobolex.scalars import as_fraction, factorial, format_rational, parse_rational, pochhammer

from oracles import binomial


def test_pochhammer_values():
    assert pochhammer(Fraction(5), 0) == 1
    assert pochhammer(3, 2) == 12
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(-2, 3) == 0


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
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(6, 3)) == "2"
    assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


def test_as_fraction_rejects_floats():
    # a bool is an int to Python, but not an exact rational to the library
    for value in (0.5, True, False):
        with pytest.raises(TypeError):
            as_fraction(value)
