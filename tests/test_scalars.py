import random
from fractions import Fraction

import pytest

from sobolex.scalars import (as_fraction, factorial, parse_rational, pochhammer, rising,
                             zero_set)

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
