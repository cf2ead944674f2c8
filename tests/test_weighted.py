"""WeightedForm, the reference construction of the Rodrigues and permuted
elements that tests/oracles.py builds on."""

import random
from fractions import Fraction

import pytest

from sobolex.errors import NonPolynomialQuotient
from sobolex.polynomials import Polynomial
from sobolex.scalars import ParamVector
from sobolex.weighted import WeightedForm

H = Fraction(1, 2)


def test_derivative_product_rule():
    f = WeightedForm.single(2, 1, (1, 0), 1)  # x * (1-|x|)
    got = f.derivative(0)
    want = WeightedForm(2, {((Fraction(0), Fraction(0)), Fraction(1)): 1,
                            ((Fraction(1), Fraction(0)), Fraction(0)): -1})
    assert got == want
    const = WeightedForm.single(2, 7, (0, 0), 0)
    assert const.derivative(0).is_zero


def test_derivative_rational_exponent():
    f = WeightedForm.single(1, 1, (H,), 0)  # x^(1/2)
    got = f.derivative(0)
    assert got == WeightedForm.single(1, H, (-H,), 0)


def test_directional():
    xy = WeightedForm.single(2, 1, (1, 1), 0)
    got = xy.directional([(0, 1), (1, -1)])
    want = WeightedForm(2, {((Fraction(0), Fraction(1)), Fraction(0)): 1,
                            ((Fraction(1), Fraction(0)), Fraction(0)): -1})
    assert got == want
    y2 = WeightedForm.single(2, 1, (0, 2), 0)
    assert y2.directional([(1, -1)]) == WeightedForm.single(2, -2, (0, 1), 0)
    w = WeightedForm.single(2, 1, (0, 0), H)
    assert w.directional([(0, 1), (1, -1)]).is_zero


def test_derivatives_commute():
    rng = random.Random(21)
    for _ in range(30):
        form = WeightedForm(3, {
            (tuple(Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(3)),
             Fraction(rng.randint(0, 4))): rng.randint(-5, 5)
            for _ in range(3)})
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        assert form.derivative(a).derivative(b) == form.derivative(b).derivative(a)


def test_divide_by_weight():
    gamma = ParamVector([0, 0, 0])
    f = WeightedForm.single(2, 1, (1, 0), 1).derivative(0)
    assert f.divide_by_weight(gamma) == Polynomial(
        2, {(0, 0): 1, (1, 0): -2, (0, 1): -1})
    bad = WeightedForm.single(2, 1, (H, 0), 0)
    with pytest.raises(NonPolynomialQuotient):
        bad.divide_by_weight(gamma)
    neg = WeightedForm.single(2, 1, (0, 0), -1)
    with pytest.raises(NonPolynomialQuotient):
        neg.divide_by_weight(gamma)


def test_shift_differentiate_divide_degree():
    # the driven construction always lands on total degree |nu|, exactly
    rng = random.Random(22)
    for _ in range(20):
        d = rng.randint(1, 3)
        gamma = ParamVector([Fraction(rng.randint(0, 3), rng.randint(1, 2))
                             for _ in range(d + 1)])
        nu = tuple(rng.randint(0, 2) for _ in range(d))
        n = sum(nu)
        form = WeightedForm.single(
            d, 1, [g + k for g, k in zip(gamma, nu)], gamma.last + n)
        for axis, times in enumerate(nu):
            for _ in range(times):
                form = form.derivative(axis)
        assert form.divide_by_weight(gamma).degree() == n
