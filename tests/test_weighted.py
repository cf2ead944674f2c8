"""ParamVector and face_params, and WeightedForm, the reference construction
of the Rodrigues and permuted elements that tests/oracles.py builds on."""

import random
from fractions import Fraction

import pytest

from sobolex.errors import NonPolynomialQuotient
from sobolex.polynomials import Polynomial
from sobolex.scalars import ParamVector, face_params
from sobolex.weighted import WeightedForm

H = Fraction(1, 2)


def test_param_vector_basics():
    g = ParamVector(["1/2", -1, 0])
    assert g.d == 2
    assert g.total == -H
    assert g.entries == (H, -1, 0)
    assert [i for i, v in enumerate(g.entries) if v == -1] == [1]
    assert not g.is_integrable
    assert ParamVector([0, 0]).is_integrable
    assert g.shifted([0, 2, 1]) == ParamVector([H, 1, 1])
    assert g.with_values({1: 5}) == ParamVector([H, 5, 0])
    with pytest.raises(ValueError):
        ParamVector([1])
    with pytest.raises(TypeError):  # not ParamVector(1,0,0)
        ParamVector([True, False, 0])


@pytest.mark.parametrize("entries, split", [
    # a trailing block of k = 1..d+1 entries -1, at d = 1 and d = 3
    ([H, -1], ((H,), 1)),
    ([-1, -1], ((), 2)),
    ([H, 0, 2, -1], ((H, 0, 2), 1)),
    ([H, 0, -1, -1], ((H, 0), 2)),
    ([H, -1, -1, -1], ((H,), 3)),
    ([-1, -1, -1, -1], ((), 4)),
    # no -1 at all: k = 0 is not a singular weight
    ([H, 2], "needs a trailing block of -1 entries"),
    ([H, 0, 2, 1], "needs a trailing block of -1 entries"),
    # a -1 outside the trailing block
    ([0, -1, 0], "must form a trailing block"),
    ([-1, 0, -1], "must form a trailing block"),
    # an entry below -1, inside or next to a trailing block, or after a -1
    # that is not trailing: the entry below -1 is the fault named
    ([0, 0, Fraction(-3, 2)], "below -1"),
    ([Fraction(-3, 2), -1, -1], "below -1"),
    ([0, -1, -2], "below -1"),
])
def test_singular_split(entries, split):
    gamma = ParamVector(entries)
    if isinstance(split, str):
        with pytest.raises(ValueError, match=split):
            gamma.singular_split()
    else:
        assert gamma.singular_split() == split


def test_face_params_plain():
    g = ParamVector([1, 2, 3, 4])
    assert face_params(g, {1}) == ParamVector([1, 3, 4])
    assert face_params(g, {0, 2}) == ParamVector([2, 4])


def test_face_params_hyperplane():
    g = ParamVector([1, 2, 3, 4])
    # zeroing the hyperplane eliminates the highest surviving coordinate
    assert face_params(g, {3}) == ParamVector([1, 2, 3])
    assert face_params(g, {0, 3}) == ParamVector([2, 3])
    with pytest.raises(ValueError):
        face_params(g, set())
    with pytest.raises(ValueError, match="bad face index"):
        face_params(g, [True])


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
            d, 1, [g + k for g, k in zip(gamma.entries, nu)], gamma.last + n)
        for axis, times in enumerate(nu):
            for _ in range(times):
                form = form.derivative(axis)
        assert form.divide_by_weight(gamma).degree() == n
