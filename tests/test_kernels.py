"""The closed-form kernels against the slow paths they replace."""

import random
from fractions import Fraction

import pytest

from sobolex.bases import (all_orders, eigencheck, monomial_element,
                           permuted_element, rodrigues_element)
from sobolex.errors import NonIntegrableWeight, ZeroDenominator
from sobolex.moments import inner_product, integral
from sobolex.polynomials import Polynomial, monomials_of_degree, monomials_up_to
from sobolex.weighted import ParamVector

from oracles import (oracle_eigencheck, oracle_inner_product,
                     oracle_monomial_element, oracle_normalized_moment)

H = Fraction(1, 2)
T = Fraction(1, 3)

# one generic weight and one with a trailing block of -1 entries per dimension
EIGEN_GAMMAS = [
    ParamVector([H, 2]), ParamVector([T, -1]),
    ParamVector([H, 1, T]), ParamVector([T, -1, -1]),
    ParamVector([1, H, 0, T]), ParamVector([H, T, -1, -1]),
]


def _elements(gamma: ParamVector, n: int):
    """Every Rodrigues, permuted and constructible monic element of degree n."""
    for nu in monomials_of_degree(gamma.d, n):
        yield rodrigues_element(gamma, nu)
        for order in all_orders(gamma.d):
            yield permuted_element(gamma, order, nu)
        try:
            yield monomial_element(gamma, nu)
        except ZeroDenominator:
            pass


@pytest.mark.parametrize("gamma", EIGEN_GAMMAS, ids=repr)
def test_eigencheck_agrees_with_applying_the_operator(gamma):
    rng = random.Random(str(gamma.entries))
    shift = gamma.total + gamma.d
    checked = rejected = 0
    for n in range(4):
        for p in _elements(gamma, n):
            assert eigencheck(gamma, p, n) is oracle_eigencheck(gamma, p, n) is True
            # a wrong degree is a wrong eigenvalue unless it coincides
            assert eigencheck(gamma, p, n + 1) is oracle_eigencheck(gamma, p, n + 1)
            # perturb one coefficient of the element (some permuted
            # elements vanish for -1 entries, so any degree <= n will do)
            a = rng.choice(monomials_up_to(gamma.d, n))
            tampered = p + Polynomial.monomial(gamma.d, a, Fraction(1, rng.randint(1, 5)))
            want = oracle_eigencheck(gamma, tampered, n)
            assert eigencheck(gamma, tampered, n) is want
            # only a perturbation that is itself an eigenmonomial goes unseen
            k = sum(a)
            assert want is ((n - k) * (n + k + shift) == 0
                            and all(e == 0 or e + g == 0 for e, g in zip(a, gamma.entries)))
            checked += 1
            rejected += not want
    assert rejected > checked // 2


def test_eigencheck_rejects_extra_lower_term():
    gamma = ParamVector([H, 1, T])
    p = rodrigues_element(gamma, (1, 2))
    for exp in monomials_up_to(2, 2):
        tampered = p + Polynomial.monomial(2, exp, 1)
        assert not oracle_eigencheck(gamma, tampered, 3)
        assert not eigencheck(gamma, tampered, 3)


def test_eigencheck_dimension_mismatch():
    with pytest.raises(ValueError):
        eigencheck(ParamVector([0, 0, 0]), Polynomial.variable(3, 0), 1)


def _random_poly(rng: random.Random, dim: int, degree: int) -> Polynomial:
    return Polynomial(dim, {exp: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                            for exp in monomials_up_to(dim, degree)
                            if rng.random() < 0.6})


def test_inner_product_equals_product_then_integrate():
    rng = random.Random(2718)
    for _ in range(60):
        d = rng.randint(1, 3)
        gamma = ParamVector([Fraction(rng.randint(-3, 12), 4) for _ in range(d + 1)])
        f = _random_poly(rng, d, rng.randint(0, 3))
        g = _random_poly(rng, d, rng.randint(0, 3))
        assert inner_product(f, g, gamma) == oracle_inner_product(f, g, gamma)


def test_inner_product_checks():
    g2 = ParamVector([0, 0, 0])
    with pytest.raises(ValueError):
        inner_product(Polynomial.variable(2, 0), Polynomial.variable(3, 0), g2)
    with pytest.raises(ValueError):
        inner_product(Polynomial.variable(3, 0), Polynomial.variable(3, 0), g2)
    with pytest.raises(NonIntegrableWeight):
        inner_product(Polynomial.variable(2, 0), Polynomial.zero(2),
                      ParamVector([0, -1, 0]))
    assert inner_product(Polynomial.zero(2), Polynomial.variable(2, 1), g2) == 0


def test_integral_matches_oracle_moments():
    rng = random.Random(1414)
    for _ in range(30):
        d = rng.randint(1, 3)
        gamma = tuple(rng.randint(0, 3) for _ in range(d + 1))
        f = _random_poly(rng, d, 4)
        want = sum((c * oracle_normalized_moment(gamma, exp + (0,))
                    for exp, c in f.items()), Fraction(0))
        assert integral(f, ParamVector(gamma)) == want


def test_monomial_element_matches_oracle():
    # several vanishing (g_i+1)_{m_i} at once fix which one the error names
    gammas = EIGEN_GAMMAS + [ParamVector([0, -1]), ParamVector([-1, 0, 0]),
                             ParamVector([0, -2, 0]), ParamVector([-1, -2, H]),
                             ParamVector([-3, -2, H]), ParamVector([-1, -2, H, 1])]
    for gamma in gammas:
        for n in range(5):
            for nu in monomials_of_degree(gamma.d, n):
                try:
                    want = oracle_monomial_element(gamma, nu)
                except ZeroDenominator as exc:
                    with pytest.raises(ZeroDenominator) as got:
                        monomial_element(gamma, nu)
                    assert str(got.value) == str(exc)
                    continue
                assert monomial_element(gamma, nu) == want
