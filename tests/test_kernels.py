"""The closed-form kernels against the slow paths of `oracles` that they replace."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from sobolex import bases
from sobolex.bases import (eigen_residual, eigencheck, eigenvalue, monomial_element,
                           permuted_basis, permuted_element, rodrigues_basis,
                           rodrigues_element)
from sobolex.errors import NonIntegrableWeight, ZeroDenominator
from sobolex.moments import inner_product, integral
from sobolex.polynomials import Polynomial, monomials_of_degree, monomials_up_to
from sobolex.scalars import ParamVector

from oracles import (apply_operator, oracle_eigencheck, oracle_inner_product,
                     oracle_monomial_element, oracle_normalized_moment,
                     oracle_permuted_element, oracle_rodrigues_element)

H = Fraction(1, 2)
T = Fraction(1, 3)

# one generic weight and one with a trailing block of -1 entries per dimension
EIGEN_GAMMAS = [
    ParamVector([H, 2]), ParamVector([T, -1]),
    ParamVector([H, 1, T]), ParamVector([T, -1, -1]),
    ParamVector([1, H, 0, T]), ParamVector([H, T, -1, -1]),
]


def _elements(gamma: ParamVector, n: int):
    """Every Rodrigues, permuted and monic element of degree n."""
    for nu in monomials_of_degree(gamma.d, n):
        yield rodrigues_element(gamma, nu)
        for order in itertools.permutations(range(gamma.d + 1), gamma.d):
            yield permuted_element(gamma, order, nu)
        yield monomial_element(gamma, nu)


@pytest.mark.parametrize("gamma", EIGEN_GAMMAS, ids=repr)
def test_eigencheck_agrees_with_applying_the_operator(gamma):
    rng = random.Random(str(tuple(gamma)))
    shift = sum(gamma) + gamma.d
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
                            and all(e == 0 or e + g == 0 for e, g in zip(a, gamma)))
            checked += 1
            rejected += not want
    assert rejected > checked // 2
    # the residual itself, under random weights of every d <= 4, many not integrable
    for _ in range(50):
        g = ParamVector([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(rng.randint(2, 5))])
        f, n = _random_poly(rng, g.d, rng.randint(0, 4)), rng.randint(0, 4)
        image = apply_operator(g, f)
        assert eigen_residual(g, f, n) == image - eigenvalue(g, n) * f
        assert eigen_residual(g, f, 0) == image


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
        inner_product(Polynomial.variable(2, 0), Polynomial(2),
                      ParamVector([0, -1, 0]))
    assert inner_product(Polynomial(2), Polynomial.variable(2, 1), g2) == 0


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
    # weights where (g_i+1)_{m_i} or (s)_{2n} vanishes but no two eigenvalues
    # of degree <= 4 meet, and weights where lambda_m = lambda_n for some m < n
    gammas = EIGEN_GAMMAS + [ParamVector([0, -1]), ParamVector([-1, 0, 0]),
                             ParamVector([0, -2, 0]), ParamVector([-1, -2, H]),
                             ParamVector([-3, -2, H]), ParamVector([-1, -2, H, 1]),
                             ParamVector([0, -2]), ParamVector([-1, -1]), ParamVector([-1, -1, -1]),
                             ParamVector([-2, -2, -1]), ParamVector([-3, 0, -1, -1])]
    refused = 0
    for gamma in gammas:
        for n in range(5):
            for nu in monomials_of_degree(gamma.d, n):
                try:
                    want = oracle_monomial_element(gamma, nu)
                except ZeroDenominator as exc:
                    with pytest.raises(ZeroDenominator) as got:
                        monomial_element(gamma, nu)
                    assert str(got.value) == str(exc)
                    refused += 1
                    continue
                assert monomial_element(gamma, nu) == want
    assert refused


# Weights for the construction grid: generic ones with mixed denominators, and
# -1 entries in trailing and in non-trailing positions.
CONSTRUCTION_GAMMAS = [
    ParamVector([H, 2]), ParamVector([T, -1]), ParamVector([-1, Fraction(2, 5)]),
    ParamVector([-1, -1]),
    ParamVector([H, 1, T]), ParamVector([T, -1, -1]), ParamVector([-1, H, Fraction(3, 4)]),
    ParamVector([Fraction(2, 3), -1, Fraction(5, 7)]), ParamVector([-1, -1, -1]),
    ParamVector([1, H, 0, T]), ParamVector([H, T, -1, -1]),
    ParamVector([-1, Fraction(2, 3), Fraction(1, 4), Fraction(6, 5)]),
    ParamVector([H, -1, T, -1]),
]
MAX_DEGREE = {1: 6, 2: 6, 3: 4}


@lru_cache(maxsize=None)
def _oracle_json(gamma: ParamVector, order, nu) -> dict:
    """The engine's element as JSON; order None is the Rodrigues element."""
    if order is None:
        return oracle_rodrigues_element(gamma, nu).to_json()
    return oracle_permuted_element(gamma, order, nu).to_json()


def _basis_json(label: str, gamma: ParamVector, order, n: int) -> dict:
    return {"family": label, "d": gamma.d, "gamma": gamma.to_json(),
            "elements": [{"key": list(nu), "poly": _oracle_json(gamma, order, nu)}
                         for nu in monomials_of_degree(gamma.d, n)]}


@pytest.mark.parametrize("gamma", CONSTRUCTION_GAMMAS, ids=repr)
def test_construction_matches_the_weighted_form_engine(gamma):
    d = gamma.d
    for n in range(MAX_DEGREE[d] + 1):
        for nu in monomials_of_degree(d, n):
            assert rodrigues_element(gamma, nu).to_json() == _oracle_json(gamma, None, nu)
            for order in itertools.permutations(range(d + 1), d):
                assert permuted_element(gamma, order, nu).to_json() \
                    == _oracle_json(gamma, order, nu)
        assert rodrigues_basis(gamma, n).to_json() == _basis_json("rodrigue", gamma, None, n)
        for order in itertools.permutations(range(d + 1), d):
            label = "permuted[" + ",".join(map(str, order)) + "]"
            assert permuted_basis(gamma, order, n).to_json() \
                == _basis_json(label, gamma, order, n)


def test_tampered_construction_is_caught(monkeypatch):
    """One coefficient of the kernel's output plus 1: the engine comparison
    sees it at every weight, and eigencheck sees it at every degree >= 1 when
    every weight entry is > -1."""
    rng = random.Random(31)
    kernel = bases._leibniz_element

    def tampered(gamma, order, c, nu):
        p = kernel(gamma, order, c, nu)
        exp = rng.choice(sorted(e for e, _ in p.items()) or [(0,) * gamma.d])
        return p + Polynomial.monomial(gamma.d, exp, 1)

    monkeypatch.setattr(bases, "_leibniz_element", tampered)
    caught = 0
    for gamma in CONSTRUCTION_GAMMAS:
        for n in range(4):
            for nu in monomials_of_degree(gamma.d, n):
                built = [(None, rodrigues_element(gamma, nu))]
                built += [(order, permuted_element(gamma, order, nu))
                          for order in itertools.permutations(range(gamma.d + 1), gamma.d)]
                for order, p in built:
                    assert p.to_json() != _oracle_json(gamma, order, nu)
                    if n and min(gamma) > -1:
                        assert not eigencheck(gamma, p, n)
                        caught += 1
    assert caught > 500
